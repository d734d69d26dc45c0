//! Property-based tests: the BDD engine against truth-table reference
//! semantics, plus the algebraic laws the symbolic algorithms rely on.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stgcheck_bdd::{Bdd, BddCheckpoint, BddManager, BddOps, BoolExpr, Literal, Var};

const NVARS: usize = 6;

/// Strategy for random boolean expressions over `x0..x{NVARS-1}`.
fn arb_expr() -> impl Strategy<Value = BoolExpr> {
    let leaf = prop_oneof![
        (0..NVARS).prop_map(|i| BoolExpr::Var(format!("x{i}"))),
        any::<bool>().prop_map(BoolExpr::Const),
    ];
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| BoolExpr::Not(Box::new(e))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolExpr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolExpr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolExpr::Imp(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| BoolExpr::Iff(Box::new(a), Box::new(b))),
        ]
    })
}

/// Builds a manager with `NVARS` variables and compiles `e` into it.
fn compile(e: &BoolExpr) -> (BddManager, Bdd) {
    let mut m = BddManager::new();
    let vars = m.new_vars("x", NVARS);
    let f = e.to_bdd(&mut m, &|name| {
        let idx: usize = name[1..].parse().ok()?;
        vars.get(idx).copied()
    });
    (m, f)
}

fn assignment_from_bits(bits: u32) -> Vec<bool> {
    (0..NVARS).map(|i| bits & (1 << i) != 0).collect()
}

/// Test-only reference for reordering: rebuilds `roots` of `m` into a
/// fresh manager by Shannon expansion with `var`, `and` and `or`, with
/// the variables declared in `m`'s current order, so that the copy's
/// variable `k` is the one at level `k` of `m`. Read the copies through
/// [`by_level`] assignments.
fn rebuild_in_current_order(m: &BddManager, roots: &[Bdd]) -> (BddManager, Vec<Bdd>) {
    fn transfer(
        src: &BddManager,
        dst: &mut BddManager,
        image: &[Var],
        f: Bdd,
        memo: &mut HashMap<Bdd, Bdd>,
    ) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let lo = transfer(src, dst, image, src.low(f), memo);
        let hi = transfer(src, dst, image, src.high(f), memo);
        let v = image[src.root_var(f).index()];
        let (x, nx) = (dst.var(v), dst.nvar(v));
        let then = dst.and(x, hi);
        let other = dst.and(nx, lo);
        let r = dst.or(then, other);
        memo.insert(f, r);
        r
    }
    let mut dst = BddManager::new();
    let mut image = vec![Var::from_index(0); m.num_vars()];
    for v in m.order() {
        image[v.index()] = dst.new_var(m.var_name(v));
    }
    let mut memo = HashMap::new();
    let copies = roots.iter().map(|&r| transfer(m, &mut dst, &image, r, &mut memo)).collect();
    (dst, copies)
}

/// The assignment `a` (indexed by variable) re-indexed by `m`'s levels,
/// as the copies of [`rebuild_in_current_order`] read it.
fn by_level(m: &BddManager, a: &[bool]) -> Vec<bool> {
    m.order().iter().map(|v| a[v.index()]).collect()
}

/// Every node-creating [`BddOps`] operation once, on operands `f`, `g`,
/// `h` and the variable mask `mask`, through whichever instantiation `m`
/// selects. Generic so that one script runs on `&BddManager` (atomic
/// stores) and on `BddManager` reached through `&mut` (plain stores).
fn op_script<M: BddOps>(m: &mut M, f: Bdd, g: Bdd, h: Bdd, mask: u32) -> Vec<Bdd> {
    let vars: Vec<Var> = (0..NVARS).filter(|i| mask & (1 << i) != 0).map(Var::from_index).collect();
    let lits: Vec<Literal> =
        vars.iter().enumerate().map(|(i, &v)| Literal::new(v, i % 2 == 0)).collect();
    let q = m.vars_cube(&vars);
    let cube = m.cube(&lits);
    vec![
        m.and(f, g),
        m.or(f, g),
        m.xor(f, g),
        m.diff(f, g),
        m.implies(f, g),
        m.iff(f, g),
        m.and_many(&[f, g, h]),
        m.or_many(&[f, g, h]),
        q,
        cube,
        m.cofactor_cube(f, cube),
        m.exists(f, q),
        m.forall(f, q),
        m.flip_cube(f, cube, false),
        m.flip_cube(g, cube, true),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled BDD agrees with direct expression evaluation on every
    /// assignment.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let (m, f) = compile(&e);
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            let expected = e.eval(&|name| {
                let idx: usize = name[1..].parse().ok()?;
                a.get(idx).copied()
            });
            prop_assert_eq!(m.eval(f, &a), expected);
        }
    }

    /// sat_count equals brute-force model counting.
    #[test]
    fn sat_count_matches_enumeration(e in arb_expr()) {
        let (m, f) = compile(&e);
        let mut expected = 0u128;
        for bits in 0..(1u32 << NVARS) {
            if m.eval(f, &assignment_from_bits(bits)) {
                expected += 1;
            }
        }
        prop_assert_eq!(m.sat_count(f), expected);
    }

    /// ∃x.f ≡ f|x=0 ∨ f|x=1 and ∀x.f ≡ f|x=0 ∧ f|x=1, for every variable.
    #[test]
    fn quantifier_shannon_laws(e in arb_expr(), vi in 0..NVARS) {
        let (mut m, f) = compile(&e);
        let v = Var::from_index(vi);
        let c = m.vars_cube(&[v]);
        let f0 = m.restrict(f, v, false);
        let f1 = m.restrict(f, v, true);
        let ex = m.exists(f, c);
        let ex_expected = m.or(f0, f1);
        prop_assert_eq!(ex, ex_expected);
        let fa = m.forall(f, c);
        let fa_expected = m.and(f0, f1);
        prop_assert_eq!(fa, fa_expected);
    }

    /// Cofactor by a cube equals iterated single-variable restriction.
    #[test]
    fn cube_cofactor_is_iterated_restrict(e in arb_expr(), mask in 0u32..(1 << NVARS), pol in 0u32..(1 << NVARS)) {
        let (mut m, f) = compile(&e);
        let lits: Vec<Literal> = (0..NVARS)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| Literal::new(Var::from_index(i), pol & (1 << i) != 0))
            .collect();
        let cube = m.cube(&lits);
        let via_cube = m.cofactor_cube(f, cube);
        let mut acc = f;
        for l in &lits {
            acc = m.restrict(acc, l.var(), l.is_positive());
        }
        prop_assert_eq!(via_cube, acc);
    }

    /// Permuting the levels in place to a random order installs exactly
    /// that order, keeps every handle and its truth table, and keeps the
    /// invariants; an order of the wrong length or with a repeated
    /// variable panics.
    #[test]
    fn reorder_preserves_semantics(e1 in arb_expr(), e2 in arb_expr(), perm in Just(()).prop_perturb(|_, mut rng| {
        let mut p: Vec<usize> = (0..NVARS).collect();
        for i in (1..NVARS).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            p.swap(i, j);
        }
        p
    }), cut in 0..NVARS) {
        let (mut m, f) = compile(&e1);
        let vars: Vec<Var> = (0..NVARS).map(Var::from_index).collect();
        let g = e2.to_bdd(&mut m, &|name| {
            let idx: usize = name[1..].parse().ok()?;
            vars.get(idx).copied()
        });
        let roots = [f, m.not(f), g];
        let tables: Vec<Vec<bool>> = roots
            .iter()
            .map(|&r| (0..1u32 << NVARS).map(|b| m.eval(r, &assignment_from_bits(b))).collect())
            .collect();
        let order: Vec<Var> = perm.into_iter().map(Var::from_index).collect();
        m.permute_levels(&order);
        prop_assert_eq!(m.order(), order.clone());
        m.check_invariants();
        for (&r, table) in roots.iter().zip(&tables) {
            for bits in 0..(1u32 << NVARS) {
                prop_assert_eq!(m.eval(r, &assignment_from_bits(bits)), table[bits as usize]);
            }
        }
        // The kept handles survive a collection under the new order.
        m.gc(&roots);
        m.check_invariants();
        prop_assert_eq!(m.not(roots[0]), roots[1]);
        let truncated = order[..cut].to_vec();
        let mut repeated = order.clone();
        repeated[cut] = order[(cut + 1) % NVARS];
        for bad in [truncated, repeated] {
            let mut fresh = BddManager::new();
            fresh.new_vars("x", NVARS);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fresh.permute_levels(&bad);
            }));
            prop_assert!(outcome.is_err(), "order {:?} was accepted", bad);
        }
    }

    /// GC never changes kept functions.
    #[test]
    fn gc_preserves_roots(e1 in arb_expr(), e2 in arb_expr()) {
        let (mut m, _) = compile(&e1);
        let vars: Vec<Var> = (0..NVARS).map(Var::from_index).collect();
        let resolve = |name: &str| -> Option<Var> {
            let idx: usize = name[1..].parse().ok()?;
            vars.get(idx).copied()
        };
        let f = e1.to_bdd(&mut m, &resolve);
        let _garbage = e2.to_bdd(&mut m, &resolve);
        let count_before = m.sat_count(f);
        let size_before = m.size(f);
        m.gc(&[f]);
        m.check_invariants();
        prop_assert_eq!(m.sat_count(f), count_before);
        prop_assert_eq!(m.size(f), size_before);
        // Rebuilding the same function after GC yields the same handle.
        let f2 = e1.to_bdd(&mut m, &resolve);
        prop_assert_eq!(f, f2);
    }

    /// An adjacent-level swap preserves every root's semantics, keeps the
    /// invariants, and never loses the peak high-water mark.
    #[test]
    fn swap_levels_preserves_semantics(e in arb_expr(), l in 0..NVARS - 1) {
        let (mut m, f) = compile(&e);
        let peak_before = m.peak_live_nodes();
        m.swap_levels(l);
        m.check_invariants();
        prop_assert!(m.peak_live_nodes() >= peak_before);
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            let expected = e.eval(&|name| {
                let idx: usize = name[1..].parse().ok()?;
                a.get(idx).copied()
            });
            prop_assert_eq!(m.eval(f, &a), expected);
        }
        // A second swap of the same levels restores the original order.
        let order_after_one = m.order();
        m.swap_levels(l);
        m.check_invariants();
        prop_assert_ne!(m.order(), order_after_one);
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            prop_assert_eq!(m.eval(f, &a), e.eval(&|name| {
                let idx: usize = name[1..].parse().ok()?;
                a.get(idx).copied()
            }));
        }
    }

    /// In-place sifting preserves the root handle and its semantics, and
    /// the result agrees with a semantic rebuild under the sifted order
    /// (the test-only [`rebuild_in_current_order`]): same size (i.e. the
    /// in-place graph is canonical for that order) and the same function.
    #[test]
    fn sift_agrees_with_rebuild_with_order(e in arb_expr()) {
        let (mut m, f) = compile(&e);
        let peak_before = m.peak_live_nodes();
        let stats = m.sift(&[f]);
        m.check_invariants();
        prop_assert!(m.peak_live_nodes() >= peak_before);
        prop_assert_eq!(stats.nodes_after, m.live_nodes());
        // Nothing dead survives a sift: its internal refcounting reclaims
        // orphans eagerly.
        prop_assert_eq!(m.gc(&[f]), 0);
        let (mut m2, roots) = rebuild_in_current_order(&m, &[f]);
        m2.check_invariants();
        prop_assert_eq!(m2.size(roots[0]), m.size(f));
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            let expected = e.eval(&|name| {
                let idx: usize = name[1..].parse().ok()?;
                a.get(idx).copied()
            });
            prop_assert_eq!(m.eval(f, &a), expected);
            prop_assert_eq!(m2.eval(roots[0], &by_level(&m, &a)), expected);
        }
    }

    /// Grouped sifting keeps every declared pair at adjacent levels and
    /// still preserves semantics on multiple simultaneous roots.
    #[test]
    fn grouped_sift_preserves_blocks_and_roots(e1 in arb_expr(), e2 in arb_expr()) {
        let (mut m, _) = compile(&e1);
        let vars: Vec<Var> = (0..NVARS).map(Var::from_index).collect();
        let resolve = |name: &str| -> Option<Var> {
            let idx: usize = name[1..].parse().ok()?;
            vars.get(idx).copied()
        };
        let f = e1.to_bdd(&mut m, &resolve);
        let g = e2.to_bdd(&mut m, &resolve);
        let groups: Vec<Vec<Var>> = vars.chunks(2).map(<[Var]>::to_vec).collect();
        m.set_var_groups(groups.clone());
        m.sift(&[f, g]);
        m.check_invariants();
        for pair in &groups {
            prop_assert_eq!(m.level_of(pair[0]).abs_diff(m.level_of(pair[1])), 1);
        }
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            let ef = e1.eval(&|name| {
                let idx: usize = name[1..].parse().ok()?;
                a.get(idx).copied()
            });
            let eg = e2.eval(&|name| {
                let idx: usize = name[1..].parse().ok()?;
                a.get(idx).copied()
            });
            prop_assert_eq!(m.eval(f, &a), ef);
            prop_assert_eq!(m.eval(g, &a), eg);
        }
    }

    /// Complement edges: negation is an involution with *zero* arena
    /// growth — no node is created, the peak never moves, and `¬f` shares
    /// every node with `f` — while still complementing the truth table
    /// and the model count exactly.
    #[test]
    fn double_negation_is_free(e in arb_expr()) {
        let (mut m, f) = compile(&e);
        let live = m.live_nodes();
        let peak = m.peak_live_nodes();
        let nf = m.not(f);
        prop_assert_eq!(m.not(nf), f);
        prop_assert_eq!(m.live_nodes(), live, "not() must not create nodes");
        prop_assert_eq!(m.peak_live_nodes(), peak, "not() must not move the peak");
        prop_assert_eq!(m.size(nf), m.size(f), "f and ¬f must share every node");
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            prop_assert_eq!(m.eval(nf, &a), !m.eval(f, &a));
        }
        prop_assert_eq!(m.sat_count(f) + m.sat_count(nf), 1u128 << NVARS);
        m.check_invariants();
    }

    /// Sifting with complement-tagged roots: the tagged handles survive
    /// in place, keep their semantics, and the in-place result agrees
    /// with a semantic rebuild under the sifted order (same sizes, same
    /// functions) — the cross-check that `swap_levels` rewires
    /// complemented parent edges correctly.
    #[test]
    fn sift_under_complement_agrees_with_rebuild(e1 in arb_expr(), e2 in arb_expr()) {
        let (mut m, _) = compile(&e1);
        let vars: Vec<Var> = (0..NVARS).map(Var::from_index).collect();
        let resolve = |name: &str| -> Option<Var> {
            let idx: usize = name[1..].parse().ok()?;
            vars.get(idx).copied()
        };
        let f = e1.to_bdd(&mut m, &resolve);
        let g = e2.to_bdd(&mut m, &resolve);
        // Complement-heavy root set: a bare negation and a difference
        // (which stores through complemented then-edges).
        let nf = m.not(f);
        let d = m.diff(g, f);
        m.sift(&[nf, d]);
        m.check_invariants();
        let eval_ref = |e: &BoolExpr, a: &[bool]| {
            e.eval(&|name: &str| {
                let idx: usize = name[1..].parse().ok()?;
                a.get(idx).copied()
            })
        };
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            prop_assert_eq!(m.eval(nf, &a), !eval_ref(&e1, &a));
            prop_assert_eq!(m.eval(d, &a), eval_ref(&e2, &a) && !eval_ref(&e1, &a));
        }
        // Nothing dead survives: the complement tags never confuse the
        // sift-internal refcounts.
        prop_assert_eq!(m.gc(&[nf, d]), 0);
        let (mut m2, mapped) = rebuild_in_current_order(&m, &[nf, d]);
        m2.check_invariants();
        prop_assert_eq!(m2.size(mapped[0]), m.size(nf));
        prop_assert_eq!(m2.size(mapped[1]), m.size(d));
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            let b = by_level(&m, &a);
            prop_assert_eq!(m2.eval(mapped[0], &b), m.eval(nf, &a));
            prop_assert_eq!(m2.eval(mapped[1], &b), m.eval(d, &a));
        }
    }

    /// Serialisation round-trips complement tags exactly: a checkpoint
    /// byte round trip into a twin manager preserves the function, and
    /// `¬f` shares `f`'s node list.
    #[test]
    fn serialization_roundtrips_complements(e in arb_expr()) {
        let (m, f) = compile(&e);
        let nf = m.not(f);
        let mut twin = BddManager::new();
        twin.new_vars("x", NVARS);
        let ck = m.export_checkpoint(0, &[("f", f), ("nf", nf)], &[]);
        let ck = BddCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        prop_assert_eq!(ck.num_nodes(), m.size(f));
        let roots = twin.bulk_import_checkpoint(&ck).unwrap();
        let (g, gn) = (roots[0].1, roots[1].1);
        prop_assert_eq!(twin.not(g), gn);
        for bits in 0..(1u32 << NVARS) {
            let a = assignment_from_bits(bits);
            prop_assert_eq!(twin.eval(g, &a), m.eval(f, &a));
        }
    }

    /// The image kernel is the paper's cofactor-then-product: flipping
    /// the literals of cube `c` equals cofactoring by the source cube and
    /// conjoining the destination cube (`c` and its literal-wise negation,
    /// swapped when `back`), for `f` and `¬f` alike and in both
    /// directions.
    #[test]
    fn flip_cube_is_cofactor_then_product(
        e in arb_expr(),
        mask in 0u32..(1 << NVARS),
        pol in 0u32..(1 << NVARS),
    ) {
        let (mut m, f) = compile(&e);
        let lits: Vec<Literal> = (0..NVARS)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| Literal::new(Var::from_index(i), pol & (1 << i) != 0))
            .collect();
        let negated: Vec<Literal> = lits.iter().map(|l| l.negated()).collect();
        let c = m.cube(&lits);
        let c_neg = m.cube(&negated);
        for g in [f, m.not(f)] {
            for (back, src, dst) in [(false, c, c_neg), (true, c_neg, c)] {
                let flipped = m.flip_cube(g, c, back);
                let cofactor = m.cofactor_cube(g, src);
                let reference = m.and(cofactor, dst);
                prop_assert_eq!(flipped, reference, "back = {}", back);
            }
        }
    }

    /// Both instantiations of every operation are one function: on one
    /// manager, the `&BddManager` (atomic) and `&mut BddManager`
    /// (plain-store) paths return identical handles whichever runs first,
    /// and the same script run on two fresh managers — one per
    /// instantiation — leaves identical statistics behind.
    #[test]
    fn shared_and_exclusive_instantiations_agree(
        e1 in arb_expr(),
        e2 in arb_expr(),
        e3 in arb_expr(),
        mask in 0u32..(1 << NVARS),
    ) {
        let build = || {
            let (mut m, _) = compile(&e1);
            let vars: Vec<Var> = (0..NVARS).map(Var::from_index).collect();
            let resolve = |name: &str| -> Option<Var> {
                let idx: usize = name[1..].parse().ok()?;
                vars.get(idx).copied()
            };
            let ops = [&e1, &e2, &e3].map(|e| e.to_bdd(&mut m, &resolve));
            (m, ops)
        };
        let (mut m, [f, g, h]) = build();
        let shared = op_script(&mut &m, f, g, h, mask);
        let exclusive = op_script(&mut m, f, g, h, mask);
        prop_assert_eq!(&shared, &exclusive);
        // Exclusive first, on a manager whose memo tables have not seen
        // the script: the shared path must find the same handles.
        let (mut m, [f, g, h]) = build();
        let exclusive = op_script(&mut m, h, f, g, !mask);
        let shared = op_script(&mut &m, h, f, g, !mask);
        prop_assert_eq!(&shared, &exclusive);
        m.check_invariants();

        let (a, [f, g, h]) = build();
        let (mut b, _) = build();
        let via_shared = op_script(&mut &a, f, g, h, mask);
        let via_exclusive = op_script(&mut b, f, g, h, mask);
        prop_assert_eq!(via_shared, via_exclusive);
        prop_assert_eq!(a.stats(), b.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a valid checkpoint is rejected with a typed
    /// error — decode never panics and never fabricates a BDD.
    #[test]
    fn serialized_prefixes_always_error(e in arb_expr()) {
        let (m, f) = compile(&e);
        let bytes = m.export_checkpoint(42, &[("reached", f)], &[]).to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                BddCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {} / {} bytes decoded", cut, bytes.len()
            );
        }
    }

    /// Single-byte corruption of a checkpoint *body* under a recomputed
    /// trailer checksum — what a faulty writer, not disk damage, would
    /// produce — never panics: decode either errors, or the bulk loader
    /// returns (at worst with a typed error) and leaves a well-formed
    /// manager behind.
    #[test]
    fn serialized_mutations_never_panic(e in arb_expr(), pos_seed in any::<u32>(), flip in 1u8..=255) {
        let (m, f) = compile(&e);
        let nf = m.not(f);
        let ck = m.export_checkpoint(42, &[("f", f), ("nf", nf)], &[("iterations".to_string(), 7)]);
        let mut bytes = ck.to_bytes();
        let body = bytes.len() - 8;
        bytes[pos_seed as usize % body] ^= flip;
        let checksum = stgcheck_bdd::fnv64(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        if let Ok(ck) = BddCheckpoint::from_bytes(&bytes) {
            // Levels were validated against the stream's own variable
            // list; give the load a manager wide enough for all of them.
            let mut fresh = BddManager::new();
            fresh.new_vars("x", NVARS.max(ck.var_names.len()));
            let _ = fresh.bulk_import_checkpoint(&ck);
            fresh.check_invariants();
        }
    }

    /// Every single-byte flip of a checkpoint is rejected: the trailing
    /// checksum covers the whole artifact.
    #[test]
    fn checkpoint_mutations_always_error(e in arb_expr(), pos_seed in any::<u32>(), flip in 1u8..=255) {
        let (m, f) = compile(&e);
        let ck = m.export_checkpoint(42, &[("reached", f)], &[("iterations".to_string(), 7)]);
        let bytes = ck.to_bytes();
        let pos = pos_seed as usize % bytes.len();
        let mut mutated = bytes.clone();
        mutated[pos] ^= flip;
        prop_assert!(BddCheckpoint::from_bytes(&mutated).is_err());
    }
}

/// Variables of the swap-between-collections property, small enough for
/// a truth table to fit one `u32` (bit `b` = the value under assignment
/// `b`, variable `i` = bit `i` of `b`).
const SWAP_VARS: usize = 5;

/// One random step over a pool of `(handle, truth table)` pairs: an
/// operation code and two operand indices, taken modulo the pool size.
type Step = (u8, usize, usize);

fn arb_steps(n: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..5, 0usize..64, 0usize..64), n)
}

/// Applies `step` and appends its result with the reference table.
fn apply_step(m: &mut BddManager, pool: &mut Vec<(Bdd, u32)>, (op, i, j): Step) {
    let (f, tf) = pool[i % pool.len()];
    let (g, tg) = pool[j % pool.len()];
    let r = match op {
        0 => (m.and(f, g), tf & tg),
        1 => (m.or(f, g), tf | tg),
        2 => (m.xor(f, g), tf ^ tg),
        3 => (m.diff(f, g), tf & !tg),
        _ => (m.not(f), !tf),
    };
    pool.push(r);
}

/// The truth table of `f` over `SWAP_VARS` variables.
fn table_of(m: &BddManager, f: Bdd) -> u32 {
    (0..1u32 << SWAP_VARS)
        .filter(|&b| m.eval(f, &(0..SWAP_VARS).map(|i| b & (1 << i) != 0).collect::<Vec<_>>()))
        .fold(0, |t, b| t | 1 << b)
}

/// The pool's literal entries: variable `i` with its truth table.
fn literal_pool(m: &mut BddManager) -> Vec<(Bdd, u32)> {
    let vars = m.new_vars("x", SWAP_VARS);
    vars.iter()
        .enumerate()
        .map(|(i, &v)| {
            (m.var(v), (0..32u32).filter(|b| b >> i & 1 == 1).fold(0, |t, b| t | 1 << b))
        })
        .collect()
}

/// Collects over `pool` and checks that the collection was exact: the
/// live count is what the kept roots reach, a second collection reclaims
/// nothing, the invariants hold and every entry keeps its truth table.
fn collect_exactly(m: &mut BddManager, pool: &[(Bdd, u32)]) -> Result<(), TestCaseError> {
    let roots: Vec<Bdd> = pool.iter().map(|&(f, _)| f).collect();
    m.gc(&roots);
    prop_assert_eq!(m.live_nodes(), m.size_many(&roots));
    prop_assert_eq!(m.gc(&roots), 0);
    prop_assert_eq!(m.stats().gc_full_runs, m.stats().gc_runs);
    m.check_invariants();
    for &(f, t) in pool {
        prop_assert_eq!(table_of(m, f), t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// A bare level swap between two collections rewrites surviving
    /// nodes onto nodes it allocates now: every kept root keeps its
    /// truth table, the invariants hold, and later operations still
    /// build correct functions.
    #[test]
    fn swap_between_collections_keeps_roots(
        first in arb_steps(12),
        then in arb_steps(12),
        level in 0..SWAP_VARS - 1,
    ) {
        let mut m = BddManager::new();
        let mut pool = literal_pool(&mut m);
        for step in first {
            apply_step(&mut m, &mut pool, step);
        }
        let roots: Vec<Bdd> = pool.iter().map(|&(f, _)| f).collect();
        m.gc(&roots);
        m.swap_levels(level);
        m.gc(&roots);
        m.check_invariants();
        for step in then {
            apply_step(&mut m, &mut pool, step);
        }
        m.check_invariants();
        for &(f, t) in &pool {
            prop_assert_eq!(table_of(&m, f), t);
        }
    }

    /// Every collection is one exact mark-and-sweep, including one that
    /// follows an earlier collection whose survivors have since been
    /// dropped: nothing a kept root does not reach stays live.
    #[test]
    fn every_collection_is_exact(
        first in arb_steps(16),
        dropped in any::<u64>(),
        then in arb_steps(16),
    ) {
        let mut m = BddManager::new();
        let mut pool = literal_pool(&mut m);
        for step in first {
            apply_step(&mut m, &mut pool, step);
        }
        collect_exactly(&mut m, &pool)?;
        let mut k = 0;
        pool.retain(|_| {
            k += 1;
            k <= SWAP_VARS || dropped >> (k % 64) & 1 == 0
        });
        for step in then {
            apply_step(&mut m, &mut pool, step);
        }
        collect_exactly(&mut m, &pool)?;
    }
}
