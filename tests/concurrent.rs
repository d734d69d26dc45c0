//! Threaded stress suite for the shared concurrent BDD substrate
//! (`docs/concurrent-table.md`).
//!
//! Strategy: determinism through canonicity. Every test drives one
//! shared [`BddManager`] from N threads with pre-generated random op
//! scripts, then replays the same scripts on a fresh single-threaded
//! manager with the same variable declarations. Canonical handles differ
//! between the two managers (creation order differs), but the *functions*
//! must be identical — and [`BddManager::export_checkpoint`] snapshots
//! are canonical per (function sequence, variable order), so comparing
//! snapshots is a node-for-node structural check, not just a state count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stgcheck::bdd::{Bdd, BddCheckpoint, BddManager, BddOps, Literal, Var};
use stgcheck::core::{verify, EngineKind, EngineOptions, ReorderMode, VerifyOptions};
use stgcheck::stg::{gen, Stg};

/// One scripted operation; operands index the thread's result history
/// (literals are pre-seeded at indices `0..2 * nvars`).
#[derive(Clone, Copy, Debug)]
enum Op {
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Diff(usize, usize),
    Not(usize),
    /// `∃ vars(mask) . pool[i]`
    Exists(usize, u16),
    /// `∀ vars(mask) . pool[i]`
    Forall(usize, u16),
    /// `flip_cube(pool[i], cube, back)`, where `cube` has a literal on
    /// each variable of `mask`, positive where `pol` has a 1 — the image
    /// kernel the parallel engine's workers run
    FlipCube(usize, u16, u16, bool),
}

const NVARS: usize = 12;

fn gen_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(len);
    // `pool` tracks how many results exist when each op runs: the
    // literal seeds of both polarities, plus one per prior op.
    for pool in 2 * NVARS..2 * NVARS + len {
        let pick = |rng: &mut StdRng, pool: usize| rng.gen_range(0..pool);
        let mask = |rng: &mut StdRng| rng.gen_range(1u16..(1 << NVARS.min(16)) as u16);
        let op = match rng.gen_range(0..8u32) {
            0 => Op::And(pick(&mut rng, pool), pick(&mut rng, pool)),
            1 => Op::Or(pick(&mut rng, pool), pick(&mut rng, pool)),
            2 => Op::Xor(pick(&mut rng, pool), pick(&mut rng, pool)),
            3 => Op::Diff(pick(&mut rng, pool), pick(&mut rng, pool)),
            4 => Op::Not(pick(&mut rng, pool)),
            5 => Op::Exists(pick(&mut rng, pool), mask(&mut rng)),
            6 => Op::Forall(pick(&mut rng, pool), mask(&mut rng)),
            _ => Op::FlipCube(
                pick(&mut rng, pool),
                mask(&mut rng),
                mask(&mut rng),
                rng.gen_bool(0.5),
            ),
        };
        script.push(op);
    }
    script
}

/// Runs a script against the manager through `&BddManager` only — exactly
/// what a shared-mode engine worker is allowed to do.
fn run_script(mut m: &BddManager, vars: &[Var], script: &[Op], from: &[Bdd]) -> Vec<Bdd> {
    let cube = |m: &mut &BddManager, mask: u16| -> Bdd {
        let vs: Vec<Var> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &v)| v)
            .collect();
        m.vars_cube(&vs)
    };
    let mut pool: Vec<Bdd> = from.to_vec();
    for &op in script {
        let r = match op {
            Op::Exists(i, mask) => {
                let c = cube(&mut m, mask);
                m.exists(pool[i], c)
            }
            Op::Forall(i, mask) => {
                let c = cube(&mut m, mask);
                m.forall(pool[i], c)
            }
            Op::FlipCube(i, mask, pol, back) => {
                let lits: Vec<Literal> = vars
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(i, &v)| Literal::new(v, pol & (1 << i) != 0))
                    .collect();
                let c = m.cube(&lits);
                m.flip_cube(pool[i], c, back)
            }
            Op::And(i, j) => m.and(pool[i], pool[j]),
            Op::Or(i, j) => m.or(pool[i], pool[j]),
            Op::Xor(i, j) => m.xor(pool[i], pool[j]),
            Op::Diff(i, j) => m.diff(pool[i], pool[j]),
            Op::Not(i) => m.not(pool[i]),
        };
        pool.push(r);
    }
    pool
}

fn fresh_manager() -> (BddManager, Vec<Var>, Vec<Bdd>) {
    let mut m = BddManager::new();
    let vars = m.new_vars("x", NVARS);
    let mut seeds: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    seeds.extend(vars.iter().map(|&v| m.nvar(v)));
    (m, vars, seeds)
}

/// Snapshot of every function a script produced, in a manager-independent
/// canonical form.
fn snapshots(m: &BddManager, results: &[Bdd]) -> BddCheckpoint {
    let roots: Vec<(&str, Bdd)> = results.iter().map(|&r| ("", r)).collect();
    m.export_checkpoint(0, &roots, &[])
}

/// The headline stress test: N threads hammer one manager with random op
/// mixes; every thread's results must be node-for-node identical to a
/// single-threaded replay of the same scripts in a fresh manager.
#[test]
fn threaded_random_ops_match_single_threaded_replay() {
    const THREADS: usize = 4;
    const LEN: usize = 400;
    let scripts: Vec<Vec<Op>> =
        (0..THREADS).map(|t| gen_script(0xC0FFEE + t as u64, LEN)).collect();

    let (mut shared, vars, seeds) = fresh_manager();
    let shared_results: Vec<Vec<Bdd>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let (m, vars, seeds) = (&shared, &vars, &seeds);
                scope.spawn(move || run_script(m, vars, script, seeds))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stress worker panicked")).collect()
    });
    shared.check_invariants();

    let (mut replay, rvars, rseeds) = fresh_manager();
    for (script, shared_pool) in scripts.iter().zip(&shared_results) {
        let replay_pool = run_script(&replay, &rvars, script, &rseeds);
        assert_eq!(
            snapshots(&shared, shared_pool),
            snapshots(&replay, &replay_pool),
            "threaded results diverge from the sequential replay"
        );
    }
    replay.check_invariants();
}

/// Canonicity under contention: threads computing the *same* script
/// through one manager must observe bit-identical handles — the
/// lock-sharded unique table may never hand out two slots for one
/// function, no matter how the threads interleave.
#[test]
fn racing_threads_agree_on_canonical_handles() {
    const THREADS: usize = 8;
    let script = gen_script(0xBDD, 500);
    let (mut shared, vars, seeds) = fresh_manager();
    let results: Vec<Vec<Bdd>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (m, vars, seeds, script) = (&shared, &vars, &seeds, &script);
                scope.spawn(move || run_script(m, vars, script, seeds))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stress worker panicked")).collect()
    });
    for other in &results[1..] {
        assert_eq!(&results[0], other, "racing threads disagree on canonical handles");
    }
    shared.check_invariants();
}

/// Boolean identities checked *while* other threads churn the same
/// manager: a torn cache entry or a duplicated node would break one of
/// these algebraic facts.
#[test]
fn algebraic_identities_hold_under_contention() {
    let (mut shared, vars, seeds) = fresh_manager();
    std::thread::scope(|scope| {
        // Churn threads keep the unique table and caches busy.
        for t in 0..2u64 {
            let (m, vars, seeds) = (&shared, &vars, &seeds);
            let script = gen_script(0xABAD1DEA + t, 600);
            scope.spawn(move || run_script(m, vars, &script, seeds));
        }
        // Checker threads verify identities on their own random functions.
        for t in 0..2u64 {
            let (mut m, vars, seeds) = (&shared, &vars, &seeds);
            scope.spawn(move || {
                let script = gen_script(0x5EED + t, 300);
                let pool = run_script(m, vars, &script, seeds);
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..300 {
                    let f = pool[rng.gen_range(0..pool.len())];
                    let g = pool[rng.gen_range(0..pool.len())];
                    let pol = rng.gen_range(0u16..8);
                    let lits: Vec<Literal> = vars[0..rng.gen_range(1..4usize)]
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| Literal::new(v, pol & (1 << i) != 0))
                        .collect();
                    let negated: Vec<Literal> = lits.iter().map(|l| l.negated()).collect();
                    let (c, c_neg) = (m.cube(&lits), m.cube(&negated));
                    // De Morgan through the shared caches.
                    let fg = m.and(f, g);
                    let lhs = m.not(fg);
                    let rhs = m.or(f.complement(), g.complement());
                    assert_eq!(lhs, rhs, "De Morgan broke under contention");
                    // Complementation / excluded middle.
                    assert_eq!(m.and(f, f.complement()), Bdd::FALSE);
                    assert_eq!(m.or(f, f.complement()), Bdd::TRUE);
                    // The one-pass image kernel vs the paper's
                    // cofactor-then-product pipeline, both directions.
                    for (back, src, dst) in [(false, c, c_neg), (true, c_neg, c)] {
                        let flipped = m.flip_cube(f, c, back);
                        let cofactor = m.cofactor_cube(f, src);
                        let reference = m.and(cofactor, dst);
                        assert_eq!(flipped, reference, "flip_cube diverged under contention");
                    }
                }
            });
        }
    });
    shared.check_invariants();
}

/// The engine's quiesce protocol in miniature: concurrent phases
/// separated by stop-the-world GC (and finally sifting) on the shared
/// manager. Handles kept as roots must stay valid across the quiesce
/// points, and the functions must still match a replay that never
/// collected at all.
#[test]
fn quiesce_gc_between_concurrent_phases_preserves_functions() {
    const THREADS: usize = 3;
    const PHASES: usize = 3;
    let all_scripts: Vec<Vec<Vec<Op>>> = (0..PHASES)
        .map(|p| (0..THREADS).map(|t| gen_script((p * 31 + t) as u64 + 7, 150)).collect())
        .collect();

    let (mut shared, vars, seeds) = fresh_manager();
    // Each thread's pool persists across phases, GC-protected as roots.
    let mut pools: Vec<Vec<Bdd>> = vec![seeds.clone(); THREADS];
    for phase_scripts in &all_scripts {
        let results: Vec<Vec<Bdd>> = std::thread::scope(|scope| {
            let handles: Vec<_> = phase_scripts
                .iter()
                .zip(&pools)
                .map(|(script, pool)| {
                    let (m, vars) = (&shared, &vars);
                    scope.spawn(move || run_script(m, vars, script, pool))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("phase worker panicked")).collect()
        });
        pools = results;
        // Stop-the-world quiesce: all workers joined, `&mut` is back.
        let roots: Vec<Bdd> = pools.iter().flatten().copied().collect();
        shared.gc(&roots);
        shared.check_invariants();
    }

    // Replay without any GC: functions must agree node-for-node.
    let (replay, rvars, rseeds) = fresh_manager();
    let mut rpools: Vec<Vec<Bdd>> = vec![rseeds.clone(); THREADS];
    for phase_scripts in &all_scripts {
        rpools = phase_scripts
            .iter()
            .zip(&rpools)
            .map(|(script, pool)| run_script(&replay, &rvars, script, pool))
            .collect();
    }
    for (sp, rp) in pools.iter().zip(&rpools) {
        assert_eq!(snapshots(&shared, sp), snapshots(&replay, rp), "quiesce GC corrupted a pool");
    }

    // And a final in-place sift on the shared manager must preserve every
    // function semantically (sat counts are order-independent).
    let roots: Vec<Bdd> = pools.iter().flatten().copied().collect();
    shared.sift(&roots);
    shared.check_invariants();
    for (sp, rp) in pools.iter().zip(&rpools) {
        for (&f, &g) in sp.iter().zip(rp) {
            assert_eq!(shared.sat_count(f), replay.sat_count(g), "sift changed a function");
        }
    }
}

// ---------------------------------------------------------------------
// Shared fan-out vs the single-worker `&mut` path, end to end.
// ---------------------------------------------------------------------

fn engine_corpus() -> Vec<Stg> {
    vec![
        gen::mutex_element(),
        gen::muller_pipeline(4),
        gen::vme_read(),
        gen::ring(4),
        gen::csc_violation_stg(),
        gen::nonpersistent_stg(),
    ]
}

/// The parallel engine's fan-out against its own single-worker run,
/// under every reorder mode. With `jobs == 2` the workers run every
/// operation through the `&BddManager` instantiation; with `jobs == 1`
/// the engine falls back to the sequential loop, which runs the
/// `&mut BddManager` one throughout. The two must agree on every verdict
/// and state count.
#[test]
fn two_workers_agree_with_one_across_reorders() {
    for stg in engine_corpus() {
        for reorder in [ReorderMode::None, ReorderMode::Sift, ReorderMode::Auto] {
            let with = |jobs: usize| VerifyOptions {
                engine: EngineOptions {
                    kind: EngineKind::ParallelSharded,
                    jobs,
                    ..Default::default()
                },
                reorder,
                ..VerifyOptions::default()
            };
            let ctx = format!("{}: reorder {reorder}", stg.name());
            let one = verify(&stg, with(1)).unwrap();
            let two = verify(&stg, with(2)).unwrap();
            assert_eq!(one.verdict, two.verdict, "{ctx}: verdict");
            assert_eq!(one.num_states, two.num_states, "{ctx}: states");
            assert_eq!(one.safe(), two.safe(), "{ctx}: safety");
            assert_eq!(one.consistent(), two.consistent(), "{ctx}: consistency");
            assert_eq!(one.persistent(), two.persistent(), "{ctx}: persistency");
            assert_eq!(one.csc_holds(), two.csc_holds(), "{ctx}: CSC");
        }
    }
}

// ---------------------------------------------------------------------
// Collecting at every quiesce point vs one closing collection.
// ---------------------------------------------------------------------

/// GC stress: threaded phases allocate, a random subset of each phase's
/// results is dropped, and the shared manager collects at every quiesce
/// point. Each collection must leave exactly what the kept roots reach
/// live. A sequential reference replay collects only once, at the end:
/// both managers must converge to the same live count, and every kept
/// function must match the reference node-for-node.
#[test]
fn collecting_every_phase_matches_one_closing_collection() {
    const THREADS: usize = 3;
    const PHASES: usize = 6;
    let all_scripts: Vec<Vec<Vec<Op>>> = (0..PHASES)
        .map(|p| (0..THREADS).map(|t| gen_script((p * 97 + t) as u64 + 11, 120)).collect())
        .collect();

    let (mut m1, vars1, seeds1) = fresh_manager();
    let (m2, vars2, seeds2) = fresh_manager();
    let mut rng = StdRng::seed_from_u64(0xD00D);
    // The surviving root set after each phase, index-aligned between the
    // managers (same scripts, same drops ⇒ same functions).
    let mut from1 = seeds1.clone();
    let mut from2 = seeds2.clone();
    for phase_scripts in &all_scripts {
        let results1: Vec<Vec<Bdd>> = std::thread::scope(|scope| {
            let handles: Vec<_> = phase_scripts
                .iter()
                .map(|script| {
                    let (m, vars, from) = (&m1, &vars1, &from1);
                    scope.spawn(move || run_script(m, vars, script, from))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("gc stress worker panicked")).collect()
        });
        let results2: Vec<Vec<Bdd>> =
            phase_scripts.iter().map(|s| run_script(&m2, &vars2, s, &from2)).collect();

        // Drop ~half of each thread's results; the literal seeds always
        // survive so later phases can keep indexing them.
        let keep: Vec<Vec<usize>> = results1
            .iter()
            .map(|pool| (seeds1.len()..pool.len()).filter(|_| rng.gen_bool(0.5)).collect())
            .collect();
        from1 = seeds1.clone();
        from2 = seeds2.clone();
        for (t, kept) in keep.iter().enumerate() {
            from1.extend(kept.iter().map(|&i| results1[t][i]));
            from2.extend(kept.iter().map(|&i| results2[t][i]));
        }

        // m1 collects at the quiesce point; m2, the reference, collects
        // nothing until the end.
        m1.gc(&from1);
        assert_eq!(
            m1.live_nodes(),
            m1.size_many(&from1),
            "a collection kept nodes that no kept root reaches"
        );
        m1.check_invariants();
    }
    let mut m2 = m2;
    // m2 never collected above, so one closing collection brings it to the
    // minimal live set; m1 must already be there.
    m1.gc(&from1);
    m2.gc(&from2);
    assert_eq!(
        m1.live_nodes(),
        m2.live_nodes(),
        "per-phase collections and the closing reference disagree on the surviving set"
    );
    let stats = m1.stats();
    assert_eq!(stats.gc_full_runs, stats.gc_runs);
    m1.check_invariants();
    m2.check_invariants();
    // Node-for-node: every surviving function matches the reference.
    assert_eq!(snapshots(&m1, &from1), snapshots(&m2, &from2), "a kept root diverged");
}
