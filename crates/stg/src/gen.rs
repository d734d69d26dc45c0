//! Generators for the benchmark STGs of the paper's evaluation (Table 1)
//! and pathological fixtures for the test-suite.
//!
//! The paper evaluates on scalable examples "in such a way that the number
//! of states of the system can be exponentially increased by iteratively
//! repeating a basic pattern". The generators below reproduce those
//! families from their published net structures:
//!
//! * [`mutex_element`] — the two-user mutual-exclusion element of Fig. 1;
//!   [`mutex`] generalises it to `n` users (arbitration!).
//! * [`muller_pipeline`] — the n-stage Muller C-element pipeline (marked
//!   graph, exponential state count).
//! * [`master_read`] — a master forking `n` concurrent read channels and
//!   joining their acknowledgements (marked graph). The authors' original
//!   `master-read` file is not redistributable; this reproduces the same
//!   shape: scalable fork/join four-phase handshakes (the checked-in
//!   `benchmarks/master_read_*.g` files are written from it; see
//!   `benchmarks/README.md`).
//! * [`par_handshakes`] — `n` fully independent handshakes: `4ⁿ` states
//!   with tiny BDDs, the extreme concurrency stress case.
//! * [`vme_read`] — the classic VME bus controller read cycle, the
//!   textbook *reducible* CSC violation.
//!
//! The `*_stg` fixtures each violate exactly one implementability
//! condition. [`random_safe_stg`] additionally produces seeded random
//! safe STGs for the differential test suites.

use crate::stg::{Stg, StgBuilder};

/// The two-user mutual exclusion element of the paper's Fig. 1.
///
/// Inputs `r1, r2`; outputs `a1, a2`; nine places (four per user plus the
/// shared mutex place). The grant transitions `a1+`/`a2+` are in direct
/// conflict on the mutex place — an arbitration point, so the STG is only
/// persistent under [`crate::PersistencyPolicy::allow_arbitration`].
pub fn mutex_element() -> Stg {
    mutex(2)
}

/// `n`-user generalisation of the mutual exclusion element.
///
/// # Panics
///
/// Panics if `2n` signals exceed [`crate::MAX_SIGNALS`] or `n == 0`.
pub fn mutex(n: usize) -> Stg {
    assert!(n >= 1, "mutex needs at least one user");
    let mut b = StgBuilder::new(format!("mutex-{n}"));
    for i in 1..=n {
        b.input(&format!("r{i}"));
        b.output(&format!("a{i}"));
    }
    let m = b.place("m", 1);
    for i in 1..=n {
        let idle = b.place(&format!("idle{i}"), 1);
        let req = b.place(&format!("req{i}"), 0);
        let grant = b.place(&format!("grant{i}"), 0);
        let done = b.place(&format!("done{i}"), 0);
        let (rp, ap, rm, am) =
            (format!("r{i}+"), format!("a{i}+"), format!("r{i}-"), format!("a{i}-"));
        b.pt(idle, &rp);
        b.tp(&rp, req);
        b.pt(req, &ap);
        b.pt(m, &ap);
        b.tp(&ap, grant);
        b.pt(grant, &rm);
        b.tp(&rm, done);
        b.pt(done, &am);
        b.tp(&am, idle);
        b.tp(&am, m);
    }
    b.initial_code_str(&"0".repeat(2 * n));
    b.build().expect("mutex generator is well-formed")
}

/// The n-stage Muller pipeline: signals `c0 … c{n-1}`, each adjacent pair
/// coupled by the four marked-graph arcs
/// `cᵢ+ → cᵢ₊₁+ → cᵢ− → cᵢ₊₁− → cᵢ+` with the token on the closing arc.
///
/// `c0` is the environment's input; the rest are outputs. The state count
/// grows exponentially with `n` while BDDs stay small — the paper's
/// flagship scalability example (a marked graph, so persistency and
/// commutativity are structurally trivial).
///
/// # Panics
///
/// Panics if `n < 2` or `n` exceeds [`crate::MAX_SIGNALS`].
pub fn muller_pipeline(n: usize) -> Stg {
    assert!(n >= 2, "a pipeline needs at least two stages");
    let mut b = StgBuilder::new(format!("muller-{n}"));
    b.input("c0");
    for i in 1..n {
        b.output(&format!("c{i}"));
    }
    for i in 0..n - 1 {
        let (cur_p, cur_m) = (format!("c{i}+"), format!("c{i}-"));
        let (nxt_p, nxt_m) = (format!("c{}+", i + 1), format!("c{}-", i + 1));
        b.arc(&cur_p, &nxt_p);
        b.arc(&nxt_p, &cur_m);
        b.arc(&cur_m, &nxt_m);
        b.marked_arc(&nxt_m, &cur_p);
    }
    b.initial_code_str(&"0".repeat(n));
    b.build().expect("muller generator is well-formed")
}

/// Master-read-style fork/join: the master raises `req`, `n` read channels
/// handshake (`ri+ → ai+`) concurrently, their completion joins into
/// `ack+`; the falling phase mirrors it. Channel requests `ri` are outputs,
/// acknowledgements `ai` inputs; `req` is an input and `ack` an output.
///
/// # Panics
///
/// Panics if `2n + 2` signals exceed [`crate::MAX_SIGNALS`] or `n == 0`.
pub fn master_read(n: usize) -> Stg {
    assert!(n >= 1, "master_read needs at least one channel");
    let mut b = StgBuilder::new(format!("master-read-{n}"));
    b.input("req");
    b.output("ack");
    for i in 1..=n {
        b.output(&format!("r{i}"));
        b.input(&format!("a{i}"));
    }
    for i in 1..=n {
        let (rp, ap) = (format!("r{i}+"), format!("a{i}+"));
        let (rm, am) = (format!("r{i}-"), format!("a{i}-"));
        b.arc("req+", &rp);
        b.arc(&rp, &ap);
        b.arc(&ap, "ack+");
        b.arc("req-", &rm);
        b.arc(&rm, &am);
        b.arc(&am, "ack-");
    }
    b.arc("ack+", "req-");
    b.marked_arc("ack-", "req+");
    b.initial_code_str(&"0".repeat(2 * n + 2));
    b.build().expect("master_read generator is well-formed")
}

/// `n` fully independent four-phase handshakes (`ri` input, `ai` output):
/// exactly `4ⁿ` states, maximal concurrency, tiny BDDs.
///
/// # Panics
///
/// Panics if `2n` signals exceed [`crate::MAX_SIGNALS`] or `n == 0`.
pub fn par_handshakes(n: usize) -> Stg {
    assert!(n >= 1, "need at least one handshake");
    let mut b = StgBuilder::new(format!("par-hs-{n}"));
    for i in 1..=n {
        b.input(&format!("r{i}"));
        b.output(&format!("a{i}"));
    }
    for i in 1..=n {
        let labels = [format!("r{i}+"), format!("a{i}+"), format!("r{i}-"), format!("a{i}-")];
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        b.cycle(&refs);
    }
    b.initial_code_str(&"0".repeat(2 * n));
    b.build().expect("par_handshakes generator is well-formed")
}

/// A sequential token ring of `n` four-phase handshakes: channel `i+1`
/// may start only after channel `i` completed. Linear state count
/// (`4n + 1`-ish) — the contrast case to [`par_handshakes`] in the
/// explicit-vs-symbolic comparison.
///
/// # Panics
///
/// Panics if `2n` signals exceed [`crate::MAX_SIGNALS`] or `n == 0`.
pub fn ring(n: usize) -> Stg {
    assert!(n >= 1, "need at least one station");
    let mut b = StgBuilder::new(format!("ring-{n}"));
    for i in 1..=n {
        b.input(&format!("r{i}"));
        b.output(&format!("a{i}"));
    }
    for i in 1..=n {
        let labels = [format!("r{i}+"), format!("a{i}+"), format!("r{i}-"), format!("a{i}-")];
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        b.seq(&refs);
        // Pass the token to the next station (wrapping around).
        let next = if i == n { 1 } else { i + 1 };
        if n > 1 {
            b.arc(&format!("a{i}-"), &format!("r{next}+"));
        }
    }
    if n > 1 {
        // Single token enters station 1.
        let p = b.place_by_name("<a<n>-,r1+>");
        debug_assert!(p.is_none(), "placeholder name never exists");
        let last = format!("a{n}-");
        let token_place = b.place_by_name(&format!("<{last},r1+>")).expect("ring closed");
        b.set_place_tokens(token_place, 1);
    } else {
        b.marked_arc("a1-", "r1+");
    }
    b.initial_code_str(&"0".repeat(2 * n));
    b.build().expect("ring generator is well-formed")
}

/// The VME bus controller read cycle — the textbook *reducible* CSC
/// violation (solvable by inserting an internal signal, as petrify does).
///
/// Inputs `dsr, ldtack`; outputs `lds, d, dtack`.
pub fn vme_read() -> Stg {
    let mut b = StgBuilder::new("vme-read");
    b.input("dsr");
    b.input("ldtack");
    b.output("lds");
    b.output("d");
    b.output("dtack");
    b.seq(&["dsr+", "lds+", "ldtack+", "d+", "dtack+", "dsr-", "d-"]);
    b.arc("d-", "dtack-");
    b.marked_arc("dtack-", "dsr+");
    b.seq(&["d-", "lds-", "ldtack-"]);
    b.marked_arc("ldtack-", "lds+");
    b.initial_code_str("00000");
    b.build().expect("vme generator is well-formed")
}

/// Inconsistent STG (paper Section 3.1): the sequence `b+ ; a+ ; b+`
/// assigns `b` the value 1 twice in a row.
pub fn inconsistent_stg() -> Stg {
    let mut b = StgBuilder::new("inconsistent");
    b.input("b");
    b.input("a");
    let start = b.place("start", 1);
    b.pt(start, "b+");
    b.seq(&["b+", "a+", "b+/2"]);
    b.initial_code_str("00");
    b.build().expect("fixture is well-formed")
}

/// Non-persistent STG: a free choice between input `d` and output `t` —
/// firing `t+` disables the input, firing `d+` disables the output; both
/// directions violate Def. 3.2.
pub fn nonpersistent_stg() -> Stg {
    let mut b = StgBuilder::new("nonpersistent");
    b.input("d");
    b.output("t");
    let p = b.place("p", 1);
    b.pt(p, "d+");
    b.pt(p, "t+");
    b.arc("d+", "d-");
    b.arc("t+", "t-");
    b.tp("d-", p);
    b.tp("t-", p);
    b.initial_code_str("00");
    b.build().expect("fixture is well-formed")
}

/// Consistent, persistent STG with a *reducible* CSC violation: all
/// signals are outputs, so an inserted internal signal can disambiguate
/// the repeated codes.
pub fn csc_violation_stg() -> Stg {
    let mut b = StgBuilder::new("csc-reducible");
    b.output("x");
    b.output("y");
    b.cycle(&["x+", "x-", "y+", "x+/2", "x-/2", "y-"]);
    b.initial_code_str("00");
    b.build().expect("fixture is well-formed")
}

/// Consistent, persistent STG with an *irreducible* CSC violation: the
/// input burst `a+ a−` returns to the initial code with output `b` due —
/// mutually complementary input sequences (Def. 3.5(3)), so no insertion
/// of non-input signals can help.
pub fn irreducible_csc_stg() -> Stg {
    let mut b = StgBuilder::new("csc-irreducible");
    b.input("a");
    b.output("b");
    b.cycle(&["a+", "a-", "b+", "b-"]);
    b.initial_code_str("00");
    b.build().expect("fixture is well-formed")
}

/// Bounded but unsafe STG: two concurrent producers feed the same place,
/// which reaches two tokens.
pub fn unsafe_stg() -> Stg {
    let mut b = StgBuilder::new("unsafe");
    b.input("u");
    b.input("v");
    b.output("w");
    let su = b.place("su", 1);
    let sv = b.place("sv", 1);
    let q = b.place("q", 0);
    let qq = b.place("qq", 0);
    b.pt(su, "u+");
    b.tp("u+", q);
    b.pt(sv, "v+");
    b.tp("v+", q);
    b.pt(q, "w+");
    b.tp("w+", qq);
    b.pt(q, "w-");
    b.pt(qq, "w-");
    b.initial_code_str("000");
    b.build().expect("fixture is well-formed")
}

/// Unbounded STG: every `g+` deposits a token into a sink place that
/// nothing consumes.
pub fn unbounded_stg() -> Stg {
    let mut b = StgBuilder::new("unbounded");
    b.input("g");
    let sink = b.place("sink", 0);
    b.cycle(&["g+", "g-"]);
    b.tp("g+", sink);
    b.initial_code_str("0");
    b.build().expect("fixture is well-formed")
}

/// Fig. 3 D1: choice between `a+` and `b+/2` where each branch re-enables
/// the other signal — a symmetric fake conflict.
pub fn fig3_d1() -> Stg {
    let mut b = StgBuilder::new("fig3-d1");
    b.input("a");
    b.input("b");
    b.output("c");
    let p0 = b.place("p0", 1);
    b.pt(p0, "a+");
    b.pt(p0, "b+/2");
    b.arc("a+", "b+");
    b.arc("b+/2", "a+/2");
    let pc = b.place("pc", 0);
    b.tp("b+", pc);
    b.tp("a+/2", pc);
    b.pt(pc, "c+");
    b.initial_code_str("000");
    b.build().expect("fixture is well-formed")
}

/// Fig. 3 D2: the equivalent specification with genuine concurrency — the
/// same state graph as [`fig3_d1`], no conflicts at all.
pub fn fig3_d2() -> Stg {
    let mut b = StgBuilder::new("fig3-d2");
    b.input("a");
    b.input("b");
    b.output("c");
    let pa = b.place("pa", 1);
    let pb = b.place("pb", 1);
    b.pt(pa, "a+");
    b.pt(pb, "b+");
    b.arc("a+", "c+");
    b.arc("b+", "c+");
    b.initial_code_str("000");
    b.build().expect("fixture is well-formed")
}

/// The persistent benchmark corpus shipped under `benchmarks/`: each
/// fixture's file name paired with the generator output it must match
/// byte-for-byte. The single source of truth for `examples/gen_data.rs`
/// (which writes the files) and for the differential and engine
/// equivalence suites (which read them back).
pub fn benchmark_fixtures() -> Vec<(&'static str, Stg)> {
    vec![
        ("muller_pipeline_4.g", muller_pipeline(4)),
        ("muller_pipeline_8.g", muller_pipeline(8)),
        ("master_read_2.g", master_read(2)),
        ("master_read_3.g", master_read(3)),
        ("par_handshakes_6.g", par_handshakes(6)),
        ("mutex_3.g", mutex(3)),
    ]
}

/// Minimal deterministic xorshift64* stream — keeps [`random_safe_stg`]
/// reproducible without a `rand` dependency in this crate.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        // Splash the seed so small consecutive seeds diverge immediately,
        // and keep the state non-zero (xorshift's fixed point).
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// A random safe, consistent-by-construction STG: a set of per-signal
/// 4-phase cycles (`x+ … x-`) connected by token-conserving random
/// cross-causality arcs, occasionally spiced with a free-choice place
/// between two rising edges so the conflict/persistency/fake machinery
/// gets exercised. Deterministic in `seed`.
///
/// Used by the differential suites: whatever the outcome (CSC conflicts,
/// non-persistency, deadlock), every engine — explicit or symbolic, any
/// image engine — must agree on it.
pub fn random_safe_stg(seed: u64) -> Stg {
    let mut rng = XorShift::new(seed);
    let n_signals = 2 + rng.below(4); // 2..=5
    let mut b = StgBuilder::new(format!("random-{seed}"));
    let mut names = Vec::new();
    for i in 0..n_signals {
        let name = format!("x{i}");
        if rng.chance(1, 2) {
            b.input(&name);
        } else {
            b.output(&name);
        }
        names.push(name);
    }
    // Each signal gets its own cycle: xi+ -> xi- -> xi+ (token on the
    // closing arc).
    for name in &names {
        let plus = format!("{name}+");
        let minus = format!("{name}-");
        b.arc(&plus, &minus);
        b.marked_arc(&minus, &plus);
    }
    // Random cross-causality: cycles `xi+ -> xj+ -> xi+` with one token,
    // enforcing alternation while conserving tokens (keeps the net safe
    // and live).
    let pairs = rng.below(n_signals + 1);
    let mut seen_links = std::collections::HashSet::new();
    for _ in 0..pairs {
        let i = rng.below(n_signals);
        let j = rng.below(n_signals);
        if i == j || !seen_links.insert((i, j)) || seen_links.contains(&(j, i)) {
            continue;
        }
        let from = format!("x{i}+");
        let back = format!("x{j}+");
        b.arc(&from, &back);
        b.marked_arc(&back, &from);
    }
    // Occasionally a free-choice place between two rising edges, refilled
    // by both falling edges.
    if n_signals >= 2 && rng.chance(2, 5) {
        let i = rng.below(n_signals);
        let mut j = rng.below(n_signals);
        if i == j {
            j = (j + 1) % n_signals;
        }
        let p = b.place("choice", 1);
        b.pt(p, &format!("x{i}+"));
        b.pt(p, &format!("x{j}+"));
        b.tp(&format!("x{i}-"), p);
        b.tp(&format!("x{j}-"), p);
    }
    b.initial_code_str(&"0".repeat(n_signals));
    b.build().expect("random construction is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::{check_explicit, Implementability, PersistencyPolicy};
    use crate::state_graph::{build_state_graph, SgOptions};

    fn states(stg: &Stg) -> usize {
        build_state_graph(stg, SgOptions::default()).unwrap().len()
    }

    #[test]
    fn mutex_element_matches_figure1_dimensions() {
        let stg = mutex_element();
        assert_eq!(stg.net().num_places(), 9);
        assert_eq!(stg.net().num_transitions(), 8);
        assert_eq!(stg.num_signals(), 4);
    }

    #[test]
    fn mutex_element_is_implementable_with_arbitration() {
        let stg = mutex_element();
        let strict = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
        assert!(strict.consistent());
        assert!(strict.safe);
        assert!(!strict.persistent(), "grant conflict must show up under strict policy");
        let relaxed = check_explicit(
            &stg,
            SgOptions::default(),
            PersistencyPolicy { allow_arbitration: true },
        );
        assert!(relaxed.persistent());
        assert_eq!(relaxed.verdict, Implementability::Gate);
    }

    #[test]
    fn muller_pipeline_is_gate_implementable() {
        for n in [2, 3, 4, 5] {
            let stg = muller_pipeline(n);
            assert!(stg.net().is_marked_graph());
            let report = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
            assert!(report.consistent(), "muller({n}) consistent");
            assert!(report.persistent(), "muller({n}) persistent");
            assert!(report.csc_holds(), "muller({n}) CSC");
            assert_eq!(report.verdict, Implementability::Gate);
        }
    }

    #[test]
    fn muller_pipeline_state_count_grows() {
        let s3 = states(&muller_pipeline(3));
        let s5 = states(&muller_pipeline(5));
        let s7 = states(&muller_pipeline(7));
        assert!(s3 < s5 && s5 < s7);
        // Lower bound: more than doubling every two stages.
        assert!(s7 > 4 * s3);
    }

    #[test]
    fn master_read_is_gate_implementable() {
        for n in [1, 2, 3] {
            let stg = master_read(n);
            assert!(stg.net().is_marked_graph());
            let report = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
            assert!(report.consistent());
            assert!(report.persistent());
            assert!(report.csc_holds(), "master_read({n}) CSC");
            assert_eq!(report.verdict, Implementability::Gate);
        }
    }

    #[test]
    fn par_handshakes_state_count_is_4_pow_n() {
        for n in [1, 2, 3, 4] {
            assert_eq!(states(&par_handshakes(n)), 4usize.pow(n as u32));
        }
    }

    #[test]
    fn par_handshakes_is_gate_implementable() {
        let report =
            check_explicit(&par_handshakes(3), SgOptions::default(), PersistencyPolicy::default());
        assert_eq!(report.verdict, Implementability::Gate);
    }

    #[test]
    fn vme_read_has_reducible_csc_violation() {
        let stg = vme_read();
        let report = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
        assert!(report.consistent());
        assert!(report.persistent());
        assert!(!report.csc_holds(), "VME read cycle is the classic CSC conflict");
        assert!(report.irreducible_signals.is_empty(), "and it is reducible");
        assert_eq!(report.verdict, Implementability::InputOutput);
    }

    #[test]
    fn fixtures_violate_their_advertised_property() {
        let opts = SgOptions::default();
        let policy = PersistencyPolicy::default();

        let r = check_explicit(&inconsistent_stg(), opts, policy);
        assert!(!r.consistent());

        let r = check_explicit(&nonpersistent_stg(), opts, policy);
        assert!(r.consistent());
        assert!(!r.persistent());

        let r = check_explicit(&csc_violation_stg(), opts, policy);
        assert!(r.consistent());
        assert!(r.persistent());
        assert!(!r.csc_holds());
        assert_eq!(r.verdict, Implementability::InputOutput);

        let r = check_explicit(&irreducible_csc_stg(), opts, policy);
        assert!(!r.csc_holds());
        assert!(!r.irreducible_signals.is_empty());
        assert_eq!(r.verdict, Implementability::SpeedIndependent);

        let r = check_explicit(&unsafe_stg(), opts, policy);
        assert!(r.bounded);
        assert!(!r.safe);

        let r = check_explicit(&unbounded_stg(), opts, policy);
        assert!(!r.bounded);
        assert_eq!(r.verdict, Implementability::NotImplementable);
    }

    #[test]
    fn ring_state_count_is_linear() {
        for n in [1, 2, 4, 6] {
            let stg = ring(n);
            let report = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
            assert!(report.consistent(), "ring({n})");
            assert!(report.persistent(), "ring({n})");
            assert_eq!(report.verdict, Implementability::Gate, "ring({n})");
            assert_eq!(states(&stg), 4 * n, "ring({n}) visits 4 states per station");
        }
    }

    #[test]
    fn random_safe_stg_is_deterministic_and_diverse() {
        for seed in 0..10u64 {
            let a = crate::parser::write_g(&random_safe_stg(seed));
            let b = crate::parser::write_g(&random_safe_stg(seed));
            assert_eq!(a, b, "seed {seed}");
        }
        let signal_counts: std::collections::HashSet<usize> =
            (0..20).map(|s| random_safe_stg(s).num_signals()).collect();
        assert!(signal_counts.len() > 1, "seeds should vary the shape");
    }

    #[test]
    fn mutex_scales() {
        for n in [2, 3] {
            let stg = mutex(n);
            let report = check_explicit(
                &stg,
                SgOptions::default(),
                PersistencyPolicy { allow_arbitration: true },
            );
            assert!(report.consistent());
            assert!(report.persistent());
            assert_eq!(report.verdict, Implementability::Gate, "mutex({n})");
        }
    }
}
