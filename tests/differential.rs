//! Cross-engine differential tests: the explicit state-graph checker
//! (`stgcheck-stg`) and the symbolic BDD checker (`stgcheck-core`) must
//! agree on every property, for every benchmark family and fixture, and
//! for randomly generated safe STGs.
//!
//! The scalable families come from the persistent fixtures under
//! `benchmarks/` (parsed from disk, so the `.g` corpus itself is under
//! test); regenerate them with `cargo run --example gen_data`.

mod common;

use common::{fixture, fixture_corpus, imported_corpus};
use stgcheck::core::{
    cross_check_reachability, verify, EngineKind, EngineOptions, ReorderMode, SymbolicStg,
    VarOrder, VerifyOptions,
};
use stgcheck::stg::gen;
use stgcheck::stg::{
    build_state_graph, check_explicit, csc_holds_for_signal, has_complementary_input_sequences,
    signal_persistency_violations, PersistencyPolicy, SgOptions, Stg,
};

fn corpus() -> Vec<Stg> {
    let mut all = fixture_corpus();
    all.extend(imported_corpus());
    all.extend([
        gen::mutex_element(),
        gen::muller_pipeline(7),
        gen::master_read(4),
        gen::par_handshakes(4),
        gen::vme_read(),
        gen::csc_violation_stg(),
        gen::irreducible_csc_stg(),
        gen::nonpersistent_stg(),
        gen::fig3_d1(),
        gen::fig3_d2(),
    ]);
    all
}

#[test]
fn fixtures_match_their_generators() {
    for (name, fresh) in gen::benchmark_fixtures() {
        let on_disk = fixture(name);
        assert_eq!(
            stgcheck::stg::write_g(&on_disk),
            stgcheck::stg::write_g(&fresh),
            "{name} drifted from its generator — rerun `cargo run --example gen_data`"
        );
    }
}

#[test]
fn reachability_agrees_on_corpus() {
    for stg in corpus() {
        for order in
            [VarOrder::Interleaved, VarOrder::PlacesThenSignals, VarOrder::SignalsThenPlaces]
        {
            cross_check_reachability(&stg, order)
                .unwrap_or_else(|e| panic!("{} under {order:?}: {e}", stg.name()));
        }
    }
}

#[test]
fn persistency_agrees_on_corpus() {
    for stg in corpus() {
        let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
        for policy in [PersistencyPolicy::default(), PersistencyPolicy { allow_arbitration: true }]
        {
            let explicit = signal_persistency_violations(&stg, &sg, policy);
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let code = sym.effective_initial_code().unwrap();
            let t = sym.traverse(code);
            let r_n = sym.project_markings(t.reached);
            let symbolic = sym.check_signal_persistency(r_n, policy);
            assert_eq!(
                explicit.is_empty(),
                symbolic.is_empty(),
                "{} policy {policy:?}",
                stg.name()
            );
        }
    }
}

#[test]
fn csc_and_reducibility_agree_on_corpus() {
    for stg in corpus() {
        let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let t = sym.traverse(code);
        for a in stg.noninput_signals() {
            let analysis = sym.check_csc_signal(t.reached, a);
            assert_eq!(
                csc_holds_for_signal(&stg, &sg, a),
                analysis.holds,
                "{} CSC({})",
                stg.name(),
                stg.signal_name(a)
            );
            let sym_mcis =
                sym.has_complementary_input_sequences(t.reached, a, analysis.contradictory);
            assert_eq!(
                has_complementary_input_sequences(&stg, &sg, a),
                sym_mcis,
                "{} MCIS({})",
                stg.name(),
                stg.signal_name(a)
            );
        }
    }
}

#[test]
fn verdicts_agree_on_fake_free_corpus() {
    for stg in corpus() {
        let explicit = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
        let symbolic = verify(&stg, VerifyOptions::default()).unwrap();
        if symbolic.fake_free() {
            assert_eq!(explicit.verdict, symbolic.verdict, "{}", stg.name());
        } else {
            // Fake conflicts are a well-formedness rejection on the
            // symbolic side only (the paper's tool behaviour).
            assert_eq!(
                symbolic.verdict,
                stgcheck::stg::Implementability::NotImplementable,
                "{}",
                stg.name()
            );
        }
        assert_eq!(explicit.states as u128, symbolic.num_states, "{}", stg.name());
        assert_eq!(explicit.safe, symbolic.safe(), "{}", stg.name());
        assert_eq!(explicit.consistent(), symbolic.consistent(), "{}", stg.name());
    }
}

#[test]
fn dead_transitions_agree_between_engines() {
    for stg in corpus() {
        let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
        let explicit = stgcheck::stg::dead_transitions(&stg, &sg);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let t = sym.traverse(code);
        let mut symbolic = sym.dead_transitions(t.reached);
        symbolic.sort();
        let mut explicit = explicit;
        explicit.sort();
        // The explicit notion (never fires) can differ from the symbolic
        // one (never enabled) only for enabled-but-blocked transitions,
        // which cannot happen in a consistent STG; assert equality.
        assert_eq!(explicit, symbolic, "{}", stg.name());
    }
}

/// The saturation engine against the explicit checker: its reached set
/// (the state count is an exact proxy — the engines-suite already pins
/// the handle) and every verdict facet must match the `state_graph`
/// enumeration on random safe STGs, across all three reorder modes, on
/// the corpus nets too.
#[test]
fn saturation_agrees_with_explicit_enumeration() {
    let mut nets: Vec<Stg> = (0..40u64).map(gen::random_safe_stg).collect();
    nets.extend(corpus());
    for stg in nets {
        let explicit = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
        for reorder in [ReorderMode::None, ReorderMode::Sift, ReorderMode::Auto] {
            let opts = VerifyOptions {
                engine: EngineOptions { kind: EngineKind::Saturation, ..Default::default() },
                reorder,
                ..VerifyOptions::default()
            };
            let symbolic = verify(&stg, opts).unwrap();
            let ctx = format!("{} reorder {reorder}", stg.name());
            assert_eq!(explicit.states as u128, symbolic.num_states, "{ctx}: state counts");
            assert_eq!(explicit.consistent(), symbolic.consistent(), "{ctx}: consistency");
            assert_eq!(explicit.safe, symbolic.safe(), "{ctx}: safety");
            assert_eq!(
                explicit.persistency.is_empty(),
                symbolic.persistent(),
                "{ctx}: persistency"
            );
            if symbolic.fake_free() {
                assert_eq!(explicit.verdict, symbolic.verdict, "{ctx}: verdict");
            }
            assert_eq!(symbolic.engine, "saturation", "{ctx}: engine column");
        }
    }
}

#[test]
fn random_stgs_agree_between_engines() {
    for seed in 0..40u64 {
        let stg = gen::random_safe_stg(seed);
        // Some random nets may deadlock or be tiny — that's fine, the
        // engines must still agree.
        let explicit = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
        let symbolic = verify(&stg, VerifyOptions::default()).unwrap();
        assert_eq!(explicit.states as u128, symbolic.num_states, "seed {seed}: state counts");
        assert_eq!(explicit.consistent(), symbolic.consistent(), "seed {seed}: consistency");
        assert_eq!(explicit.safe, symbolic.safe(), "seed {seed}: safety");
        assert_eq!(
            explicit.persistency.is_empty(),
            symbolic.persistent(),
            "seed {seed}: persistency"
        );
        if !explicit.consistent() || !explicit.safe {
            // CSC comparison below needs a constructed state graph.
            continue;
        }
        for a in stg.noninput_signals() {
            let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let code = sym.effective_initial_code().unwrap();
            let t = sym.traverse(code);
            let analysis = sym.check_csc_signal(t.reached, a);
            assert_eq!(
                csc_holds_for_signal(&stg, &sg, a),
                analysis.holds,
                "seed {seed}: CSC({})",
                stg.signal_name(a)
            );
        }
    }
}
