//! Image-engine equivalence suite: `PerTransition`, `ParallelSharded`
//! and `Saturation` must produce the *identical*
//! `Reached` BDD (the same canonical handle in the same manager) and the
//! same state count on every benchmark family fixture, on the
//! pathological generators, and on random STGs.
//!
//! The frozen-marking traversal and the full verification pipeline are
//! covered too, so a future engine cannot drift on any of the loops it
//! drives.

mod common;

use common::{fixture, fixture_corpus, imported_corpus};
use stgcheck::core::{
    verify, EngineKind, EngineOptions, ReorderMode, SymbolicStg, VarOrder, VerifyOptions,
};
use stgcheck::stg::{gen, Stg};

/// Benchmark-family fixtures, the hand-imported corpus nets, plus the
/// fixtures that violate each implementability condition in isolation.
fn corpus() -> Vec<Stg> {
    let mut all = fixture_corpus();
    all.extend(imported_corpus());
    all.extend([
        gen::mutex_element(),
        gen::vme_read(),
        gen::ring(4),
        gen::csc_violation_stg(),
        gen::irreducible_csc_stg(),
        gen::nonpersistent_stg(),
        gen::fig3_d1(),
        gen::fig3_d2(),
    ]);
    all
}

/// Every engine configuration under test. `jobs: 2` forces genuine
/// sharding even on single-CPU hosts.
fn engines() -> Vec<(&'static str, EngineOptions)> {
    vec![
        ("per-transition", EngineOptions::default()),
        (
            "parallel/2",
            EngineOptions { kind: EngineKind::ParallelSharded, jobs: 2, ..Default::default() },
        ),
        (
            "parallel/4",
            EngineOptions { kind: EngineKind::ParallelSharded, jobs: 4, ..Default::default() },
        ),
        ("saturation", EngineOptions { kind: EngineKind::Saturation, ..Default::default() }),
    ]
}

#[test]
fn engines_agree_on_reached_for_every_family() {
    for stg in corpus() {
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let base = sym.traverse_with_engine(code, &EngineOptions::default());
        for (name, opts) in engines() {
            let t = sym.traverse_with_engine(code, &opts);
            // Canonicity: the same set must be the same handle.
            assert_eq!(t.reached, base.reached, "{}: {name} reached differs", stg.name());
            assert_eq!(
                t.stats.num_states,
                base.stats.num_states,
                "{}: {name} state count differs",
                stg.name()
            );
            assert_eq!(
                t.stats.final_nodes,
                base.stats.final_nodes,
                "{}: {name} final BDD size differs",
                stg.name()
            );
        }
    }
}

#[test]
fn engines_agree_on_random_stgs() {
    for seed in 0..25u64 {
        let stg = gen::random_safe_stg(seed);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let base = sym.traverse_with_engine(code, &EngineOptions::default());
        for (name, opts) in engines() {
            let t = sym.traverse_with_engine(code, &opts);
            assert_eq!(t.reached, base.reached, "seed {seed}: {name}");
            assert_eq!(t.stats.num_states, base.stats.num_states, "seed {seed}: {name}");
        }
    }
}

#[test]
fn engines_agree_on_frozen_marking_traversal() {
    // The Section 5.1 building block (initial-code inference) runs
    // through the same engine loop: freeze each signal in turn and
    // compare the frozen reachable-marking sets across engines.
    for stg in [fixture("muller_pipeline_4.g"), fixture("mutex_3.g"), gen::vme_read()] {
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        for s in stg.signals() {
            sym.set_engine(EngineOptions::default());
            let base = sym.traverse_markings_frozen(&[s]);
            for (name, opts) in engines() {
                sym.set_engine(opts);
                let frozen = sym.traverse_markings_frozen(&[s]);
                assert_eq!(
                    frozen,
                    base,
                    "{} frozen({}) differs under {name}",
                    stg.name(),
                    stg.signal_name(s)
                );
            }
        }
    }
}

#[test]
fn full_verification_verdicts_are_engine_independent() {
    for stg in corpus() {
        let base = verify(&stg, VerifyOptions::default()).unwrap();
        for kind in [EngineKind::ParallelSharded, EngineKind::Saturation] {
            let opts = VerifyOptions {
                engine: EngineOptions { kind, jobs: 2, ..Default::default() },
                ..VerifyOptions::default()
            };
            let report = verify(&stg, opts).unwrap();
            assert_eq!(report.verdict, base.verdict, "{}: {kind}", stg.name());
            assert_eq!(report.num_states, base.num_states, "{}: {kind}", stg.name());
            assert_eq!(report.bdd_final, base.bdd_final, "{}: {kind}", stg.name());
            assert_eq!(report.safe(), base.safe(), "{}: {kind}", stg.name());
            assert_eq!(report.consistent(), base.consistent(), "{}: {kind}", stg.name());
            assert_eq!(report.persistent(), base.persistent(), "{}: {kind}", stg.name());
            assert_eq!(report.csc_holds(), base.csc_holds(), "{}: {kind}", stg.name());
            assert_eq!(
                report.irreducible_signals,
                base.irreducible_signals,
                "{}: {kind}",
                stg.name()
            );
            assert_eq!(report.engine, kind.to_string(), "{}", stg.name());
        }
    }
}

/// Every engine × `--reorder` mode must reach the identical verification
/// verdict and state count. `jobs: 2` forces genuine sharding for the
/// parallel engine, which under `sift`/`auto` also exercises the
/// mid-fixpoint order broadcast to the workers. Only the BDD *sizes* may
/// differ across modes — a reorder changes the graph, never the set.
#[test]
fn verdicts_and_counts_are_reorder_independent() {
    for stg in corpus() {
        let base = verify(&stg, VerifyOptions::default()).unwrap();
        for kind in [EngineKind::PerTransition, EngineKind::ParallelSharded, EngineKind::Saturation]
        {
            for reorder in [ReorderMode::None, ReorderMode::Sift, ReorderMode::Auto] {
                let opts = VerifyOptions {
                    engine: EngineOptions { kind, jobs: 2, ..Default::default() },
                    reorder,
                    ..VerifyOptions::default()
                };
                let report = verify(&stg, opts).unwrap();
                let ctx = format!("{}: {kind} + reorder {reorder}", stg.name());
                assert_eq!(report.verdict, base.verdict, "{ctx}");
                assert_eq!(report.num_states, base.num_states, "{ctx}");
                assert_eq!(report.safe(), base.safe(), "{ctx}");
                assert_eq!(report.consistent(), base.consistent(), "{ctx}");
                assert_eq!(report.persistent(), base.persistent(), "{ctx}");
                assert_eq!(report.fake_free(), base.fake_free(), "{ctx}");
                assert_eq!(report.csc_holds(), base.csc_holds(), "{ctx}");
                assert_eq!(report.irreducible_signals, base.irreducible_signals, "{ctx}");
                if reorder == ReorderMode::Sift {
                    assert!(report.sift_passes > 0, "{ctx}: sift mode must run passes");
                }
            }
        }
    }
}

/// The full engine matrix — every engine × `--reorder
/// {none,sift,auto}`, and for the parallel engine additionally × `jobs
/// {2,4}` — must produce the *identical* `Reached` handle and state count
/// on every benchmark family and on random safe STGs.
///
/// A sifting run garbage-collects everything outside its own roots, so a
/// reference handle from *before* the sift would dangle; instead the
/// per-transition reference is recomputed right after each configuration
/// in the same manager, where handle equality is exactly function
/// equality under the then-current order.
#[test]
fn four_engine_reorder_matrix_agrees_on_reached() {
    let mut nets = fixture_corpus();
    nets.extend(imported_corpus());
    nets.extend((0..10u64).map(gen::random_safe_stg));
    for stg in nets {
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let states = sym.traverse_with_engine(code, &EngineOptions::default()).stats.num_states;
        for kind in [EngineKind::PerTransition, EngineKind::ParallelSharded, EngineKind::Saturation]
        {
            let jobs: &[usize] = if kind == EngineKind::ParallelSharded { &[2, 4] } else { &[2] };
            for reorder in [ReorderMode::None, ReorderMode::Sift, ReorderMode::Auto] {
                for &jobs in jobs {
                    let opts = EngineOptions { kind, jobs, reorder };
                    let t = sym.traverse_with_engine(code, &opts);
                    let base = sym.traverse_with_engine(code, &EngineOptions::default());
                    let ctx = format!("{}: {kind} reorder {reorder} jobs {jobs}", stg.name());
                    assert_eq!(t.reached, base.reached, "{ctx}: reached handle differs");
                    assert_eq!(t.stats.num_states, states, "{ctx}: state count differs");
                }
            }
        }
    }
}

/// The parallel engine must agree with `per-transition` on the state
/// count and full verdict for every net in `benchmarks/`, at 2 and 4
/// workers, across `--reorder none|auto`.
#[test]
fn parallel_agrees_with_per_transition_on_benchmark_corpus() {
    let mut corpus = fixture_corpus();
    corpus.extend(imported_corpus());
    for stg in corpus {
        for reorder in [ReorderMode::None, ReorderMode::Auto] {
            let base = verify(&stg, VerifyOptions { reorder, ..VerifyOptions::default() }).unwrap();
            for jobs in [2, 4] {
                let opts = VerifyOptions {
                    engine: EngineOptions {
                        kind: EngineKind::ParallelSharded,
                        jobs,
                        ..Default::default()
                    },
                    reorder,
                    ..VerifyOptions::default()
                };
                let report = verify(&stg, opts).unwrap();
                let ctx = format!("{}: parallel/{jobs} reorder {reorder}", stg.name());
                assert_eq!(report.num_states, base.num_states, "{ctx}");
                assert_eq!(report.verdict, base.verdict, "{ctx}");
                assert_eq!(report.safe(), base.safe(), "{ctx}");
                assert_eq!(report.consistent(), base.consistent(), "{ctx}");
                assert_eq!(report.persistent(), base.persistent(), "{ctx}");
                assert_eq!(report.csc_holds(), base.csc_holds(), "{ctx}");
            }
        }
    }
}
