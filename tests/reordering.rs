//! Dynamic-reordering acceptance suite: in-place sifting must *pay off*
//! — on benchmark families traversed under a deliberately bad static
//! order, `--reorder auto` (and `sift`) must reduce the peak live-node
//! count while computing exactly the same state space — and the grouping
//! metadata the encoder hands the manager must be well-formed.
//!
//! `BENCH_table1.json` records the same configurations' peaks and walls.

use stgcheck::core::{EngineKind, EngineOptions, ReorderMode, SymbolicStg, VarOrder};
use stgcheck::stg::{gen, parse_g, write_g};

/// Families where the declaration order is known-bad and sifting
/// recovers an interleaving-quality order (see BENCH_table1.json for the
/// recorded numbers).
fn bad_order_families() -> Vec<stgcheck::stg::Stg> {
    vec![gen::muller_pipeline(8), gen::par_handshakes(6), gen::master_read(4)]
}

#[test]
fn sifting_reduces_peak_on_bad_static_orders() {
    for stg in bad_order_families() {
        let mut results = Vec::new();
        for reorder in [ReorderMode::None, ReorderMode::Auto, ReorderMode::Sift] {
            let mut sym = SymbolicStg::new(&stg, VarOrder::Declaration);
            let code = sym.effective_initial_code().unwrap();
            let opts = EngineOptions { reorder, ..EngineOptions::default() };
            let t = sym.traverse_with_engine(code, &opts);
            results.push((reorder, t.stats));
        }
        let (_, none) = &results[0];
        for (mode, stats) in &results[1..] {
            assert_eq!(
                stats.num_states,
                none.num_states,
                "{}: {mode} changed the state count",
                stg.name()
            );
            assert!(*mode == ReorderMode::None || stats.sift_passes > 0, "{}", stg.name());
            assert!(
                stats.peak_nodes < none.peak_nodes,
                "{}: reorder {mode} peak {} not below static-order peak {}",
                stg.name(),
                stats.peak_nodes,
                none.peak_nodes
            );
        }
    }
}

/// Sifting between iterations must not corrupt the reachable set: the
/// sifted traversal agrees with an untouched interleaved-order run.
#[test]
fn sifted_traversal_matches_clean_traversal() {
    for stg in bad_order_families() {
        let mut clean = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = clean.effective_initial_code().unwrap();
        let reference = clean.traverse_with_engine(code, &EngineOptions::default());
        let mut sifted = SymbolicStg::new(&stg, VarOrder::Declaration);
        let opts = EngineOptions { reorder: ReorderMode::Sift, ..EngineOptions::default() };
        let t = sifted.traverse_with_engine(code, &opts);
        assert_eq!(t.stats.num_states, reference.stats.num_states, "{}", stg.name());
        sifted.manager_mut().check_invariants();
    }
}

/// The interleaved encoder declares one sifting group per signal (the
/// signal plus its trailing places), covering disjoint variables, each
/// contiguous in the initial order and led by the signal variable.
#[test]
fn interleaved_encoding_declares_contiguous_groups() {
    for stg in bad_order_families() {
        let sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let groups = sym.var_groups();
        assert_eq!(groups.len(), stg.num_signals(), "{}", stg.name());
        let mgr = sym.manager();
        let mut seen = vec![false; mgr.num_vars()];
        for g in groups {
            assert!(!g.is_empty());
            assert!(
                mgr.var_name(g[0]).starts_with("s:"),
                "{}: group lead not a signal",
                stg.name()
            );
            let levels: Vec<usize> = g.iter().map(|&v| mgr.level_of(v)).collect();
            let lo = *levels.iter().min().unwrap();
            let hi = *levels.iter().max().unwrap();
            assert_eq!(hi - lo + 1, g.len(), "{}: group not contiguous", stg.name());
            for &v in g {
                assert!(!seen[v.index()], "{}: variable in two groups", stg.name());
                seen[v.index()] = true;
            }
        }
        // The non-interleaved orders carry no grouping.
        let plain = SymbolicStg::new(&stg, VarOrder::Declaration);
        assert!(plain.var_groups().is_empty());
    }
}

/// Grouped sifting keeps every signal block intact through a real
/// traversal's reorder passes.
#[test]
fn signal_groups_survive_traversal_sifting() {
    let stg = gen::muller_pipeline(8);
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().unwrap();
    let opts = EngineOptions { reorder: ReorderMode::Sift, ..EngineOptions::default() };
    let t = sym.traverse_with_engine(code, &opts);
    assert!(t.stats.sift_passes > 0);
    let mgr = sym.manager();
    for g in sym.var_groups() {
        let levels: Vec<usize> = g.iter().map(|&v| mgr.level_of(v)).collect();
        let lo = *levels.iter().min().unwrap();
        let hi = *levels.iter().max().unwrap();
        assert_eq!(hi - lo + 1, g.len(), "group {g:?} split by sifting");
    }
}

/// The sift trajectory of the benchmark's `bad-order-sift` nets, pinned:
/// passes, swaps, peak and live nodes, collections, states and the final
/// size, under the declaration order with `--reorder auto` on the
/// per-transition engine. Every sifting decision reads only the live
/// count, which is canonical for an order, so a change to how a swap
/// rewrites its two levels must leave all of these alone. The
/// `BENCH_table1.json` gate compares only the corpus nets' sift passes
/// and final sizes.
#[test]
fn sift_trajectory_is_pinned_on_the_benchmark_nets() {
    // [sift_runs, sift_swaps, peak_live_nodes, live_nodes, gc_runs,
    // gc_reclaimed], then states and the final size of `Reached`.
    let pins = [
        (gen::muller_pipeline(10), [18, 65_853, 2_838, 642, 18, 15_918], 1_024, 126),
        (gen::master_read(6), [15, 77_910, 2_670, 1_035, 15, 7_681], 1_460, 263),
        (gen::par_handshakes(6), [7, 16_749, 1_262, 1_262, 7, 3_210], 4_096, 93),
    ];
    for (net, manager, states, final_nodes) in pins {
        let stg = parse_g(&write_g(&net)).unwrap();
        let opts = EngineOptions {
            kind: EngineKind::PerTransition,
            reorder: ReorderMode::Auto,
            ..EngineOptions::default()
        };
        let mut sym = SymbolicStg::new(&stg, VarOrder::Declaration);
        sym.set_engine(opts);
        let code = sym.effective_initial_code().unwrap();
        let t = sym.traverse_with_engine(code, &opts);
        let s = sym.manager().stats();
        assert_eq!(
            [s.sift_runs, s.sift_swaps, s.peak_live_nodes, s.live_nodes, s.gc_runs, s.gc_reclaimed],
            manager,
            "{}",
            stg.name()
        );
        assert_eq!(
            (t.stats.num_states, t.stats.final_nodes),
            (states, final_nodes),
            "{}",
            stg.name()
        );
    }
}
