//! Integration tests reproducing the paper's illustrative figures: one
//! test per figure, F1–F6 for Figs. 1–6 (named `fig1_…` to `fig6_…`),
//! plus the Def. 2.6 implementability hierarchy.

use stgcheck::core::{verify, SymbolicStg, VarOrder, VerifyOptions};
use stgcheck::petri::ReachOptions;
use stgcheck::stg::gen;
use stgcheck::stg::{
    build_state_graph, fake_conflicts, Implementability, PersistencyPolicy, SgOptions,
};

/// F1: Fig. 1 — the two-user mutual exclusion element has 9 places, 8
/// transitions, 4 signals, and its Petri net is safe and live.
#[test]
fn fig1_mutex_element_shape() {
    let stg = gen::mutex_element();
    let net = stg.net();
    assert_eq!(net.num_places(), 9);
    assert_eq!(net.num_transitions(), 8);
    assert_eq!(stg.num_signals(), 4);
    assert!(net.is_safe(ReachOptions::default()).unwrap());
    // Liveness smoke check: every transition fires somewhere.
    let rg = net.reachability_graph(ReachOptions::default()).unwrap();
    for t in net.transitions() {
        assert!(
            rg.markings().iter().any(|m| net.is_enabled(t, m)),
            "{} never enabled",
            net.trans_name(t)
        );
    }
}

/// F2: Fig. 2 — reachability graph, state graph and full state graph of
/// the mutex element. With a fixed initial code, markings and full states
/// are in bijection here, and the binary codes are not all distinct
/// (several markings share a code only if consistent — here they don't).
#[test]
fn fig2_three_state_models() {
    let stg = gen::mutex_element();
    let rg = stg.net().reachability_graph(ReachOptions::default()).unwrap();
    let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
    // One state per marking (codes are a function of the marking here).
    assert_eq!(rg.len(), sg.len());
    // And the symbolic count agrees.
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().unwrap();
    let t = sym.traverse(code);
    assert_eq!(t.stats.num_states, sg.len() as u128);
}

/// F3: Fig. 3 — D1 (fake choice) and D2 (true concurrency) induce the
/// same state graph; D1's transitions are non-persistent but its signals
/// are persistent.
#[test]
fn fig3_d1_d2_equivalence() {
    let d1 = gen::fig3_d1();
    let d2 = gen::fig3_d2();
    let sg1 = build_state_graph(&d1, SgOptions::default()).unwrap();
    let sg2 = build_state_graph(&d2, SgOptions::default()).unwrap();
    assert_eq!(sg1.len(), sg2.len());
    assert_eq!(sg1.num_edges(), sg2.num_edges());

    // Transition-level: non-persistent. Signal-level: persistent.
    let tp = stgcheck::stg::transition_persistency_violations(&d1, &sg1);
    assert!(!tp.is_empty());
    let sp = stgcheck::stg::signal_persistency_violations(&d1, &sg1, PersistencyPolicy::default());
    assert!(sp.is_empty());
}

/// F4: Fig. 4 — symmetric vs asymmetric fake conflicts, explicit and
/// symbolic analyses agreeing.
#[test]
fn fig4_fake_conflict_taxonomy() {
    let d1 = gen::fig3_d1();
    let rg = d1.net().reachability_graph(ReachOptions::default()).unwrap();
    let explicit = fake_conflicts(&d1, &rg);
    assert_eq!(explicit.len(), 1);
    assert!(explicit[0].is_symmetric_fake());

    let mut sym = SymbolicStg::new(&d1, VarOrder::Interleaved);
    let code = sym.effective_initial_code().unwrap();
    let t = sym.traverse(code);
    let r_n = sym.project_markings(t.reached);
    let symbolic = sym.check_fake_conflicts(r_n);
    assert_eq!(explicit, symbolic);
}

/// F5: Fig. 5 — the traversal algorithm reaches a fixpoint that matches
/// the explicit enumeration.
#[test]
fn fig5_traversal_fixpoint() {
    for stg in [gen::mutex(3), gen::master_read(3), gen::vme_read()] {
        let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let t = sym.traverse(code);
        assert_eq!(t.stats.num_states, sg.len() as u128, "{}", stg.name());
    }
}

/// F6: Fig. 6 — the persistency algorithms only inspect conflict places;
/// a marked graph is vacuously persistent and the mutex grant conflict is
/// the single violation pair.
#[test]
fn fig6_persistency_algorithms() {
    let mg = gen::muller_pipeline(6);
    assert!(mg.net().conflict_places().is_empty());
    let mut sym = SymbolicStg::new(&mg, VarOrder::Interleaved);
    let code = sym.effective_initial_code().unwrap();
    let t = sym.traverse(code);
    let r_n = sym.project_markings(t.reached);
    assert!(sym.check_transition_persistency(r_n).is_empty());

    let mutex = gen::mutex_element();
    let mut sym = SymbolicStg::new(&mutex, VarOrder::Interleaved);
    let code = sym.effective_initial_code().unwrap();
    let t = sym.traverse(code);
    let r_n = sym.project_markings(t.reached);
    let tv = sym.check_transition_persistency(r_n);
    assert_eq!(tv.len(), 2); // a1+ disabled by a2+ and vice versa
}

/// The implementability hierarchy of Def. 2.6 is honoured end to end.
#[test]
fn implementability_hierarchy() {
    let cases = [
        (gen::muller_pipeline(4), Implementability::Gate),
        (gen::vme_read(), Implementability::InputOutput),
        (gen::irreducible_csc_stg(), Implementability::SpeedIndependent),
        (gen::inconsistent_stg(), Implementability::NotImplementable),
    ];
    for (stg, expected) in cases {
        let report = verify(&stg, VerifyOptions::default()).unwrap();
        assert_eq!(report.verdict, expected, "{}", stg.name());
    }
}
