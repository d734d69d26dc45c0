//! Dead transitions on the explicit state graph.
//!
//! The paper requires *finite* behaviour (boundedness); specifications are
//! usually also expected to have no dead transitions. This diagnostic
//! catches specification bugs that the implementability conditions alone
//! do not (a dead output transition vacuously passes every CSC check), and
//! it is the explicit reference for the symbolic dead-transition check.

use stgcheck_petri::TransId;

use crate::state_graph::StateGraph;
use crate::stg::Stg;

/// Transitions that never fire anywhere in the state graph.
pub fn dead_transitions(stg: &Stg, sg: &StateGraph) -> Vec<TransId> {
    let mut fires = vec![false; stg.net().num_transitions()];
    for v in 0..sg.len() {
        for &(t, _) in sg.successors(v) {
            fires[t.index()] = true;
        }
    }
    stg.net().transitions().filter(|t| !fires[t.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::state_graph::{build_state_graph, SgOptions};
    use crate::stg::StgBuilder;

    fn sg_of(stg: &Stg) -> StateGraph {
        build_state_graph(stg, SgOptions::default()).unwrap()
    }

    #[test]
    fn cyclic_benchmarks_have_no_dead_transitions() {
        for stg in [gen::mutex_element(), gen::muller_pipeline(4), gen::vme_read()] {
            let sg = sg_of(&stg);
            assert!(dead_transitions(&stg, &sg).is_empty(), "{}", stg.name());
        }
    }

    #[test]
    fn oneshot_spec_has_dead_tail() {
        // r+ ; a+ and then nothing: the final state is dead, but each
        // transition fires once, so none is a dead transition.
        let mut b = StgBuilder::new("oneshot");
        b.input("r");
        b.output("a");
        let p = b.place("p", 1);
        b.pt(p, "r+");
        b.arc("r+", "a+");
        b.initial_code_str("00");
        let stg = b.build().unwrap();
        let sg = sg_of(&stg);
        assert_eq!(sg.len(), 3);
        assert!(dead_transitions(&stg, &sg).is_empty(), "both fire once");
    }

    #[test]
    fn never_enabled_transition_is_dead() {
        let mut b = StgBuilder::new("dead");
        b.input("r");
        b.output("x");
        b.cycle(&["r+", "r-"]);
        let tomb = b.place("tomb", 0);
        b.pt(tomb, "x+");
        b.initial_code_str("00");
        let stg = b.build().unwrap();
        let sg = sg_of(&stg);
        let dead = dead_transitions(&stg, &sg);
        assert_eq!(dead.len(), 1);
        assert_eq!(stg.label_string(dead[0]), "x+");
    }

    #[test]
    fn agrees_with_symbolic_dead_transition_check() {
        // The explicit dead-transition list must match the symbolic one
        // (exercised further in stgcheck-core's tests; here: sanity on a
        // live net).
        let stg = gen::master_read(2);
        let sg = sg_of(&stg);
        assert!(dead_transitions(&stg, &sg).is_empty());
    }
}
