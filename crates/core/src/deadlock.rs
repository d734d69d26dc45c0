//! Symbolic deadlock detection — a diagnostic the paper's framework gets
//! for free: a full state is dead iff no transition is enabled in it,
//! `Dead = Reached ∧ ¬⋁_t E(t)`.
//!
//! Deadlock-freedom is not one of the Def. 2.6 implementability conditions
//! (a specification may legitimately terminate), so the verifier reports
//! it as information rather than folding it into the verdict.

use stgcheck_bdd::{Bdd, BddOps};

use crate::encode::{StateWitness, SymbolicStg};

impl SymbolicStg<'_> {
    /// The characteristic function of all reachable deadlocked full
    /// states.
    pub fn deadlock_set(&mut self, reached: Bdd) -> Bdd {
        let enabled: Vec<Bdd> =
            self.stg().net().transitions().map(|t| self.cubes(t).enabled).collect();
        let mgr = self.manager_mut();
        let any = mgr.or_many(&enabled);
        mgr.diff(reached, any)
    }

    /// Checks deadlock-freedom; returns a witness state if one exists.
    pub fn check_deadlock(&mut self, reached: Bdd) -> Option<StateWitness> {
        let dead = self.deadlock_set(reached);
        self.decode_witness(dead)
    }

    /// Transitions that are never enabled in any reachable state (dead
    /// transitions). A dead signal transition is almost always a
    /// specification bug: the labelled behaviour can never happen, so the
    /// checks vacuously pass for it.
    pub fn dead_transitions(&mut self, reached: Bdd) -> Vec<stgcheck_petri::TransId> {
        self.stg()
            .net()
            .transitions()
            .collect::<Vec<_>>()
            .into_iter()
            .filter(|&t| {
                let e = self.cubes(t).enabled;
                !self.manager_mut().intersects(reached, e)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::{gen, StgBuilder};

    fn reached_of(sym: &mut SymbolicStg<'_>) -> Bdd {
        let code = sym.effective_initial_code().unwrap();
        sym.traverse(code).reached
    }

    #[test]
    fn live_benchmarks_are_deadlock_free() {
        for stg in
            [gen::mutex_element(), gen::muller_pipeline(5), gen::master_read(3), gen::vme_read()]
        {
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let reached = reached_of(&mut sym);
            assert!(sym.check_deadlock(reached).is_none(), "{}", stg.name());
        }
    }

    #[test]
    fn detects_terminating_specification() {
        // One shot: r+ then a+, nothing afterwards.
        let mut b = StgBuilder::new("oneshot");
        b.input("r");
        b.output("a");
        let p = b.place("p", 1);
        b.pt(p, "r+");
        b.arc("r+", "a+");
        b.initial_code_str("00");
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let reached = reached_of(&mut sym);
        let w = sym.check_deadlock(reached).expect("terminates");
        // The dead state has both signals high and no marked place among
        // the two handshake places.
        assert_eq!(w.code, "11");
        // And the deadlock set is exactly one state.
        let dead = sym.deadlock_set(reached);
        assert_eq!(sym.manager().sat_count(dead), 1);
    }

    #[test]
    fn dead_transitions_found() {
        // A transition guarded by a never-marked place is dead.
        let mut b = StgBuilder::new("dead");
        b.input("r");
        b.output("never");
        b.cycle(&["r+", "r-"]);
        let tomb = b.place("tomb", 0);
        b.pt(tomb, "never+");
        b.initial_code_str("00");
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let reached = reached_of(&mut sym);
        let dead = sym.dead_transitions(reached);
        let never = stg.net().trans_by_name("never+").unwrap();
        assert_eq!(dead, vec![never]);
        // Live benchmarks have none.
        let live = gen::muller_pipeline(4);
        let mut sym = SymbolicStg::new(&live, VarOrder::Interleaved);
        let reached = reached_of(&mut sym);
        assert!(sym.dead_transitions(reached).is_empty());
    }

    #[test]
    fn agrees_with_explicit_enumeration() {
        use stgcheck_stg::{build_state_graph, SgOptions};
        for stg in [gen::mutex(3), gen::csc_violation_stg(), gen::fig3_d1()] {
            let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
            let explicit_dead = (0..sg.len()).filter(|&v| sg.successors(v).is_empty()).count();
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let reached = reached_of(&mut sym);
            let dead = sym.deadlock_set(reached);
            assert_eq!(sym.manager().sat_count(dead), explicit_dead as u128, "{}", stg.name());
        }
    }
}
