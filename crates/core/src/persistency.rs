//! Symbolic persistency checks — the two algorithms of the paper's Fig. 6,
//! refined by the input/non-input distinction of Def. 3.2.
//!
//! Both algorithms exploit structure: a transition can only be disabled at
//! a *conflict place* (an input place with several consumers), so only the
//! pairs `(tᵢ, tⱼ) ∈ p• × p•` need checking. Marked graphs have no such
//! places — which is why the paper's Table 1 reports negligible "NI-p"
//! time for the master-read and Muller-pipeline examples.

use stgcheck_bdd::{Bdd, BddOps};
use stgcheck_petri::TransId;
use stgcheck_stg::{PersistencyPolicy, SignalId};

use crate::encode::{StateWitness, SymbolicStg};

/// A transition-persistency violation (Fig. 6(a)): firing `fired` disabled
/// `disabled` in some reachable marking.
#[derive(Clone, Debug)]
pub struct SymTransViolation {
    /// The transition that fired.
    pub fired: TransId,
    /// The transition that lost its enabling.
    pub disabled: TransId,
    /// A marking in which both were enabled and the disabling occurs.
    pub witness: StateWitness,
}

/// A signal-persistency violation (Fig. 6(b) + Def. 3.2): firing `fired`
/// disabled the signal `disabled` entirely (no other transition of the
/// same edge remained enabled).
#[derive(Clone, Debug)]
pub struct SymSignalViolation {
    /// The transition that fired.
    pub fired: TransId,
    /// The signal that lost its enabling.
    pub disabled: SignalId,
    /// A marking in which the disabling occurs.
    pub witness: StateWitness,
}

impl SymbolicStg<'_> {
    /// Fig. 6(a): transition persistency over the reachable set.
    ///
    /// `r_n` may be either the marking projection `∃signals.Reached` (the
    /// paper's formulation) or the full `Reached` — enabledness only
    /// involves place variables, so both give the same verdict; with the
    /// full set the witnesses additionally carry the signal code.
    pub fn check_transition_persistency(&mut self, r_n: Bdd) -> Vec<SymTransViolation> {
        let net = self.stg().net();
        let mut out = Vec::new();
        for p in net.conflict_places() {
            let post = net.place_postset(p).to_vec();
            for &ti in &post {
                let e_i = self.cubes(ti).enabled;
                let enabled = self.manager_mut().and(r_n, e_i);
                for &tj in &post {
                    if ti == tj {
                        continue;
                    }
                    let after = self.image_marking(enabled, tj);
                    let mgr = self.manager_mut();
                    let bad_after = mgr.diff(after, e_i);
                    if bad_after.is_false() {
                        continue;
                    }
                    // Walk back to the marking where both were enabled.
                    let src = self.preimage_marking(bad_after, tj);
                    let src = self.manager_mut().and(src, enabled);
                    // Empty only after a budget trip made the operations
                    // inert; the caller reports the trip.
                    let Some(witness) = self.decode_witness(src) else { return out };
                    out.push(SymTransViolation { fired: tj, disabled: ti, witness });
                }
            }
        }
        out
    }

    /// Fig. 6(b): signal persistency over the reachable set (marking
    /// projection or full `Reached`, as with
    /// [`SymbolicStg::check_transition_persistency`]), filtered by the
    /// Def. 3.2 interface rules:
    ///
    /// * a non-input signal disabled by anything is a violation — unless
    ///   `policy.allow_arbitration` and the disabler is also non-input
    ///   (the paper's footnote on arbiters);
    /// * an input signal disabled by a non-input (or dummy) transition is
    ///   a violation;
    /// * an input disabled by an input is a choice, not a violation.
    pub fn check_signal_persistency(
        &mut self,
        r_n: Bdd,
        policy: PersistencyPolicy,
    ) -> Vec<SymSignalViolation> {
        let net = self.stg().net();
        let stg = self.stg();
        let mut out = Vec::new();
        for p in net.conflict_places() {
            let post = net.place_postset(p).to_vec();
            for &ti in &post {
                let Some(li) = stg.label(ti) else { continue };
                let a = li.signal;
                let a_noninput = stg.signal_kind(a).is_noninput();
                for &tj in &post {
                    if ti == tj {
                        continue;
                    }
                    // The disabler's interface class (dummies act for the
                    // circuit).
                    let lj = stg.label(tj);
                    if lj.is_some_and(|l| l.signal == a) {
                        continue; // same signal: not "another signal"
                    }
                    let b_noninput = lj.is_none_or(|l| stg.signal_kind(l.signal).is_noninput());
                    let is_violation = if a_noninput {
                        !(policy.allow_arbitration && b_noninput)
                    } else {
                        b_noninput
                    };
                    if !is_violation {
                        continue;
                    }
                    let e_i = self.cubes(ti).enabled;
                    let e_edge = self.edge_enabled(a, li.polarity);
                    let enabled = self.manager_mut().and(r_n, e_i);
                    let after = self.image_marking(enabled, tj);
                    let mgr = self.manager_mut();
                    let bad_after = mgr.diff(after, e_edge);
                    if bad_after.is_false() {
                        continue;
                    }
                    let src = self.preimage_marking(bad_after, tj);
                    let src = self.manager_mut().and(src, enabled);
                    let Some(witness) = self.decode_witness(src) else { return out };
                    out.push(SymSignalViolation { fired: tj, disabled: a, witness });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::{gen, Code};

    fn reached_markings(sym: &mut SymbolicStg<'_>, code: Code) -> Bdd {
        let t = sym.traverse(code);
        sym.project_markings(t.reached)
    }

    #[test]
    fn marked_graphs_are_persistent() {
        for stg in [gen::muller_pipeline(4), gen::master_read(2), gen::par_handshakes(3)] {
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let r_n = reached_markings(&mut sym, Code::ZERO);
            assert!(sym.check_transition_persistency(r_n).is_empty(), "{}", stg.name());
            assert!(
                sym.check_signal_persistency(r_n, PersistencyPolicy::default()).is_empty(),
                "{}",
                stg.name()
            );
        }
    }

    #[test]
    fn mutex_grant_conflict_found_and_softened() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let r_n = reached_markings(&mut sym, Code::ZERO);
        // Transition level: a1+ and a2+ disable each other.
        let tv = sym.check_transition_persistency(r_n);
        assert_eq!(tv.len(), 2);
        // Strict signal level: two violations (each grant kills the other).
        let sv = sym.check_signal_persistency(r_n, PersistencyPolicy::default());
        assert_eq!(sv.len(), 2);
        let a1 = stg.signal_by_name("a1").unwrap();
        let a2 = stg.signal_by_name("a2").unwrap();
        let disabled: Vec<SignalId> = sv.iter().map(|v| v.disabled).collect();
        assert!(disabled.contains(&a1) && disabled.contains(&a2));
        // Arbitration policy: clean.
        let relaxed =
            sym.check_signal_persistency(r_n, PersistencyPolicy { allow_arbitration: true });
        assert!(relaxed.is_empty());
    }

    #[test]
    fn input_output_conflict_is_always_a_violation() {
        let stg = gen::nonpersistent_stg();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let r_n = reached_markings(&mut sym, Code::ZERO);
        // Even with arbitration allowed: the input `d` is disabled by the
        // output `t+`.
        let sv = sym.check_signal_persistency(r_n, PersistencyPolicy { allow_arbitration: true });
        assert!(!sv.is_empty());
        let d = stg.signal_by_name("d").unwrap();
        assert!(sv.iter().any(|v| v.disabled == d));
        // The witness marking is the shared choice place.
        assert!(sv[0].witness.marked_places.contains(&"p".to_string()));
    }

    #[test]
    fn fake_conflict_is_not_a_signal_violation() {
        // Fig. 3 D1: transitions conflict but both signals stay enabled —
        // transition-level violations exist, signal-level do not
        // (both signals are inputs; the check also exercises E(a*) with
        // multiple instances).
        let stg = gen::fig3_d1();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let r_n = reached_markings(&mut sym, Code::ZERO);
        assert!(!sym.check_transition_persistency(r_n).is_empty());
        let sv = sym.check_signal_persistency(r_n, PersistencyPolicy::default());
        assert!(sv.is_empty());
    }

    #[test]
    fn agrees_with_explicit_checker() {
        use stgcheck_stg::{build_state_graph, signal_persistency_violations, SgOptions};
        for stg in [
            gen::mutex_element(),
            gen::nonpersistent_stg(),
            gen::fig3_d1(),
            gen::vme_read(),
            gen::muller_pipeline(3),
        ] {
            let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
            for policy in
                [PersistencyPolicy::default(), PersistencyPolicy { allow_arbitration: true }]
            {
                let explicit = signal_persistency_violations(&stg, &sg, policy);
                let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
                let code = sym.effective_initial_code().unwrap();
                let r_n = reached_markings(&mut sym, code);
                let symbolic = sym.check_signal_persistency(r_n, policy);
                assert_eq!(
                    explicit.is_empty(),
                    symbolic.is_empty(),
                    "{} under {policy:?}",
                    stg.name()
                );
            }
        }
    }
}
