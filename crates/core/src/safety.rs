//! Symbolic safeness check (paper Section 5.1, via the technique of [9]).
//!
//! The safe-net encoding makes an unsafe firing *unrepresentable*: the
//! image (the paper's `NSM(t)` cofactor, here the `p′` literals of the
//! flip cube) drops any state where a successor place is already marked. Such a state is still reachable (its safe prefix is
//! explored), so safeness is violated iff some reachable state enables a
//! transition whose firing would add a token to an already-marked
//! non-self-loop successor place.
//!
//! The check conjoins `R` once per transition `t`, with
//! `E(t) · Σ_{p ∈ t•∖•t} p`, and splits that set per place only when it
//! is non-empty: `R·E(t)·Σp · p = R·E(t)·p`, the paper's per-place set.

use stgcheck_bdd::{Bdd, BddOps, Literal};
use stgcheck_petri::{PlaceId, TransId};

use crate::encode::{StateWitness, SymbolicStg};

/// A detected safeness violation.
#[derive(Clone, Debug)]
pub struct SafetyViolation {
    /// The transition whose firing would unsafely mark a place.
    pub transition: TransId,
    /// The place that would receive a second token.
    pub place: PlaceId,
    /// A reachable state exhibiting the violation.
    pub witness: StateWitness,
}

impl SymbolicStg<'_> {
    /// Checks that every reachable state fires safely: for each transition
    /// `t` enabled in `reached`, no successor place outside `•t` may
    /// already hold a token.
    ///
    /// Returns all violating `(transition, place)` pairs with witnesses,
    /// each decoded from `R · E(t) · p`. One conjunction with `R` per
    /// transition decides whether any of its places needs that split.
    pub fn check_safeness(&mut self, reached: Bdd) -> Vec<SafetyViolation> {
        let net = self.stg().net();
        let mut out = Vec::new();
        for t in net.transitions() {
            let pre: Vec<_> = net.preset(t).iter().map(|&(p, _)| p).collect();
            // Self-loop places keep their token count: only the rest can
            // receive a second token.
            let places: Vec<PlaceId> =
                net.postset(t).iter().map(|&(p, _)| p).filter(|p| !pre.contains(p)).collect();
            if places.is_empty() {
                continue;
            }
            let marked: Vec<Bdd> = places
                .iter()
                .map(|&p| {
                    let pv = self.place_var(p);
                    self.manager_mut().literal(Literal::positive(pv))
                })
                .collect();
            let enabled = self.cubes(t).enabled;
            let mgr = self.manager_mut();
            let any_marked = mgr.or_many(&marked);
            let risky = mgr.and(enabled, any_marked);
            let bad_t = mgr.and(reached, risky);
            if bad_t.is_false() {
                continue;
            }
            for (p, lit) in places.into_iter().zip(marked) {
                let bad = self.manager_mut().and(bad_t, lit);
                if let Some(witness) = self.decode_witness(bad) {
                    out.push(SafetyViolation { transition: t, place: p, witness });
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

    #[test]
    fn safe_benchmarks_pass() {
        for stg in [gen::mutex_element(), gen::muller_pipeline(4), gen::master_read(2)] {
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let t = sym.traverse(Code::ZERO);
            assert!(sym.check_safeness(t.reached).is_empty(), "{}", stg.name());
        }
    }

    #[test]
    fn detects_unsafe_net() {
        let stg = gen::unsafe_stg();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let t = sym.traverse(Code::ZERO);
        let violations = sym.check_safeness(t.reached);
        assert!(!violations.is_empty());
        let q = stg.net().place_by_name("q").unwrap();
        assert!(violations.iter().any(|v| v.place == q));
    }

    /// The one-conjunction-per-transition check returns exactly the
    /// paper's per-place list: every non-empty `R · E(t) · p` for
    /// `p ∈ t•∖•t`, in transition and postset order, with the witness
    /// decoded from that set.
    #[test]
    fn one_conjunction_per_transition_matches_the_per_place_sets() {
        let mut violations = 0;
        crate::csc::tests::for_each_reference_case(|sym, reached| {
            let net = sym.stg().net();
            let mut reference = Vec::new();
            for t in net.transitions() {
                let pre: Vec<_> = net.preset(t).iter().map(|&(p, _)| p).collect();
                for &(p, _) in net.postset(t).iter().filter(|(p, _)| !pre.contains(p)) {
                    let enabled = sym.cubes(t).enabled;
                    let pv = sym.place_var(p);
                    let mgr = sym.manager_mut();
                    let marked = mgr.literal(Literal::positive(pv));
                    let bad0 = mgr.and(reached, enabled);
                    let bad = mgr.and(bad0, marked);
                    if let Some(witness) = sym.decode_witness(bad) {
                        reference.push((t, p, witness));
                    }
                }
            }
            let got: Vec<_> = sym
                .check_safeness(reached)
                .into_iter()
                .map(|v| (v.transition, v.place, v.witness))
                .collect();
            assert_eq!(got, reference, "{}", sym.stg().name());
            violations += got.len();
        });
        assert!(violations > 0, "no net exercises the split");
    }

    #[test]
    fn unbounded_net_reports_unsafe_too() {
        // The unbounded fixture first violates safeness at its sink place.
        let stg = gen::unbounded_stg();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let t = sym.traverse(Code::ZERO);
        let violations = sym.check_safeness(t.reached);
        assert!(!violations.is_empty());
        let sink = stg.net().place_by_name("sink").unwrap();
        assert!(violations.iter().any(|v| v.place == sink));
    }
}
