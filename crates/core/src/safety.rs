//! Symbolic safeness check (paper Section 5.1, via the technique of [9]).
//!
//! The safe-net encoding makes an unsafe firing *unrepresentable*: the
//! image (the paper's `NSM(t)` cofactor, here the `p′` literals of the
//! flip cube) drops any state where a successor place is already marked. Such a state is still reachable (its safe prefix is
//! explored), so safeness is violated iff some reachable state enables a
//! transition whose firing would add a token to an already-marked
//! non-self-loop successor place.

use stgcheck_bdd::{Bdd, BddOps, Literal};
use stgcheck_petri::TransId;

use crate::encode::{StateWitness, SymbolicStg};

/// A detected safeness violation.
#[derive(Clone, Debug)]
pub struct SafetyViolation {
    /// The transition whose firing would unsafely mark a place.
    pub transition: TransId,
    /// The place that would receive a second token.
    pub place: stgcheck_petri::PlaceId,
    /// A reachable state exhibiting the violation.
    pub witness: StateWitness,
}

impl SymbolicStg<'_> {
    /// Checks that every reachable state fires safely: for each transition
    /// `t` enabled in `reached`, no successor place outside `•t` may
    /// already hold a token.
    ///
    /// Returns all violating `(transition, place)` pairs with witnesses.
    pub fn check_safeness(&mut self, reached: Bdd) -> Vec<SafetyViolation> {
        let net = self.stg().net();
        let mut out = Vec::new();
        for t in net.transitions() {
            let pre: Vec<_> = net.preset(t).iter().map(|&(p, _)| p).collect();
            for &(p, _) in net.postset(t) {
                if pre.contains(&p) {
                    continue; // self-loop: token count unchanged
                }
                let enabled = self.cubes(t).enabled;
                let pv = self.place_var(p);
                let marked = self.manager_mut().literal(Literal::positive(pv));
                let mgr = self.manager_mut();
                let bad0 = mgr.and(reached, enabled);
                let bad = mgr.and(bad0, marked);
                if !bad.is_false() {
                    let witness = self.decode_witness(bad).expect("non-empty set");
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
