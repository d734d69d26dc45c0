//! Symbolic consistency check (paper Section 5.1).
//!
//! ```text
//! Inconsistent(a+) = E(a+) · a     (a+ enabled while a = 1)
//! Inconsistent(a−) = E(a−) · a′    (a− enabled while a = 0)
//! Inconsistent(D)  = ⋁_a Inconsistent(a)
//! ```
//!
//! The STG is inconsistent iff `R(D) ∩ Inconsistent(D) ≠ ∅`.
//!
//! The check tests one set per signal, `R · (Inconsistent(a+) +
//! Inconsistent(a−))`, and splits it into the two per-edge sets only when
//! it is non-empty; on a consistent STG that is one conjunction with `R`
//! per signal instead of two.

use stgcheck_bdd::{Bdd, BddOps, Literal};
use stgcheck_stg::{Polarity, SignalId};

use crate::encode::{StateWitness, SymbolicStg};

/// A consistency violation witness.
#[derive(Clone, Debug)]
pub struct ConsistencyViolation {
    /// The signal with the inconsistent assignment.
    pub signal: SignalId,
    /// The polarity that is enabled at the wrong value.
    pub polarity: Polarity,
    /// A reachable state exhibiting the violation.
    pub witness: StateWitness,
}

impl SymbolicStg<'_> {
    /// The characteristic function `Inconsistent(a±)` for one signal edge.
    pub fn inconsistent_set(&mut self, s: SignalId, polarity: Polarity) -> Bdd {
        let e = self.edge_enabled(s, polarity);
        let v = self.signal_var(s);
        // a+ is inconsistent where a is already 1; a− where a is 0.
        let wrong_value = matches!(polarity, Polarity::Rise);
        let lit = self.manager_mut().literal(Literal::new(v, wrong_value));
        self.manager_mut().and(e, lit)
    }

    /// Checks state-assignment consistency of `reached` (Def. 3.1 via the
    /// Section 5.1 characteristic functions). Returns one witness per
    /// violating signal edge, decoded from `R · Inconsistent(a±)`.
    ///
    /// Each signal costs one test of `R` against `Inconsistent(a+) +
    /// Inconsistent(a−)`; only a hit computes the two per-edge sets.
    pub fn check_consistency(&mut self, reached: Bdd) -> Vec<ConsistencyViolation> {
        let mut out = Vec::new();
        for s in self.stg().signals() {
            let rise = self.inconsistent_set(s, Polarity::Rise);
            let fall = self.inconsistent_set(s, Polarity::Fall);
            let mgr = self.manager_mut();
            let either = mgr.or(rise, fall);
            if !mgr.intersects(reached, either) {
                continue;
            }
            for (polarity, inc) in [(Polarity::Rise, rise), (Polarity::Fall, fall)] {
                let bad = self.manager_mut().and(reached, inc);
                if let Some(witness) = self.decode_witness(bad) {
                    out.push(ConsistencyViolation { signal: s, polarity, witness });
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
    fn consistent_benchmarks_pass() {
        for stg in [
            gen::mutex_element(),
            gen::muller_pipeline(4),
            gen::master_read(2),
            gen::vme_read(),
            gen::csc_violation_stg(),
        ] {
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let code = sym.effective_initial_code().unwrap();
            let t = sym.traverse(code);
            assert!(sym.check_consistency(t.reached).is_empty(), "{}", stg.name());
        }
    }

    #[test]
    fn detects_inconsistency_with_witness() {
        let stg = gen::inconsistent_stg();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let t = sym.traverse(Code::ZERO);
        let violations = sym.check_consistency(t.reached);
        assert!(!violations.is_empty());
        let b = stg.signal_by_name("b").unwrap();
        let v = violations.iter().find(|v| v.signal == b).expect("b is the culprit");
        assert_eq!(v.polarity, Polarity::Rise);
        // The witness state has b = 1 (b+ enabled again while high).
        let bit = v.witness.code.as_bytes()[b.index()];
        assert_eq!(bit, b'1');
    }

    /// The one-test-per-signal check returns exactly the paper's per-edge
    /// list: every non-empty `R · Inconsistent(a±)` in signal and edge
    /// order, with the witness decoded from that set.
    #[test]
    fn one_test_per_signal_matches_the_per_edge_sets() {
        let mut violations = 0;
        crate::csc::tests::for_each_reference_case(|sym, reached| {
            let mut reference = Vec::new();
            for s in sym.stg().signals() {
                for polarity in [Polarity::Rise, Polarity::Fall] {
                    let inc = sym.inconsistent_set(s, polarity);
                    let bad = sym.manager_mut().and(reached, inc);
                    if let Some(witness) = sym.decode_witness(bad) {
                        reference.push((s, polarity, witness));
                    }
                }
            }
            let got: Vec<_> = sym
                .check_consistency(reached)
                .into_iter()
                .map(|v| (v.signal, v.polarity, v.witness))
                .collect();
            assert_eq!(got, reference, "{}", sym.stg().name());
            violations += got.len();
        });
        assert!(violations > 0, "no net exercises the split");
    }

    #[test]
    fn wrong_initial_code_is_inconsistent() {
        // A correct handshake started from the wrong code: r+ enabled
        // while r = 1.
        let mut b = stgcheck_stg::StgBuilder::new("hs");
        b.input("r");
        b.output("a");
        b.cycle(&["r+", "a+", "r-", "a-"]);
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let t = sym.traverse(Code::from_bit_string("10").unwrap());
        let violations = sym.check_consistency(t.reached);
        assert!(!violations.is_empty());
    }
}
