//! Deriving the logic equations of the circuit — the step the paper's
//! verification enables.
//!
//! Section 2: "If we somehow manage to check that the STG can have a
//! strongly equivalent circuit, then the logic equations for all gates of
//! the circuit can be derived by the STG in a conventional way [2, 3,
//! 10]." This module implements that conventional way on top of the
//! symbolic machinery (following the excitation-region formulation of
//! Pastor & Cortadella [8], the paper's reference for CSC):
//!
//! For a non-input signal `a` with CSC, the *next-state function* over the
//! binary codes is
//!
//! ```text
//! N_a = ER(a+) ∨ (a ∧ ¬ER(a−))
//! ```
//!
//! (set the signal where it is excited to rise, hold it where it is high
//! and not excited to fall). Codes not reachable are don't-cares. When
//! CSC is violated the on- and off-sets overlap and derivation fails —
//! which is exactly why the CSC check comes first.

use stgcheck_bdd::{Bdd, BddOps, Literal};
use stgcheck_stg::{Polarity, SignalId};

use crate::encode::SymbolicStg;

/// The derived next-state function of one non-input signal.
#[derive(Clone, Debug)]
pub struct SignalFunction {
    /// The signal this function drives.
    pub signal: SignalId,
    /// On-set over the signal variables (codes where the next value is 1).
    pub on: Bdd,
    /// Off-set over the signal variables.
    pub off: Bdd,
    /// Don't-care set (codes with no reachable state).
    pub dc: Bdd,
}

/// Why equation derivation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogicError {
    /// The on- and off-sets intersect: the signal violates CSC, the
    /// function is not well defined on the codes.
    CscViolation(SignalId),
    /// Equations are only derived for non-input signals.
    InputSignal(SignalId),
}

impl std::fmt::Display for LogicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogicError::CscViolation(s) => {
                write!(f, "signal #{} violates CSC; no gate function exists", s.index())
            }
            LogicError::InputSignal(s) => {
                write!(f, "signal #{} is an input; the environment drives it", s.index())
            }
        }
    }
}

impl std::error::Error for LogicError {}

impl SymbolicStg<'_> {
    /// Derives the next-state function of non-input `a` from the reachable
    /// set, in the complex-gate style enabled by CSC.
    ///
    /// # Errors
    ///
    /// [`LogicError::InputSignal`] for inputs; [`LogicError::CscViolation`]
    /// when the on- and off-sets overlap (CSC fails for `a`).
    pub fn derive_function(
        &mut self,
        reached: Bdd,
        a: SignalId,
    ) -> Result<SignalFunction, LogicError> {
        if !self.stg().signal_kind(a).is_noninput() {
            return Err(LogicError::InputSignal(a));
        }
        let e_rise = self.edge_enabled(a, Polarity::Rise);
        let e_fall = self.edge_enabled(a, Polarity::Fall);
        let v = self.signal_var(a);
        let mgr = self.manager_mut();
        let high = mgr.literal(Literal::positive(v));
        let low = mgr.literal(Literal::negative(v));

        // State-level on/off sets, then code projection.
        let rise_states = mgr.and(reached, e_rise);
        let hold_states = {
            let h = mgr.and(reached, high);
            mgr.diff(h, e_fall)
        };
        let fall_states = mgr.and(reached, e_fall);
        let rest_states = {
            let l = mgr.and(reached, low);
            mgr.diff(l, e_rise)
        };
        let on_states = mgr.or(rise_states, hold_states);
        let off_states = mgr.or(fall_states, rest_states);
        let on = self.project_codes(on_states);
        let off = self.project_codes(off_states);
        let reached_codes = self.project_codes(reached);
        let mgr = self.manager_mut();
        if mgr.intersects(on, off) {
            return Err(LogicError::CscViolation(a));
        }
        let dc = mgr.not(reached_codes);
        Ok(SignalFunction { signal: a, on, off, dc })
    }

    /// Derives the functions of every non-input signal.
    ///
    /// # Errors
    ///
    /// Fails on the first CSC-violating signal; run
    /// [`SymbolicStg::check_csc`] first for a per-signal diagnosis.
    pub fn derive_all_functions(
        &mut self,
        reached: Bdd,
    ) -> Result<Vec<SignalFunction>, LogicError> {
        self.stg()
            .noninput_signals()
            .into_iter()
            .map(|a| self.derive_function(reached, a))
            .collect()
    }

    /// Renders a derived function as a sum-of-products string over signal
    /// names, e.g. `a = r` or `c1 = c0 c2' + c1 c0 + c1 c2'`.
    ///
    /// The cover is read directly off the BDD cubes of the on-set — not
    /// minimised, but irredundant enough to be readable and exactly
    /// equivalent to the on-set.
    pub fn function_to_sop(&self, f: &SignalFunction) -> String {
        let stg = self.stg();
        let mgr = self.manager();
        let mut terms = Vec::new();
        for cube in mgr.cubes(f.on) {
            let mut lits = Vec::new();
            for l in cube {
                // Translate BDD variables back to signal names.
                let Some(s) = stg.signals().find(|&s| self.signal_var(s) == l.var()) else {
                    continue;
                };
                let name = stg.signal_name(s);
                lits.push(if l.is_positive() { name.to_string() } else { format!("{name}'") });
            }
            terms.push(if lits.is_empty() { "1".to_string() } else { lits.join(" ") });
        }
        if terms.is_empty() {
            terms.push("0".to_string());
        }
        format!("{} = {}", stg.signal_name(f.signal), terms.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::{gen, StgBuilder};

    fn setup(stg: &stgcheck_stg::Stg) -> (SymbolicStg<'_>, Bdd) {
        let mut sym = SymbolicStg::new(stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let t = sym.traverse(code);
        (sym, t.reached)
    }

    #[test]
    fn handshake_output_is_a_wire() {
        // r→a handshake: the output simply follows the input, N_a = r.
        let mut b = StgBuilder::new("hs");
        b.input("r");
        b.output("a");
        b.cycle(&["r+", "a+", "r-", "a-"]);
        b.initial_code_str("00");
        let stg = b.build().unwrap();
        let (mut sym, reached) = setup(&stg);
        let a = stg.signal_by_name("a").unwrap();
        let f = sym.derive_function(reached, a).unwrap();
        let r = stg.signal_by_name("r").unwrap();
        let rv = sym.signal_var(r);
        let expected = sym.manager_mut().var(rv);
        // On the care set, N_a == r.
        let mgr = sym.manager_mut();
        let diff = mgr.xor(f.on, expected);
        let care_diff = mgr.diff(diff, f.dc);
        assert!(care_diff.is_false());
        assert_eq!(sym.function_to_sop(&f), "a = r");
    }

    #[test]
    fn muller_stage_is_a_c_element() {
        // Middle stage of a 3-deep pipeline: N_c1 = C(c0, ¬c2) =
        // c0·c2' + c1·(c0 + c2').
        let stg = gen::muller_pipeline(3);
        let (mut sym, reached) = setup(&stg);
        let c1 = stg.signal_by_name("c1").unwrap();
        let f = sym.derive_function(reached, c1).unwrap();
        let v0 = sym.signal_var(stg.signal_by_name("c0").unwrap());
        let v1 = sym.signal_var(c1);
        let v2 = sym.signal_var(stg.signal_by_name("c2").unwrap());
        let mgr = sym.manager_mut();
        let (c0, c1v, nc2) = (mgr.var(v0), mgr.var(v1), mgr.nvar(v2));
        let set = mgr.and(c0, nc2);
        let hold0 = mgr.or(c0, nc2);
        let hold = mgr.and(c1v, hold0);
        let expected = mgr.or(set, hold);
        let diff = mgr.xor(f.on, expected);
        let care_diff = mgr.diff(diff, f.dc);
        assert!(care_diff.is_false(), "stage must be the C-element of (c0, ¬c2)");
    }

    #[test]
    fn csc_violation_blocks_derivation() {
        let stg = gen::csc_violation_stg();
        let (mut sym, reached) = setup(&stg);
        let x = stg.signal_by_name("x").unwrap();
        assert_eq!(sym.derive_function(reached, x).unwrap_err(), LogicError::CscViolation(x));
    }

    #[test]
    fn inputs_are_rejected() {
        let stg = gen::vme_read();
        let (mut sym, reached) = setup(&stg);
        let dsr = stg.signal_by_name("dsr").unwrap();
        assert_eq!(sym.derive_function(reached, dsr).unwrap_err(), LogicError::InputSignal(dsr));
    }

    #[test]
    fn on_off_dc_partition_the_code_space() {
        let stg = gen::master_read(2);
        let (mut sym, reached) = setup(&stg);
        let fs = sym.derive_all_functions(reached).unwrap();
        for f in &fs {
            let mgr = sym.manager_mut();
            assert!(!mgr.intersects(f.on, f.off));
            let on_off = mgr.or(f.on, f.off);
            let all = mgr.or(on_off, f.dc);
            assert!(all.is_true(), "on ∪ off ∪ dc must cover the code space");
        }
    }

    #[test]
    fn functions_drive_the_traversal_forward() {
        // Semantic check: for every reachable state and every enabled
        // non-input edge, the derived function agrees with the direction
        // of the edge.
        let stg = gen::mutex_element();
        let (mut sym, reached) = setup(&stg);
        for a in stg.noninput_signals() {
            let f = sym.derive_function(reached, a).unwrap();
            let er_plus = sym.edge_enabled(a, Polarity::Rise);
            let er_minus = sym.edge_enabled(a, Polarity::Fall);
            // ER(a+) states must have N_a = 1, ER(a−) states N_a = 0.
            let rise_states = {
                let mgr = sym.manager_mut();
                mgr.and(reached, er_plus)
            };
            let rise_codes = sym.project_codes(rise_states);
            let fall_states = {
                let mgr = sym.manager_mut();
                mgr.and(reached, er_minus)
            };
            let fall_codes = sym.project_codes(fall_states);
            let mgr = sym.manager_mut();
            assert!(mgr.is_subset(rise_codes, f.on));
            assert!(mgr.is_subset(fall_codes, f.off));
        }
    }

    #[test]
    fn sop_rendering_shapes() {
        let stg = gen::muller_pipeline(3);
        let (mut sym, reached) = setup(&stg);
        let c1 = stg.signal_by_name("c1").unwrap();
        let f = sym.derive_function(reached, c1).unwrap();
        let sop = sym.function_to_sop(&f);
        assert!(sop.starts_with("c1 = "));
        assert!(sop.contains('+'), "a C-element needs several product terms: {sop}");
    }
}
