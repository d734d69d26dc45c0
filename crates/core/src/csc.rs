//! Symbolic Complete State Coding analysis (paper Section 5.3):
//! excitation/quiescent regions, the CSC condition, determinism, and the
//! frozen-traversal check for CSC-*irreducibility* (mutually complementary
//! input sequences).
//!
//! The paper defines `CSC(a)` through four code-projected regions,
//! `ER(a±) = ∃p (R · E(a±))`, `QR(a+) = ∃p (R · a · ¬E(a−))` and
//! `QR(a−) = ∃p (R · a′ · ¬E(a+))`, and asks for
//! `CONT(a) = ER(a+)·QR(a−) + ER(a−)·QR(a+) = ∅`. This module computes
//! the same set from two projections. Let
//!
//! ```text
//! X(a) = a′ · E(a+) + a · E(a−)      (a is excited in the direction its value allows)
//! ¬X(a) = a · ¬E(a−) + a′ · ¬E(a+)   (a is quiescent)
//! ```
//!
//! `QR(a−) ⊆ a′` and `a′` is a code literal, outside the `∃p`, so
//! `ER(a+)·QR(a−) = ∃p(R·a′·E(a+)) · ∃p(R·a′·¬E(a+))`, and likewise for
//! the `a` half. `∃p(R·X)` and `∃p(R·¬X)` are the sums of those `a′` and
//! `a` halves, and the cross terms of their product hold `a′·a = 0`:
//!
//! ```text
//! CONT(a) = ∃p (R · X(a)) · ∃p (R · ¬X(a))
//! ```
//!
//! The result is the same canonical BDD, so the witness decoded from it
//! is the same too. The test module keeps the four-region formula as the
//! reference it is checked against.

use stgcheck_bdd::{Bdd, BddOps, Literal};
use stgcheck_stg::{Polarity, SignalId, SignalKind};

use crate::encode::{StateWitness, SymbolicStg};
use crate::engine::{run_fixpoint, FixpointCtl, FixpointSpec, StepDirection};

/// Outcome of the per-signal CSC analysis.
#[derive(Clone, Debug)]
pub struct CscAnalysis {
    /// The analysed signal.
    pub signal: SignalId,
    /// `true` when `CSC(a)` holds (no contradictory codes).
    pub holds: bool,
    /// `CONT(a)`: the contradictory codes (empty iff `holds`).
    pub contradictory: Bdd,
    /// A witness code when CSC is violated.
    pub witness: Option<StateWitness>,
}

impl SymbolicStg<'_> {
    /// `X(a) = a′·E(a+) + a·E(a−)`: the full states where `a` is excited
    /// in the direction its current value allows. Its complement is the
    /// quiescent set `a·¬E(a−) + a′·¬E(a+)` (see the module docs).
    fn excited(&mut self, a: SignalId) -> Bdd {
        let e_rise = self.edge_enabled(a, Polarity::Rise);
        let e_fall = self.edge_enabled(a, Polarity::Fall);
        let v = self.signal_var(a);
        let mgr = self.manager_mut();
        let high = mgr.literal(Literal::positive(v));
        let low = mgr.literal(Literal::negative(v));
        let rising = mgr.and(low, e_rise);
        let falling = mgr.and(high, e_fall);
        mgr.or(rising, falling)
    }

    /// Checks `CSC(a)` (Section 5.3):
    /// `ER(a+) ∩ QR(a−) = ∅  ∧  ER(a−) ∩ QR(a+) = ∅`, computed as
    /// `CONT(a) = ∃p (R · X(a)) · ∃p (R · ¬X(a))` — two projections
    /// instead of the four regions (the identity is in the module docs).
    pub fn check_csc_signal(&mut self, reached: Bdd, a: SignalId) -> CscAnalysis {
        let x = self.excited(a);
        let excited_states = self.manager_mut().and(reached, x);
        let quiescent_states = self.manager_mut().diff(reached, x);
        let excited_codes = self.project_codes(excited_states);
        let quiescent_codes = self.project_codes(quiescent_states);
        let contradictory = self.manager_mut().and(excited_codes, quiescent_codes);
        let holds = contradictory.is_false();
        let witness = if holds { None } else { self.decode_witness(contradictory) };
        CscAnalysis { signal: a, holds, contradictory, witness }
    }

    /// Checks CSC for every non-input signal; `CSC(D) = ∧ CSC(a)` over
    /// `a ∈ S_O ∪ S_H`.
    pub fn check_csc(&mut self, reached: Bdd) -> Vec<CscAnalysis> {
        self.stg()
            .noninput_signals()
            .into_iter()
            .map(|a| self.check_csc_signal(reached, a))
            .collect()
    }

    /// The set of reachable states violating *determinism* for some signal
    /// edge (Section 5.3): two distinct equally-labelled transitions
    /// simultaneously enabled,
    /// `⋃_{tᵢ≠tⱼ, λ(tᵢ)=λ(tⱼ)} E(tᵢ) ∩ E(tⱼ) ∩ R`.
    pub fn nondeterminism_set(&mut self, reached: Bdd) -> Bdd {
        let stg = self.stg();
        let net = stg.net();
        let mut bad = Bdd::FALSE;
        let labelled: Vec<_> = net.transitions().filter(|&t| !stg.is_dummy(t)).collect();
        for (i, &ti) in labelled.iter().enumerate() {
            let li = stg.label(ti).expect("labelled");
            for &tj in &labelled[i + 1..] {
                let lj = stg.label(tj).expect("labelled");
                if !li.same_edge(lj) {
                    continue;
                }
                let (ei, ej) = (self.cubes(ti).enabled, self.cubes(tj).enabled);
                let mgr = self.manager_mut();
                let both = mgr.and(ei, ej);
                let here = mgr.and(both, reached);
                bad = self.manager_mut().or(bad, here);
            }
        }
        bad
    }

    /// Checks for *mutually complementary input sequences* for non-input
    /// `a` (Def. 3.5(3)) by the paper's frozen traversal: from the
    /// quiescent contradictory states, traverse backward and then forward
    /// firing only input transitions; if an excited contradictory state is
    /// reached, the CSC conflict for `a` is irreducible.
    pub fn has_complementary_input_sequences(
        &mut self,
        reached: Bdd,
        a: SignalId,
        cont: Bdd,
    ) -> bool {
        if cont.is_false() {
            return false;
        }
        // State-level quiescent set `R · ¬X(a)`: the very conjunction
        // [`Self::check_csc_signal`] projected, which the operation cache
        // usually still holds.
        let x = self.excited(a);
        let e_rise = self.edge_enabled(a, Polarity::Rise);
        let e_fall = self.edge_enabled(a, Polarity::Fall);
        let mgr = self.manager_mut();
        let qr_state = mgr.diff(reached, x);
        // The excited contradictory states the forward closure looks for.
        let target = {
            let e = mgr.or(e_rise, e_fall);
            let er_state = mgr.and(reached, e);
            mgr.and(er_state, cont)
        };
        let start = mgr.and(qr_state, cont);
        if start.is_false() {
            return false;
        }
        let stg = self.stg();
        let input_transitions: Vec<_> = stg
            .net()
            .transitions()
            .filter(|&t| {
                stg.label(t).is_some_and(|l| stg.signal_kind(l.signal) == SignalKind::Input)
            })
            .collect();
        // Backward frozen fixpoint, confined to the reachable set; then
        // the forward frozen closure from its result, which stops at the
        // first iteration that meets `target` (the answer is monotone in
        // the set). Both run through the shared engine loop — with GC
        // disabled, because the caller (and [`crate::verify`]'s CSC phase)
        // holds handles like `cont` and its sibling signals'
        // contradictory sets that a collection here would dangle.
        let opts = *self.engine();
        let backward = FixpointSpec {
            direction: StepDirection::Backward,
            within: Some(reached),
            gc: false,
            ..FixpointSpec::forward_full()
        };
        let mut ctl = FixpointCtl::default();
        let set = run_fixpoint(self, &opts, &backward, &input_transitions, start, &mut ctl).reached;
        let forward =
            FixpointSpec { gc: false, until: Some(target), ..FixpointSpec::forward_full() };
        let set = run_fixpoint(self, &opts, &forward, &input_transitions, set, &mut ctl).reached;
        self.manager_mut().intersects(set, target)
    }

    /// Full CSC-reducibility verdict (Section 3.4): the state graph must be
    /// deterministic, commutative (checked via fake-freedom by the caller)
    /// and free of mutually complementary input sequences for every
    /// non-input signal with a CSC conflict.
    ///
    /// Returns the signals whose conflicts are irreducible.
    pub fn irreducible_signals(&mut self, reached: Bdd) -> Vec<SignalId> {
        let analyses = self.check_csc(reached);
        analyses
            .into_iter()
            .filter(|a| !a.holds)
            .filter(|a| self.has_complementary_input_sequences(reached, a.signal, a.contradictory))
            .map(|a| a.signal)
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::{gen, Code, Stg};

    fn reached_of(sym: &mut SymbolicStg<'_>) -> Bdd {
        let code = sym.effective_initial_code().unwrap();
        sym.traverse(code).reached
    }

    /// The paper's four characteristic regions of one signal, projected
    /// to binary codes — the reference the two-projection
    /// [`SymbolicStg::check_csc_signal`] is checked against.
    struct CodeRegions {
        /// `ER(a+) = ∃p (R · E(a+))`.
        er_rise: Bdd,
        /// `ER(a−) = ∃p (R · E(a−))`.
        er_fall: Bdd,
        /// `QR(a+) = ∃p (R · a · ¬E(a−))`.
        qr_high: Bdd,
        /// `QR(a−) = ∃p (R · a′ · ¬E(a+))`.
        qr_low: Bdd,
    }

    fn code_regions(sym: &mut SymbolicStg<'_>, reached: Bdd, a: SignalId) -> CodeRegions {
        let e_rise = sym.edge_enabled(a, Polarity::Rise);
        let e_fall = sym.edge_enabled(a, Polarity::Fall);
        let v = sym.signal_var(a);
        let mgr = sym.manager_mut();
        let high = mgr.literal(Literal::positive(v));
        let low = mgr.literal(Literal::negative(v));
        let er_rise_states = mgr.and(reached, e_rise);
        let er_fall_states = mgr.and(reached, e_fall);
        let qr_high_states = {
            let s0 = mgr.and(reached, high);
            mgr.diff(s0, e_fall)
        };
        let qr_low_states = {
            let s0 = mgr.and(reached, low);
            mgr.diff(s0, e_rise)
        };
        CodeRegions {
            er_rise: sym.project_codes(er_rise_states),
            er_fall: sym.project_codes(er_fall_states),
            qr_high: sym.project_codes(qr_high_states),
            qr_low: sym.project_codes(qr_low_states),
        }
    }

    /// Runs `check` on the reached set of every net the rewritten checks
    /// are pinned on — the violation fixtures and 200 random safe STGs —
    /// under the interleaved and the declaration order. A net whose code
    /// cannot be inferred starts from the all-zero code.
    pub(crate) fn for_each_reference_case(mut check: impl FnMut(&mut SymbolicStg<'_>, Bdd)) {
        let mut nets = vec![
            gen::vme_read(),
            gen::csc_violation_stg(),
            gen::irreducible_csc_stg(),
            gen::inconsistent_stg(),
            gen::unsafe_stg(),
            gen::nonpersistent_stg(),
            gen::fig3_d1(),
            gen::fig3_d2(),
            gen::mutex_element(),
        ];
        nets.extend((0..200).map(gen::random_safe_stg));
        for stg in &nets {
            for order in [VarOrder::Interleaved, VarOrder::Declaration] {
                let mut sym = SymbolicStg::new(stg, order);
                let code = sym.effective_initial_code().unwrap_or(Code::ZERO);
                let reached = sym.traverse(code).reached;
                check(&mut sym, reached);
            }
        }
    }

    /// `CONT(a)` from two projections is the paper's
    /// `ER(a+)·QR(a−) + ER(a−)·QR(a+)`, handle for handle, so the
    /// witness decoded from it is the same too.
    #[test]
    fn two_projections_match_the_four_regions() {
        let mut violations = 0;
        for_each_reference_case(|sym, reached| {
            for a in sym.stg().noninput_signals() {
                let analysis = sym.check_csc_signal(reached, a);
                let r = code_regions(sym, reached, a);
                let mgr = sym.manager_mut();
                let c1 = mgr.and(r.er_rise, r.qr_low);
                let c2 = mgr.and(r.er_fall, r.qr_high);
                let reference = mgr.or(c1, c2);
                let name = format!("{}: signal {}", sym.stg().name(), sym.stg().signal_name(a));
                assert_eq!(analysis.contradictory, reference, "{name}");
                assert_eq!(analysis.holds, reference.is_false(), "{name}");
                assert_eq!(analysis.witness, sym.decode_witness(reference), "{name}");
                violations += usize::from(!analysis.holds);
            }
        });
        assert!(violations >= 100, "only {violations} CSC conflicts exercise the witnesses");
    }

    #[test]
    fn clean_benchmarks_satisfy_csc() {
        for stg in [
            gen::mutex_element(),
            gen::muller_pipeline(4),
            gen::master_read(3),
            gen::par_handshakes(3),
        ] {
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let reached = reached_of(&mut sym);
            let analyses = sym.check_csc(reached);
            assert!(analyses.iter().all(|a| a.holds), "{}", stg.name());
            assert!(sym.nondeterminism_set(reached).is_false(), "{}", stg.name());
        }
    }

    #[test]
    fn vme_read_csc_violation_is_reducible() {
        let stg = gen::vme_read();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let reached = reached_of(&mut sym);
        let analyses = sym.check_csc(reached);
        assert!(analyses.iter().any(|a| !a.holds), "VME has the classic CSC conflict");
        assert!(sym.irreducible_signals(reached).is_empty(), "and it is reducible");
    }

    #[test]
    fn irreducible_fixture_is_irreducible() {
        let stg = gen::irreducible_csc_stg();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let reached = reached_of(&mut sym);
        let b = stg.signal_by_name("b").unwrap();
        let analysis = sym.check_csc_signal(reached, b);
        assert!(!analysis.holds);
        assert!(analysis.witness.is_some());
        assert_eq!(sym.irreducible_signals(reached), vec![b]);
    }

    #[test]
    fn reducible_fixture_is_reducible() {
        let stg = gen::csc_violation_stg();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let reached = reached_of(&mut sym);
        let analyses = sym.check_csc(reached);
        assert!(analyses.iter().any(|a| !a.holds));
        assert!(sym.irreducible_signals(reached).is_empty());
    }

    #[test]
    fn agrees_with_explicit_csc() {
        use stgcheck_stg::{build_state_graph, csc_holds_for_signal, SgOptions};
        let cases: Vec<Stg> = vec![
            gen::mutex_element(),
            gen::muller_pipeline(3),
            gen::master_read(2),
            gen::vme_read(),
            gen::csc_violation_stg(),
            gen::irreducible_csc_stg(),
        ];
        for stg in &cases {
            let sg = build_state_graph(stg, SgOptions::default()).unwrap();
            let mut sym = SymbolicStg::new(stg, VarOrder::Interleaved);
            let reached = reached_of(&mut sym);
            for a in stg.noninput_signals() {
                let explicit = csc_holds_for_signal(stg, &sg, a);
                let symbolic = sym.check_csc_signal(reached, a).holds;
                assert_eq!(explicit, symbolic, "{}: signal {}", stg.name(), stg.signal_name(a));
            }
        }
    }

    #[test]
    fn agrees_with_explicit_mcis() {
        use stgcheck_stg::{
            build_state_graph, has_complementary_input_sequences as explicit_mcis, SgOptions,
        };
        for stg in [
            gen::vme_read(),
            gen::csc_violation_stg(),
            gen::irreducible_csc_stg(),
            gen::mutex_element(),
        ] {
            let sg = build_state_graph(&stg, SgOptions::default()).unwrap();
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let reached = reached_of(&mut sym);
            for a in stg.noninput_signals() {
                let analysis = sym.check_csc_signal(reached, a);
                let symbolic =
                    sym.has_complementary_input_sequences(reached, a, analysis.contradictory);
                let explicit = explicit_mcis(&stg, &sg, a);
                assert_eq!(explicit, symbolic, "{}: signal {}", stg.name(), stg.signal_name(a));
            }
        }
    }

    #[test]
    fn nondeterminism_detected() {
        // Two a+ instances enabled at once (same net as the explicit
        // determinism test).
        let mut b = stgcheck_stg::StgBuilder::new("nondet");
        b.input("a");
        let p = b.place("p", 1);
        let q = b.place("q", 1);
        b.pt(p, "a+");
        b.pt(q, "a+/2");
        b.arc("a+", "a-");
        b.arc("a+/2", "a-/2");
        b.initial_code_str("0");
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let reached = reached_of(&mut sym);
        assert!(!sym.nondeterminism_set(reached).is_false());
    }
}
