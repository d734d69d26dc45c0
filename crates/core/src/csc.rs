//! Symbolic Complete State Coding analysis (paper Section 5.3):
//! excitation/quiescent regions, the CSC condition, determinism, and the
//! frozen-traversal check for CSC-*irreducibility* (mutually complementary
//! input sequences).

use stgcheck_bdd::{Bdd, BddOps, Literal};
use stgcheck_stg::{Polarity, SignalId, SignalKind};

use crate::encode::{StateWitness, SymbolicStg};
use crate::engine::{run_fixpoint, FixpointCtl, FixpointSpec, StepDirection};

/// The four characteristic regions of one signal, projected to binary
/// codes (`∃p` applied, paper notation):
///
/// * `ER(a+)`, `ER(a−)` — codes of states where an edge is excited;
/// * `QR(a+)`, `QR(a−)` — codes of quiescent states at 1 resp. 0.
#[derive(Clone, Debug)]
pub struct CodeRegions {
    /// `ER(a+) = ∃p (R(D) · E(a+))`.
    pub er_rise: Bdd,
    /// `ER(a−) = ∃p (R(D) · E(a−))`.
    pub er_fall: Bdd,
    /// `QR(a+) = ∃p (R(D) · a · ¬E(a−))`.
    pub qr_high: Bdd,
    /// `QR(a−) = ∃p (R(D) · a′ · ¬E(a+))`.
    pub qr_low: Bdd,
}

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
    /// Computes the code-projected excitation and quiescent regions of
    /// signal `a` over the reachable full states.
    pub fn code_regions(&mut self, reached: Bdd, a: SignalId) -> CodeRegions {
        let e_rise = self.edge_enabled(a, Polarity::Rise);
        let e_fall = self.edge_enabled(a, Polarity::Fall);
        let v = self.signal_var(a);
        let mgr = self.manager_mut();
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
            er_rise: self.project_codes(er_rise_states),
            er_fall: self.project_codes(er_fall_states),
            qr_high: self.project_codes(qr_high_states),
            qr_low: self.project_codes(qr_low_states),
        }
    }

    /// Checks `CSC(a)` (Section 5.3):
    /// `ER(a+) ∩ QR(a−) = ∅  ∧  ER(a−) ∩ QR(a+) = ∅`.
    pub fn check_csc_signal(&mut self, reached: Bdd, a: SignalId) -> CscAnalysis {
        let r = self.code_regions(reached, a);
        let mgr = self.manager_mut();
        let c1 = mgr.and(r.er_rise, r.qr_low);
        let c2 = mgr.and(r.er_fall, r.qr_high);
        let contradictory = mgr.or(c1, c2);
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
        let e_rise = self.edge_enabled(a, Polarity::Rise);
        let e_fall = self.edge_enabled(a, Polarity::Fall);
        let v = self.signal_var(a);
        let mgr = self.manager_mut();
        let high = mgr.literal(Literal::positive(v));
        let low = mgr.literal(Literal::negative(v));
        // State-level quiescent and excited sets.
        let qr_state = {
            let h = mgr.and(reached, high);
            let h = mgr.diff(h, e_fall);
            let l = mgr.and(reached, low);
            let l = mgr.diff(l, e_rise);
            mgr.or(h, l)
        };
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
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::{gen, Stg};

    fn reached_of(sym: &mut SymbolicStg<'_>) -> Bdd {
        let code = sym.effective_initial_code().unwrap();
        sym.traverse(code).reached
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
