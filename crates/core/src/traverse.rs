//! Symbolic reachability traversal (Fig. 5 of the paper) with statistics.
//!
//! The fixed-point loop itself lives in [`crate::engine`]; this module
//! wraps it with the paper's statistics and the initial-code machinery.

use std::time::Instant;

use stgcheck_bdd::{Bdd, BddOps};
use stgcheck_stg::{Code, Polarity, SgError, SgOptions, SignalId};

use crate::encode::SymbolicStg;
use crate::engine::{run_fixpoint, EngineOptions, FixpointCtl, FixpointSpec, FixpointStop};

/// Statistics of one traversal, matching the columns of the paper's
/// Table 1.
#[derive(Clone, Debug, Default)]
pub struct TraversalStats {
    /// Outer fixed-point iterations until convergence.
    pub iterations: usize,
    /// Peak live BDD nodes during the traversal.
    pub peak_nodes: usize,
    /// Size of the final `Reached` BDD in nodes.
    pub final_nodes: usize,
    /// In-place sifting passes run during this traversal (0 under
    /// [`crate::ReorderMode::None`]).
    pub sift_passes: usize,
    /// Number of reachable full states (`sat_count` of `Reached`),
    /// saturating at `u128::MAX` beyond 2¹²⁸ states — display through
    /// [`format_states`] to make the saturation explicit.
    pub num_states: u128,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

/// Renders a saturating state count: the exact number, or `>2^128` when
/// the `u128` counter saturated (systems with more than 128 variables).
pub fn format_states(n: u128) -> String {
    if n == u128::MAX {
        ">2^128".to_string()
    } else {
        n.to_string()
    }
}

/// Result of a symbolic traversal: the reachable set and its statistics.
#[derive(Clone, Debug)]
pub struct Traversal {
    /// Characteristic function of all reachable full states.
    pub reached: Bdd,
    /// Statistics (Table 1 columns).
    pub stats: TraversalStats,
}

impl SymbolicStg<'_> {
    /// Runs the symbolic traversal of Fig. 5 from `(m₀, code)` with the
    /// engine selected via [`SymbolicStg::set_engine`] (per-transition
    /// unless set).
    ///
    /// Returns the set of reachable full states. Consistency is *not*
    /// checked here — [`SymbolicStg::check_consistency`] inspects the
    /// result, and [`crate::verify`] combines both exactly like the
    /// paper's "T+C" phase.
    pub fn traverse(&mut self, code: Code) -> Traversal {
        let opts = *self.engine();
        self.traverse_with_engine(code, &opts)
    }

    /// Runs the Fig. 5 traversal with an explicit engine configuration.
    pub fn traverse_with_engine(&mut self, code: Code, opts: &EngineOptions) -> Traversal {
        self.traverse_with_engine_ctl(code, opts, &mut FixpointCtl::default()).0
    }

    /// [`SymbolicStg::traverse_with_engine`] with checkpoint/resume
    /// control threaded through to the fixed-point loop. Returns the
    /// traversal plus why the loop stopped: on anything other than
    /// [`FixpointStop::Converged`], `reached` and the stats describe the
    /// partial traversal captured in the final snapshot.
    pub(crate) fn traverse_with_engine_ctl(
        &mut self,
        code: Code,
        opts: &EngineOptions,
        ctl: &mut FixpointCtl,
    ) -> (Traversal, FixpointStop) {
        let start = Instant::now();
        self.manager_mut().reset_peak();
        let sift_runs_before = self.manager().stats().sift_runs;
        let init = self.initial_state(code);
        let transitions: Vec<_> = self.stg().net().transitions().collect();
        let out = run_fixpoint(self, opts, &FixpointSpec::forward_full(), &transitions, init, ctl);
        let stats = TraversalStats {
            iterations: out.iterations,
            peak_nodes: self.manager().peak_live_nodes(),
            final_nodes: self.manager().size(out.reached),
            sift_passes: self.manager().stats().sift_runs - sift_runs_before,
            num_states: self.manager().sat_count(out.reached),
            seconds: start.elapsed().as_secs_f64(),
        };
        (Traversal { reached: out.reached, stats }, out.stop)
    }

    /// Marking-only traversal with the edges of `frozen` signals removed —
    /// the building block of the paper's initial-code inference (Section
    /// 5.1) and of the frozen-input CSC-reducibility check (Section 5.3).
    ///
    /// Runs through the shared engine loop, so the selected engine and
    /// the `GC_THRESHOLD` policy apply here exactly as they do to the
    /// main traversal.
    pub fn traverse_markings_frozen(&mut self, frozen: &[SignalId]) -> Bdd {
        self.markings_frozen_until(frozen, None)
    }

    /// [`SymbolicStg::traverse_markings_frozen`] that stops at the first
    /// iteration whose reached markings meet `until`
    /// (`FixpointSpec::until`); the returned set is then a subset of the
    /// frozen fixpoint.
    fn markings_frozen_until(&mut self, frozen: &[SignalId], until: Option<Bdd>) -> Bdd {
        let net = self.stg().net();
        let m0 = net.initial_marking();
        let mut lits = Vec::new();
        for p in net.places() {
            lits.push(stgcheck_bdd::Literal::new(self.place_var(p), m0.tokens(p) > 0));
        }
        let init = self.manager_mut().cube(&lits);
        let transitions: Vec<_> = net
            .transitions()
            .filter(|&t| match self.stg().label(t) {
                None => true,
                Some(l) => !frozen.contains(&l.signal),
            })
            .collect();
        let opts = *self.engine();
        let spec = FixpointSpec { until, ..FixpointSpec::forward_markings() };
        run_fixpoint(self, &opts, &spec, &transitions, init, &mut FixpointCtl::default()).reached
    }

    /// Symbolic initial-code inference (paper Section 5.1): for each
    /// signal, explore the markings reachable without firing any of its
    /// edges, up to the first iteration that enables one of them; the
    /// polarity of that edge fixes the initial value (signals that never
    /// fire default to 0).
    ///
    /// Stopping early sees a subset of the frozen subspace, so it can
    /// differ from the exhaustive loop only where that loop sees both
    /// polarities of a signal. Such an STG is inconsistent under every
    /// initial code: each polarity is reached along a path that never
    /// fires the signal, so one of the two is enabled at the wrong value
    /// or a guard on the way fails. Hence the code is exact whenever the
    /// STG is consistent under it. [`crate::verify`] runs that
    /// consistency check anyway and, when it fails on an STG without a
    /// declared code, re-runs the exhaustive loop before its other
    /// checks, so it reports [`SgError::AmbiguousInitialValue`] exactly
    /// as that loop would (unless a budget trips first).
    ///
    /// # Errors
    ///
    /// [`SgError::AmbiguousInitialValue`] when a stopped frozen subspace
    /// already enables both polarities. The exhaustive loop then names the
    /// first ambiguous signal, which may come earlier.
    pub fn infer_initial_code(&mut self) -> Result<Code, SgError> {
        self.infer_code(true).or_else(|_| self.infer_code(false))
    }

    /// The Section 5.1 loop over all signals. With `early_stop` each
    /// frozen fixpoint ends at the first iteration that enables its
    /// signal; without, every one runs to convergence, so any ambiguous
    /// signal is reported, the first one in signal order.
    pub(crate) fn infer_code(&mut self, early_stop: bool) -> Result<Code, SgError> {
        let mut code = Code::ZERO;
        for s in self.stg().signals() {
            let until = early_stop.then(|| {
                let rise = self.edge_enabled(s, Polarity::Rise);
                let fall = self.edge_enabled(s, Polarity::Fall);
                self.manager_mut().or(rise, fall)
            });
            let frozen = self.markings_frozen_until(&[s], until);
            let rise = self.edge_enabled(s, Polarity::Rise);
            let fall = self.edge_enabled(s, Polarity::Fall);
            let mgr = self.manager_mut();
            let saw_rise = mgr.intersects(frozen, rise);
            let saw_fall = mgr.intersects(frozen, fall);
            match (saw_rise, saw_fall) {
                (true, true) => return Err(SgError::AmbiguousInitialValue(s)),
                (true, false) => code = code.with(s, false),
                (false, true) => code = code.with(s, true),
                (false, false) => code = code.with(s, false),
            }
        }
        Ok(code)
    }

    /// The code to start traversal from: the STG's declared initial code,
    /// or the inferred one, which is exact whenever the STG is consistent
    /// under it (see [`SymbolicStg::infer_initial_code`]).
    ///
    /// # Errors
    ///
    /// Propagates inference failure; see [`SymbolicStg::infer_initial_code`].
    pub fn effective_initial_code(&mut self) -> Result<Code, SgError> {
        match self.stg().initial_code() {
            Some(c) => Ok(c),
            None => self.infer_initial_code(),
        }
    }

    /// Convenience used by checks operating on markings only: `∃signals.
    /// Reached`.
    pub fn project_markings(&mut self, reached: Bdd) -> Bdd {
        let cube = self.signals_cube();
        self.manager_mut().exists(reached, cube)
    }

    /// Convenience for CSC: `∃places. set` — the binary-code projection of
    /// a set of full states (the paper's `∃p` operator in Section 5.3).
    pub fn project_codes(&mut self, set: Bdd) -> Bdd {
        let cube = self.places_cube();
        self.manager_mut().exists(set, cube)
    }
}

/// Cross-checks a symbolic traversal against the explicit state graph —
/// used by tests and exposed for diagnostics.
///
/// Returns `Ok(n)` with the common state count, or an error message
/// describing the first discrepancy.
///
/// # Errors
///
/// An explanation string when the two traversals disagree (this indicates
/// a bug in one of the engines, so the message is detailed).
pub fn cross_check_reachability(
    stg: &stgcheck_stg::Stg,
    order: crate::encode::VarOrder,
) -> Result<u128, String> {
    let explicit = stgcheck_stg::build_state_graph(stg, SgOptions::default())
        .map_err(|e| format!("explicit construction failed: {e}"))?;
    let mut sym = SymbolicStg::new(stg, order);
    let code = sym.effective_initial_code().map_err(|e| e.to_string())?;
    let t = sym.traverse(code);
    if t.stats.num_states != explicit.len() as u128 {
        return Err(format!(
            "state counts differ: symbolic {} vs explicit {}",
            t.stats.num_states,
            explicit.len()
        ));
    }
    // Every explicit state must satisfy the symbolic Reached function.
    let net = stg.net();
    for s in explicit.states() {
        let mut lits = Vec::new();
        for p in net.places() {
            lits.push(stgcheck_bdd::Literal::new(sym.place_var(p), s.marking.tokens(p) > 0));
        }
        for sig in stg.signals() {
            lits.push(stgcheck_bdd::Literal::new(sym.signal_var(sig), s.code.get(sig)));
        }
        let cube = sym.manager_mut().cube(&lits);
        let inside = sym.manager_mut().is_subset(cube, t.reached);
        if !inside {
            return Err(format!(
                "explicit state (code {}) missing from symbolic Reached",
                s.code.to_bit_string(stg.num_signals())
            ));
        }
    }
    Ok(t.stats.num_states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::gen;

    #[test]
    fn traversal_matches_explicit_on_benchmarks() {
        for (name, stg) in [
            ("mutex2", gen::mutex_element()),
            ("mutex3", gen::mutex(3)),
            ("muller4", gen::muller_pipeline(4)),
            ("master2", gen::master_read(2)),
            ("par3", gen::par_handshakes(3)),
            ("vme", gen::vme_read()),
            ("csc", gen::csc_violation_stg()),
            ("irred", gen::irreducible_csc_stg()),
            ("fig3d1", gen::fig3_d1()),
            ("fig3d2", gen::fig3_d2()),
        ] {
            let n = cross_check_reachability(&stg, VarOrder::Interleaved)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(n > 0, "{name}");
        }
    }

    #[test]
    fn par_handshakes_counts_4_pow_n() {
        for n in [2, 4, 6] {
            let stg = gen::par_handshakes(n);
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let t = sym.traverse(Code::ZERO);
            assert_eq!(t.stats.num_states, 4u128.pow(n as u32));
        }
    }

    #[test]
    fn exponential_states_small_bdd() {
        // The symbolic selling point: 4^10 states, BDD linear in n.
        let stg = gen::par_handshakes(10);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let t = sym.traverse(Code::ZERO);
        assert_eq!(t.stats.num_states, 4u128.pow(10));
        assert!(
            t.stats.final_nodes < 400,
            "final BDD should stay small, got {}",
            t.stats.final_nodes
        );
    }

    #[test]
    fn symbolic_initial_code_inference() {
        // Falling-first cycle: r starts at 1 (mirrors the explicit test).
        let mut b = stgcheck_stg::StgBuilder::new("hs");
        b.input("r");
        b.output("a");
        b.cycle(&["r-", "a+", "r+", "a-"]);
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.infer_initial_code().unwrap();
        let r = stg.signal_by_name("r").unwrap();
        let a = stg.signal_by_name("a").unwrap();
        assert!(code.get(r));
        assert!(!code.get(a));
        // And it agrees with the explicit inference.
        let explicit = stgcheck_stg::infer_initial_code(&stg, SgOptions::default()).unwrap();
        assert_eq!(code, explicit);
    }

    #[test]
    fn projections_remove_their_variables() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let t = sym.traverse(Code::ZERO);
        let markings = sym.project_markings(t.reached);
        let codes = sym.project_codes(t.reached);
        let support_m = sym.manager().support(markings);
        let support_c = sym.manager().support(codes);
        for s in stg.signals() {
            assert!(!support_m.contains(&sym.signal_var(s)));
        }
        for p in stg.net().places() {
            assert!(!support_c.contains(&sym.place_var(p)));
        }
    }
}
