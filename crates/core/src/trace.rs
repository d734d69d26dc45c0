//! Counter-example *traces*: a firing sequence from the initial state to
//! any state of a target set, reconstructed from the onion rings of the
//! symbolic traversal.
//!
//! The traversal keeps its frontier rings `New₀ ⊂ New₁ ⊂ …`; to reach a
//! target state in ring `k`, walk backwards: find a transition whose
//! pre-image of the current goal intersects ring `k−1`, fix one state of
//! that intersection, repeat. The result is a real firing sequence that
//! the explicit token game replays.

use stgcheck_bdd::{Bdd, BddOps, Literal};
use stgcheck_petri::TransId;
use stgcheck_stg::Code;

use crate::encode::SymbolicStg;
use crate::engine::{run_fixpoint, EngineKind, EngineOptions, FixpointCtl, FixpointSpec};
use crate::traverse::{TraversalStats, TraversalStrategy};

/// A traversal that retained its frontier rings for trace extraction.
#[derive(Clone, Debug)]
pub struct RingTraversal {
    /// Characteristic function of all reachable full states.
    pub reached: Bdd,
    /// Strict-BFS frontier rings: `rings[0]` is the initial state.
    pub rings: Vec<Bdd>,
    /// Statistics of the traversal.
    pub stats: TraversalStats,
}

impl SymbolicStg<'_> {
    /// Strict-BFS traversal that records one ring per step (chaining would
    /// skew the distance metric, so this always runs the per-transition
    /// engine under the BFS frontier, whatever engine is selected).
    pub fn traverse_with_rings(&mut self, code: Code) -> RingTraversal {
        let start = std::time::Instant::now();
        self.manager_mut().reset_peak();
        let sift_runs_before = self.manager().stats().sift_runs;
        let init = self.initial_state(code);
        let transitions: Vec<_> = self.stg().net().transitions().collect();
        let opts = EngineOptions {
            kind: EngineKind::PerTransition,
            strategy: TraversalStrategy::Bfs,
            ..*self.engine()
        };
        let spec = FixpointSpec { record_rings: true, ..FixpointSpec::forward_full() };
        let out = run_fixpoint(self, &opts, &spec, &transitions, init, &mut FixpointCtl::default());
        let stats = TraversalStats {
            iterations: out.iterations,
            peak_nodes: self.manager().peak_live_nodes(),
            final_nodes: self.manager().size(out.reached),
            sift_passes: self.manager().stats().sift_runs - sift_runs_before,
            num_states: self.manager().sat_count(out.reached),
            seconds: start.elapsed().as_secs_f64(),
        };
        RingTraversal { reached: out.reached, rings: out.rings, stats }
    }

    /// Extracts a shortest firing sequence from the initial state to some
    /// state of `target`, or `None` when `target` is unreachable.
    ///
    /// The returned transitions, fired in order from the initial state,
    /// land in `target`.
    pub fn extract_trace(
        &mut self,
        traversal: &RingTraversal,
        target: Bdd,
    ) -> Option<Vec<TransId>> {
        // Find the earliest ring intersecting the target.
        let mut k = None;
        for (i, &ring) in traversal.rings.iter().enumerate() {
            if self.manager_mut().intersects(ring, target) {
                k = Some(i);
                break;
            }
        }
        let k = k?;
        let transitions: Vec<_> = self.stg().net().transitions().collect();
        // Fix one concrete goal state inside ring k ∩ target.
        let mut goal = {
            let mgr = self.manager_mut();
            let g = mgr.and(traversal.rings[k], target);
            let cube = mgr.pick_cube(g).expect("non-empty intersection");
            let lits: Vec<Literal> = cube;
            mgr.cube(&lits)
        };
        let mut path: Vec<TransId> = Vec::new();
        for i in (1..=k).rev() {
            let prev_ring = traversal.rings[i - 1];
            let mut found = false;
            for &t in &transitions {
                let pre = self.preimage(goal, t);
                let mgr = self.manager_mut();
                let meet = mgr.and(pre, prev_ring);
                if meet.is_false() {
                    continue;
                }
                // Fix one predecessor state and continue from it.
                let cube = mgr.pick_cube(meet).expect("non-empty");
                goal = self.manager_mut().cube(&cube);
                path.push(t);
                found = true;
                break;
            }
            debug_assert!(found, "ring {i} state must have a ring {} predecessor", i - 1);
            if !found {
                return None;
            }
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::{gen, Polarity, SignalKind};

    /// Replays a trace on the explicit token game and returns the final
    /// full state.
    fn replay(stg: &stgcheck_stg::Stg, trace: &[TransId]) -> (stgcheck_petri::Marking, Code) {
        let net = stg.net();
        let mut m = net.initial_marking();
        let mut code = stg.initial_code().unwrap_or(Code::ZERO);
        for &t in trace {
            assert!(net.is_enabled(t, &m), "trace must be fireable");
            m = net.fire(t, &m);
            if let Some(l) = stg.label(t) {
                assert_eq!(code.get(l.signal), l.polarity.value_before());
                code = code.with(l.signal, l.polarity.value_after());
            }
        }
        (m, code)
    }

    #[test]
    fn trace_to_grant_state_in_mutex() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let traversal = sym.traverse_with_rings(code);
        // Target: a1 granted (a1 = 1).
        let a1 = stg.signal_by_name("a1").unwrap();
        let v = sym.signal_var(a1);
        let target = sym.manager_mut().var(v);
        let trace = sym.extract_trace(&traversal, target).expect("grant reachable");
        // Shortest: r1+ then a1+.
        assert_eq!(trace.len(), 2);
        let (_, final_code) = replay(&stg, &trace);
        assert!(final_code.get(a1));
    }

    #[test]
    fn trace_to_unreachable_target_is_none() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let traversal = sym.traverse_with_rings(code);
        // Both grants high simultaneously: excluded by the mutex.
        let a1 = sym.signal_var(stg.signal_by_name("a1").unwrap());
        let a2 = sym.signal_var(stg.signal_by_name("a2").unwrap());
        let mgr = sym.manager_mut();
        let (v1, v2) = (mgr.var(a1), mgr.var(a2));
        let both = mgr.and(v1, v2);
        assert!(sym.extract_trace(&traversal, both).is_none());
    }

    #[test]
    fn trace_to_consistency_violation() {
        let stg = gen::inconsistent_stg();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let traversal = sym.traverse_with_rings(Code::ZERO);
        let b = stg.signal_by_name("b").unwrap();
        let bad = sym.inconsistent_set(b, Polarity::Rise);
        let trace = sym.extract_trace(&traversal, bad).expect("violation reachable");
        // b+ then a+ reaches the state where b+/2 is enabled with b = 1.
        assert_eq!(trace.len(), 2);
        let (m, code) = replay(&stg, &trace);
        assert!(code.get(b));
        let b2 = stg.net().trans_by_name("b+/2").unwrap();
        assert!(stg.net().is_enabled(b2, &m));
    }

    #[test]
    fn traces_are_shortest() {
        // In the handshake cycle, reaching "r must fall next" takes
        // exactly two firings.
        let mut bld = stgcheck_stg::StgBuilder::new("hs");
        bld.input("r");
        bld.output("a");
        bld.cycle(&["r+", "a+", "r-", "a-"]);
        bld.initial_code_str("00");
        let stg = bld.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let traversal = sym.traverse_with_rings(Code::ZERO);
        let r = stg.signal_by_name("r").unwrap();
        let a = stg.signal_by_name("a").unwrap();
        let (rv, av) = (sym.signal_var(r), sym.signal_var(a));
        let mgr = sym.manager_mut();
        let (pr, pa) = (mgr.var(rv), mgr.var(av));
        let target = mgr.and(pr, pa); // code 11
        let trace = sym.extract_trace(&traversal, target).unwrap();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn rings_partition_reached() {
        let stg = gen::master_read(2);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let traversal = sym.traverse_with_rings(code);
        let mut union = Bdd::FALSE;
        for &ring in &traversal.rings {
            let mgr = sym.manager_mut();
            assert!(!mgr.intersects(union, ring), "rings must be disjoint");
            union = mgr.or(union, ring);
        }
        assert_eq!(union, traversal.reached);
        // Sanity: input transitions exist in this workload (used below).
        assert!(stg.signals().any(|s| stg.signal_kind(s) == SignalKind::Input));
    }
}
