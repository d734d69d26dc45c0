//! Counter-example *traces*: a shortest firing sequence from the initial
//! state into a target set, computed on demand inside the reached set `R`
//! of any engine.
//!
//! Backward rings grow from the target: `B₀ = target ∧ R`, and `Bᵢ₊₁`
//! holds the states of `R` outside the earlier rings with a successor in
//! `Bᵢ`, i.e. the reachable states `i + 1` firings from the target. From
//! the first ring `Bₖ` that holds the initial state the trace walks
//! forward, one image per step, through `Bₖ₋₁, …, B₀`.

use stgcheck_bdd::{Bdd, BddOps};
use stgcheck_petri::TransId;
use stgcheck_stg::Code;

use crate::encode::SymbolicStg;

impl SymbolicStg<'_> {
    /// Extracts a shortest firing sequence from the initial state
    /// `(m₀, code)` to some state of `target`, or `None` when no state of
    /// `target` lies in `reached`.
    ///
    /// `reached` is the reachable set of a traversal from the same initial
    /// state, by any engine and under any reordering mode. The returned
    /// transitions, fired in order from the initial state, land in
    /// `target`. The call runs no garbage collection and no sifting, so
    /// `reached` and `target` stay valid throughout.
    pub fn extract_trace(&mut self, code: Code, reached: Bdd, target: Bdd) -> Option<Vec<TransId>> {
        let init = self.initial_state(code);
        let transitions: Vec<TransId> = self.stg().net().transitions().collect();
        // `rings` holds B₀ … Bₖ₋₁; `ring` is the newest, Bₖ once it
        // holds `init`.
        let mut ring = self.manager_mut().and(target, reached);
        let mut seen = ring;
        let mut rings = Vec::new();
        while !self.manager_mut().intersects(ring, init) {
            let mut pre = Bdd::FALSE;
            for &t in &transitions {
                let p = self.preimage(ring, t);
                pre = self.manager_mut().or(pre, p);
            }
            let mgr = self.manager_mut();
            let pre = mgr.and(pre, reached);
            let next = mgr.diff(pre, seen);
            if next.is_false() {
                return None;
            }
            seen = mgr.or(seen, next);
            rings.push(ring);
            ring = next;
        }
        // Every state of Bᵢ₊₁ has a successor in Bᵢ, and the image of one
        // state is one state.
        let mut state = init;
        let mut path = Vec::with_capacity(rings.len());
        for &ring in rings.iter().rev() {
            let mut step = None;
            for &t in &transitions {
                let next = self.image(state, t);
                if self.manager_mut().intersects(next, ring) {
                    step = Some((t, next));
                    break;
                }
            }
            let (t, next) = step.expect("a ring state has a successor in the next ring");
            path.push(t);
            state = next;
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::{gen, Polarity};

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
        let reached = sym.traverse(code).reached;
        // Target: a1 granted (a1 = 1).
        let a1 = stg.signal_by_name("a1").unwrap();
        let v = sym.signal_var(a1);
        let target = sym.manager_mut().var(v);
        let trace = sym.extract_trace(code, reached, target).expect("grant reachable");
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
        let reached = sym.traverse(code).reached;
        // Both grants high simultaneously: excluded by the mutex.
        let a1 = sym.signal_var(stg.signal_by_name("a1").unwrap());
        let a2 = sym.signal_var(stg.signal_by_name("a2").unwrap());
        let mgr = sym.manager_mut();
        let (v1, v2) = (mgr.var(a1), mgr.var(a2));
        let both = mgr.and(v1, v2);
        assert!(sym.extract_trace(code, reached, both).is_none());
    }

    #[test]
    fn trace_to_consistency_violation() {
        let stg = gen::inconsistent_stg();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let reached = sym.traverse(Code::ZERO).reached;
        let b = stg.signal_by_name("b").unwrap();
        let bad = sym.inconsistent_set(b, Polarity::Rise);
        let trace = sym.extract_trace(Code::ZERO, reached, bad).expect("violation reachable");
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
        // exactly two firings; the initial state itself takes none.
        let mut bld = stgcheck_stg::StgBuilder::new("hs");
        bld.input("r");
        bld.output("a");
        bld.cycle(&["r+", "a+", "r-", "a-"]);
        bld.initial_code_str("00");
        let stg = bld.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let reached = sym.traverse(Code::ZERO).reached;
        let r = stg.signal_by_name("r").unwrap();
        let a = stg.signal_by_name("a").unwrap();
        let (rv, av) = (sym.signal_var(r), sym.signal_var(a));
        let mgr = sym.manager_mut();
        let (pr, pa) = (mgr.var(rv), mgr.var(av));
        let target = mgr.and(pr, pa); // code 11
        let trace = sym.extract_trace(Code::ZERO, reached, target).unwrap();
        assert_eq!(trace.len(), 2);
        let init = sym.initial_state(Code::ZERO);
        assert_eq!(sym.extract_trace(Code::ZERO, reached, init), Some(Vec::new()));
    }
}
