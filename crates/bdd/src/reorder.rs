//! Variable reordering by semantic rebuild.
//!
//! The paper notes that "BDDs may have an exponential size if appropriate
//! heuristics for variable ordering are not used". The encoding layer in
//! `stgcheck-core` chooses good *static* orders; this module additionally
//! lets a caller re-shape an existing manager under a different order,
//! which `SymbolicStg::apply_var_order` uses to line a manager up with a
//! checkpoint's order before importing it.

use crate::manager::BddManager;
use crate::node::{Bdd, Var};
use crate::ops::BddOps;
use std::collections::HashMap;

impl BddManager {
    /// Rebuilds the functions `roots` into a fresh manager whose variable
    /// order is `order` (a permutation of all declared variables). Variable
    /// identities ([`Var`] indices) and names are preserved.
    ///
    /// Returns the new manager and the images of `roots` in it.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of this manager's variables.
    pub fn rebuild_with_order(&self, order: &[Var], roots: &[Bdd]) -> (BddManager, Vec<Bdd>) {
        assert_eq!(order.len(), self.num_vars(), "order must be a permutation of all variables");
        let mut seen = vec![false; self.num_vars()];
        for v in order {
            assert!(!seen[v.index()], "duplicate variable in order");
            seen[v.index()] = true;
        }

        let mut dst = BddManager::new();
        // Declare variables in creation order so Var indices are preserved…
        for i in 0..self.num_vars() {
            dst.new_var(self.var_name(Var::from_index(i)).to_string());
        }
        // …then install the requested order.
        dst.set_order_unchecked(order);

        let mut memo: HashMap<Bdd, Bdd> = HashMap::new();
        let mapped = roots.iter().map(|&r| transfer(self, &mut dst, r, &mut memo)).collect();
        (dst, mapped)
    }

    /// Replaces this manager's content with a rebuild of `roots` under
    /// `order`, returning the re-mapped roots. Every other handle is
    /// invalidated.
    pub fn reorder(&mut self, order: &[Var], roots: &[Bdd]) -> Vec<Bdd> {
        let (mut fresh, mapped) = self.rebuild_with_order(order, roots);
        // Keep the historical peak across the swap: a reorder should not
        // erase the high-water mark used in reports. Sifting metadata
        // survives too — variable identities are preserved, so the
        // declared groups stay meaningful, and the pass/swap counters
        // keep accumulating.
        fresh.absorb_peak(self.peak_live_nodes());
        fresh.groups = std::mem::take(&mut self.groups);
        fresh.sift_runs = self.sift_runs;
        fresh.sift_swaps = self.sift_swaps;
        fresh.sift_baseline = fresh.live_nodes();
        fresh.gc_baseline = fresh.live_nodes();
        // GC accounting accumulates across the rebuild like the sifting
        // counters do; the fresh manager's zero watermark already forces
        // the next collection to be a full mark.
        fresh.gc_runs = self.gc_runs;
        fresh.gc_full_runs = self.gc_full_runs;
        fresh.gc_reclaimed = self.gc_reclaimed;
        fresh.gc_pause_ns = self.gc_pause_ns;
        *self = fresh;
        mapped
    }

    pub(crate) fn set_order_unchecked(&mut self, order: &[Var]) {
        for (level, v) in order.iter().enumerate() {
            self.set_var_level(*v, level);
        }
    }

    pub(crate) fn absorb_peak(&mut self, other_peak: usize) {
        if other_peak > self.peak_live_nodes() {
            self.force_peak(other_peak);
        }
    }
}

/// Semantic transfer of `f` from `src` into `dst` (orders may differ).
///
/// Shannon-expands on the source root variable and recombines with `ite` in
/// the destination, which re-canonicalises under the destination order.
/// Transfer commutes with complementation, so the memo is keyed on the
/// regular handle: a subgraph reached in both polarities (ubiquitous with
/// complement edges) is walked once per slot, not once per tag.
fn transfer(src: &BddManager, dst: &mut BddManager, f: Bdd, memo: &mut HashMap<Bdd, Bdd>) -> Bdd {
    if f.is_terminal() {
        return f;
    }
    let tag = f.is_complemented();
    let f = f.regular();
    if let Some(&r) = memo.get(&f) {
        return r.complement_if(tag);
    }
    let v = src.root_var(f);
    let lo = transfer(src, dst, src.low(f), memo);
    let hi = transfer(src, dst, src.high(f), memo);
    let dv = dst.var(v);
    let r = dst.ite(dv, hi, lo);
    memo.insert(f, r);
    r.complement_if(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively compares `f` in `a` against `g` in `b` over all
    /// assignments of `n` variables.
    fn equivalent(a: &BddManager, f: Bdd, b: &BddManager, g: Bdd, n: usize) -> bool {
        for bits in 0..(1u32 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            if a.eval(f, &assignment) != b.eval(g, &assignment) {
                return false;
            }
        }
        true
    }

    #[test]
    fn rebuild_preserves_semantics() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 4);
        let (v0, v1, v2, v3) = (m.var(vars[0]), m.var(vars[1]), m.var(vars[2]), m.var(vars[3]));
        let a = m.and(v0, v2);
        let b = m.xor(v1, v3);
        let f = m.or(a, b);
        let order = vec![vars[3], vars[1], vars[2], vars[0]];
        let (mut m2, roots) = m.rebuild_with_order(&order, &[f]);
        assert!(equivalent(&m, f, &m2, roots[0], 4));
        assert_eq!(m2.order(), order);
        m2.check_invariants();
    }

    #[test]
    fn interleaved_order_shrinks_multiplier_pattern() {
        // The classic (a1∧b1)∨(a2∧b2)∨…: grouped order is linear,
        // separated order is exponential.
        let n = 6;
        let mut m = BddManager::new();
        let avars = m.new_vars("a", n);
        let bvars = m.new_vars("b", n);
        // Build under the bad (separated) order: a0..a5 b0..b5.
        let mut f = m.zero();
        for i in 0..n {
            let (ai, bi) = (m.var(avars[i]), m.var(bvars[i]));
            let t = m.and(ai, bi);
            f = m.or(f, t);
        }
        let bad_size = m.size(f);
        // Rebuild under interleaved a0 b0 a1 b1 …
        let mut order = Vec::new();
        for i in 0..n {
            order.push(avars[i]);
            order.push(bvars[i]);
        }
        let (m2, roots) = m.rebuild_with_order(&order, &[f]);
        let good_size = m2.size(roots[0]);
        assert!(
            good_size < bad_size,
            "interleaving should shrink the BDD: {good_size} vs {bad_size}"
        );
        // Linear in n for the good order: one a-node and one b-node per term.
        assert_eq!(good_size, 2 * n);
    }

    #[test]
    fn in_place_reorder_invalidates_nothing_kept() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 3);
        let (v0, v1) = (m.var(vars[0]), m.var(vars[1]));
        let f = m.and(v0, v1);
        let order = vec![vars[2], vars[1], vars[0]];
        let roots = m.reorder(&order, &[f]);
        assert_eq!(m.order(), order);
        assert_eq!(m.sat_count(roots[0]), 2); // x0∧x1 over 3 vars
        m.check_invariants();
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_incomplete_order() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 3);
        let _ = m.rebuild_with_order(&vars[..2], &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_order() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 2);
        let _ = m.rebuild_with_order(&[vars[0], vars[0]], &[]);
    }
}
