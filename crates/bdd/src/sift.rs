//! In-place dynamic variable reordering: the adjacent-level swap
//! primitive and Rudell-style sifting.
//!
//! The paper warns that "BDDs may have an exponential size if appropriate
//! heuristics for variable ordering are not used". Static orders from the
//! encoding layer only help until the reachable-set shape drifts away
//! from the net shape mid-traversal; at that point the order must change
//! *without* rebuilding the manager — a rebuild is far too expensive to
//! run between fixpoint iterations, and it would invalidate every
//! outstanding handle.
//!
//! The machinery here is the classic alternative:
//!
//! * [`BddManager::swap_levels`] exchanges two *adjacent* levels: the
//!   levels trade unique tables, and only the nodes that depend on the
//!   rising variable are rewritten and re-hashed. Every node keeps its
//!   arena slot, so every [`Bdd`] handle keeps denoting the same boolean
//!   function — no caller cooperation needed.
//! * [`BddManager::permute_levels`] installs a whole target order by
//!   such swaps — how a fresh context is lined up with a checkpoint's
//!   order before the import.
//! * [`BddManager::sift`] moves each variable (or each declared *group*
//!   of variables, see [`BddManager::set_var_groups`]) through the whole
//!   order by repeated adjacent swaps and parks it at the position that
//!   minimises the live-node count — Rudell's sifting, with the usual
//!   1.2× growth abort per direction.
//!
//! During a sifting pass the manager temporarily maintains exact
//! reference counts so that nodes orphaned by a swap are reclaimed
//! immediately; the size signal that drives the search is therefore the
//! true live count, not live-plus-garbage. Outside sifting, a bare
//! `swap_levels` leaves orphans to the next garbage collection.

use crate::manager::BddManager;
use crate::node::{Bdd, Level, Node, Var, DEAD_LEVEL};

/// Outcome of one sifting pass ([`BddManager::sift`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SiftStats {
    /// Live decision nodes when the pass started (after the initial GC).
    pub nodes_before: usize,
    /// Live decision nodes when the pass finished.
    pub nodes_after: usize,
    /// Adjacent-level swaps executed.
    pub swaps: usize,
    /// Variable blocks (groups or singletons) sifted.
    pub blocks_sifted: usize,
}

/// Abort a sifting direction once the live count exceeds 6/5 (= 1.2×) of
/// the size at the start of the block's sift — Rudell's max-growth guard.
const MAX_GROWTH_NUM: usize = 6;
const MAX_GROWTH_DEN: usize = 5;

/// What a run of swaps carries from one swap to the next, so that a swap
/// in the run allocates nothing once its buffers have grown.
#[derive(Default)]
struct SwapScratch {
    /// Exact per-node reference counts, alive only for the duration of
    /// one sifting pass (`None` for a bare swap, which leaves orphans to
    /// the next GC). `refs[i]` counts parent edges into node `i` plus one
    /// per occurrence in the pass's protected root set.
    refs: Option<Vec<u32>>,
    /// The swap's sinking-level nodes that depend on the rising variable.
    dependent: Vec<Bdd>,
    /// `drop_ref`'s cascade of nodes whose count reached zero.
    dying: Vec<Bdd>,
}

impl SwapScratch {
    /// Adds one parent reference to `f` (no-op outside sifting).
    fn bump(&mut self, f: Bdd) {
        if let Some(refs) = &mut self.refs {
            if !f.is_terminal() {
                refs[f.index()] += 1;
            }
        }
    }
}

impl BddManager {
    /// Exchanges the variables at `level` and `level + 1` in place.
    ///
    /// Only nodes at those two levels are touched; all other levels, and
    /// crucially all outstanding [`Bdd`] handles, are untouched — every
    /// handle denotes the same boolean function before and after. The two
    /// levels trade unique tables: the rising variable's nodes, and the
    /// nodes at `level` that do not depend on it, only change their level
    /// and keep their table entries. The nodes at `level` that depend on
    /// the rising variable are rewritten in their own arena slot, and only
    /// they and the children created for them are hashed, so a swap costs
    /// what it rewrites plus one cheap walk over both levels.
    ///
    /// A swap can orphan nodes of the rising level (when every parent
    /// rewrote them away) and can create nodes at the sinking level. An
    /// orphan stays canonically registered and is reclaimed by the next
    /// [`BddManager::gc`]; during [`BddManager::sift`] the internal
    /// reference counter reclaims it immediately instead.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a declared level.
    pub fn swap_levels(&mut self, level: usize) {
        assert!(level + 1 < self.num_vars(), "swap_levels({level}) needs two adjacent levels");
        self.swap_adjacent(level, &mut SwapScratch::default());
    }

    /// Moves the variables in place so that `order[k]` sits at level `k`:
    /// for each target level in turn, the wanted variable is swapped up
    /// from its current level by [`BddManager::swap_levels`]' primitive.
    /// Every handle keeps denoting the same function, and what the swaps
    /// orphan is left to the next [`BddManager::gc`].
    ///
    /// A variable passes every level between its current and its target
    /// position, rewriting the nodes there, so this suits lightly
    /// populated managers: a fresh context holding only its permanent
    /// cubes, lined up with a checkpoint's order before the import.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of all declared variables.
    pub fn permute_levels(&mut self, order: &[Var]) {
        let n = self.num_vars();
        assert_eq!(order.len(), n, "order must be a permutation of all variables");
        let mut seen = vec![false; n];
        for v in order {
            assert!(!std::mem::replace(&mut seen[v.index()], true), "duplicate variable in order");
        }
        let mut scratch = SwapScratch::default();
        for (target, &v) in order.iter().enumerate() {
            for l in (target..self.level_of(v)).rev() {
                self.swap_adjacent(l, &mut scratch);
            }
        }
    }

    /// The swap primitive, optionally maintaining sifting ref-counts.
    ///
    /// A `&mut self` (quiesce-time) operation: the per-level shard
    /// mutexes are reached through `get_mut`, so the swap pays no locking
    /// even though the tables are the shared concurrent ones.
    ///
    /// Beyond a growing table or arena, a swap allocates nothing once
    /// `s`'s buffers have grown: a run of swaps passes one `s` along.
    fn swap_adjacent(&mut self, l: usize, s: &mut SwapScratch) {
        let la = l as Level;
        let lb = la + 1;
        // Partition the sinking level before any relabelling. A node
        // whose children avoid level l+1 does not interact with the swap:
        // it sinks one level and keeps its entry, as its key (its
        // children) is unchanged. A node that depends on the rising
        // variable leaves the table to be rewritten below. Relabelling
        // during the walk is safe: no node of a level is a child of
        // another node of that level (slot 0, the terminal, never reads
        // as level l+1 either).
        let nodes = &self.nodes;
        let dependent = &mut s.dependent;
        self.subtables[l].get_mut().expect("shard").retain(|_, &mut x| {
            let n = nodes.get(x.index());
            let depends = nodes.level(n.lo.index()) == lb || nodes.level(n.hi.index()) == lb;
            if depends {
                dependent.push(x);
            } else {
                nodes.set_level(x.index(), lb);
            }
            !depends
        });
        // The rising variable's nodes keep their structure and their
        // entries; only their level changes. Their children live strictly
        // below l+1, so the order invariant holds at level l.
        for &y in self.subtables[l + 1].get_mut().expect("shard").values() {
            nodes.set_level(y.index(), la);
        }
        self.subtables.swap(l, l + 1);
        // Dependent nodes are rewritten in place:
        //   ite(x, f1, f0) = ite(y, ite(x, f11, f01), ite(x, f10, f00))
        // The slot keeps its identity (handles stay valid); the children
        // become fresh or shared nodes at the sinking level. Cofactors are
        // taken through `cofactors_at`, which resolves complement tags on
        // the `hi` edge — a complemented parent edge into the rising level
        // cofactors into complemented grandchildren, and `mk_counted`
        // re-canonicalizes. The new `lo` stays regular (it descends from
        // the stored regular `lo` edge), so the stored form keeps the
        // complement-edge invariant without extra work. A rewritten node
        // cannot collide with a rising node — equality would force both
        // new children x-free, contradicting lo != hi — nor with another
        // rewrite, by canonicity of the originals.
        for k in 0..s.dependent.len() {
            let x = s.dependent[k];
            let n = self.nodes.get(x.index());
            let (f0, f1) = (n.lo, n.hi);
            let (f00, f01) = self.cofactors_at(f0, la);
            let (f10, f11) = self.cofactors_at(f1, la);
            let lo = self.mk_counted(lb, f00, f10, s.refs.as_mut());
            let hi = self.mk_counted(lb, f01, f11, s.refs.as_mut());
            debug_assert_ne!(lo, hi, "dependent node became redundant in a swap");
            debug_assert!(!lo.is_complemented(), "rewritten else edge lost canonical form");
            s.bump(lo);
            s.bump(hi);
            self.nodes.set(x.index(), Node { level: la, lo, hi });
            let prev = self.subtables[l].get_mut().expect("shard").insert((lo, hi), x);
            debug_assert!(prev.is_none(), "rewritten node collides in its table");
            // Release the old children only now that the new ones are
            // anchored — the cofactors above may share subgraphs with
            // them.
            self.drop_ref(f0, s);
            self.drop_ref(f1, s);
        }
        s.dependent.clear();
        let (va, vb) = (self.var_at_level[l], self.var_at_level[l + 1]);
        self.var_at_level[l] = vb;
        self.var_at_level[l + 1] = va;
        self.level_of_var[va.index()] = lb;
        self.level_of_var[vb.index()] = la;
        self.sift_swaps += 1;
    }

    /// Removes one parent reference from `f`, reclaiming it (and
    /// cascading into its children) when the count hits zero. No-op
    /// outside sifting. The cascade stack is touched only once a count
    /// reaches zero.
    fn drop_ref(&mut self, f: Bdd, s: &mut SwapScratch) {
        let Some(refs) = &mut s.refs else { return };
        let mut next = Some(f);
        while let Some(g) = next.take().or_else(|| s.dying.pop()) {
            if g.is_terminal() {
                continue;
            }
            // Refcounts live on untagged slots; a complemented edge dying
            // kills the same node as its regular twin.
            let g = g.regular();
            let i = g.index();
            debug_assert!(refs[i] > 0, "ref underflow on node {i}");
            refs[i] -= 1;
            if refs[i] == 0 {
                let n = self.nodes.get(i);
                let removed = self.subtables[n.level as usize]
                    .get_mut()
                    .expect("shard")
                    .remove(&(n.lo, n.hi));
                debug_assert_eq!(removed, Some(g), "dying node missing from its table");
                self.nodes.set_level(i, DEAD_LEVEL);
                self.free_push(i as u32);
                self.release_one_live();
                s.dying.push(n.lo);
                s.dying.push(n.hi);
            }
        }
    }

    /// Sifts every variable to a locally optimal level, in place.
    ///
    /// `roots` are the functions that must survive: the pass starts with
    /// a [`BddManager::gc`] over exactly these roots (any handle not
    /// reachable from them dangles afterwards, exactly as for `gc`), and
    /// every root handle remains valid *unchanged* — in-place swaps never
    /// move a function to a different slot.
    ///
    /// Variables grouped via [`BddManager::set_var_groups`] move as one
    /// block. Blocks are processed in decreasing order of their current
    /// node count (Rudell's heuristic); each walks to the nearer end of
    /// the order, then the far end, aborting a direction when the live
    /// count exceeds 1.2× the block's starting size, and finally parks at
    /// the best position seen.
    ///
    /// The operation caches are cleared (reclaimed slots may be recycled)
    /// and the automatic-reorder baseline ([`BddManager::reorder_due`])
    /// is reset to the final live count.
    ///
    /// # Panics
    ///
    /// Panics if a group's variables are not at adjacent levels.
    pub fn sift(&mut self, roots: &[Bdd]) -> SiftStats {
        let swaps_at_entry = self.sift_swaps;
        // Exact live set: reclaim garbage so the size signal is truthful,
        // and so the reference counts below are complete. Swaps probe no
        // operation cache, so `finish_sift`'s clear is the only one the
        // pass needs.
        self.mark_and_sweep(roots);
        let before = self.live_nodes();
        let mut stats =
            SiftStats { nodes_before: before, nodes_after: before, swaps: 0, blocks_sifted: 0 };
        // Headroom gate: swaps transiently rewrite dependent nodes into
        // fresh slots, and a mid-swap allocation failure would leave two
        // half-rewired levels — unrecoverable. With less than 1/8 of the
        // arena's slot range left, skip the pass entirely; the budget
        // machinery (not sifting) is responsible for ending a run that
        // close to the cap.
        if self.nodes.len() > crate::arena::MAX_SLOTS - crate::arena::MAX_SLOTS / 8 {
            self.finish_sift(&mut stats, swaps_at_entry);
            return stats;
        }
        if self.num_vars() < 2 {
            self.finish_sift(&mut stats, swaps_at_entry);
            return stats;
        }
        // Parent-edge counts over the now-exact live graph, plus one
        // count per root occurrence so protected functions never die.
        let mut refs = vec![0; self.nodes.len()];
        self.nodes.for_each(|i, node| {
            if i == 0 || node.is_dead() {
                return;
            }
            if !node.lo.is_terminal() {
                refs[node.lo.index()] += 1;
            }
            if !node.hi.is_terminal() {
                refs[node.hi.index()] += 1;
            }
        });
        for &r in roots {
            if !r.is_terminal() {
                refs[r.index()] += 1;
            }
        }
        let mut scratch = SwapScratch { refs: Some(refs), ..SwapScratch::default() };
        let mut blocks = self.build_blocks();
        // Rudell's processing order: heaviest block first, sized by its
        // current unique-table occupancy.
        let (subtables, level_of_var) = (&mut self.subtables, &self.level_of_var);
        let mut heaviest: Vec<(usize, Var)> = blocks
            .iter()
            .map(|b| {
                let weight = b
                    .iter()
                    .map(|v| {
                        subtables[level_of_var[v.index()] as usize].get_mut().expect("shard").len()
                    })
                    .sum();
                (weight, b[0])
            })
            .collect();
        heaviest.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        for (_, key) in heaviest {
            let idx = blocks
                .iter()
                .position(|b| b.contains(&key))
                .expect("sifted block vanished from the layout");
            self.sift_block(&mut blocks, idx, &mut scratch);
            stats.blocks_sifted += 1;
        }
        self.finish_sift(&mut stats, swaps_at_entry);
        stats
    }

    fn finish_sift(&mut self, stats: &mut SiftStats, swaps_at_entry: usize) {
        stats.nodes_after = self.live_nodes();
        stats.swaps = self.sift_swaps - swaps_at_entry;
        // Reclaimed slots may be recycled by the next operation; stale
        // memo entries must not resurrect them.
        self.caches.clear();
        self.sift_baseline = self.live_nodes();
        self.sift_runs += 1;
    }

    /// The current level layout as a list of blocks (the stored groups
    /// merged, everything else singleton), top to bottom.
    /// [`BddManager::set_var_groups`] has already checked that the groups
    /// are disjoint and name declared variables.
    ///
    /// # Panics
    ///
    /// Panics if a group is not contiguous in the current order.
    fn build_blocks(&self) -> Vec<Vec<Var>> {
        let (n, groups) = (self.num_vars(), &self.groups);
        let mut group_of: Vec<Option<usize>> = vec![None; n];
        for (gi, g) in groups.iter().enumerate() {
            let lo = g.iter().map(|&v| self.level_of(v)).min().unwrap_or(0);
            let hi = g.iter().map(|&v| self.level_of(v)).max().unwrap_or(0);
            assert!(
                g.is_empty() || hi - lo + 1 == g.len(),
                "sift group {gi} is not contiguous in the current order"
            );
            for &v in g {
                group_of[v.index()] = Some(gi);
            }
        }
        let mut blocks = Vec::new();
        let mut level = 0;
        while level < n {
            let v = self.var_at(level);
            match group_of[v.index()] {
                Some(gi) => {
                    let len = groups[gi].len();
                    let mut block: Vec<Var> =
                        (level..level + len).map(|l| self.var_at(l)).collect();
                    block.sort_by_key(|&v| self.level_of(v));
                    level += len;
                    blocks.push(block);
                }
                None => {
                    blocks.push(vec![v]);
                    level += 1;
                }
            }
        }
        blocks
    }

    /// Sifts the block at `start` (an index into `blocks`) to its locally
    /// optimal position, updating `blocks` to the final layout.
    fn sift_block(&mut self, blocks: &mut [Vec<Var>], start: usize, s: &mut SwapScratch) {
        let nblocks = blocks.len();
        if nblocks < 2 {
            return;
        }
        let limit = self.live_nodes() * MAX_GROWTH_NUM / MAX_GROWTH_DEN;
        let mut best_size = self.live_nodes();
        let mut best_pos = start;
        let mut pos = start;
        // Walk to the nearer end first: fewer swaps wasted if the best
        // position turns out to be on the far side.
        let down_first = start >= nblocks / 2;
        for phase in 0..2 {
            let go_down = down_first == (phase == 0);
            if go_down {
                while pos + 1 < nblocks {
                    self.swap_neighbor_blocks(blocks, pos, s);
                    pos += 1;
                    if self.live_nodes() < best_size {
                        best_size = self.live_nodes();
                        best_pos = pos;
                    } else if self.live_nodes() > limit {
                        break;
                    }
                }
            } else {
                while pos > 0 {
                    self.swap_neighbor_blocks(blocks, pos - 1, s);
                    pos -= 1;
                    if self.live_nodes() < best_size {
                        best_size = self.live_nodes();
                        best_pos = pos;
                    } else if self.live_nodes() > limit {
                        break;
                    }
                }
            }
        }
        while pos < best_pos {
            self.swap_neighbor_blocks(blocks, pos, s);
            pos += 1;
        }
        while pos > best_pos {
            self.swap_neighbor_blocks(blocks, pos - 1, s);
            pos -= 1;
        }
    }

    /// Swaps the adjacent blocks at indices `i` and `i + 1` by bubbling
    /// each variable of the lower block up through the upper block — the
    /// only block motion sifting ever performs, so declared groups stay
    /// contiguous at every observable point.
    fn swap_neighbor_blocks(&mut self, blocks: &mut [Vec<Var>], i: usize, s: &mut SwapScratch) {
        let top = blocks[i].iter().map(|&v| self.level_of(v)).min().expect("empty sift block");
        let len_a = blocks[i].len();
        let len_b = blocks[i + 1].len();
        for k in 0..len_b {
            // The lower block's k-th variable sits at `top + len_a + k`;
            // bubble it up to `top + k`.
            for l in ((top + k)..(top + len_a + k)).rev() {
                self.swap_adjacent(l, s);
            }
        }
        blocks.swap(i, i + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Literal;
    use crate::BddOps;

    /// `f` evaluated over all assignments of `n` variables.
    fn truth_table(m: &BddManager, f: Bdd, n: usize) -> Vec<bool> {
        (0..(1u32 << n))
            .map(|bits| {
                let a: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
                m.eval(f, &a)
            })
            .collect()
    }

    fn three_var_setup() -> (BddManager, Vec<Var>, Bdd) {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 3);
        let (v0, v1, v2) = (m.var(vars[0]), m.var(vars[1]), m.var(vars[2]));
        let a = m.and(v0, v1);
        let f = m.or(a, v2);
        (m, vars, f)
    }

    #[test]
    fn swap_preserves_semantics_and_handles() {
        let (mut m, vars, f) = three_var_setup();
        let before = truth_table(&m, f, 3);
        m.swap_levels(0);
        assert_eq!(m.var_at(0), vars[1]);
        assert_eq!(m.var_at(1), vars[0]);
        assert_eq!(m.level_of(vars[0]), 1);
        m.check_invariants();
        assert_eq!(truth_table(&m, f, 3), before);
        // Swapping back restores the original order and function.
        m.swap_levels(0);
        assert_eq!(m.order(), vars);
        m.check_invariants();
        assert_eq!(truth_table(&m, f, 3), before);
    }

    #[test]
    fn swap_is_local_to_two_levels() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 5);
        let mut f = m.zero();
        for &v in &vars {
            let lv = m.var(v);
            f = m.xor(f, lv);
        }
        let before = truth_table(&m, f, 5);
        let deep_nodes: Vec<usize> = (3..5).map(|l| m.subtables[l].lock().unwrap().len()).collect();
        m.swap_levels(0);
        m.check_invariants();
        // Levels 3 and 4 are untouched by a (0,1) swap.
        assert_eq!(
            (3..5).map(|l| m.subtables[l].lock().unwrap().len()).collect::<Vec<_>>(),
            deep_nodes
        );
        assert_eq!(truth_table(&m, f, 5), before);
    }

    #[test]
    fn in_place_reorder_invalidates_nothing_kept() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 3);
        let (v0, v1) = (m.var(vars[0]), m.var(vars[1]));
        let f = m.and(v0, v1);
        let order = vec![vars[2], vars[1], vars[0]];
        m.permute_levels(&order);
        assert_eq!(m.order(), order);
        assert_eq!(m.sat_count(f), 2); // x0∧x1 over 3 vars, same handle
        m.check_invariants();
    }

    #[test]
    fn interleaved_order_shrinks_multiplier_pattern() {
        // The classic (a1∧b1)∨(a2∧b2)∨…: grouped order is linear,
        // separated order is exponential.
        let n = 6;
        let mut m = BddManager::new();
        let avars = m.new_vars("a", n);
        let bvars = m.new_vars("b", n);
        let mut f = m.zero();
        for i in 0..n {
            let (ai, bi) = (m.var(avars[i]), m.var(bvars[i]));
            let t = m.and(ai, bi);
            f = m.or(f, t);
        }
        let bad_size = m.size(f);
        let tt = truth_table(&m, f, 2 * n);
        let order: Vec<Var> = (0..n).flat_map(|i| [avars[i], bvars[i]]).collect();
        m.permute_levels(&order);
        m.check_invariants();
        assert_eq!(truth_table(&m, f, 2 * n), tt);
        assert!(m.size(f) < bad_size, "interleaving should shrink the BDD");
        // Linear in n for the good order: one a-node and one b-node per term.
        assert_eq!(m.size(f), 2 * n);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_incomplete_order() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 3);
        m.permute_levels(&vars[..2]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_order() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 2);
        m.permute_levels(&[vars[0], vars[0]]);
    }

    #[test]
    fn sift_shrinks_the_separated_multiplier_pattern() {
        // (a0∧b0)∨(a1∧b1)∨… under the separated order is exponential;
        // sifting must find an interleaving-quality order.
        let n = 6;
        let mut m = BddManager::new();
        let avars = m.new_vars("a", n);
        let bvars = m.new_vars("b", n);
        let mut f = m.zero();
        for i in 0..n {
            let (ai, bi) = (m.var(avars[i]), m.var(bvars[i]));
            let t = m.and(ai, bi);
            f = m.or(f, t);
        }
        let bad_size = m.size(f);
        let stats = m.sift(&[f]);
        m.check_invariants();
        assert_eq!(stats.nodes_before, bad_size);
        assert!(stats.swaps > 0);
        assert_eq!(stats.nodes_after, m.live_nodes());
        assert!(
            m.size(f) < bad_size,
            "sifting should shrink the separated pattern: {} vs {bad_size}",
            m.size(f)
        );
        // The optimum for this function is 2 nodes per term.
        assert_eq!(m.size(f), 2 * n);
    }

    #[test]
    fn sift_agrees_with_semantic_rebuild() {
        let (mut m, vars, f) = three_var_setup();
        let before = truth_table(&m, f, 3);
        m.sift(&[f]);
        assert_eq!(truth_table(&m, f, 3), before);
        // Building the same function from scratch in a fresh manager
        // under the sifted order yields a graph of identical size and
        // semantics: the in-place result is canonical for the order it
        // found.
        let mut m2 = BddManager::new();
        m2.new_vars("x", 3);
        m2.permute_levels(&m.order());
        let (v0, v1, v2) = (m2.var(vars[0]), m2.var(vars[1]), m2.var(vars[2]));
        let a = m2.and(v0, v1);
        let g = m2.or(a, v2);
        assert_eq!(m2.size(g), m.size(f));
        assert_eq!(truth_table(&m2, g, 3), before);
    }

    #[test]
    fn sift_preserves_peak_high_water() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 8);
        let mut f = m.zero();
        for pair in vars.chunks(2) {
            let (a, b) = (m.var(pair[0]), m.var(pair[1]));
            let t = m.and(a, b);
            f = m.or(f, t);
        }
        let peak_before = m.peak_live_nodes();
        m.sift(&[f]);
        assert!(m.peak_live_nodes() >= peak_before, "sift lost the high-water mark");
        assert!(m.peak_live_nodes() >= m.live_nodes());
    }

    #[test]
    fn grouped_sift_keeps_blocks_adjacent() {
        let n = 4;
        let mut m = BddManager::new();
        let avars = m.new_vars("a", n);
        let bvars = m.new_vars("b", n);
        // Group each (aᵢ, bᵢ) pair; build the function under an order
        // where the pairs are separated.
        let groups: Vec<Vec<Var>> = (0..n).map(|i| vec![avars[i], bvars[i]]).collect();
        let mut f = m.zero();
        for i in 0..n {
            let (ai, bi) = (m.var(avars[i]), m.var(bvars[i]));
            let t = m.and(ai, bi);
            f = m.or(f, t);
        }
        // Interleave first so the groups are contiguous, then sift with
        // the grouping and check the pairs never separate.
        let mut order = Vec::new();
        for i in 0..n {
            order.push(avars[i]);
            order.push(bvars[i]);
        }
        m.permute_levels(&order);
        assert_eq!(m.order(), order);
        let tt = truth_table(&m, f, 2 * n);
        m.set_var_groups(groups.clone());
        m.sift(&[f]);
        m.check_invariants();
        assert_eq!(truth_table(&m, f, 2 * n), tt);
        for g in &groups {
            let (la, lb) = (m.level_of(g[0]), m.level_of(g[1]));
            assert_eq!(la.abs_diff(lb), 1, "group {g:?} was split by sifting");
        }
    }

    #[test]
    fn stored_groups_drive_plain_sift() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        m.set_var_groups(vec![vec![x, y]]);
        assert_eq!(m.var_groups(), &[vec![x, y]]);
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let a = m.xor(vx, vy);
        let f = m.and(a, vz);
        let tt = truth_table(&m, f, 3);
        let stats = m.sift(&[f]);
        assert_eq!(stats.blocks_sifted, 2); // the (x,y) block and z
        assert_eq!(truth_table(&m, f, 3), tt);
        assert_eq!(m.level_of(x).abs_diff(m.level_of(y)), 1);
    }

    #[test]
    fn sift_reclaims_orphans_immediately() {
        let n = 5;
        let mut m = BddManager::new();
        let avars = m.new_vars("a", n);
        let bvars = m.new_vars("b", n);
        let mut f = m.zero();
        for i in 0..n {
            let (ai, bi) = (m.var(avars[i]), m.var(bvars[i]));
            let t = m.and(ai, bi);
            f = m.or(f, t);
        }
        m.sift(&[f]);
        // Everything still live is reachable from the root: a GC finds
        // nothing further to reclaim.
        assert_eq!(m.gc(&[f]), 0, "sift left garbage behind");
    }

    #[test]
    fn reorder_trigger_fires_and_resets() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 12);
        assert!(!m.reorder_due(), "empty manager must not want a reorder");
        // Parity over 12 variables: ~2·12 nodes — still below the floor.
        let mut f = m.zero();
        for &v in &vars {
            let lv = m.var(v);
            f = m.xor(f, lv);
        }
        assert!(!m.reorder_due());
        // Pile up distinct functions until the floor is crossed.
        let mut gs = Vec::new();
        for i in 0..vars.len() {
            for j in 0..vars.len() {
                if i != j {
                    let (a, b) = (m.var(vars[i]), m.var(vars[j]));
                    let t1 = m.and(a, b);
                    let t2 = m.xor(f, t1);
                    gs.push(t2);
                }
            }
        }
        assert!(m.live_nodes() > 256);
        assert!(m.reorder_due());
        let mut roots = gs.clone();
        roots.push(f);
        m.sift(&roots);
        // The baseline resets: no immediate re-trigger.
        assert!(!m.reorder_due() || m.live_nodes() > 2 * m.stats().live_nodes);
    }

    #[test]
    fn public_swap_orphans_are_gc_food() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        // f = x (independent of y): swapping moves the node down without
        // orphaning anything.
        let f = m.var(x);
        m.swap_levels(0);
        m.check_invariants();
        assert_eq!(m.level_of(x), 1);
        assert!(m.eval(f, &[true, false]));
        assert!(!m.eval(f, &[false, true]));
        // g = x∧y: the swap rewrites the root in place and orphans the
        // old child when nothing else shares it.
        let g0 = m.var(x);
        let g1 = m.var(y);
        let g = m.and(g0, g1);
        let live = m.live_nodes();
        m.swap_levels(0);
        m.check_invariants();
        assert!(m.live_nodes() >= live - 1);
        let reclaimed = m.gc(&[f, g]);
        m.check_invariants();
        // Whatever the swap orphaned is reclaimable, and the kept
        // functions still evaluate correctly.
        assert!(reclaimed <= 2);
        let tt: Vec<bool> = [(false, false), (true, false), (false, true), (true, true)]
            .iter()
            .map(|&(xv, yv)| m.eval(g, &[xv, yv]))
            .collect();
        assert_eq!(tt, vec![false, false, false, true]);
        let lits = [Literal::positive(x), Literal::positive(y)];
        let cube = m.cube(&lits);
        assert_eq!(cube, g);
    }
}
