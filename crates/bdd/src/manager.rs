//! The BDD manager: concurrent node arena, lock-sharded hash-consing
//! unique tables, variable order, garbage collection and statistics.
//!
//! Handles are complement-edge tagged ([`Bdd`], see `docs/bdd-internals.md`):
//! the arena stores every function in *regular* form (else edge never
//! complemented) and a set tag bit on a handle denotes the negation of the
//! stored node. All arena bookkeeping — unique tables, refcounts, GC marks,
//! free lists — operates on untagged slots; only the boolean semantics seen
//! through [`BddManager::low`]/[`BddManager::high`]/`cofactors_at` apply
//! the tag.
//!
//! # Concurrency
//!
//! Since the shared-unique-table rework (`docs/concurrent-table.md`) the
//! manager is `Sync`: every *functional* operation — [`BddManager::mk`]
//! via the public connectives, quantifiers, cofactors, analysis and
//! export — takes `&self` and may be called from many threads against
//! one manager. The unique table is **lock-sharded by level** (one mutex
//! per level, a natural shard key because sifting rewires whole levels),
//! the node arena is append-only with atomic publication, and the
//! operation caches are lossy-atomic. *Structural* operations — variable
//! declaration, GC, sifting, bulk import — take `&mut self`, so Rust's
//! borrow rules make every one of them a stop-the-world quiesce point:
//! no thread can hold `&BddManager` across them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::arena::NodeArena;
use crate::budget::{Budget, ResourceError};
use crate::cache::{CheapBuildHasher, OpCaches};
use crate::node::{Bdd, Level, Literal, Node, Var, DEAD_LEVEL, TERMINAL_LEVEL};

/// One shard of the concurrent unique table: `(lo, hi) -> node` for a
/// single level, exact (canonicity depends on it) but hashed with the
/// cheap multiplicative mix shared with the operation caches. Keys are
/// stored edges — `lo` always regular, `hi` possibly complemented — and
/// values are regular handles. Guarded by the per-level mutex in
/// [`BddManager::subtables`].
pub(crate) type UniqueTable = HashMap<(Bdd, Bdd), Bdd, CheapBuildHasher>;

/// Operation codes for the binary-operation cache.
///
/// `Or` and `Forall` need no codes: with complement edges they are O(1)
/// wrappers over `And` and `Exists` (`f∨g = ¬(¬f∧¬g)`, `∀c.f = ¬∃c.¬f`),
/// which is precisely what doubles the hit rate of the shared cache.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Conjunction.
    And,
    /// Exclusive or.
    Xor,
    /// Existential abstraction.
    Exists,
    /// Cube cofactor.
    CofactorCube,
    /// Literal flip out of a cube's values ([`crate::BddOps::flip_cube`]).
    FlipCube,
    /// Literal flip into a cube's values (`flip_cube` with `back`).
    FlipCubeBack,
}

/// Statistics snapshot of a [`BddManager`].
///
/// `peak_live_nodes` is the high-water mark of simultaneously live decision
/// nodes — the quantity reported as "BDD size: peak" in the paper's Table 1.
/// With complement edges a function and its negation share every node, so
/// both counters are naturally smaller than in an untagged package.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct ManagerStats {
    /// Number of live decision nodes right now (terminals excluded).
    pub live_nodes: usize,
    /// High-water mark of live decision nodes since creation.
    pub peak_live_nodes: usize,
    /// Number of garbage collections performed; each one is a
    /// whole-arena mark-and-sweep ([`BddManager::gc`]).
    pub gc_runs: usize,
    /// Always equal to `gc_runs`, since every collection is a
    /// whole-arena one; kept for readers that still report it apart.
    pub gc_full_runs: usize,
    /// Total nodes reclaimed by garbage collection.
    pub gc_reclaimed: usize,
    /// Total wall-clock time spent inside garbage collections, in
    /// nanoseconds — the stop-the-world pause budget of the run.
    pub gc_pause_ns: u64,
    /// Number of declared variables.
    pub num_vars: usize,
    /// Number of in-place sifting passes ([`BddManager::sift`]) performed.
    pub sift_runs: usize,
    /// Total adjacent-level swaps executed by sifting,
    /// [`BddManager::swap_levels`] and [`BddManager::permute_levels`].
    pub sift_swaps: usize,
}

/// A manager for Reduced Ordered Binary Decision Diagrams with complement
/// edges, shareable across threads (`&BddManager` suffices for every
/// boolean operation; see the module docs for the concurrency contract).
///
/// The manager owns every node; [`Bdd`] handles index into it. Functions are
/// kept canonical by hash-consing plus the complement-edge normal form: for
/// a given variable order, structurally equal functions always receive the
/// same handle, so equality of functions is `==` on handles and negation is
/// a tag flip ([`BddManager::not`] is O(1)). Canonicity holds across
/// threads too — the per-level lock makes node creation atomic, so two
/// threads computing the same function always end up with the same handle.
///
/// # Examples
///
/// ```
/// use stgcheck_bdd::{BddManager, BddOps};
/// let mut m = BddManager::new();
/// let x = m.new_var("x");
/// let y = m.new_var("y");
/// let (vx, vy) = (m.var(x), m.var(y));
/// let f = m.and(vx, vy);
/// let g = m.and(vy, vx);
/// assert_eq!(f, g); // canonicity
/// let nf = m.not(f);
/// assert_eq!(m.not(nf), f); // O(1) involution
/// ```
pub struct BddManager {
    pub(crate) nodes: NodeArena,
    /// Slots reclaimed by the last GC, recycled before fresh allocation.
    /// Only mutated under the mutex; `free_hint` lets the hot path skip
    /// the lock entirely while the list is empty (the common case).
    pub(crate) free: Mutex<Vec<u32>>,
    free_hint: AtomicUsize,
    /// The lock-sharded unique table: one exact map + mutex per level.
    pub(crate) subtables: Vec<Mutex<UniqueTable>>,
    var_names: Vec<String>,
    pub(crate) var_at_level: Vec<Var>,
    pub(crate) level_of_var: Vec<Level>,
    pub(crate) caches: OpCaches,
    pub(crate) live: AtomicUsize,
    pub(crate) peak_live: AtomicUsize,
    pub(crate) gc_runs: usize,
    pub(crate) gc_reclaimed: usize,
    /// Total nanoseconds spent inside collections (pause accounting).
    pub(crate) gc_pause_ns: u64,
    /// Variable groups that sift as one block (empty = every variable on
    /// its own); see [`BddManager::set_var_groups`].
    pub(crate) groups: Vec<Vec<Var>>,
    /// Live-node count right after the last sifting pass — the baseline
    /// of the automatic-reorder growth trigger.
    pub(crate) sift_baseline: usize,
    /// Live-node count right after the last GC — the baseline of the
    /// amortized collection trigger ([`BddManager::gc_due`]).
    pub(crate) gc_baseline: usize,
    pub(crate) sift_runs: usize,
    pub(crate) sift_swaps: usize,
    /// The installed resource budget (unlimited by default). Shared with
    /// the engine loop by cloning; see `crate::budget` for the trip-flag
    /// protocol.
    pub(crate) budget: Budget,
    /// Snapshot of `budget.is_limited()` taken at install time (budgets
    /// are installed at quiesce points, so a plain bool is race-free):
    /// lets the unbudgeted hot path skip the per-allocation poll
    /// entirely.
    pub(crate) budget_limited: bool,
    /// Snapshot of `budget.faults().is_armed()`, taken with
    /// `budget_limited`: the disarmed `arena-alloc` hook tests only this.
    faults_armed: bool,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BddManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BddManager")
            .field("num_vars", &self.num_vars())
            .field("live_nodes", &self.live_nodes())
            .field("peak_live_nodes", &self.peak_live_nodes())
            .finish_non_exhaustive()
    }
}

impl BddManager {
    /// Creates an empty manager with no variables.
    pub fn new() -> BddManager {
        BddManager {
            // Slot 0 is the single terminal; its `Node` content is a
            // placeholder that is never interpreted. TRUE is its regular
            // handle, FALSE the complemented one.
            nodes: NodeArena::new(Node::terminal()),
            free: Mutex::new(Vec::new()),
            free_hint: AtomicUsize::new(0),
            subtables: Vec::new(),
            var_names: Vec::new(),
            var_at_level: Vec::new(),
            level_of_var: Vec::new(),
            caches: OpCaches::default(),
            live: AtomicUsize::new(0),
            peak_live: AtomicUsize::new(0),
            gc_runs: 0,
            gc_reclaimed: 0,
            gc_pause_ns: 0,
            groups: Vec::new(),
            sift_baseline: 0,
            gc_baseline: 0,
            sift_runs: 0,
            sift_swaps: 0,
            budget: Budget::unlimited(),
            budget_limited: false,
            faults_armed: false,
        }
    }

    /// Installs a resource budget. A quiesce-point operation: the budget
    /// governs every subsequent operation on this manager, and clones of
    /// the same [`Budget`] installed on other managers trip together.
    ///
    /// A trip latched on the *outgoing* budget (e.g. arena exhaustion
    /// while the manager still ran under its default unlimited budget)
    /// carries over: whatever was built before the trip may be garbage,
    /// so the manager must stay inert rather than resume live operations
    /// under the fresh budget.
    pub fn set_budget(&mut self, budget: Budget) {
        if let Some(reason) = self.budget.tripped() {
            budget.trip(reason);
        }
        self.budget_limited = budget.is_limited();
        self.faults_armed = budget.faults().is_armed();
        self.budget = budget;
    }

    /// The installed resource budget (unlimited unless
    /// [`BddManager::set_budget`] was called).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// One relaxed load: has the installed budget tripped? Once true, the
    /// recursive operations bail out returning [`Bdd::FALSE`] without
    /// memoising — the *inert* mode that guarantees prompt termination
    /// with an unpoisoned arena and clean caches (see `crate::budget`).
    #[inline]
    pub(crate) fn inert(&self) -> bool {
        self.budget.is_tripped()
    }

    /// Declares a fresh variable placed at the bottom of the current order.
    ///
    /// The name is used for diagnostics and checkpoint headers; it need
    /// not be unique.
    ///
    /// # Panics
    ///
    /// Panics past [`crate::MAX_VARS`] variables. Callers encoding
    /// external input must bound-check first (`stgcheck-core` rejects
    /// oversized nets with a typed error before declaring anything), so
    /// this assert is an internal invariant, not an input-reachable path.
    pub fn new_var(&mut self, name: impl Into<String>) -> Var {
        assert!(
            self.num_vars() < crate::arena::MAX_VARS,
            "the packed node cells cap a manager at {} variables",
            crate::arena::MAX_VARS
        );
        let v = Var(self.var_names.len() as u32);
        self.var_names.push(name.into());
        self.level_of_var.push(self.var_at_level.len() as Level);
        self.var_at_level.push(v);
        self.subtables.push(Mutex::new(UniqueTable::default()));
        v
    }

    /// Declares `n` fresh variables named `prefix0..prefix{n-1}`.
    pub fn new_vars(&mut self, prefix: &str, n: usize) -> Vec<Var> {
        (0..n).map(|i| self.new_var(format!("{prefix}{i}"))).collect()
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The name given to `v` at declaration time.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this manager.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Current level (position in the order, `0` = top) of variable `v`.
    pub fn level_of(&self, v: Var) -> usize {
        self.level_of_var[v.index()] as usize
    }

    /// The variable currently placed at `level`.
    pub fn var_at(&self, level: usize) -> Var {
        self.var_at_level[level]
    }

    /// Current variable order, from top level to bottom.
    pub fn order(&self) -> Vec<Var> {
        self.var_at_level.clone()
    }

    /// The constant-false function.
    #[inline]
    pub fn zero(&self) -> Bdd {
        Bdd::FALSE
    }

    /// The constant-true function.
    #[inline]
    pub fn one(&self) -> Bdd {
        Bdd::TRUE
    }

    /// The function of the single positive literal `v`.
    ///
    /// With complement edges `v` and `¬v` share one arena node: the
    /// positive literal is the complemented handle of the stored node
    /// `(v, lo=TRUE, hi=FALSE)`.
    pub fn var(&self, v: Var) -> Bdd {
        let level = self.level_of_var[v.index()];
        self.mk(level, Bdd::FALSE, Bdd::TRUE)
    }

    /// The function of the single negative literal `¬v`.
    pub fn nvar(&self, v: Var) -> Bdd {
        let level = self.level_of_var[v.index()];
        self.mk(level, Bdd::TRUE, Bdd::FALSE)
    }

    /// The function of a single [`Literal`].
    pub fn literal(&self, lit: Literal) -> Bdd {
        if lit.is_positive() {
            self.var(lit.var())
        } else {
            self.nvar(lit.var())
        }
    }

    /// Hash-consing constructor — the only way nodes are created. Safe to
    /// call from many threads: lookup and insert happen under the level's
    /// shard lock, so equal requests always converge on one slot.
    ///
    /// Canonicalizes to the complement-edge normal form: when the
    /// requested `lo` edge is complemented, the *negated* node is stored
    /// (`¬lo`, `¬hi` — with `¬lo` regular) and the complemented handle is
    /// returned, so `FALSE` never appears as a stored else edge and every
    /// function has exactly one representation.
    ///
    /// When the arena is exhausted this trips the installed [`Budget`]
    /// and returns [`Bdd::FALSE`] — a valid handle — without publishing
    /// anything; the enclosing operations observe the trip, stop
    /// memoising and unwind inertly (see `crate::budget`). The budget's
    /// `arena-alloc` failpoint injects the same outcome at a bump
    /// allocation.
    pub(crate) fn mk(&self, level: Level, lo: Bdd, hi: Bdd) -> Bdd {
        debug_assert!(!self.node(lo).is_dead() && !self.node(hi).is_dead());
        debug_assert!(self.level(lo) > level && self.level(hi) > level);
        if lo == hi {
            return lo;
        }
        // Complement-edge canonicalization: store the regular-lo form.
        let flip = lo.is_complemented();
        let (lo, hi) = if flip { (lo.complement(), hi.complement()) } else { (lo, hi) };
        let mut table = self.subtables[level as usize].lock().expect("unique-table shard");
        if let Some(&found) = table.get(&(lo, hi)) {
            return found.complement_if(flip);
        }
        let Some(slot) = self.alloc_slot() else {
            drop(table);
            self.budget.trip(ResourceError::ArenaExhausted);
            return Bdd::FALSE;
        };
        // Publish order: node data first, then the table entry. The
        // mutex release (and any later release-store of the handle)
        // carries the data to every reader.
        self.nodes.set(slot as usize, Node { level, lo, hi });
        let id = Bdd::from_slot(slot);
        table.insert((lo, hi), id);
        drop(table);
        let cur = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        if cur > self.peak_live.load(Ordering::Relaxed) {
            self.peak_live.fetch_max(cur, Ordering::Relaxed);
        }
        if self.budget_limited {
            // The node itself stays valid either way; a trip here merely
            // makes the *next* recursion steps bail out inertly.
            self.budget.note_alloc(cur);
        }
        id.complement_if(flip)
    }

    /// Returns a reclaimed slot to the free list (sifting's eager orphan
    /// reclamation). Quiesce-time only.
    pub(crate) fn free_push(&mut self, slot: u32) {
        let free = self.free.get_mut().expect("free list");
        free.push(slot);
        *self.free_hint.get_mut() = free.len();
    }

    /// Decrements the live-node counter by one (sifting's eager orphan
    /// reclamation). Quiesce-time only.
    pub(crate) fn release_one_live(&mut self) {
        *self.live.get_mut() -= 1;
    }

    /// Claims a node slot: recycled from the free list when the last GC
    /// left any, freshly bump-allocated otherwise. `None` when the arena
    /// slot range is exhausted.
    fn alloc_slot(&self) -> Option<u32> {
        if self.free_hint.load(Ordering::Relaxed) > 0 {
            let mut free = self.free.lock().expect("free list");
            if let Some(slot) = free.pop() {
                self.free_hint.store(free.len(), Ordering::Relaxed);
                return Some(slot);
            }
        }
        if self.faults_armed && self.budget.faults().hit("arena-alloc") {
            return None;
        }
        self.nodes.alloc()
    }

    /// [`BddManager::mk`] through an exclusive borrow, the node-creation
    /// step of every [`crate::BddOps`] recursion run on `&mut
    /// BddManager`: identical hash-consing and complement-edge semantics,
    /// but through `Mutex::get_mut` on the shard, a plain bump allocation
    /// and plain counter writes — no lock acquisition, no atomic
    /// read-modify-writes. The `&mut` receiver is the whole safety
    /// argument: borrowck proves no other thread can touch the manager
    /// while this runs. Same budget contract as `mk` (trips
    /// [`ResourceError::ArenaExhausted`] and returns [`Bdd::FALSE`] on
    /// exhaustion — unlike the sift-internal [`BddManager::mk_counted`],
    /// whose headroom gate makes exhaustion a panic-worthy invariant
    /// violation).
    pub(crate) fn mk_mut(&mut self, level: Level, lo: Bdd, hi: Bdd) -> Bdd {
        debug_assert!(!self.node(lo).is_dead() && !self.node(hi).is_dead());
        debug_assert!(self.level(lo) > level && self.level(hi) > level);
        if lo == hi {
            return lo;
        }
        let flip = lo.is_complemented();
        let (lo, hi) = if flip { (lo.complement(), hi.complement()) } else { (lo, hi) };
        let table = self.subtables[level as usize].get_mut().expect("unique-table shard");
        if let Some(&found) = table.get(&(lo, hi)) {
            return found.complement_if(flip);
        }
        let slot = {
            let free = self.free.get_mut().expect("free list");
            match free.pop() {
                Some(slot) => {
                    *self.free_hint.get_mut() = free.len();
                    Some(slot)
                }
                None if self.faults_armed && self.budget.faults().hit("arena-alloc") => None,
                None => self.nodes.alloc_mut(),
            }
        };
        let Some(slot) = slot else {
            self.budget.trip(ResourceError::ArenaExhausted);
            return Bdd::FALSE;
        };
        self.nodes.set_mut(slot as usize, Node { level, lo, hi });
        let id = Bdd::from_slot(slot);
        self.subtables[level as usize].get_mut().expect("unique-table shard").insert((lo, hi), id);
        let live = *self.live.get_mut() + 1;
        *self.live.get_mut() = live;
        if live > *self.peak_live.get_mut() {
            *self.peak_live.get_mut() = live;
        }
        if self.budget_limited {
            self.budget.note_alloc(live);
        }
        id.complement_if(flip)
    }

    /// The quiesce-time [`BddManager::mk`]: same hash-consing semantics,
    /// but through `get_mut` accessors — no shard lock, no atomic
    /// read-modify-writes. Sifting calls it twice per node a swap
    /// rewrites, and together with the rewritten node's own re-insert
    /// these probes are all the hashing a swap does; a badly ordered net
    /// runs tens of thousands of swaps per verification.
    /// Optionally keeps sifting reference counts in step when a node is
    /// genuinely created (a found node already owns its child references;
    /// the caller accounts for its own new edge to the returned node
    /// either way).
    pub(crate) fn mk_counted(
        &mut self,
        level: Level,
        lo: Bdd,
        hi: Bdd,
        refs: Option<&mut Vec<u32>>,
    ) -> Bdd {
        debug_assert!(!self.node(lo).is_dead() && !self.node(hi).is_dead());
        debug_assert!(self.level(lo) > level && self.level(hi) > level);
        if lo == hi {
            return lo;
        }
        let flip = lo.is_complemented();
        let (lo, hi) = if flip { (lo.complement(), hi.complement()) } else { (lo, hi) };
        let table = self.subtables[level as usize].get_mut().expect("unique-table shard");
        if let Some(&found) = table.get(&(lo, hi)) {
            return found.complement_if(flip);
        }
        let slot = {
            let free = self.free.get_mut().expect("free list");
            match free.pop() {
                Some(slot) => {
                    *self.free_hint.get_mut() = free.len();
                    slot
                }
                // Sifting only rewrites existing structure, so its
                // transient growth is bounded by the two levels being
                // swapped; the headroom gate at `sift_pass` entry keeps
                // this allocation from ever failing (internal invariant —
                // a mid-swap failure would leave half-rewired levels).
                None => self
                    .nodes
                    .alloc()
                    .expect("arena exhausted mid-sift despite the sift_pass headroom gate"),
            }
        };
        self.nodes.set(slot as usize, Node { level, lo, hi });
        let id = Bdd::from_slot(slot);
        self.subtables[level as usize].get_mut().expect("unique-table shard").insert((lo, hi), id);
        let live = *self.live.get_mut() + 1;
        *self.live.get_mut() = live;
        if live > *self.peak_live.get_mut() {
            *self.peak_live.get_mut() = live;
        }
        if let Some(refs) = refs {
            if id.index() >= refs.len() {
                refs.resize(self.nodes.len(), 0);
            }
            refs[id.index()] = 0; // the caller adds its own parent edge
            if !lo.is_terminal() {
                refs[lo.index()] += 1;
            }
            if !hi.is_terminal() {
                refs[hi.index()] += 1;
            }
        }
        id.complement_if(flip)
    }

    /// Rebuilds every named root of a [`crate::BddCheckpoint`] in one
    /// bulk pass over the shared node list. The caller is responsible for
    /// having validated the header (net hash, variable names) against its
    /// own context; this method only requires that every node level fits
    /// this manager's variable range — and reports a typed error (never a
    /// panic) when it does not, since checkpoints are external input.
    pub fn bulk_import_checkpoint(
        &mut self,
        ck: &crate::BddCheckpoint,
    ) -> Result<Vec<(String, Bdd)>, String> {
        let handles = self.bulk_load_nodes(&ck.nodes)?;
        Ok(ck.roots.iter().map(|&(ref name, r)| (name.clone(), decode_ref(&handles, r))).collect())
    }

    /// O(n) level-ordered import of a topologically ordered `(level, lo,
    /// hi)` node list: groups nodes by level and walks levels bottom-up,
    /// inserting each node straight into its unique-table shard via a
    /// single `entry` probe — no recursive `mk` descent, no shard lock,
    /// one table touch per level. Children sit strictly deeper than their
    /// parents (guaranteed by export and enforced when decoding byte
    /// streams), so every reference is resolved by the time it is read.
    ///
    /// Applies exactly the canonicalization `mk` applies (alias collapse
    /// and the regular-`lo` complement normal form), so the returned
    /// handles are identical to what a recursive import would produce.
    ///
    /// Errors if a node's level is outside this manager's variable range
    /// or the arena runs out of slots mid-import. A failed import leaves
    /// only orphan (dead-weight but well-formed) nodes behind — the next
    /// GC reclaims them; no table entry ever points at unwritten storage.
    fn bulk_load_nodes(&mut self, list: &[(u32, u32, u32)]) -> Result<Vec<Bdd>, String> {
        let nvars = self.num_vars();
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); nvars];
        for (i, &(level, _, _)) in list.iter().enumerate() {
            if level as usize >= nvars {
                return Err(format!(
                    "bulk import refers to level {level} but manager has {nvars} variables"
                ));
            }
            by_level[level as usize].push(i as u32);
        }
        let mut handles: Vec<Bdd> = vec![Bdd::FALSE; list.len()];
        let mut resolved = vec![false; list.len()];
        let mut created = 0usize;
        // Disjoint field borrows: the free list, each level's unique
        // table, and the (interior-mutable) arena are touched directly so
        // allocation can happen while a shard is open.
        let free = self.free.get_mut().expect("free list");
        let mut failure: Option<String> = None;
        'levels: for level in (0..nvars).rev() {
            if by_level[level].is_empty() {
                continue;
            }
            let table = self.subtables[level].get_mut().expect("unique-table shard");
            table.reserve(by_level[level].len());
            for &i in &by_level[level] {
                let (_, lo_r, hi_r) = list[i as usize];
                debug_assert!(
                    ref_resolved(&resolved, lo_r) && ref_resolved(&resolved, hi_r),
                    "bulk import fed a list without the child-strictly-deeper invariant"
                );
                let lo = decode_ref(&handles, lo_r);
                let hi = decode_ref(&handles, hi_r);
                let id = if lo == hi {
                    lo
                } else {
                    // Same canonical form as `mk`: store regular-lo,
                    // return the tagged handle.
                    let flip = lo.is_complemented();
                    let (lo, hi) = if flip { (lo.complement(), hi.complement()) } else { (lo, hi) };
                    let found = match table.entry((lo, hi)) {
                        std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            let slot =
                                match free.pop().map(Some).unwrap_or_else(|| self.nodes.alloc()) {
                                    Some(slot) => slot,
                                    None => {
                                        failure = Some(
                                            "node arena exhausted during bulk import".to_string(),
                                        );
                                        break 'levels;
                                    }
                                };
                            self.nodes.set(slot as usize, Node { level: level as Level, lo, hi });
                            created += 1;
                            *e.insert(Bdd::from_slot(slot))
                        }
                    };
                    found.complement_if(flip)
                };
                handles[i as usize] = id;
                resolved[i as usize] = true;
            }
        }
        // Account for the nodes actually created even on a failed import:
        // they are hash-consed into the unique tables, so they are live
        // (orphans the next GC will reclaim), and the counters must agree
        // with the tables either way.
        *self.free_hint.get_mut() = free.len();
        let live = *self.live.get_mut() + created;
        *self.live.get_mut() = live;
        if live > *self.peak_live.get_mut() {
            *self.peak_live.get_mut() = live;
        }
        match failure {
            Some(msg) => Err(msg),
            None => Ok(handles),
        }
    }

    #[inline]
    pub(crate) fn node(&self, f: Bdd) -> Node {
        self.nodes.get(f.index())
    }

    /// Level of the root node of `f` (terminals are below every variable).
    #[inline]
    pub(crate) fn level(&self, f: Bdd) -> Level {
        if f.is_terminal() {
            TERMINAL_LEVEL
        } else {
            self.nodes.level(f.index())
        }
    }

    /// Tag-resolved children of a non-terminal `f`: the stored edges with
    /// `f`'s complement tag pushed down (`¬node` has children `¬lo`,
    /// `¬hi`). These are the *semantic* else/then cofactors.
    #[inline]
    pub(crate) fn children(&self, f: Bdd) -> (Bdd, Bdd) {
        let n = self.nodes.get(f.index());
        let t = f.is_complemented();
        (n.lo.complement_if(t), n.hi.complement_if(t))
    }

    /// The decision variable at the root of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn root_var(&self, f: Bdd) -> Var {
        assert!(!f.is_terminal(), "terminals have no root variable");
        self.var_at_level[self.node(f).level as usize]
    }

    /// Low (else) child of `f`, with the complement tag resolved.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn low(&self, f: Bdd) -> Bdd {
        assert!(!f.is_terminal(), "terminals have no children");
        self.children(f).0
    }

    /// High (then) child of `f`, with the complement tag resolved.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn high(&self, f: Bdd) -> Bdd {
        assert!(!f.is_terminal(), "terminals have no children");
        self.children(f).1
    }

    /// Cofactors of `f` with respect to the variable at `level`, i.e.
    /// `(f|level=0, f|level=1)`. If the root of `f` is below `level` both
    /// cofactors are `f` itself.
    #[inline]
    pub(crate) fn cofactors_at(&self, f: Bdd, level: Level) -> (Bdd, Bdd) {
        if self.level(f) == level {
            self.children(f)
        } else {
            (f, f)
        }
    }

    /// Root level and tag-resolved children in **one** arena read — the
    /// apply loops' workhorse. Terminals report [`TERMINAL_LEVEL`] and
    /// themselves as both children, so `peek` composes with the
    /// `cofactors_at`-style `level == top` dispatch without a second
    /// lookup.
    #[inline]
    pub(crate) fn peek(&self, f: Bdd) -> (Level, Bdd, Bdd) {
        if f.is_terminal() {
            (TERMINAL_LEVEL, f, f)
        } else {
            let n = self.nodes.get(f.index());
            let t = f.is_complemented();
            (n.level, n.lo.complement_if(t), n.hi.complement_if(t))
        }
    }

    /// Number of decision nodes in the subgraph rooted at `f` (the
    /// terminal not counted). `f` and `¬f` share every node and report the
    /// same size. The quantity reported as "BDD size: final" in Table 1.
    pub fn size(&self, f: Bdd) -> usize {
        self.size_many(&[f])
    }

    /// Number of decision nodes in the union of the subgraphs rooted at
    /// `roots` (shared nodes counted once, complement tags ignored).
    pub fn size_many(&self, roots: &[Bdd]) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<Bdd> = roots.iter().map(|r| r.regular()).collect();
        let mut count = 0;
        while let Some(g) = stack.pop() {
            if g.is_terminal() || !seen.insert(g) {
                continue;
            }
            count += 1;
            let n = self.node(g);
            stack.push(n.lo);
            stack.push(n.hi.regular());
        }
        count
    }

    /// The set of variables the function `f` actually depends on.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut levels = std::collections::BTreeSet::new();
        let mut stack = vec![f.regular()];
        while let Some(g) = stack.pop() {
            if g.is_terminal() || !seen.insert(g) {
                continue;
            }
            let n = self.node(g);
            levels.insert(n.level);
            stack.push(n.lo);
            stack.push(n.hi.regular());
        }
        levels.into_iter().map(|l| self.var_at_level[l as usize]).collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            live_nodes: self.live_nodes(),
            peak_live_nodes: self.peak_live_nodes(),
            gc_runs: self.gc_runs,
            gc_full_runs: self.gc_runs,
            gc_reclaimed: self.gc_reclaimed,
            gc_pause_ns: self.gc_pause_ns,
            num_vars: self.num_vars(),
            sift_runs: self.sift_runs,
            sift_swaps: self.sift_swaps,
        }
    }

    /// Declares which variables must stay adjacent and move as one block
    /// during [`BddManager::sift`] — e.g. a signal together with the
    /// places encoding its local handshake in the interleaved STG order.
    ///
    /// Variables not mentioned in any group sift individually. Groups
    /// must be pairwise disjoint; each group's variables must occupy
    /// adjacent levels *at sift time* (sifting itself preserves block
    /// adjacency, so groups that are contiguous when declared stay so).
    ///
    /// # Panics
    ///
    /// Panics if a group names an undeclared variable or a variable
    /// appears in two groups.
    pub fn set_var_groups(&mut self, groups: Vec<Vec<Var>>) {
        let mut seen = vec![false; self.num_vars()];
        for g in &groups {
            for v in g {
                assert!(v.index() < self.num_vars(), "group names undeclared variable {v:?}");
                assert!(!seen[v.index()], "variable {v:?} appears in two groups");
                seen[v.index()] = true;
            }
        }
        self.groups = groups;
    }

    /// The sifting groups declared via [`BddManager::set_var_groups`].
    pub fn var_groups(&self) -> &[Vec<Var>] {
        &self.groups
    }

    /// `true` when the automatic-reorder growth heuristic fires: the
    /// live-node count has grown past twice the count measured right
    /// after the previous sifting pass (with a floor that keeps trivial
    /// managers from reordering at all). Consulted by the traversal
    /// engines between fixed-point iterations under `--reorder auto`.
    pub fn reorder_due(&self) -> bool {
        const AUTO_SIFT_FLOOR: usize = 256;
        self.live_nodes() > (2 * self.sift_baseline).max(AUTO_SIFT_FLOOR)
    }

    /// Number of live decision nodes.
    pub fn live_nodes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of live decision nodes.
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live.load(Ordering::Relaxed)
    }

    /// Resets the peak-node counter to the current live count.
    pub fn reset_peak(&mut self) {
        *self.peak_live.get_mut() = *self.live.get_mut();
    }

    /// Garbage collection — a quiesce-point operation: the `&mut`
    /// receiver guarantees no thread is concurrently reading or growing
    /// the manager.
    ///
    /// One exact mark-and-sweep: marks every node reachable from `roots`,
    /// then sweeps the whole arena and reclaims every node the mark did
    /// not reach. Every handle transitively reachable from `roots` stays
    /// valid with unchanged meaning; every other handle must be treated
    /// as dangling. All operation caches are cleared. Complement tags are
    /// irrelevant to reachability: keeping `f` keeps `¬f` by
    /// construction. Afterwards `live_nodes()` equals
    /// `size_many(roots)`.
    ///
    /// Returns the number of reclaimed nodes.
    pub fn gc(&mut self, roots: &[Bdd]) -> usize {
        let reclaimed = self.mark_and_sweep(roots);
        self.caches.clear();
        reclaimed
    }

    /// [`BddManager::gc`] without the operation-cache clear, for a caller
    /// that probes no cache before clearing it itself: a sifting pass
    /// collects on entry and clears once when it ends. The pause recorded
    /// is the mark and the sweep.
    pub(crate) fn mark_and_sweep(&mut self, roots: &[Bdd]) -> usize {
        let start = std::time::Instant::now();
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        let mut stack: Vec<usize> = roots.iter().map(|r| r.index()).collect();
        while let Some(i) = stack.pop() {
            if marked[i] {
                continue;
            }
            marked[i] = true;
            let n = self.nodes.get(i);
            debug_assert!(!n.is_dead(), "root set references a dead node");
            stack.push(n.lo.index());
            stack.push(n.hi.index());
        }
        let mut reclaimed = 0;
        let nodes = &self.nodes;
        let subtables = &mut self.subtables;
        let free = self.free.get_mut().expect("free list");
        // Sweep as straight segment walks — on multi-million-node arenas
        // the sweep, not the mark, dominates GC.
        nodes.for_each(|i, n| {
            if i == 0 || marked[i] || n.is_dead() {
                return;
            }
            subtables[n.level as usize]
                .get_mut()
                .expect("unique-table shard")
                .remove(&(n.lo, n.hi));
            nodes.set_level(i, DEAD_LEVEL);
            free.push(i as u32);
            reclaimed += 1;
        });
        *self.free_hint.get_mut() = free.len();
        *self.live.get_mut() -= reclaimed;
        self.gc_baseline = *self.live.get_mut();
        self.gc_runs += 1;
        self.gc_reclaimed += reclaimed;
        self.gc_pause_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        reclaimed
    }

    /// Growth factor of the amortized collection trigger
    /// ([`BddManager::gc_due`]): collect only once the live count has
    /// grown this many times past the previous collection's survivors.
    const GC_GROWTH: f64 = 1.5;

    /// `true` when the engines' amortized collection policy says a GC is
    /// worth its mark-and-sweep: the live count exceeds `threshold`
    /// *and* has grown at least `GC_GROWTH` = 1.5× past the count left by
    /// the previous collection. A mostly-live multi-million-node working set
    /// no longer pays a whole-graph walk per frontier step just because
    /// it dwarfs the absolute threshold — collections amortize against
    /// growth, the way the `reorder_due` trigger already amortizes
    /// sifting.
    pub fn gc_due(&self, threshold: usize) -> bool {
        let live = self.live_nodes();
        live > threshold && (live as f64) > (self.gc_baseline as f64) * Self::GC_GROWTH
    }

    /// Verifies internal invariants (canonicity including the
    /// complement-edge normal form, ordering, table consistency).
    /// Intended for tests; O(nodes). Takes `&mut self` deliberately:
    /// the walk reads in-flight arena slots and compares counters that
    /// only settle at a quiesce point, so the exclusive borrow keeps it
    /// from racing the `&self` operations and reporting phantom
    /// violations.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&mut self) {
        self.nodes.for_each(|i, n| {
            if i == 0 || n.is_dead() {
                return;
            }
            assert!(n.lo != n.hi, "node {i} is redundant");
            assert!(!n.lo.is_complemented(), "node {i} has a complemented else edge");
            assert!(
                self.level(n.lo) > n.level && self.level(n.hi) > n.level,
                "node {i} violates variable order"
            );
            assert_eq!(
                self.subtables[n.level as usize]
                    .lock()
                    .expect("unique-table shard")
                    .get(&(n.lo, n.hi)),
                Some(&Bdd::from_slot(i as u32)),
                "node {i} missing from its unique table"
            );
        });
        let live_in_tables: usize =
            self.subtables.iter().map(|t| t.lock().expect("unique-table shard").len()).sum();
        assert_eq!(live_in_tables, self.live_nodes(), "live count out of sync");
    }
}

/// Decodes a tagged checkpoint reference (bit 0 = complement, `0` =
/// terminal, `k + 1` = entry `k`) against already-resolved handles.
fn decode_ref(handles: &[Bdd], r: u32) -> Bdd {
    match r >> 1 {
        0 => Bdd::TRUE.complement_if(r & 1 != 0),
        k => handles[(k - 1) as usize].complement_if(r & 1 != 0),
    }
}

/// `true` when the reference points at the terminal or an entry already
/// resolved by the bulk loader (debug-assert guard).
fn ref_resolved(resolved: &[bool], r: u32) -> bool {
    match r >> 1 {
        0 => true,
        k => resolved[(k - 1) as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BddOps;

    #[test]
    fn var_creation_and_order() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.var_name(x), "x");
        assert_eq!(m.level_of(x), 0);
        assert_eq!(m.level_of(y), 1);
        assert_eq!(m.var_at(0), x);
        assert_eq!(m.order(), vec![x, y]);
    }

    #[test]
    fn hash_consing_canonicity() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let a = m.var(x);
        let b = m.var(x);
        assert_eq!(a, b);
        assert_eq!(m.live_nodes(), 1);
    }

    #[test]
    fn literal_nodes_share_one_slot() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let pos = m.var(x);
        let neg = m.nvar(x);
        assert_ne!(pos, neg);
        // One arena node serves both polarities via the complement tag.
        assert_eq!(m.live_nodes(), 1);
        assert_eq!(pos, neg.complement());
        assert_eq!(m.low(pos), Bdd::FALSE);
        assert_eq!(m.high(pos), Bdd::TRUE);
        assert_eq!(m.low(neg), Bdd::TRUE);
        assert_eq!(m.high(neg), Bdd::FALSE);
        assert_eq!(m.root_var(pos), x);
        let lp = m.literal(Literal::positive(x));
        let ln = m.literal(Literal::negative(x));
        assert_eq!(lp, pos);
        assert_eq!(ln, neg);
    }

    #[test]
    fn redundant_node_elimination() {
        let mut m = BddManager::new();
        let _x = m.new_var("x");
        let r = m.mk(0, Bdd::TRUE, Bdd::TRUE);
        assert_eq!(r, Bdd::TRUE);
        let r = m.mk(0, Bdd::FALSE, Bdd::FALSE);
        assert_eq!(r, Bdd::FALSE);
        assert_eq!(m.live_nodes(), 0);
    }

    #[test]
    fn mk_canonicalizes_complemented_else() {
        let mut m = BddManager::new();
        let _x = m.new_var("x");
        // mk(x, FALSE, TRUE) (the positive literal) must store the
        // regular-lo node and return its complement.
        let pos = m.mk(0, Bdd::FALSE, Bdd::TRUE);
        assert!(pos.is_complemented());
        let neg = m.mk(0, Bdd::TRUE, Bdd::FALSE);
        assert!(!neg.is_complemented());
        assert_eq!(pos, neg.complement());
        assert_eq!(m.live_nodes(), 1);
        m.check_invariants();
    }

    #[test]
    fn size_and_support() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        assert_eq!(m.size(f), 2);
        // A function and its complement share every node.
        assert_eq!(m.size(f.complement()), 2);
        assert_eq!(m.support(f), vec![x, y]);
        assert!(!m.support(f).contains(&z));
        assert_eq!(m.size(Bdd::TRUE), 0);
        // f's subgraph shares the y-literal slot? No: f = x∧y is the
        // root node over the y-literal node, and the x literal is its own
        // node — three distinct slots in total.
        assert_eq!(m.size_many(&[f, vx]), 3);
    }

    #[test]
    fn gc_reclaims_garbage_and_keeps_roots() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 8);
        let mut f = m.one();
        for &v in &vars {
            let lv = m.var(v);
            f = m.and(f, lv);
        }
        // Build garbage.
        for i in 0..4 {
            let a = m.var(vars[i]);
            let b = m.nvar(vars[i + 1]);
            let _garbage = m.xor(a, b);
        }
        let live_before = m.live_nodes();
        let reclaimed = m.gc(&[f]);
        assert!(reclaimed > 0);
        assert_eq!(m.live_nodes(), live_before - reclaimed);
        // The kept function still has all 8 conjuncts.
        assert_eq!(m.size(f), 8);
        m.check_invariants();
        // Slots are recycled.
        let before_realloc = m.nodes.len();
        let a = m.var(vars[0]);
        let b = m.var(vars[2]);
        let _g = m.or(a, b);
        assert_eq!(m.nodes.len(), before_realloc);
    }

    #[test]
    fn peak_tracking() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 6);
        let mut f = m.zero();
        for &v in &vars {
            let lv = m.var(v);
            f = m.or(f, lv);
        }
        let peak = m.peak_live_nodes();
        assert!(peak >= m.live_nodes());
        m.gc(&[f]);
        assert!(m.peak_live_nodes() >= m.live_nodes());
        m.reset_peak();
        assert_eq!(m.peak_live_nodes(), m.live_nodes());
    }

    #[test]
    fn gc_growth_factor_tunes_the_trigger() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 40);
        let mut f = m.one();
        for &v in &vars[..20] {
            let lv = m.var(v);
            f = m.and(f, lv);
        }
        m.gc(&[f]); // sets the baseline to the survivor count
        let baseline = m.live_nodes();
        // Grow live one fresh literal node at a time: to ~1.3× the
        // baseline, short of the 1.5× trigger, then past it.
        let mut next = 20;
        while m.live_nodes() * 10 < baseline * 13 {
            let _lit = m.var(vars[next]);
            next += 1;
        }
        assert!(!m.gc_due(0), "1.5x trigger fired below its threshold");
        while m.live_nodes() * 10 <= baseline * 15 {
            let _lit = m.var(vars[next]);
            next += 1;
        }
        assert!(m.gc_due(0), "1.5x trigger failed to fire past its threshold");
    }

    #[test]
    fn shared_reference_ops_are_canonical_across_threads() {
        // The tentpole property in miniature: many threads build the same
        // functions through one `&BddManager` and must all observe the
        // identical canonical handles.
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 8);
        let results: Vec<Vec<Bdd>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut m = &m;
                    let vars = &vars;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..vars.len() {
                            for j in 0..vars.len() {
                                let (a, b) = (m.var(vars[i]), m.nvar(vars[j]));
                                let t = m.xor(a, b);
                                let u = m.and(t, a);
                                out.push(m.or(u, b));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &results[1..] {
            assert_eq!(&results[0], other, "threads disagree on canonical handles");
        }
        m.check_invariants();
    }
}
