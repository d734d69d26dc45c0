//! The concurrent node arena: append-only, atomically published storage
//! for every decision node of a [`crate::BddManager`].
//!
//! The arena is the storage half of the concurrent unique table (see
//! `docs/concurrent-table.md`). Its contract during a *concurrent phase*
//! (threads sharing `&BddManager`) is strictly append-only:
//!
//! * slots are handed out by an atomic bump counter ([`NodeArena::alloc`])
//!   or recycled from the manager's free list — never two owners at once;
//! * a slot's node data is written exactly once, *before* the slot is
//!   published (inserted into a unique table under its level lock, stored
//!   into an operation cache, or linked as a child edge);
//! * published data is never mutated until the next *quiesce point* — a
//!   `&mut BddManager` operation (GC, sifting, bulk import), which Rust's
//!   borrow rules guarantee cannot overlap any shared-reference use.
//!
//! Storage is a sequence of lazily allocated fixed-size segments, so
//! the arena can grow while readers hold references into older segments:
//! growth never moves a node, which is what makes lock-free reads sound
//! without `unsafe`. Each cell is a **single `AtomicU64`** holding the
//! whole node — 9 bits of level, a 27-bit regular `lo` slot (the stored
//! else edge is never complemented, so its tag bit needs no storage) and
//! a 28-bit tagged `hi` handle. One word per node means one load per
//! node read and 8 bytes per node of memory traffic (the pre-concurrent
//! `Vec<Node>` paid 12), at the price of two documented caps enforced by
//! the manager: at most [`MAX_VARS`] variables and [`MAX_SLOTS`] nodes —
//! orders of magnitude past any STG workload in this repository, and
//! widening the cell to two words is a local change if a future workload
//! ever needs it. Publication points all have release/acquire ordering,
//! so the plain (`Relaxed`) word loads on the read path are
//! data-race-free *and* well-ordered: whoever hands a thread a handle
//! also hands it, transitively, the node data behind it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::node::{Level, Node, DEAD_LEVEL, TERMINAL_LEVEL};

/// log2 of every segment's size: uniform 2¹⁶-cell (512 KiB) segments
/// keep the slot→cell mapping to one shift and one mask on the read
/// path — measurably cheaper than a doubling ladder's leading-zeros
/// math.
const SEG_BITS: u32 = 16;

/// Cells per segment.
const SEG_SIZE: usize = 1 << SEG_BITS;

/// Segments 0..NUM_SEGS cover exactly [`MAX_SLOTS`] while keeping the
/// segment-pointer table at a few dozen kilobytes per manager.
const NUM_SEGS: usize = 1 << 11;

/// Hard node cap imposed by the 27-bit `lo` slot field: 2²⁷ ≈ 134 M
/// nodes (1 GiB of cells). Hitting it is not a panic: allocation fails,
/// the manager's [`crate::Budget`] trips with
/// [`crate::ResourceError::ArenaExhausted`] and the run degrades to a
/// checkpoint.
pub const MAX_SLOTS: usize = 1 << 27;

/// Hard variable cap imposed by the 9-bit level field: levels `0..510`
/// are real, `510` marks a dead slot and `511` the terminal. Callers that
/// encode external input should check against this bound up front —
/// `stgcheck-core` rejects oversized nets with a typed error before
/// building any BDD.
pub const MAX_VARS: usize = 510;

/// In-word level sentinels (the `Level` type itself keeps its wide
/// `u32::MAX`-family sentinels; they are translated at the cell
/// boundary).
const LVL_DEAD: u64 = 510;
const LVL_TERMINAL: u64 = 511;

#[inline]
fn encode(n: Node) -> u64 {
    let lvl = match n.level {
        TERMINAL_LEVEL => LVL_TERMINAL,
        DEAD_LEVEL => LVL_DEAD,
        l => {
            debug_assert!((l as usize) < MAX_VARS, "level {l} exceeds the packed-cell cap");
            l as u64
        }
    };
    debug_assert!(n.lo.0 & 1 == 0, "stored else edge must be regular");
    debug_assert!((n.lo.0 as usize) < MAX_SLOTS << 1 && (n.hi.0 as usize) < MAX_SLOTS << 1);
    lvl << 55 | ((n.lo.0 as u64) >> 1) << 28 | n.hi.0 as u64
}

#[inline]
fn decode(w: u64) -> Node {
    let level = match w >> 55 {
        LVL_TERMINAL => TERMINAL_LEVEL,
        LVL_DEAD => DEAD_LEVEL,
        l => l as Level,
    };
    Node {
        level,
        lo: crate::node::Bdd((((w >> 28) & (MAX_SLOTS as u64 - 1)) << 1) as u32),
        hi: crate::node::Bdd((w & (2 * MAX_SLOTS as u64 - 1)) as u32),
    }
}

/// Maps a slot index to its (segment, offset) coordinates.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    (i >> SEG_BITS, i & (SEG_SIZE - 1))
}

/// The append-only atomic node arena. See the module docs for the
/// concurrency contract.
pub(crate) struct NodeArena {
    segs: Box<[OnceLock<Box<[AtomicU64]>>]>,
    /// High-water mark: the next never-allocated slot index. Slots below
    /// it are live, dead (on the free list) or in-flight inside `mk`.
    hwm: AtomicUsize,
}

impl NodeArena {
    /// An arena holding only the terminal placeholder at slot 0.
    pub(crate) fn new(terminal: Node) -> NodeArena {
        let arena = NodeArena {
            segs: (0..NUM_SEGS).map(|_| OnceLock::new()).collect(),
            hwm: AtomicUsize::new(0),
        };
        let slot = arena.alloc().expect("an empty arena cannot be exhausted");
        debug_assert_eq!(slot, 0);
        arena.set(0, terminal);
        arena
    }

    /// Number of slots ever allocated (the exclusive upper bound of valid
    /// indices; includes dead slots). Failed allocations transiently bump
    /// the high-water mark past the cap before [`NodeArena::alloc`] parks
    /// it back, so the count is clamped here — every index below the
    /// returned value has an allocated segment.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.hwm.load(Ordering::Relaxed).min(MAX_SLOTS)
    }

    #[inline]
    fn cell(&self, i: usize) -> &AtomicU64 {
        let (s, off) = locate(i);
        &self.segs[s].get().expect("arena segment read before allocation")[off]
    }

    /// Reads the node at `i` — one atomic load. Lock-free; see the
    /// module docs for why the relaxed load is sound.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Node {
        decode(self.cell(i).load(Ordering::Relaxed))
    }

    /// Reads only the level of the node at `i` (the hot field: every
    /// ordering comparison in the apply loops needs it).
    #[inline]
    pub(crate) fn level(&self, i: usize) -> Level {
        match self.cell(i).load(Ordering::Relaxed) >> 55 {
            LVL_TERMINAL => TERMINAL_LEVEL,
            LVL_DEAD => DEAD_LEVEL,
            l => l as Level,
        }
    }

    /// Writes the node at `i`. During a concurrent phase this must only
    /// target a slot the caller owns (freshly allocated or popped from
    /// the free list) and must happen before the slot is published.
    #[inline]
    pub(crate) fn set(&self, i: usize, n: Node) {
        self.cell(i).store(encode(n), Ordering::Release);
    }

    /// The `&mut` counterpart of [`NodeArena::set`]: a plain store through `&mut
    /// self`. No release fence is needed — the `&mut` borrow proves no
    /// other thread can observe the cell until the borrow ends, and the
    /// end of the borrow is itself a synchronization point for whoever
    /// acquires access next.
    #[inline]
    pub(crate) fn set_mut(&mut self, i: usize, n: Node) {
        let (s, off) = locate(i);
        let seg = self.segs[s].get_mut().expect("arena segment written before allocation");
        *seg[off].get_mut() = encode(n);
    }

    /// Overwrites only the level of slot `i` (GC's dead-marking and the
    /// level relabelling of in-place swaps) — a masked bit splice, not a
    /// decode/encode round trip: sifting calls this for every rising and
    /// sinking node of every swap. Quiesce-time use only.
    #[inline]
    pub(crate) fn set_level(&self, i: usize, level: Level) {
        let lvl = match level {
            TERMINAL_LEVEL => LVL_TERMINAL,
            DEAD_LEVEL => LVL_DEAD,
            l => {
                debug_assert!((l as usize) < MAX_VARS);
                l as u64
            }
        };
        let cell = self.cell(i);
        let w = cell.load(Ordering::Relaxed);
        cell.store(w & ((1u64 << 55) - 1) | lvl << 55, Ordering::Relaxed);
    }

    /// Visits every allocated slot in index order as straight segment
    /// walks — no per-index segment resolution, which matters for the
    /// linear sweeps (GC, sifting's refcount build, invariant checks)
    /// over multi-million-node arenas.
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize, Node)) {
        let len = self.len();
        for s in 0..NUM_SEGS {
            let base = s << SEG_BITS;
            if base >= len {
                break;
            }
            let seg = self.segs[s].get().expect("allocated segment missing");
            for (off, cell) in seg.iter().enumerate().take(len - base) {
                f(base + off, decode(cell.load(Ordering::Relaxed)));
            }
        }
    }

    /// Claims a fresh slot, allocating its segment on first touch.
    /// Callable from any thread; two callers never receive the same slot.
    ///
    /// Returns `None` when the packed-cell slot range (2^27 nodes) is
    /// exhausted — the caller (the manager's `mk`) turns that into a
    /// budget trip, never a panic.
    pub(crate) fn alloc(&self) -> Option<u32> {
        let i = self.hwm.fetch_add(1, Ordering::Relaxed);
        if i >= MAX_SLOTS {
            // Park the mark at the cap so `len()` stays honest no matter
            // how many allocations fail after exhaustion.
            self.hwm.fetch_min(MAX_SLOTS, Ordering::Relaxed);
            return None;
        }
        let (s, off) = locate(i);
        debug_assert!(off < SEG_SIZE);
        self.segs[s].get_or_init(|| (0..SEG_SIZE).map(|_| AtomicU64::new(0)).collect());
        Some(i as u32)
    }

    /// The `&mut` counterpart of [`NodeArena::alloc`]: a plain bump through `&mut
    /// self` — no `fetch_add` RMW, no cap-parking dance (a failed bump
    /// never moves the mark). Same `None`-on-exhaustion contract.
    pub(crate) fn alloc_mut(&mut self) -> Option<u32> {
        let i = *self.hwm.get_mut();
        if i >= MAX_SLOTS {
            return None;
        }
        *self.hwm.get_mut() = i + 1;
        let (s, off) = locate(i);
        debug_assert!(off < SEG_SIZE);
        self.segs[s].get_or_init(|| (0..SEG_SIZE).map(|_| AtomicU64::new(0)).collect());
        Some(i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Bdd;

    #[test]
    fn locate_covers_the_segments() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(SEG_SIZE - 1), (0, SEG_SIZE - 1));
        assert_eq!(locate(SEG_SIZE), (1, 0));
        assert_eq!(locate(3 * SEG_SIZE + 17), (3, 17));
        // Monotone and gap-free across a wide range.
        let mut prev = locate(0);
        for i in 1..300_000 {
            let cur = locate(i);
            assert!(cur == (prev.0, prev.1 + 1) || cur == (prev.0 + 1, 0), "gap at {i}");
            prev = cur;
        }
    }

    #[test]
    fn alloc_set_get_round_trip() {
        let arena = NodeArena::new(Node::terminal());
        assert_eq!(arena.len(), 1);
        let slots: Vec<u32> = (0..10_000).map(|_| arena.alloc().unwrap()).collect();
        for (k, &s) in slots.iter().enumerate() {
            let n = Node {
                level: (k % MAX_VARS) as Level,
                lo: Bdd(2 * k as u32),
                hi: Bdd(2 * k as u32 + 1),
            };
            arena.set(s as usize, n);
        }
        for (k, &s) in slots.iter().enumerate() {
            let n = arena.get(s as usize);
            assert_eq!(n.level, (k % MAX_VARS) as Level);
            assert_eq!(n.lo, Bdd(2 * k as u32));
            assert_eq!(n.hi, Bdd(2 * k as u32 + 1));
            assert_eq!(arena.level(s as usize), (k % MAX_VARS) as Level);
        }
        assert_eq!(arena.len(), 10_001);
        // The level sentinels survive the packed encoding.
        arena.set(1, Node { level: DEAD_LEVEL, lo: Bdd(0), hi: Bdd(2) });
        assert_eq!(arena.level(1), DEAD_LEVEL);
        assert!(arena.get(1).is_dead());
        arena.set(1, Node::terminal());
        assert_eq!(arena.level(1), TERMINAL_LEVEL);
    }

    #[test]
    fn concurrent_alloc_hands_out_distinct_slots() {
        let arena = NodeArena::new(Node::terminal());
        let per_thread = 5_000;
        let mut all: Vec<u32> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let arena = &arena;
                    scope.spawn(move || {
                        (0..per_thread)
                            .map(|k| {
                                let s = arena.alloc().unwrap();
                                arena.set(
                                    s as usize,
                                    Node {
                                        level: (k % 500) as Level,
                                        lo: Bdd(2 * s),
                                        hi: Bdd(s + 1),
                                    },
                                );
                                s
                            })
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * per_thread, "duplicate slot handed out");
        // Every thread's writes are visible after the join.
        for &s in &all {
            assert_eq!(arena.get(s as usize).lo, Bdd(2 * s));
        }
    }

    #[test]
    fn exclusive_paths_match_shared_paths() {
        let mut a = NodeArena::new(Node::terminal());
        let b = NodeArena::new(Node::terminal());
        for k in 0..(3 * SEG_SIZE / 2) {
            let n = Node { level: (k % MAX_VARS) as Level, lo: Bdd(2 * k as u32), hi: Bdd(1) };
            let sa = a.alloc_mut().unwrap();
            a.set_mut(sa as usize, n);
            let sb = b.alloc().unwrap();
            b.set(sb as usize, n);
            assert_eq!(sa, sb);
        }
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.get(i), b.get(i), "slot {i}");
        }
    }
}
