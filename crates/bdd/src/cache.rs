//! The hot lookup structures of the manager: the lossy-atomic
//! direct-mapped operation cache and the cheap multiplicative hasher
//! shared with the per-level unique tables.
//!
//! The recursive algorithms (`and`, `exists`, `flip_cube`, …) probe the
//! cache on every call, so it is the single hottest data structure after
//! the unique tables. A general-purpose `HashMap` pays for open
//! addressing metadata, SipHash, growth and tombstones on that path; a
//! BDD operation cache needs none of it, because memoisation is *lossy
//! by design* — forgetting an entry costs a recomputation, never
//! correctness. The cache is therefore a fixed-size power-of-two array
//! indexed by a multiplicative (Fibonacci) permutation of the key: a
//! probe is one multiply, one shift and a key compare, an insert
//! overwrites whatever lives in the slot, and neither ever allocates once
//! the array exists.
//!
//! The cache is also **thread-safe without locks or CAS**: every entry
//! word pins the exact key it was written for, and all writers of one
//! key write identical words, so a racy read either fails validation or
//! reconstructs the one correct result (see [`PackedCache`];
//! `docs/concurrent-table.md` has the full atomicity argument).
//!
//! The per-level unique tables *cannot* be lossy (they guarantee
//! canonicity), so they stay exact maps — lock-sharded by level, see
//! [`crate::BddManager`] — but they share the same [`CheapHasher`],
//! replacing SipHash with the multiplicative mix.
//!
//! The cache is cleared on garbage collection and after sifting: both
//! can reclaim node slots, and a stale entry holding a recycled handle
//! would alias an unrelated function. Both are quiesce-time (`&mut`)
//! operations, so clearing needs no synchronisation. In-place level
//! swaps alone do *not* invalidate entries — handles keep denoting the
//! same boolean functions, and every cached fact is function-level, not
//! order-level.

use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::manager::BinOp;
use crate::node::Bdd;

/// `BuildHasher` plugging [`CheapHasher`] into `HashMap`.
pub(crate) type CheapBuildHasher = BuildHasherDefault<CheapHasher>;

/// Multiplicative hasher for small fixed-width keys (node handles and
/// handle pairs). Each written word is folded into the state with a
/// rotate + xor and one Fibonacci multiply — far cheaper than SipHash
/// and amply mixing for arena indices, which are dense small integers.
#[derive(Default)]
pub(crate) struct CheapHasher(u64);

/// 2⁶⁴ / φ, the classic Fibonacci-hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for CheapHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(29) ^ v).wrapping_mul(FIB);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Index bits of a [`PackedCache`] — fixed, because the packing stores
/// exactly the `64 - PACKED_BITS = 48` non-index bits of the permuted
/// key in each entry word.
const PACKED_BITS: u32 = 16;

/// One entry of a [`PackedCache`]: two words that *each* pin the exact
/// 63-bit key (48 stored bits + 16 index bits of the bijectively
/// permuted key) plus 16 bits of the result, low half in `w1`, high half
/// in `w2`. Aligned so an entry never straddles a cache line — a probe
/// touches exactly one.
#[repr(align(16))]
struct PackedSlot {
    w1: AtomicU64,
    w2: AtomicU64,
}

impl PackedSlot {
    fn empty() -> PackedSlot {
        // All-ones key bits in BOTH words. Probes for keys whose
        // permuted `rest` is all-ones are excluded from the cache
        // entirely (see `permute`), so an empty word can never validate
        // against any live probe — not even mixed with a half-completed
        // first insert to the slot.
        PackedSlot { w1: AtomicU64::new(u64::MAX), w2: AtomicU64::new(u64::MAX) }
    }
}

/// The fully lock-free, CAS-free cache for the *binary* operations — the
/// hottest probe site of the whole package (one probe per `and`/`xor`/
/// `exists`/cofactor/flip frame).
///
/// Thread-safety comes from two facts, not from any synchronisation:
///
/// 1. **Each word pins the exact key.** The 63-bit key (3-bit op code
///    plus two 30-bit handle fields — the arena caps slots at 2²⁷, so
///    every tagged handle fits 28 bits) is permuted by an odd-multiplier
///    multiplication, a *bijection* of `u64`: the permuted key's top 16
///    bits pick the slot and its remaining 48 bits are stored in **both**
///    entry words. A word validates only if its writer probed exactly
///    this key — there is no hash collision to reason about, the map
///    key ↔ (index, stored bits) is one-to-one.
/// 2. **All writers for one key write identical words.** Between two
///    quiesce points no node slot is recycled, so an operation's
///    canonical result handle is a pure function of its key; every
///    thread that inserts for key `k` stores the same `(w1, w2)` pair.
///
/// Together: a racy read that mixes words from two different writes
/// either fails validation (different keys — at least one word's key
/// bits cannot match the probe) or reconstructs the unique correct
/// result (same key — the words are bit-identical to a consistent
/// entry). Plain `Acquire`/`Release` loads and stores are therefore
/// enough, which is what makes this probe as cheap as the pre-concurrent
/// one. `docs/concurrent-table.md` spells out the argument.
pub(crate) struct PackedCache {
    slots: OnceLock<Box<[PackedSlot]>>,
}

impl PackedCache {
    pub(crate) fn new() -> PackedCache {
        PackedCache { slots: OnceLock::new() }
    }

    /// Stored-key value reserved for empty slots; keys permuting onto it
    /// are never cached (a 2⁻⁴⁸ sliver of the key space — lossiness
    /// makes skipping them free, and it is what lets an empty word fail
    /// validation against *every* live probe).
    const EMPTY_REST: u64 = (1 << (64 - PACKED_BITS)) - 1;

    /// The bijective key permutation: odd multipliers are invertible mod
    /// 2⁶⁴, so distinct keys always produce distinct (index, rest) pairs.
    #[inline]
    fn permute(key: u64) -> (usize, u64) {
        let p = key.wrapping_mul(FIB);
        ((p >> (64 - PACKED_BITS)) as usize, p & ((1 << (64 - PACKED_BITS)) - 1))
    }

    #[inline]
    fn get(&self, key: u64) -> Option<Bdd> {
        let slots = self.slots.get()?;
        let (idx, rest) = Self::permute(key);
        if rest == Self::EMPTY_REST {
            return None; // reserved for the empty sentinel
        }
        let s = &slots[idx];
        let w1 = s.w1.load(Ordering::Acquire);
        if w1 >> PACKED_BITS != rest {
            return None;
        }
        let w2 = s.w2.load(Ordering::Acquire);
        if w2 >> PACKED_BITS != rest {
            return None;
        }
        let mask = (1u64 << PACKED_BITS) - 1;
        Some(Bdd((w1 & mask) as u32 | ((w2 & mask) as u32) << PACKED_BITS))
    }

    #[inline]
    fn insert(&self, key: u64, r: Bdd) {
        let slots = self
            .slots
            .get_or_init(|| (0..1usize << PACKED_BITS).map(|_| PackedSlot::empty()).collect());
        let (idx, rest) = Self::permute(key);
        if rest == Self::EMPTY_REST {
            return; // reserved for the empty sentinel
        }
        let s = &slots[idx];
        let mask = (1u64 << PACKED_BITS) - 1;
        s.w1.store(rest << PACKED_BITS | (r.0 as u64 & mask), Ordering::Release);
        s.w2.store(rest << PACKED_BITS | (r.0 as u64 >> PACKED_BITS), Ordering::Release);
    }

    /// The `&mut` counterpart of [`PackedCache::insert`]: plain stores through
    /// `&mut self`, no release fences. The entry layout is identical, so
    /// shared-mode probes after the borrow ends validate it exactly as
    /// if a concurrent writer had published it.
    #[inline]
    fn insert_mut(&mut self, key: u64, r: Bdd) {
        if self.slots.get().is_none() {
            self.slots
                .get_or_init(|| (0..1usize << PACKED_BITS).map(|_| PackedSlot::empty()).collect());
        }
        let slots = self.slots.get_mut().expect("initialized above");
        let (idx, rest) = Self::permute(key);
        if rest == Self::EMPTY_REST {
            return; // reserved for the empty sentinel
        }
        let s = &mut slots[idx];
        let mask = (1u64 << PACKED_BITS) - 1;
        *s.w1.get_mut() = rest << PACKED_BITS | (r.0 as u64 & mask);
        *s.w2.get_mut() = rest << PACKED_BITS | (r.0 as u64 >> PACKED_BITS);
    }

    fn clear(&mut self) {
        if let Some(slots) = self.slots.get_mut() {
            for s in slots.iter_mut() {
                *s = PackedSlot::empty();
            }
        }
    }
}

/// The manager's operation cache: one direct-mapped array for the binary
/// connectives, quantifiers, cofactor and flip, keyed by `(op, f, g)`.
/// There is no negation cache — with complement edges `not` is a tag flip
/// and never probes anything. Keys are raw tagged handles *after* the
/// operations' complement normalization (operand ordering, tag stripping
/// where the op commutes with `¬`), so one cache line serves a whole
/// ¬-symmetry class of queries.
pub(crate) struct OpCaches {
    bin: PackedCache,
}

impl Default for OpCaches {
    fn default() -> OpCaches {
        OpCaches { bin: PackedCache::new() }
    }
}

/// Packs a binary-op probe into the [`PackedCache`]'s 63-bit key space.
/// Sound because the arena caps slots at 2²⁷, so tagged handles occupy
/// 28 of the 30 bits a field provides — checked here in debug builds.
#[inline]
fn bin_key(op: BinOp, f: Bdd, g: Bdd) -> u64 {
    debug_assert!(f.0 < 1 << 30 && g.0 < 1 << 30, "handle outside the 30-bit packed range");
    (op as u64) << 60 | (f.0 as u64) << 30 | g.0 as u64
}

impl OpCaches {
    #[inline]
    pub(crate) fn bin_get(&self, op: BinOp, f: Bdd, g: Bdd) -> Option<Bdd> {
        self.bin.get(bin_key(op, f, g))
    }

    #[inline]
    pub(crate) fn bin_insert(&self, op: BinOp, f: Bdd, g: Bdd, r: Bdd) {
        self.bin.insert(bin_key(op, f, g), r);
    }

    #[inline]
    pub(crate) fn bin_insert_mut(&mut self, op: BinOp, f: Bdd, g: Bdd, r: Bdd) {
        self.bin.insert_mut(bin_key(op, f, g), r);
    }

    /// Forgets every entry. Must run whenever node slots may be recycled
    /// (GC, sifting's dead-node reclamation) — both of which take `&mut
    /// BddManager`, i.e. happen at a quiesce point with no concurrent
    /// readers.
    pub(crate) fn clear(&mut self) {
        self.bin.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn direct_cache_round_trip_and_lossiness() {
        let mut c = PackedCache::new();
        assert_eq!(c.get(bin_key(BinOp::And, Bdd(2), Bdd(3))), None);
        c.insert(bin_key(BinOp::And, Bdd(2), Bdd(3)), Bdd(7));
        assert_eq!(c.get(bin_key(BinOp::And, Bdd(2), Bdd(3))), Some(Bdd(7)));
        // The op code is part of the key.
        assert_eq!(c.get(bin_key(BinOp::Xor, Bdd(2), Bdd(3))), None);
        // More keys than slots: colliding entries are lossily evicted,
        // and a probe for an evicted key misses rather than aliasing.
        let n = 3u32 << PACKED_BITS;
        for k in 0..n {
            c.insert(bin_key(BinOp::And, Bdd(k), Bdd(k + 1)), Bdd(k + 10));
        }
        let mut hits = 0;
        for k in 0..n {
            let got = c.get(bin_key(BinOp::And, Bdd(k), Bdd(k + 1)));
            assert!(got.is_none() || got == Some(Bdd(k + 10)));
            hits += usize::from(got.is_some());
        }
        assert!(hits <= 1 << PACKED_BITS, "{hits} hits from a {}-slot cache", 1 << PACKED_BITS);
        c.clear();
        for k in 0..n {
            assert_eq!(c.get(bin_key(BinOp::And, Bdd(k), Bdd(k + 1))), None);
        }
    }

    #[test]
    fn exclusive_inserts_are_visible_to_shared_probes() {
        // The mode split promises bit-identical entry layout: whatever
        // the `&mut` path writes, the shared probe must read back.
        let mut p = PackedCache::new();
        for k in 0..200u32 {
            p.insert_mut((k as u64) << 30 | (k + 1) as u64, Bdd(k ^ 9));
        }
        for k in 0..200u32 {
            let got = p.get((k as u64) << 30 | (k + 1) as u64);
            assert!(got.is_none() || got == Some(Bdd(k ^ 9)));
        }
        // And the last write per slot definitely sticks.
        p.insert_mut(7 << 30 | 8, Bdd(42));
        assert_eq!(p.get(7 << 30 | 8), Some(Bdd(42)));
        p.insert(7 << 30 | 8, Bdd(43)); // shared overwrite of a mut entry
        assert_eq!(p.get(7 << 30 | 8), Some(Bdd(43)));
    }

    #[test]
    fn cheap_hasher_spreads_dense_keys() {
        // Dense small integers (arena indices), hashed the way a
        // unique-table key `(lo, hi)` is, must not collapse onto a
        // handful of buckets — neither in the low bits that pick a
        // `HashMap` bucket nor in the high bits.
        let mut low = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for i in 0..1024u32 {
            let mut h = CheapHasher::default();
            (Bdd(i), Bdd(i / 2)).hash(&mut h);
            let x = h.finish();
            low.insert(x & 1023);
            high.insert(x >> 54);
        }
        assert!(low.len() > 512, "only {} distinct low buckets", low.len());
        assert!(high.len() > 512, "only {} distinct high buckets", high.len());
    }

    #[test]
    fn concurrent_probes_never_return_torn_entries() {
        // Many threads hammer one cache with a *functional* key→value map
        // (value derived from the key), over more keys than fit without
        // collisions. Any hit must agree with the function — a torn read
        // or misvalidated entry would not.
        let cache = PackedCache::new();
        let key_of = |a: u32, b: u32| bin_key(BinOp::And, Bdd(a), Bdd(b));
        let value_of = |a: u32, b: u32| Bdd((a.wrapping_mul(31) ^ b.rotate_left(7)) & 0x0FFF_FFFF);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..20_000u32 {
                        let (a, b) = (i % 997 + t, i % 883);
                        cache.insert(key_of(a, b), value_of(a, b));
                        let (a, b) = ((i * 7) % 997, (i * 5) % 883);
                        if let Some(r) = cache.get(key_of(a, b)) {
                            assert_eq!(r, value_of(a, b), "torn or aliased cache hit");
                        }
                    }
                });
            }
        });
    }
}
