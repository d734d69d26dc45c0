//! The hot lookup structures of the manager: lossy-atomic direct-mapped
//! operation caches and the cheap multiplicative hasher shared with the
//! per-level unique tables.
//!
//! The recursive algorithms (`and`, `ite`, `exists`, …) probe a cache on
//! every call, so the cache is the single hottest data structure after
//! the unique tables. A general-purpose `HashMap` pays for open
//! addressing metadata, SipHash, growth and tombstones on that path; a
//! BDD operation cache needs none of it, because memoisation is *lossy
//! by design* — forgetting an entry costs a recomputation, never
//! correctness. Each cache is therefore a fixed-size power-of-two array
//! indexed by a multiplicative (Fibonacci) hash: a probe is one multiply,
//! one shift and a key compare, an insert overwrites whatever lives in
//! the slot, and neither ever allocates once the array exists.
//!
//! Since the concurrent-unique-table rework the caches are additionally
//! **thread-safe without locks**: every entry is a tiny seqlock (a
//! version word plus two atomic data words). Writers claim the version
//! with one CAS — losing the race simply drops the insert, which lossy
//! memoisation permits — and readers validate the version around their
//! two data loads, so a torn read (data words from two different racing
//! writers) can never pass validation and return a wrong result. This is
//! what the ISSUE calls "racy read / racy overwrite is safe because
//! entries are self-validating"; `docs/concurrent-table.md` has the full
//! atomicity argument.
//!
//! The per-level unique tables *cannot* be lossy (they guarantee
//! canonicity), so they stay exact maps — lock-sharded by level, see
//! [`crate::BddManager`] — but they share the same [`CheapHasher`],
//! replacing SipHash with the multiplicative mix.
//!
//! All caches are cleared on garbage collection and after sifting: both
//! can reclaim node slots, and a stale entry holding a recycled handle
//! would alias an unrelated function. Both are quiesce-time (`&mut`)
//! operations, so clearing needs no synchronisation. In-place level
//! swaps alone do *not* invalidate entries — handles keep denoting the
//! same boolean functions, and every cached fact is function-level, not
//! order-level.

use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
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

/// Key word that no live probe ever uses (`u32::MAX` is outside the
/// handle range — the arena caps slots at 2²⁷, so tagged handles fit in
/// 28 bits), marking a cleared slot.
const EMPTY: u32 = u32::MAX;

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

/// One entry of a [`DirectCache`]: a per-entry seqlock. `seq` is even
/// when the entry is stable and odd while a writer owns it; `ab` packs
/// the first two key words, `cr` the third key word and the result.
/// Padded to 32 bytes so an entry never straddles a cache line — a probe
/// touches exactly one line.
#[repr(align(32))]
struct Slot {
    seq: AtomicU32,
    ab: AtomicU64,
    cr: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU32::new(0),
            ab: AtomicU64::new((EMPTY as u64) << 32 | EMPTY as u64),
            cr: AtomicU64::new(0),
        }
    }
}

/// A fixed-size, direct-mapped, lossy, thread-safe memoisation cache.
///
/// * power-of-two slot count, chosen at construction and never resized;
/// * one multiplicative hash per probe, no secondary probing;
/// * insert overwrites whatever lives in the slot (no tombstones, no
///   collision chains, no allocation on the apply path); under
///   contention an insert may be dropped entirely — lossiness covers
///   both eviction *and* racing writers;
/// * reads validate the entry's seqlock version, so a probe returns
///   either a value some writer actually stored for exactly that key, or
///   a miss — never a torn mixture;
/// * the backing array is allocated lazily on the first insert, so idle
///   managers (short-lived test managers) stay cheap.
pub(crate) struct DirectCache {
    slots: OnceLock<Box<[Slot]>>,
    bits: u32,
}

impl DirectCache {
    /// A cache with `1 << bits` slots (allocated on first use).
    pub(crate) fn new(bits: u32) -> DirectCache {
        DirectCache { slots: OnceLock::new(), bits }
    }

    #[inline]
    fn index(&self, a: u32, b: u32, c: u32) -> usize {
        // One odd-constant multiply per word; the products' high bits are
        // already well mixed, so xor-combining and taking the top slice
        // spreads dense arena indices evenly.
        let h = (a as u64).wrapping_mul(FIB)
            ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (c as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        (h >> (64 - self.bits)) as usize
    }

    #[inline]
    fn get(&self, a: u32, b: u32, c: u32) -> Option<Bdd> {
        let slots = self.slots.get()?;
        let s = &slots[self.index(a, b, c)];
        // Seqlock read: an even version sampled before AND after the data
        // loads proves the two words belong to one completed write. The
        // acquire orderings pin the loads between the two version reads
        // and synchronise with the writer's release stores. Mismatching
        // key words may fail fast — reporting a miss is always safe, so
        // only a *hit* needs the closing version check.
        let v1 = s.seq.load(Ordering::Acquire);
        if v1 & 1 != 0 {
            return None;
        }
        if s.ab.load(Ordering::Acquire) != ((a as u64) << 32 | b as u64) {
            return None;
        }
        let cr = s.cr.load(Ordering::Acquire);
        if (cr >> 32) as u32 != c || s.seq.load(Ordering::Acquire) != v1 {
            return None;
        }
        Some(Bdd(cr as u32))
    }

    #[inline]
    fn insert(&self, a: u32, b: u32, c: u32, r: Bdd) {
        debug_assert!(a != EMPTY, "cache key collides with the empty sentinel");
        let slots =
            self.slots.get_or_init(|| (0..1usize << self.bits).map(|_| Slot::empty()).collect());
        let s = &slots[self.index(a, b, c)];
        let v = s.seq.load(Ordering::Relaxed);
        if v & 1 != 0 {
            return; // another writer owns the entry — drop, lossily
        }
        // Claim the entry; a lost race is a dropped insert, never a wait.
        if s.seq
            .compare_exchange(v, v.wrapping_add(1), Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        s.ab.store((a as u64) << 32 | b as u64, Ordering::Release);
        s.cr.store((c as u64) << 32 | r.0 as u64, Ordering::Release);
        s.seq.store(v.wrapping_add(2), Ordering::Release);
    }

    /// The `&mut` counterpart of [`DirectCache::insert`]: plain stores through
    /// `&mut self` — no CAS claim (there is nobody to race) and the
    /// version word stays even, so the entry reads as stable to any
    /// later shared-mode probe.
    #[inline]
    fn insert_mut(&mut self, a: u32, b: u32, c: u32, r: Bdd) {
        debug_assert!(a != EMPTY, "cache key collides with the empty sentinel");
        if self.slots.get().is_none() {
            self.slots.get_or_init(|| (0..1usize << self.bits).map(|_| Slot::empty()).collect());
        }
        let idx = self.index(a, b, c);
        let s = &mut self.slots.get_mut().expect("initialized above")[idx];
        debug_assert!(*s.seq.get_mut() & 1 == 0, "entry left claimed across a quiesce point");
        *s.ab.get_mut() = (a as u64) << 32 | b as u64;
        *s.cr.get_mut() = (c as u64) << 32 | r.0 as u64;
    }

    /// Quiesce-time wipe; see [`OpCaches::clear`].
    fn clear(&mut self) {
        if let Some(slots) = self.slots.get_mut() {
            for s in slots.iter_mut() {
                *s = Slot::empty();
            }
        }
    }
}

/// The manager's operation caches, one direct-mapped array per shape:
/// the binary connectives, quantifiers, cofactor and flip keyed by
/// `(op, f, g)`, and the ternary `ite`. There is no negation cache — with
/// complement edges `not` is a tag flip and never probes anything. Keys
/// are raw tagged handles *after* the operations' complement
/// normalization (operand ordering, tag stripping where the op commutes
/// with `¬`), so one cache line serves a whole ¬-symmetry class of
/// queries.
pub(crate) struct OpCaches {
    bin: PackedCache,
    ite: DirectCache,
}

impl Default for OpCaches {
    fn default() -> OpCaches {
        OpCaches { bin: PackedCache::new(), ite: DirectCache::new(14) }
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

    #[inline]
    pub(crate) fn ite_get(&self, f: Bdd, g: Bdd, h: Bdd) -> Option<Bdd> {
        self.ite.get(f.0, g.0, h.0)
    }

    #[inline]
    pub(crate) fn ite_insert(&self, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        self.ite.insert(f.0, g.0, h.0, r);
    }

    #[inline]
    pub(crate) fn ite_insert_mut(&mut self, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        self.ite.insert_mut(f.0, g.0, h.0, r);
    }

    /// Forgets every entry. Must run whenever node slots may be recycled
    /// (GC, sifting's dead-node reclamation, rebuild) — all of which
    /// take `&mut BddManager`, i.e. happen at a quiesce point with no
    /// concurrent readers.
    pub(crate) fn clear(&mut self) {
        self.bin.clear();
        self.ite.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_cache_round_trip_and_lossiness() {
        let mut c = DirectCache::new(4); // 16 slots — collisions guaranteed
        assert_eq!(c.get(1, 2, 3), None);
        c.insert(1, 2, 3, Bdd(7));
        assert_eq!(c.get(1, 2, 3), Some(Bdd(7)));
        // Same slot, different key: the old entry is lossily evicted and
        // the probe for it misses rather than aliasing.
        for k in 0..64u32 {
            c.insert(k, k + 1, k + 2, Bdd(k + 10));
        }
        for k in 0..64u32 {
            let got = c.get(k, k + 1, k + 2);
            assert!(got.is_none() || got == Some(Bdd(k + 10)));
        }
        c.clear();
        for k in 0..64u32 {
            assert_eq!(c.get(k, k + 1, k + 2), None);
        }
    }

    #[test]
    fn exclusive_inserts_are_visible_to_shared_probes() {
        // The mode split promises bit-identical entry layout: whatever
        // the `&mut` path writes, the shared probe must read back.
        let mut d = DirectCache::new(6);
        let mut p = PackedCache::new();
        for k in 0..200u32 {
            d.insert_mut(k, k + 1, k + 2, Bdd(k ^ 5));
            p.insert_mut((k as u64) << 30 | (k + 1) as u64, Bdd(k ^ 9));
        }
        for k in 0..200u32 {
            let got = d.get(k, k + 1, k + 2);
            assert!(got.is_none() || got == Some(Bdd(k ^ 5)));
            let got = p.get((k as u64) << 30 | (k + 1) as u64);
            assert!(got.is_none() || got == Some(Bdd(k ^ 9)));
        }
        // And the last write per slot definitely sticks.
        d.insert_mut(7, 8, 9, Bdd(42));
        assert_eq!(d.get(7, 8, 9), Some(Bdd(42)));
        d.insert(7, 8, 9, Bdd(43)); // shared overwrite of a mut entry
        assert_eq!(d.get(7, 8, 9), Some(Bdd(43)));
    }

    #[test]
    fn cheap_hasher_spreads_dense_keys() {
        // Dense small integers (arena indices) must not collapse onto a
        // handful of slots.
        let mut buckets = std::collections::HashSet::new();
        let cache = DirectCache::new(10);
        for i in 0..1024u32 {
            buckets.insert(cache.index(i, i / 2, 0));
        }
        assert!(buckets.len() > 512, "only {} distinct buckets", buckets.len());
    }

    #[test]
    fn concurrent_probes_never_return_torn_entries() {
        // Many threads hammer one tiny cache with a *functional* key→value
        // map (value derived from the key). Any hit must agree with the
        // function — a torn read or misvalidated entry would not.
        let cache = DirectCache::new(3); // 8 slots: maximal collision rate
        let value_of = |a: u32, b: u32, c: u32| Bdd(a.wrapping_mul(31) ^ b ^ c.rotate_left(7));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..20_000u32 {
                        let (a, b, c) = (i % 97 + t, i % 89, i % 83);
                        cache.insert(a, b, c, value_of(a, b, c));
                        let (a, b, c) = ((i * 7) % 97, (i * 5) % 89, (i * 3) % 83);
                        if let Some(r) = cache.get(a, b, c) {
                            assert_eq!(r, value_of(a, b, c), "torn or aliased cache hit");
                        }
                    }
                });
            }
        });
    }
}
