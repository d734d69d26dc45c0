//! The durable serialized form of BDDs: the **checkpoint format v3**
//! ([`BddCheckpoint`]) behind result caches and fixpoint checkpoints.
//!
//! A checkpoint is a multi-root, manager-independent node list under a
//! header carrying the net content-hash, the full variable order (by
//! name) with sifting groups, named root handles and free-form integer
//! metadata, sealed by an FNV-1a-64 checksum so truncation or corruption
//! is detected at load (see `docs/persistent-store.md`). Nodes record
//! *levels*, not variable identities, so a load is meaningful for any
//! manager whose order gives each level the same meaning.
//!
//! References carry a **complement bit**: a snapshot of a
//! complement-edge manager is lossless, round-trips through managers
//! with different tag layouts, and `¬f` serialises to the same node list
//! as `f` with only the root reference differing. The byte form is an
//! LEB128-varint stream that shrinks small-level, near-child references
//! to a byte or two each.

use std::collections::HashMap;

use crate::manager::BddManager;
use crate::node::Bdd;

/// Reference encoding inside a checkpoint's node list: bit 0 is the
/// complement tag; the remaining bits are `0` for the terminal and
/// `k + 1` for the `k`-th entry of the node list. So `0` is `TRUE`, `1`
/// is `FALSE`, and `(k + 1) << 1 | c` is entry `k`, complemented iff `c`
/// is set.
const REF_NODE_BASE: u32 = 1;

/// Format version written by [`BddCheckpoint::to_bytes`]. Versions 1 and
/// 2 were single-root streams without header or checksum; they are
/// rejected by version rather than misread.
const CHECKPOINT_VERSION: u32 = 3;

/// Why decoding a byte stream into a [`BddCheckpoint`] failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SerializeError {
    /// The stream ended in the middle of a value.
    Truncated,
    /// A varint ran past the 32-bit range.
    Overflow,
    /// A node or root referenced a node not yet defined (breaks the
    /// topological-order invariant).
    ForwardReference,
    /// Trailing bytes after the last root.
    TrailingBytes,
    /// The stream's format version is not the one this build writes
    /// (e.g. a retired version-2 single-root stream).
    UnsupportedVersion(u32),
    /// A node's level is out of range, or a child is not strictly deeper
    /// than its parent — importing such a stream would build a
    /// non-canonical (wrong) BDD, so it is rejected up front.
    OrderViolation,
    /// A length-prefixed string is not valid UTF-8.
    BadString,
    /// The trailer checksum does not match the stream contents —
    /// the artifact was truncated or corrupted on disk.
    ChecksumMismatch,
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Truncated => write!(f, "byte stream truncated"),
            SerializeError::Overflow => write!(f, "varint exceeds its integer range"),
            SerializeError::ForwardReference => write!(f, "node references an undefined node"),
            SerializeError::TrailingBytes => write!(f, "trailing bytes after root"),
            SerializeError::UnsupportedVersion(v) => {
                write!(f, "unsupported serialized-BDD format version {v}")
            }
            SerializeError::OrderViolation => {
                write!(f, "node levels violate the child-strictly-deeper invariant")
            }
            SerializeError::BadString => write!(f, "header string is not valid UTF-8"),
            SerializeError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (truncated or corrupted artifact)")
            }
        }
    }
}

impl std::error::Error for SerializeError {}

/// Structural validation for one decoded node: references must
/// point at the terminal or earlier entries, and every referenced child
/// must sit at a strictly deeper level — otherwise an import would
/// silently build a non-canonical BDD.
fn validate_node(
    nodes: &[(u32, u32, u32)],
    i: usize,
    level: u32,
    lo: u32,
    hi: u32,
) -> Result<(), SerializeError> {
    // Entry i may reference the terminal (node part 0) or entries
    // 0..i (node parts 1..=i).
    let limit = REF_NODE_BASE + i as u32;
    if (lo >> 1) > limit - 1 || (hi >> 1) > limit - 1 {
        return Err(SerializeError::ForwardReference);
    }
    for r in [lo, hi] {
        if let Some(k) = (r >> 1).checked_sub(REF_NODE_BASE) {
            if nodes[k as usize].0 <= level {
                return Err(SerializeError::OrderViolation);
            }
        }
    }
    Ok(())
}

fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, SerializeError> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(SerializeError::Truncated)?;
        *pos += 1;
        let part = (byte & 0x7f) as u32;
        if shift >= 32 || (shift == 28 && part > 0xf) {
            return Err(SerializeError::Overflow);
        }
        v |= part << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn write_varint64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint64(bytes: &[u8], pos: &mut usize) -> Result<u64, SerializeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(SerializeError::Truncated)?;
        *pos += 1;
        let part = (byte & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && part > 0x1) {
            return Err(SerializeError::Overflow);
        }
        v |= part << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(bytes: &[u8], pos: &mut usize) -> Result<String, SerializeError> {
    let len = read_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len).ok_or(SerializeError::Overflow)?;
    let raw = bytes.get(*pos..end).ok_or(SerializeError::Truncated)?;
    *pos = end;
    String::from_utf8(raw.to_vec()).map_err(|_| SerializeError::BadString)
}

/// FNV-1a-64 over a byte slice — the checkpoint trailer checksum, and
/// the record checksum of `stgcheck-core`'s request journal.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A durable, self-describing multi-root BDD artifact (format v3).
///
/// A checkpoint carries everything needed to validate a load against a
/// *different process at a different time*: the content hash of the net
/// it was computed from, the variable order by name (with sifting
/// groups), named root references into one shared node list, free-form
/// integer metadata (e.g. the fixpoint iteration count), and a trailing
/// FNV-1a-64 checksum over the whole byte stream.
///
/// Construct via [`BddManager::export_checkpoint`]; rebuild via
/// [`BddManager::bulk_import_checkpoint`].
///
/// # Examples
///
/// ```
/// use stgcheck_bdd::{BddCheckpoint, BddManager, BddOps};
/// let mut a = BddManager::new();
/// let x = a.new_var("x");
/// let y = a.new_var("y");
/// let (vx, vy) = (a.var(x), a.var(y));
/// let f = a.xor(vx, vy);
/// let bytes = a.export_checkpoint(0, &[("f", f)], &[]).to_bytes();
///
/// // A second manager with the same variables in the same order.
/// let mut b = BddManager::new();
/// b.new_var("x");
/// b.new_var("y");
/// let roots = b.bulk_import_checkpoint(&BddCheckpoint::from_bytes(&bytes)?)?;
/// assert_eq!(b.sat_count(roots[0].1), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BddCheckpoint {
    /// Content hash of the net this artifact was computed from
    /// (`Stg::content_hash` upstream); loads validate it before use.
    pub net_hash: u128,
    /// Variable name per level, level 0 first — the full order of the
    /// exporting manager at snapshot time.
    pub var_names: Vec<String>,
    /// Sifting groups as lists of level indices (informational: the
    /// importer re-derives groups from its own declarations).
    pub groups: Vec<Vec<u32>>,
    /// Free-form `(key, value)` metadata, e.g. `("iterations", n)`.
    pub meta: Vec<(String, u64)>,
    /// `(level, lo, hi)` per node in the tagged reference encoding
    /// (see `REF_NODE_BASE`), children-first.
    pub(crate) nodes: Vec<(u32, u32, u32)>,
    /// Named roots as `(name, tagged reference)`.
    pub(crate) roots: Vec<(String, u32)>,
}

impl BddCheckpoint {
    /// Number of decision nodes in the shared node list.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The root names, in export order.
    pub fn root_names(&self) -> impl Iterator<Item = &str> {
        self.roots.iter().map(|(n, _)| n.as_str())
    }

    /// Looks up a metadata value by key.
    pub fn meta_value(&self, key: &str) -> Option<u64> {
        self.meta.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Serialises the checkpoint: version, net hash, variable order,
    /// groups, metadata, node list, named roots, then the FNV-1a-64
    /// checksum over everything preceding it (8 bytes, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.nodes.len() * 4);
        write_varint(&mut out, CHECKPOINT_VERSION);
        write_varint64(&mut out, self.net_hash as u64);
        write_varint64(&mut out, (self.net_hash >> 64) as u64);
        write_varint(&mut out, self.var_names.len() as u32);
        for name in &self.var_names {
            write_string(&mut out, name);
        }
        write_varint(&mut out, self.groups.len() as u32);
        for g in &self.groups {
            write_varint(&mut out, g.len() as u32);
            for &l in g {
                write_varint(&mut out, l);
            }
        }
        write_varint(&mut out, self.meta.len() as u32);
        for (k, v) in &self.meta {
            write_string(&mut out, k);
            write_varint64(&mut out, *v);
        }
        write_varint(&mut out, self.nodes.len() as u32);
        for &(level, lo, hi) in &self.nodes {
            write_varint(&mut out, level);
            write_varint(&mut out, lo);
            write_varint(&mut out, hi);
        }
        write_varint(&mut out, self.roots.len() as u32);
        for (name, r) in &self.roots {
            write_string(&mut out, name);
            write_varint(&mut out, *r);
        }
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and validates a stream produced by
    /// [`BddCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SerializeError::UnsupportedVersion`] for non-v3 streams,
    /// [`SerializeError::ChecksumMismatch`] when the trailer does not
    /// match (truncation/corruption), and structural errors otherwise —
    /// a successful decode guarantees every node and root reference is
    /// well-formed and level-ordered.
    pub fn from_bytes(bytes: &[u8]) -> Result<BddCheckpoint, SerializeError> {
        let mut pos = 0usize;
        let version = read_varint(bytes, &mut pos)?;
        if version != CHECKPOINT_VERSION {
            return Err(SerializeError::UnsupportedVersion(version));
        }
        if bytes.len() < pos + 8 {
            return Err(SerializeError::Truncated);
        }
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 trailer bytes"));
        if fnv64(&bytes[..body_len]) != stored {
            return Err(SerializeError::ChecksumMismatch);
        }
        let body = &bytes[..body_len];
        let lo64 = read_varint64(body, &mut pos)?;
        let hi64 = read_varint64(body, &mut pos)?;
        let net_hash = ((hi64 as u128) << 64) | lo64 as u128;
        let nvars = read_varint(body, &mut pos)? as usize;
        let mut var_names = Vec::with_capacity(nvars.min(body.len()));
        for _ in 0..nvars {
            var_names.push(read_string(body, &mut pos)?);
        }
        let ngroups = read_varint(body, &mut pos)? as usize;
        let mut groups = Vec::with_capacity(ngroups.min(body.len()));
        for _ in 0..ngroups {
            let glen = read_varint(body, &mut pos)? as usize;
            let mut g = Vec::with_capacity(glen.min(body.len()));
            for _ in 0..glen {
                let l = read_varint(body, &mut pos)?;
                if l as usize >= nvars {
                    return Err(SerializeError::OrderViolation);
                }
                g.push(l);
            }
            groups.push(g);
        }
        let nmeta = read_varint(body, &mut pos)? as usize;
        let mut meta = Vec::with_capacity(nmeta.min(body.len()));
        for _ in 0..nmeta {
            let k = read_string(body, &mut pos)?;
            let v = read_varint64(body, &mut pos)?;
            meta.push((k, v));
        }
        let count = read_varint(body, &mut pos)? as usize;
        let mut nodes = Vec::with_capacity(count.min(body.len()));
        for i in 0..count {
            let level = read_varint(body, &mut pos)?;
            let lo = read_varint(body, &mut pos)?;
            let hi = read_varint(body, &mut pos)?;
            if level as usize >= nvars {
                return Err(SerializeError::OrderViolation);
            }
            validate_node(&nodes, i, level, lo, hi)?;
            nodes.push((level, lo, hi));
        }
        let nroots = read_varint(body, &mut pos)? as usize;
        let mut roots = Vec::with_capacity(nroots.min(body.len()));
        for _ in 0..nroots {
            let name = read_string(body, &mut pos)?;
            let r = read_varint(body, &mut pos)?;
            if (r >> 1) > count as u32 {
                return Err(SerializeError::ForwardReference);
            }
            roots.push((name, r));
        }
        if pos != body.len() {
            return Err(SerializeError::TrailingBytes);
        }
        Ok(BddCheckpoint { net_hash, var_names, groups, meta, nodes, roots })
    }
}

impl BddManager {
    /// Snapshots several functions into one shared, topologically ordered
    /// node list; returns the list plus one tagged reference per root (in
    /// input order). Subgraphs shared *between* roots are stored once.
    fn export_node_list(&self, roots: &[Bdd]) -> (Vec<(u32, u32, u32)>, Vec<u32>) {
        let mut index: HashMap<Bdd, u32> = HashMap::new();
        let mut nodes: Vec<(u32, u32, u32)> = Vec::new();
        for &f in roots {
            if f.is_terminal() {
                continue;
            }
            // Post-order DFS over *regular* handles so children are
            // emitted before their parents and each shared node is stored
            // once.
            let mut stack: Vec<(Bdd, bool)> = vec![(f.regular(), false)];
            while let Some((g, expanded)) = stack.pop() {
                if g.is_terminal() || index.contains_key(&g) {
                    continue;
                }
                let n = self.node(g);
                if expanded {
                    let enc = |h: Bdd| {
                        if h.is_terminal() {
                            h.0
                        } else {
                            (index[&h.regular()] << 1) | h.is_complemented() as u32
                        }
                    };
                    let id = REF_NODE_BASE + nodes.len() as u32;
                    nodes.push((n.level, enc(n.lo), enc(n.hi)));
                    index.insert(g, id);
                } else {
                    stack.push((g, true));
                    stack.push((n.hi.regular(), false));
                    stack.push((n.lo, false));
                }
            }
        }
        let refs = roots
            .iter()
            .map(|&f| {
                if f.is_terminal() {
                    f.0
                } else {
                    (index[&f.regular()] << 1) | f.is_complemented() as u32
                }
            })
            .collect();
        (nodes, refs)
    }

    /// Snapshots named roots into a durable v3 [`BddCheckpoint`] carrying
    /// this manager's full variable order (by name), its sifting groups
    /// (as level indices), the caller's net hash and metadata.
    ///
    /// Levels (positions in the variable order), not [`crate::Var`]
    /// identities, are recorded, and complement tags per edge, so the
    /// snapshot is exact for any manager whose order assigns the same
    /// meaning to each level.
    pub fn export_checkpoint(
        &self,
        net_hash: u128,
        roots: &[(&str, Bdd)],
        meta: &[(String, u64)],
    ) -> BddCheckpoint {
        let handles: Vec<Bdd> = roots.iter().map(|&(_, f)| f).collect();
        let (nodes, refs) = self.export_node_list(&handles);
        let var_names: Vec<String> =
            (0..self.num_vars()).map(|l| self.var_name(self.var_at(l)).to_string()).collect();
        let groups: Vec<Vec<u32>> = self
            .var_groups()
            .iter()
            .map(|g| g.iter().map(|&v| self.level_of(v) as u32).collect())
            .collect();
        BddCheckpoint {
            net_hash,
            var_names,
            groups,
            meta: meta.to_vec(),
            nodes,
            roots: roots.iter().zip(refs).map(|(&(n, _), r)| (n.to_string(), r)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Level;
    use crate::BddOps;

    fn twin_managers(nvars: usize) -> (BddManager, BddManager) {
        let mut a = BddManager::new();
        let mut b = BddManager::new();
        for i in 0..nvars {
            a.new_var(format!("x{i}"));
            b.new_var(format!("x{i}"));
        }
        (a, b)
    }

    /// A one-root checkpoint without hash or metadata.
    fn snapshot(m: &BddManager, f: Bdd) -> BddCheckpoint {
        m.export_checkpoint(0, &[("f", f)], &[])
    }

    /// Bulk-loads a one-root checkpoint and returns its root.
    fn bulk_root(m: &mut BddManager, ck: &BddCheckpoint) -> Bdd {
        m.bulk_import_checkpoint(ck).expect("bulk import")[0].1
    }

    /// The reference importer the bulk loader is checked against: rebuilds
    /// the node list children-first through the per-node `mk`, which
    /// applies the manager's own canonicalization.
    fn mk_import(m: &BddManager, ck: &BddCheckpoint) -> Vec<Bdd> {
        let dec = |handles: &[Bdd], r: u32| match r >> 1 {
            0 => Bdd::TRUE.complement_if(r & 1 != 0),
            k => handles[(k - REF_NODE_BASE) as usize].complement_if(r & 1 != 0),
        };
        let mut handles = Vec::with_capacity(ck.nodes.len());
        for &(level, lo, hi) in &ck.nodes {
            let (lo, hi) = (dec(&handles, lo), dec(&handles, hi));
            handles.push(m.mk(level as Level, lo, hi));
        }
        ck.roots.iter().map(|&(_, r)| dec(&handles, r)).collect()
    }

    /// A hand-built v3 stream over two variables `a`, `b` with no groups
    /// or metadata, sealed with a valid checksum — so decoding reaches the
    /// structural checks behind it.
    fn stream(nodes: &[(u32, u32, u32)], roots: &[u32], junk: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [CHECKPOINT_VERSION, 0, 0, 2] {
            write_varint(&mut out, v);
        }
        write_string(&mut out, "a");
        write_string(&mut out, "b");
        write_varint(&mut out, 0); // groups
        write_varint(&mut out, 0); // metadata
        write_varint(&mut out, nodes.len() as u32);
        for &(level, lo, hi) in nodes {
            for v in [level, lo, hi] {
                write_varint(&mut out, v);
            }
        }
        write_varint(&mut out, roots.len() as u32);
        for &r in roots {
            write_string(&mut out, "r");
            write_varint(&mut out, r);
        }
        out.extend_from_slice(junk);
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn terminals_round_trip() {
        let (a, mut b) = twin_managers(2);
        for f in [Bdd::FALSE, Bdd::TRUE] {
            let ck = snapshot(&a, f);
            assert_eq!(ck.num_nodes(), 0);
            assert_eq!(BddCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
            assert_eq!(bulk_root(&mut b, &ck), f);
        }
    }

    #[test]
    fn cross_manager_round_trip_preserves_semantics() {
        let (mut a, mut b) = twin_managers(6);
        let vars = a.order();
        let mut f = a.zero();
        for (i, &v) in vars.iter().enumerate() {
            let lv = if i % 2 == 0 { a.var(v) } else { a.nvar(v) };
            f = a.xor(f, lv);
        }
        let ck = snapshot(&a, f);
        assert_eq!(ck.num_nodes(), a.size(f));
        let g = bulk_root(&mut b, &ck);
        assert_eq!(b.sat_count(g), a.sat_count(f));
        // Re-export from the importing manager: identical snapshot.
        assert_eq!(snapshot(&b, g), ck);
    }

    #[test]
    fn complement_root_shares_the_node_list() {
        let (mut a, mut b) = twin_managers(4);
        let vars = a.order();
        let (v0, v1) = (a.var(vars[0]), a.var(vars[1]));
        let f = a.and(v0, v1);
        let nf = a.not(f);
        let s = snapshot(&a, f);
        let sn = snapshot(&a, nf);
        assert_eq!(s.nodes, sn.nodes, "¬f must serialize the same node list as f");
        assert_ne!(s.roots, sn.roots);
        let g = bulk_root(&mut b, &s);
        let gn = bulk_root(&mut b, &sn);
        assert_eq!(gn, g.complement());
        assert_eq!(b.sat_count(g) + b.sat_count(gn), 16);
    }

    #[test]
    fn same_manager_import_is_identity() {
        let (mut a, _) = twin_managers(4);
        let vars = a.order();
        let (v0, v1) = (a.var(vars[0]), a.var(vars[1]));
        let t0 = a.and(v0, v1);
        let v3 = a.nvar(vars[3]);
        let f = a.or(t0, v3);
        let ck = snapshot(&a, f);
        assert_eq!(bulk_root(&mut a, &ck), f);
        assert_eq!(mk_import(&a, &ck), vec![f]);
    }

    #[test]
    fn byte_round_trip_and_compactness() {
        let (mut a, _) = twin_managers(8);
        let vars = a.order();
        let mut f = a.one();
        for &v in &vars {
            let lv = a.var(v);
            f = a.and(f, lv);
        }
        let ck = snapshot(&a, f);
        let bytes = ck.to_bytes();
        // 8 one-literal nodes, all references small: one byte per varint,
        // so the node list costs 3 bytes per node over the header.
        let header = snapshot(&a, Bdd::TRUE).to_bytes();
        assert!(bytes.len() - header.len() <= 3 * ck.num_nodes(), "{} bytes", bytes.len());
        assert_eq!(BddCheckpoint::from_bytes(&bytes).unwrap(), ck);
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert_eq!(BddCheckpoint::from_bytes(&[]), Err(SerializeError::Truncated));
        // Wrong format version (a pre-complement-edge stream).
        let mut v1 = Vec::new();
        write_varint(&mut v1, 1);
        assert_eq!(BddCheckpoint::from_bytes(&v1), Err(SerializeError::UnsupportedVersion(1)));
        // The hand-built stream itself is valid.
        assert!(BddCheckpoint::from_bytes(&stream(&[(0, 0, 1)], &[2], &[])).is_ok());
        // One node claiming a forward/self reference.
        let bad = stream(&[(0, 2, 1)], &[2], &[]);
        assert_eq!(BddCheckpoint::from_bytes(&bad), Err(SerializeError::ForwardReference));
        // A root past the node list.
        let bad_root = stream(&[], &[4], &[]);
        assert_eq!(BddCheckpoint::from_bytes(&bad_root), Err(SerializeError::ForwardReference));
        // A sealed stream with junk after the last root.
        let junk = stream(&[(0, 0, 1)], &[2], &[0]);
        assert_eq!(BddCheckpoint::from_bytes(&junk), Err(SerializeError::TrailingBytes));
        // Varint overflow.
        let huge = [0xff, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(BddCheckpoint::from_bytes(&huge), Err(SerializeError::Overflow));
    }

    #[test]
    fn checkpoint_rejects_level_order_violations() {
        // A parent at level 1 whose child claims level 1 (not strictly
        // deeper): importing this would silently build a non-canonical
        // BDD, so decode must refuse.
        let bad = stream(&[(1, 0, 1), (1, 2, 1)], &[4], &[]);
        assert_eq!(BddCheckpoint::from_bytes(&bad), Err(SerializeError::OrderViolation));
        // A level past the declared variables.
        let deep = stream(&[(2, 0, 1)], &[2], &[]);
        assert_eq!(BddCheckpoint::from_bytes(&deep), Err(SerializeError::OrderViolation));
        // Same stream with the parent hoisted to level 0 is fine.
        assert!(BddCheckpoint::from_bytes(&stream(&[(1, 0, 1), (0, 2, 1)], &[4], &[])).is_ok());
    }

    fn checkpoint_fixture() -> (BddManager, Bdd, Bdd, BddCheckpoint) {
        let mut a = BddManager::new();
        let vars = a.new_vars("x", 6);
        a.set_var_groups(vec![vec![vars[0], vars[1]], vec![vars[2], vars[3]]]);
        let (v0, v1, v2) = (a.var(vars[0]), a.var(vars[1]), a.var(vars[2]));
        let t = a.and(v0, v1);
        let f = a.or(t, v2);
        let nf = a.not(f);
        let ck = a.export_checkpoint(
            0xdead_beef_cafe_f00d_1234_5678_9abc_def0,
            &[("reached", f), ("frontier", nf), ("empty", Bdd::FALSE)],
            &[("iterations".to_string(), 42)],
        );
        (a, f, nf, ck)
    }

    #[test]
    fn checkpoint_round_trips_with_header() {
        let (a, f, nf, ck) = checkpoint_fixture();
        assert_eq!(ck.net_hash, 0xdead_beef_cafe_f00d_1234_5678_9abc_def0);
        assert_eq!(ck.var_names, vec!["x0", "x1", "x2", "x3", "x4", "x5"]);
        assert_eq!(ck.groups, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(ck.meta_value("iterations"), Some(42));
        assert_eq!(ck.meta_value("missing"), None);
        assert_eq!(ck.root_names().collect::<Vec<_>>(), vec!["reached", "frontier", "empty"]);
        // f and ¬f share one node list; the checkpoint stores it once.
        assert_eq!(ck.num_nodes(), a.size(f));
        let bytes = ck.to_bytes();
        let back = BddCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        // Bulk import into a twin manager: roots keep their semantics and
        // their complement relationship.
        let mut b = BddManager::new();
        b.new_vars("x", 6);
        let roots = b.bulk_import_checkpoint(&back).expect("bulk import");
        assert_eq!(roots.len(), 3);
        assert_eq!(roots[0].0, "reached");
        assert_eq!(b.sat_count(roots[0].1), a.sat_count(f));
        assert_eq!(roots[1].1, roots[0].1.complement());
        assert_eq!(b.sat_count(roots[1].1), a.sat_count(nf));
        assert_eq!(roots[2].1, Bdd::FALSE);
    }

    #[test]
    fn checkpoint_detects_truncation_and_corruption() {
        let (_, _, _, ck) = checkpoint_fixture();
        let bytes = ck.to_bytes();
        // Every strict prefix fails with a typed error.
        for cut in 0..bytes.len() {
            assert!(BddCheckpoint::from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        // Every single-byte flip is caught by the checksum (or decodes to
        // the identical value, which a one-bit flip cannot).
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x55;
            assert!(BddCheckpoint::from_bytes(&mutated).is_err(), "flip at {pos}");
        }
        // A retired v2 stream is refused by version, not misparsed.
        let mut v2 = Vec::new();
        write_varint(&mut v2, 2);
        assert_eq!(BddCheckpoint::from_bytes(&v2), Err(SerializeError::UnsupportedVersion(2)));
    }

    #[test]
    fn bulk_import_equals_recursive_import() {
        // A function with shared subgraphs and complemented edges.
        let build = |m: &mut BddManager| {
            let vars = m.order();
            let mut f = m.zero();
            for (i, &v) in vars.iter().enumerate() {
                let lv = if i % 3 == 0 { m.var(v) } else { m.nvar(v) };
                f = if i % 2 == 0 { m.xor(f, lv) } else { m.or(f, lv) };
            }
            f
        };
        let (mut a, _) = twin_managers(8);
        let f = build(&mut a);
        let ck = snapshot(&a, f);
        // Same manager: bulk load must dedup against existing nodes and
        // return the identical handle.
        let mut same = a;
        assert_eq!(bulk_root(&mut same, &ck), f);
        assert_eq!(snapshot(&same, f), ck);
        same.check_invariants();
        // Fresh managers: bulk and recursive imports agree node for node.
        let (mut b, c) = twin_managers(8);
        let via_bulk = bulk_root(&mut b, &ck);
        let via_mk = mk_import(&c, &ck)[0];
        assert_eq!(snapshot(&b, via_bulk), snapshot(&c, via_mk));
        assert_eq!(b.sat_count(via_bulk), same.sat_count(f));
        b.check_invariants();
        // And in the bulk-loaded manager, both the recursive import and
        // the operations that built `f` land on the bulk-loaded handle.
        assert_eq!(mk_import(&b, &ck), vec![via_bulk]);
        assert_eq!(build(&mut b), via_bulk);
        b.check_invariants();
    }

    #[test]
    fn shared_subgraphs_serialize_once() {
        let (mut a, mut b) = twin_managers(5);
        let vars = a.order();
        // f = (x0 ∧ g) ∨ (¬x0 ∧ g) collapses to g, so force sharing via
        // two distinct parents over a common child instead.
        let (v1, v2) = (a.var(vars[1]), a.var(vars[2]));
        let shared = a.and(v1, v2);
        let v0 = a.var(vars[0]);
        let left = a.and(v0, shared);
        let n0 = a.nvar(vars[0]);
        let v3 = a.var(vars[3]);
        let t = a.and(n0, v3);
        let right = a.and(t, shared);
        let f = a.or(left, right);
        let ck = snapshot(&a, f);
        assert_eq!(ck.num_nodes(), a.size(f));
        let g = bulk_root(&mut b, &ck);
        assert_eq!(b.sat_count(g), a.sat_count(f));
    }
}
