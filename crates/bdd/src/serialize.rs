//! Compact serialised-BDD interchange between managers.
//!
//! The parallel sharded traversal engine gives every worker thread its own
//! [`BddManager`]; frontiers cross thread boundaries as [`SerializedBdd`]
//! values — a manager-independent, topologically ordered node list. Import
//! is meaningful between managers that agree on the *level semantics*
//! (same variable at the same level), which holds by construction when the
//! managers were populated by the same deterministic declaration sequence.
//!
//! References carry a **complement bit** (format version 2, see
//! `docs/bdd-internals.md`): a snapshot of a complement-edge manager is
//! lossless, round-trips through managers with different tag layouts, and
//! `¬f` serialises to the same node list as `f` with only the root
//! reference differing.
//!
//! The in-memory form is already compact (12 bytes per node); for wire or
//! disk use, [`SerializedBdd::to_bytes`] produces an LEB128-varint stream
//! that typically shrinks small-level, near-child references to a few
//! bytes each.
//!
//! For *durable* artifacts — result caches and fixpoint checkpoints —
//! this module also defines the **checkpoint format v3**
//! ([`BddCheckpoint`]): a multi-root node list under a header carrying
//! the net content-hash, the full variable order (by name) with sifting
//! groups, named root handles and free-form integer metadata, sealed by
//! an FNV-1a-64 checksum so truncation or corruption is detected at
//! load (see `docs/persistent-store.md`).

use std::collections::HashMap;

use crate::manager::BddManager;
use crate::node::{Bdd, Level};

/// Reference encoding inside a [`SerializedBdd`]: bit 0 is the complement
/// tag; the remaining bits are `0` for the terminal and `k + 1` for the
/// `k`-th entry of the node list. So `0` is `TRUE`, `1` is `FALSE`, and
/// `(k + 1) << 1 | c` is entry `k`, complemented iff `c` is set.
const REF_NODE_BASE: u32 = 1;

/// Wire-format version written by [`SerializedBdd::to_bytes`]. Version 2
/// introduced tagged (complement-edge) references; version-1 streams
/// (plain indices, two terminals) are rejected rather than misread.
const FORMAT_VERSION: u32 = 2;

/// Format version written by [`BddCheckpoint::to_bytes`]: the durable
/// multi-root artifact with header and checksum. Sharing the version
/// counter with the v2 worker-exchange stream means neither reader can
/// misinterpret the other's bytes.
const CHECKPOINT_VERSION: u32 = 3;

/// A manager-independent snapshot of one BDD.
///
/// Nodes are listed children-first (topological order), so importing can
/// rebuild bottom-up with plain hash-consing. Shared subgraphs are stored
/// once, exactly as in the manager, and complement tags are preserved
/// per edge.
///
/// # Examples
///
/// ```
/// use stgcheck_bdd::{BddManager, BddOps};
/// let mut a = BddManager::new();
/// let x = a.new_var("x");
/// let y = a.new_var("y");
/// let (vx, vy) = (a.var(x), a.var(y));
/// let f = a.xor(vx, vy);
///
/// // A second manager with the same declaration sequence.
/// let mut b = BddManager::new();
/// b.new_var("x");
/// b.new_var("y");
/// let imported = b.import_bdd(&a.export_bdd(f));
/// assert_eq!(b.sat_count(imported), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SerializedBdd {
    /// `(level, lo, hi)` per node; `lo`/`hi` use the tagged reference
    /// encoding and always point at earlier entries (or the terminal).
    nodes: Vec<(u32, u32, u32)>,
    /// Root reference in the same encoding.
    root: u32,
}

/// Why decoding a byte stream into a [`SerializedBdd`] failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SerializeError {
    /// The stream ended in the middle of a value.
    Truncated,
    /// A varint ran past the 32-bit range.
    Overflow,
    /// A node or root referenced a node not yet defined (breaks the
    /// topological-order invariant).
    ForwardReference,
    /// Trailing bytes after the root reference.
    TrailingBytes,
    /// The stream's format version is not the one this build writes
    /// (e.g. a pre-complement-edge version-1 stream).
    UnsupportedVersion(u32),
    /// A node's level is out of range, or a child is not strictly deeper
    /// than its parent — importing such a stream would build a
    /// non-canonical (wrong) BDD, so it is rejected up front.
    OrderViolation,
    /// A length-prefixed string is not valid UTF-8 (v3 header).
    BadString,
    /// The v3 trailer checksum does not match the stream contents —
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

impl SerializedBdd {
    /// Number of decision nodes in the snapshot.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the snapshot is one of the two constant functions.
    pub fn is_terminal(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Highest variable level mentioned by any node (0 for a terminal
    /// snapshot). Importing requires a manager with at least
    /// `max_level() + 1` variables.
    pub fn max_level(&self) -> usize {
        self.nodes.iter().map(|&(level, _, _)| level as usize).max().unwrap_or(0)
    }

    /// LEB128-varint byte encoding: format version, node count, then
    /// `(level, lo, hi)` per node, then the root reference.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6 + self.nodes.len() * 4);
        write_varint(&mut out, FORMAT_VERSION);
        write_varint(&mut out, self.nodes.len() as u32);
        for &(level, lo, hi) in &self.nodes {
            write_varint(&mut out, level);
            write_varint(&mut out, lo);
            write_varint(&mut out, hi);
        }
        write_varint(&mut out, self.root);
        out
    }

    /// Decodes a stream produced by [`SerializedBdd::to_bytes`].
    ///
    /// # Errors
    ///
    /// See [`SerializeError`] for the failure modes; a successful decode
    /// guarantees the topological-order invariant that
    /// [`BddManager::import_bdd`] relies on.
    pub fn from_bytes(bytes: &[u8]) -> Result<SerializedBdd, SerializeError> {
        let mut pos = 0usize;
        let version = read_varint(bytes, &mut pos)?;
        if version != FORMAT_VERSION {
            return Err(SerializeError::UnsupportedVersion(version));
        }
        let count = read_varint(bytes, &mut pos)? as usize;
        let mut nodes = Vec::with_capacity(count.min(bytes.len()));
        for i in 0..count {
            let level = read_varint(bytes, &mut pos)?;
            let lo = read_varint(bytes, &mut pos)?;
            let hi = read_varint(bytes, &mut pos)?;
            validate_node(&nodes, i, level, lo, hi)?;
            nodes.push((level, lo, hi));
        }
        let root = read_varint(bytes, &mut pos)?;
        if (root >> 1) > count as u32 {
            return Err(SerializeError::ForwardReference);
        }
        if pos != bytes.len() {
            return Err(SerializeError::TrailingBytes);
        }
        Ok(SerializedBdd { nodes, root })
    }

    /// The raw `(level, lo, hi)` node list (crate-internal: the bulk
    /// loader inserts these directly into the unique tables).
    pub(crate) fn node_list(&self) -> &[(u32, u32, u32)] {
        &self.nodes
    }

    /// The root reference in the tagged encoding (crate-internal).
    pub(crate) fn root_ref(&self) -> u32 {
        self.root
    }
}

/// Shared structural validation for one decoded node: references must
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

/// FNV-1a-64 over a byte slice — the v3 trailer checksum.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A durable, self-describing multi-root BDD artifact (format v3).
///
/// Where [`SerializedBdd`] is a bare worker-exchange payload that trusts
/// its environment, a checkpoint carries everything needed to validate a
/// load against a *different process at a different time*: the content
/// hash of the net it was computed from, the variable order by name
/// (with sifting groups), named root references into one shared node
/// list, free-form integer metadata (e.g. the fixpoint iteration count),
/// and a trailing FNV-1a-64 checksum over the whole byte stream.
///
/// Construct via [`BddManager::export_checkpoint`]; rebuild via
/// [`BddManager::bulk_import_checkpoint`].
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
    /// `(level, lo, hi)` per node in the v2 tagged encoding,
    /// children-first.
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
    /// match (truncation/corruption), and the structural errors of
    /// [`SerializedBdd::from_bytes`] — a successful decode guarantees
    /// every node and root reference is well-formed and level-ordered.
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
    /// Snapshots the function `f` into a manager-independent form.
    ///
    /// Levels (positions in the variable order), not [`crate::Var`]
    /// identities, are recorded: the snapshot is meaningful for any
    /// manager whose order assigns the same meaning to each level.
    /// Complement tags are recorded per edge, so the snapshot is exact.
    pub fn export_bdd(&self, f: Bdd) -> SerializedBdd {
        let (nodes, mut refs) = self.export_node_list(&[f]);
        SerializedBdd { nodes, root: refs.pop().expect("one root in, one ref out") }
    }

    /// Snapshots several functions into one shared, topologically ordered
    /// node list; returns the list plus one tagged reference per root (in
    /// input order). Subgraphs shared *between* roots are stored once —
    /// the building block of both [`BddManager::export_bdd`] and the
    /// multi-root [`BddManager::export_checkpoint`].
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

    /// Rebuilds a snapshot inside this manager and returns its root.
    ///
    /// The manager must declare at least as many variables as the deepest
    /// level in the snapshot, with the same per-level meaning as the
    /// exporting manager (see [`BddManager::export_bdd`]).
    ///
    /// # Panics
    ///
    /// Panics if a node's level is outside this manager's variable range.
    pub fn import_bdd(&self, s: &SerializedBdd) -> Bdd {
        let mut handles: Vec<Bdd> = Vec::with_capacity(s.nodes.len());
        let dec = |handles: &[Bdd], r: u32| -> Bdd {
            match r >> 1 {
                0 => Bdd::TRUE.complement_if(r & 1 != 0),
                k => handles[(k - REF_NODE_BASE) as usize].complement_if(r & 1 != 0),
            }
        };
        for &(level, lo, hi) in &s.nodes {
            assert!(
                (level as usize) < self.num_vars(),
                "imported BDD refers to level {level} but manager has {} variables",
                self.num_vars()
            );
            let lo = dec(&handles, lo);
            let hi = dec(&handles, hi);
            handles.push(self.mk(level as Level, lo, hi));
        }
        dec(&handles, s.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn terminals_round_trip() {
        let (a, b) = twin_managers(2);
        for f in [Bdd::FALSE, Bdd::TRUE] {
            let s = a.export_bdd(f);
            assert!(s.is_terminal());
            assert_eq!(b.import_bdd(&s), f);
            assert_eq!(SerializedBdd::from_bytes(&s.to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn cross_manager_round_trip_preserves_semantics() {
        let (mut a, b) = twin_managers(6);
        let vars = a.order();
        let mut f = a.zero();
        for (i, &v) in vars.iter().enumerate() {
            let lv = if i % 2 == 0 { a.var(v) } else { a.nvar(v) };
            f = a.xor(f, lv);
        }
        let s = a.export_bdd(f);
        assert_eq!(s.num_nodes(), a.size(f));
        let g = b.import_bdd(&s);
        assert_eq!(b.sat_count(g), a.sat_count(f));
        // Re-export from the importing manager: identical snapshot.
        assert_eq!(b.export_bdd(g), s);
    }

    #[test]
    fn complement_root_shares_the_node_list() {
        let (mut a, b) = twin_managers(4);
        let vars = a.order();
        let (v0, v1) = (a.var(vars[0]), a.var(vars[1]));
        let f = a.and(v0, v1);
        let nf = a.not(f);
        let s = a.export_bdd(f);
        let sn = a.export_bdd(nf);
        assert_eq!(s.nodes, sn.nodes, "¬f must serialize the same node list as f");
        assert_ne!(s.root, sn.root);
        let g = b.import_bdd(&s);
        let gn = b.import_bdd(&sn);
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
        let s = a.export_bdd(f);
        assert_eq!(a.import_bdd(&s), f);
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
        let s = a.export_bdd(f);
        let bytes = s.to_bytes();
        // 8 one-literal nodes, all references small: well under 12 B/node.
        assert!(bytes.len() < s.num_nodes() * 6 + 5, "{} bytes", bytes.len());
        assert_eq!(SerializedBdd::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert_eq!(SerializedBdd::from_bytes(&[]), Err(SerializeError::Truncated));
        // Wrong format version (a pre-complement-edge stream).
        let mut v1 = Vec::new();
        write_varint(&mut v1, 1);
        assert_eq!(SerializedBdd::from_bytes(&v1), Err(SerializeError::UnsupportedVersion(1)));
        // One node claiming a forward/self reference.
        let mut bad = Vec::new();
        write_varint(&mut bad, FORMAT_VERSION);
        write_varint(&mut bad, 1); // node count
        write_varint(&mut bad, 0); // level
        write_varint(&mut bad, 2); // lo -> itself (node part 1)
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 2);
        assert_eq!(SerializedBdd::from_bytes(&bad), Err(SerializeError::ForwardReference));
        // A root past the node list.
        let mut bad_root = Vec::new();
        write_varint(&mut bad_root, FORMAT_VERSION);
        write_varint(&mut bad_root, 0);
        write_varint(&mut bad_root, 4); // node part 2, but no nodes
        assert_eq!(SerializedBdd::from_bytes(&bad_root), Err(SerializeError::ForwardReference));
        // Valid stream with trailing junk.
        let (a, _) = twin_managers(2);
        let v = a.order()[0];
        let f = a.var(v);
        let mut bytes = a.export_bdd(f).to_bytes();
        bytes.push(0);
        assert_eq!(SerializedBdd::from_bytes(&bytes), Err(SerializeError::TrailingBytes));
        // Varint overflow.
        let huge = [0xff, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(SerializedBdd::from_bytes(&huge), Err(SerializeError::Overflow));
    }

    #[test]
    fn v2_rejects_level_order_violations() {
        // A parent at level 1 whose child claims level 1 (not strictly
        // deeper): importing this would silently build a non-canonical
        // BDD, so decode must refuse.
        let mut bad = Vec::new();
        write_varint(&mut bad, FORMAT_VERSION);
        write_varint(&mut bad, 2); // node count
        write_varint(&mut bad, 1); // node 0: level 1
        write_varint(&mut bad, 0); // lo = TRUE
        write_varint(&mut bad, 1); // hi = FALSE
        write_varint(&mut bad, 1); // node 1: level 1 — must be < child's
        write_varint(&mut bad, 2); // lo = node 0
        write_varint(&mut bad, 1); // hi = FALSE
        write_varint(&mut bad, 4); // root = node 1
        assert_eq!(SerializedBdd::from_bytes(&bad), Err(SerializeError::OrderViolation));
        // Same stream with the parent hoisted to level 0 is fine.
        bad[5] = 0;
        assert!(SerializedBdd::from_bytes(&bad).is_ok());
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
        // A v2 stream is refused by version, not misparsed.
        let mut v2 = Vec::new();
        write_varint(&mut v2, FORMAT_VERSION);
        assert_eq!(BddCheckpoint::from_bytes(&v2), Err(SerializeError::UnsupportedVersion(2)));
        // And the v2 reader refuses a v3 artifact.
        assert_eq!(SerializedBdd::from_bytes(&bytes), Err(SerializeError::UnsupportedVersion(3)));
    }

    #[test]
    fn bulk_import_equals_recursive_import() {
        let (mut a, _) = twin_managers(8);
        let vars = a.order();
        // A function with shared subgraphs and complemented edges.
        let mut f = a.zero();
        for (i, &v) in vars.iter().enumerate() {
            let lv = if i % 3 == 0 { a.var(v) } else { a.nvar(v) };
            f = if i % 2 == 0 { a.xor(f, lv) } else { a.or(f, lv) };
        }
        let s = a.export_bdd(f);
        // Same manager: bulk load must dedup against existing nodes and
        // return the identical handle.
        let mut same = a;
        let g = same.bulk_import_bdd(&s).expect("bulk import");
        assert_eq!(g, f);
        assert_eq!(same.export_bdd(g), s);
        same.check_invariants();
        // Fresh manager: bulk and recursive imports agree handle-for-handle.
        let (mut b, c) = twin_managers(8);
        let via_bulk = b.bulk_import_bdd(&s).expect("bulk import");
        let via_mk = c.import_bdd(&s);
        assert_eq!(b.export_bdd(via_bulk), c.export_bdd(via_mk));
        assert_eq!(b.sat_count(via_bulk), same.sat_count(f));
        b.check_invariants();
        // And bulk-then-recursive in one manager give the same handle.
        let recursive_again = b.import_bdd(&s);
        assert_eq!(recursive_again, via_bulk);
    }

    #[test]
    fn shared_subgraphs_serialize_once() {
        let (mut a, b) = twin_managers(5);
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
        let s = a.export_bdd(f);
        assert_eq!(s.num_nodes(), a.size(f));
        let g = b.import_bdd(&s);
        assert_eq!(b.sat_count(g), a.sat_count(f));
    }
}
