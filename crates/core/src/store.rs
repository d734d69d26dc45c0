//! The content-addressed on-disk result store behind `--cache-dir`.
//!
//! A verification verdict is a pure function of the net and the
//! engine-relevant options, so it can be cached by content: the key is
//! [`stgcheck_stg::Stg::content_hash`] (stable under whitespace, comments
//! and declaration reordering of the `.g` source) plus a short tag of
//! every option that influences the run. Per completed verification the
//! store holds four artifacts (see `docs/persistent-store.md`):
//!
//! * `<key>.report` — the full [`SymbolicReport`] in a line-based text
//!   format, sealed by a last `sum` line; any edited, malformed or
//!   truncated file, or one whose dimensions or indices do not fit the
//!   net, is a cache miss, never an error;
//! * `<key>.reached` — the final reached set as a v3
//!   [`BddCheckpoint`], so a warm hit can materialize the BDD without
//!   re-running the fixpoint;
//! * `<hash>.g` — the canonical `.g` snapshot of the net, used to
//!   reconstruct the *previous* net for the monotone-edit check;
//! * `latest-<name>-<opts>` — a pointer from the net's name to the hash
//!   most recently verified under those options, which is how an edited
//!   net finds its predecessor for incremental reverification.
//!
//! All writes go through the same tmp-then-rename protocol as engine
//! checkpoints, so a crash never leaves a torn artifact under a valid
//! name.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

use stgcheck_bdd::{fnv64, Bdd, BddCheckpoint, FaultPlan};
use stgcheck_petri::{PetriNet, PlaceId, TransId};
use stgcheck_stg::{
    parse_g, write_g, Code, FakeConflict, Implementability, Polarity, SignalId, Stg,
};

use crate::consistency::ConsistencyViolation;
use crate::csc::CscAnalysis;
use crate::encode::{StateWitness, VarOrder};
use crate::engine::{write_atomically, EngineKind, ReorderMode};
use crate::persistency::{SymSignalViolation, SymTransViolation};
use crate::safety::SafetyViolation;
use crate::traverse::TraversalStats;
use crate::verify::{effective_engine, PhaseTimes, SymbolicReport, VerifyOptions};

/// Where a [`crate::verify_persistent`] result came from.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum CacheStatus {
    /// No cache directory was configured.
    #[default]
    Off,
    /// Computed from scratch (and stored for next time).
    Cold,
    /// Served from the store without running any fixpoint.
    Warm,
    /// Computed, but with the traversal seeded from the reached set of a
    /// monotone predecessor net instead of from the initial state.
    Incremental,
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheStatus::Off => "off",
            CacheStatus::Cold => "cold",
            CacheStatus::Warm => "warm",
            CacheStatus::Incremental => "incremental",
        })
    }
}

/// A `--cache-dir` directory of verification artifacts.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// Fires the `store-read`, `store-write` and `store-rename` faults.
    faults: FaultPlan,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`; its reads
    /// and writes hit the failpoints of `faults`.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(dir: &Path, faults: FaultPlan) -> io::Result<ResultStore> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultStore { dir: dir.to_path_buf(), faults })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Loads the cached report for `key`, which was computed for `stg`;
    /// any unreadable, unsealed ([`unseal`]) or malformed artifact is a
    /// miss, and so is a report that does not fit `stg` ([`report_fits`]).
    /// The `store-read` failpoint injects the unreadable case: an armed
    /// run must degrade to a clean cold recompute, never an error.
    pub(crate) fn load_report(&self, key: &str, stg: &Stg) -> Option<SymbolicReport> {
        if self.faults.hit("store-read") {
            return None;
        }
        let bytes = std::fs::read(self.path(&format!("{key}.report"))).ok()?;
        report_from_text(unseal(&bytes)?).filter(|r| report_fits(r, stg))
    }

    /// Loads the stored reached-set checkpoint for `key`.
    pub(crate) fn load_reached(&self, key: &str) -> Option<BddCheckpoint> {
        if self.faults.hit("store-read") {
            return None;
        }
        let bytes = std::fs::read(self.path(&format!("{key}.reached"))).ok()?;
        BddCheckpoint::from_bytes(&bytes).ok()
    }

    /// Persists a completed verification: report, reached-set checkpoint,
    /// canonical net snapshot and the `latest` pointer.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O failure; partially-written artifacts are
    /// impossible (tmp-then-rename) but partial *sets* are — the loaders
    /// treat every artifact independently, so that is safe.
    pub(crate) fn store_result(
        &self,
        key: &str,
        hash: u128,
        stg: &Stg,
        report: &SymbolicReport,
        reached: &BddCheckpoint,
    ) -> io::Result<()> {
        let write =
            |file: String, bytes: &[u8]| write_atomically(&self.path(&file), bytes, &self.faults);
        let mut text = report_to_text(report);
        text.push_str(&seal(text.as_bytes()));
        write(format!("{key}.report"), text.as_bytes())?;
        write(format!("{key}.reached"), &reached.to_bytes())?;
        let declared = match stg.initial_code() {
            Some(c) => c.0.to_string(),
            None => "-".to_string(),
        };
        let snapshot = format!("# stgcheck-snapshot-v1 declared-code={declared}\n{}", write_g(stg));
        write(format!("{hash:032x}.g"), snapshot.as_bytes())?;
        write(latest_pointer(stg.name(), key), format!("{hash:032x}").as_bytes())
    }

    /// Follows the `latest` pointer for this net name + option tag and
    /// reconstructs the previously verified net. Returns `None` when
    /// there is no predecessor or any artifact is missing/corrupt
    /// (including a snapshot whose content hash no longer matches its
    /// file name — that is tampering or corruption, not an error).
    pub(crate) fn load_predecessor(&self, name: &str, key: &str) -> Option<(Stg, u128)> {
        let hex = std::fs::read_to_string(self.path(&latest_pointer(name, key))).ok()?;
        let hash = u128::from_str_radix(hex.trim(), 16).ok()?;
        let text = std::fs::read_to_string(self.path(&format!("{hash:032x}.g"))).ok()?;
        let stg = parse_snapshot(&text)?;
        (stg.content_hash() == hash).then_some((stg, hash))
    }

    /// Bounds the store to `cap_bytes` (`--cache-max-mb`): while over
    /// the cap, the oldest `latest-*` pointer is evicted together with
    /// every artifact of the hash it points to; any bytes still over
    /// after all pointers are gone (orphaned artifacts) go oldest-file
    /// first. A long-running daemon calls this after every store, so the
    /// cache stays LRU-ish by verification recency without an index
    /// file.
    ///
    /// Returns one human-readable note per evicted entry. A dangling
    /// `latest-*` pointer left by evicting a hash shared across option
    /// tags is harmless: every loader treats a missing artifact as a
    /// cache miss.
    ///
    /// # Errors
    ///
    /// Directory listing failures; unlink errors on individual files are
    /// reported in the notes instead (eviction must degrade, not abort
    /// a verification that already succeeded).
    pub fn evict_to_cap(&self, cap_bytes: u64) -> io::Result<Vec<String>> {
        let mut notes = Vec::new();
        let mut files: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let meta = match entry.metadata() {
                Ok(m) if m.is_file() => m,
                _ => continue,
            };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            files.push((entry.path(), meta.len(), mtime));
        }
        let mut total: u64 = files.iter().map(|(_, len, _)| *len).sum();
        if total <= cap_bytes {
            return Ok(notes);
        }

        type Tracked = Vec<(PathBuf, u64, std::time::SystemTime)>;
        fn remove(path: &Path, total: &mut u64, files: &mut Tracked, notes: &mut Vec<String>) {
            if let Some(pos) = files.iter().position(|(p, _, _)| p == path) {
                let (p, len, _) = files.swap_remove(pos);
                match std::fs::remove_file(&p) {
                    Ok(()) => *total -= len,
                    Err(e) => notes.push(format!("cache eviction: {}: {e}", p.display())),
                }
            }
        }

        // Oldest pointer first: eviction order is verification recency.
        let mut pointers: Vec<(PathBuf, std::time::SystemTime)> = files
            .iter()
            .filter(|(p, _, _)| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("latest-"))
            })
            .map(|(p, _, t)| (p.clone(), *t))
            .collect();
        pointers.sort_by_key(|(_, t)| *t);
        for (pointer, _) in pointers {
            if total <= cap_bytes {
                break;
            }
            let hash_prefix = std::fs::read_to_string(&pointer)
                .ok()
                .and_then(|hex| u128::from_str_radix(hex.trim(), 16).ok())
                .map(|hash| format!("{hash:032x}"));
            if let Some(prefix) = hash_prefix {
                let victims: Vec<PathBuf> = files
                    .iter()
                    .filter(|(p, _, _)| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with(&prefix))
                    })
                    .map(|(p, _, _)| p.clone())
                    .collect();
                for victim in victims {
                    remove(&victim, &mut total, &mut files, &mut notes);
                }
            }
            let name = pointer.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
            remove(&pointer, &mut total, &mut files, &mut notes);
            notes.push(format!("cache eviction: dropped `{name}` and its artifacts"));
        }

        // Orphans (artifacts no pointer references) oldest first.
        files.sort_by_key(|(_, _, t)| *t);
        while total > cap_bytes {
            let Some((path, _, _)) = files.first().cloned() else { break };
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
            remove(&path, &mut total, &mut files, &mut notes);
            notes.push(format!("cache eviction: dropped orphan `{name}`"));
        }
        Ok(notes)
    }
}

/// The store key: 32 hex digits of the content hash, then a short tag of
/// every option that changes what a run computes or reports.
///
/// The resource budget ([`crate::BudgetSpec`]) is deliberately *not* part
/// of the key: a budget changes whether a run finishes, never what a
/// finished run computes, so a verdict cached by a generous run must
/// serve a tightly-budgeted rerun (and only completed runs are ever
/// stored).
pub(crate) fn cache_key(hash: u128, opts: &VerifyOptions) -> String {
    format!("{hash:032x}-{}", opts_tag(opts))
}

fn opts_tag(opts: &VerifyOptions) -> String {
    let engine = effective_engine(opts);
    let order = match opts.order {
        VarOrder::Interleaved => "iv",
        VarOrder::PlacesThenSignals => "ps",
        VarOrder::SignalsThenPlaces => "sp",
        VarOrder::Declaration => "de",
    };
    let policy = if opts.policy.allow_arbitration { "arb" } else { "strict" };
    let kind = match engine.kind {
        EngineKind::PerTransition => "pt",
        EngineKind::ParallelSharded => "pa",
        EngineKind::Saturation => "sa",
    };
    let reorder = match engine.reorder {
        ReorderMode::None => "rn",
        ReorderMode::Sift => "rs",
        ReorderMode::Auto => "ra",
    };
    // Only the parallel engine reads `jobs`; any other engine computes
    // the same run at every value, so it keys as the default 0.
    let jobs = if engine.kind == EngineKind::ParallelSharded { engine.jobs } else { 0 };
    format!("{order}-{policy}-{kind}-j{jobs}-{reorder}")
}

/// File name of the `latest` pointer: sanitized net name plus the option
/// tag carried by `key` (everything after the 32-digit hash).
fn latest_pointer(net_name: &str, key: &str) -> String {
    let opts = &key[33..];
    let sanitized: String = net_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect();
    format!("latest-{sanitized}-{opts}")
}

/// Parses a stored canonical snapshot: the marker line restores the
/// declared initial code that the `.g` dialect cannot express.
fn parse_snapshot(text: &str) -> Option<Stg> {
    let (first, rest) = text.split_once('\n')?;
    let declared = first.strip_prefix("# stgcheck-snapshot-v1 declared-code=")?;
    let mut stg = parse_g(rest).ok()?;
    if declared != "-" {
        stg.set_initial_code(Some(Code(declared.parse().ok()?)));
    }
    Some(stg)
}

/// The structural monotone-edit rule (see `docs/persistent-store.md`):
/// `new` extends `old` purely by *adding* transitions (and the places
/// wired to them) when
///
/// * the signal interface is the identical `(name, kind)` sequence —
///   codes are index-based, so even a reordering breaks compatibility;
/// * every old place exists in `new` by name with the same initial
///   marking;
/// * every old transition exists in `new` with the same label and
///   exactly the same pre/post arc multisets (by place name and weight).
///
/// Under these conditions every firing sequence of `old` replays
/// verbatim in `new` while the added places keep their initial tokens,
/// so `Reached_old × init(new places) ⊆ Reached_new` and the old reached
/// set is a sound traversal seed. Anything else — removed or rewired
/// transitions, changed markings — fails the check and the caller falls
/// back to scratch, never to an approximation.
pub(crate) fn monotone_extension(old: &Stg, new: &Stg) -> bool {
    if old.num_signals() != new.num_signals() {
        return false;
    }
    for (a, b) in old.signals().zip(new.signals()) {
        if old.signal_name(a) != new.signal_name(b) || old.signal_kind(a) != new.signal_kind(b) {
            return false;
        }
    }
    let (old_net, new_net) = (old.net(), new.net());
    let new_places: HashMap<&str, PlaceId> =
        new_net.places().map(|p| (new_net.place_name(p), p)).collect();
    for p in old_net.places() {
        let Some(&q) = new_places.get(old_net.place_name(p)) else {
            return false;
        };
        if old_net.initial_tokens(p) != new_net.initial_tokens(q) {
            return false;
        }
    }
    let new_by_label: HashMap<String, TransId> =
        new_net.transitions().map(|t| (new.label_string(t), t)).collect();
    let arc_names = |net: &PetriNet, arcs: &[(PlaceId, u32)]| -> Vec<(String, u32)> {
        let mut v: Vec<(String, u32)> =
            arcs.iter().map(|&(p, w)| (net.place_name(p).to_string(), w)).collect();
        v.sort();
        v
    };
    for t in old_net.transitions() {
        let Some(&u) = new_by_label.get(&old.label_string(t)) else {
            return false;
        };
        if arc_names(old_net, old_net.preset(t)) != arc_names(new_net, new_net.preset(u))
            || arc_names(old_net, old_net.postset(t)) != arc_names(new_net, new_net.postset(u))
        {
            return false;
        }
    }
    true
}

/// The place names of `old` — the complement (against `new`) is what an
/// incremental seed must pin to the initial marking.
pub(crate) fn place_names(stg: &Stg) -> HashSet<String> {
    stg.net().places().map(|p| stg.net().place_name(p).to_string()).collect()
}

// ---------------------------------------------------------------------------
// Report (de)serialization: a hand-rolled line format. Loading is
// all-or-nothing — any surprise yields `None`, which the store treats as
// a cache miss.
// ---------------------------------------------------------------------------

/// Percent-escapes the separator characters of the report format.
fn enc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '|' => out.push_str("%7C"),
            ',' => out.push_str("%2C"),
            _ => out.push(c),
        }
    }
    out
}

fn dec(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()? as char);
            i += 3;
        } else {
            let c = s[i..].chars().next()?;
            out.push(c);
            i += c.len_utf8();
        }
    }
    Some(out)
}

fn wit_str(w: &StateWitness) -> String {
    let places: Vec<String> = w.marked_places.iter().map(|p| enc(p)).collect();
    format!("{}|{}", enc(&w.code), places.join(","))
}

fn wit_parse(s: &str) -> Option<StateWitness> {
    let (code, places) = s.split_once('|')?;
    let marked_places =
        places.split(',').filter(|p| !p.is_empty()).map(dec).collect::<Option<Vec<String>>>()?;
    Some(StateWitness { marked_places, code: dec(code)? })
}

fn opt_wit_str(w: &Option<StateWitness>) -> String {
    match w {
        Some(w) => wit_str(w),
        None => "-".to_string(),
    }
}

fn opt_wit_parse(s: &str) -> Option<Option<StateWitness>> {
    if s == "-" {
        Some(None)
    } else {
        wit_parse(s).map(Some)
    }
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "1"
    } else {
        "0"
    }
}

fn bool_parse(s: &str) -> Option<bool> {
    match s {
        "1" => Some(true),
        "0" => Some(false),
        _ => None,
    }
}

fn verdict_str(v: Implementability) -> &'static str {
    match v {
        Implementability::Gate => "gate",
        Implementability::InputOutput => "io",
        Implementability::SpeedIndependent => "si",
        Implementability::NotImplementable => "not",
    }
}

fn verdict_parse(s: &str) -> Option<Implementability> {
    match s {
        "gate" => Some(Implementability::Gate),
        "io" => Some(Implementability::InputOutput),
        "si" => Some(Implementability::SpeedIndependent),
        "not" => Some(Implementability::NotImplementable),
        _ => None,
    }
}

/// Length of the [`seal`] line.
const SEAL_LEN: usize = "sum 0123456789abcdef\n".len();

/// The line that ends a stored report: `sum` and the FNV-1a-64 of every
/// byte before it (the checksum of the request journal and of v3
/// checkpoints), in 16 lowercase hex digits.
fn seal(body: &[u8]) -> String {
    format!("sum {:016x}\n", fnv64(body))
}

/// The body of a stored report when its last line is exactly the
/// [`seal`] of everything before it, else `None`. The check runs on the
/// raw bytes before anything is parsed, so an edit that keeps every
/// index in range is a miss too.
fn unseal(bytes: &[u8]) -> Option<&str> {
    let (body, sum) = bytes.split_at(bytes.len().checked_sub(SEAL_LEN)?);
    if sum != seal(body).as_bytes() {
        return None;
    }
    std::str::from_utf8(body).ok()
}

/// Renders a report in the versioned line format. `f64` fields use
/// Rust's shortest round-trip formatting, so loads are bit-exact.
pub(crate) fn report_to_text(r: &SymbolicReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("stgcheck-report-v3\n");
    let _ = writeln!(out, "name {}", enc(&r.name));
    let _ = writeln!(out, "engine {}", enc(&r.engine));
    let _ = writeln!(out, "dims {} {}", r.places, r.signals);
    let _ = writeln!(out, "states {}", r.num_states);
    let _ = writeln!(out, "bdd {} {} {}", r.bdd_peak, r.sift_passes, r.bdd_final);
    let _ = writeln!(out, "gc {} {}", r.gc_collections, r.gc_pause_ms);
    let t = &r.traversal;
    let _ = writeln!(
        out,
        "trav {} {} {} {} {} {}",
        t.iterations, t.peak_nodes, t.final_nodes, t.sift_passes, t.num_states, t.seconds
    );
    let _ = writeln!(out, "code {}", r.initial_code.0);
    let _ = writeln!(out, "deadlock {}", opt_wit_str(&r.deadlock));
    for v in &r.safety {
        let _ = writeln!(
            out,
            "safety {} {} {}",
            v.transition.index(),
            v.place.index(),
            wit_str(&v.witness)
        );
    }
    for v in &r.consistency {
        let pol = if v.polarity == Polarity::Rise { "R" } else { "F" };
        let _ = writeln!(out, "consistency {} {pol} {}", v.signal.index(), wit_str(&v.witness));
    }
    for v in &r.persistency {
        let _ = writeln!(
            out,
            "persistency {} {} {}",
            v.fired.index(),
            v.disabled.index(),
            wit_str(&v.witness)
        );
    }
    for v in &r.transition_persistency {
        let _ = writeln!(
            out,
            "transpers {} {} {}",
            v.fired.index(),
            v.disabled.index(),
            wit_str(&v.witness)
        );
    }
    for v in &r.fake_violations {
        let _ = writeln!(
            out,
            "fake {} {} {} {} {}",
            v.t1.index(),
            v.t2.index(),
            bool_str(v.co_enabled),
            bool_str(v.fake_1_by_2),
            bool_str(v.fake_2_by_1)
        );
    }
    let _ = writeln!(out, "deterministic {}", bool_str(r.deterministic));
    for a in &r.csc {
        let _ = writeln!(
            out,
            "csc {} {} {}",
            a.signal.index(),
            bool_str(a.holds),
            opt_wit_str(&a.witness)
        );
    }
    for s in &r.irreducible_signals {
        let _ = writeln!(out, "irreducible {}", s.index());
    }
    let tm = &r.times;
    let _ = writeln!(
        out,
        "times {} {} {} {} {}",
        tm.traversal_consistency, tm.persistency, tm.commutativity, tm.csc, tm.total
    );
    let _ = writeln!(out, "verdict {}", verdict_str(r.verdict));
    out.push_str("end\n");
    out
}

/// `true` when `r` has `stg`'s dimensions and every place, transition
/// and signal index in it names one of `stg`'s: the check that keeps a
/// corrupted report from reaching code that indexes the net with it.
fn report_fits(r: &SymbolicReport, stg: &Stg) -> bool {
    let net = stg.net();
    let t = |t: TransId| t.index() < net.num_transitions();
    let s = |s: SignalId| s.index() < stg.num_signals();
    (r.places, r.signals) == (net.num_places(), stg.num_signals())
        && r.safety.iter().all(|v| t(v.transition) && v.place.index() < net.num_places())
        && r.consistency.iter().all(|v| s(v.signal))
        && r.persistency.iter().all(|v| t(v.fired) && s(v.disabled))
        && r.transition_persistency.iter().all(|v| t(v.fired) && t(v.disabled))
        && r.fake_violations.iter().all(|v| t(v.t1) && t(v.t2))
        && r.csc.iter().all(|a| s(a.signal))
        && r.irreducible_signals.iter().all(|&x| s(x))
}

/// Parses [`report_to_text`] output; `None` on any malformation. Whether
/// the indices fit a net is [`report_fits`]' question.
///
/// Loaded [`CscAnalysis`] entries carry a *placeholder* `contradictory`
/// BDD — `FALSE` when CSC holds (which is exact: `holds` is defined as
/// the contradictory set being empty) and `TRUE` otherwise, preserving
/// the `holds ⇔ contradictory.is_false()` invariant without a manager to
/// rebuild the real set in.
pub(crate) fn report_from_text(text: &str) -> Option<SymbolicReport> {
    let mut lines = text.lines();
    if lines.next()? != "stgcheck-report-v3" {
        return None;
    }
    let mut name = None;
    let mut engine = None;
    let mut dims = None;
    let mut states = None;
    let mut bdd = None;
    let mut gc = None;
    let mut trav = None;
    let mut code = None;
    let mut deadlock = None;
    let mut safety = Vec::new();
    let mut consistency = Vec::new();
    let mut persistency = Vec::new();
    let mut transition_persistency = Vec::new();
    let mut fake_violations = Vec::new();
    let mut deterministic = None;
    let mut csc = Vec::new();
    let mut irreducible_signals = Vec::new();
    let mut times = None;
    let mut verdict = None;
    let mut complete = false;
    for line in lines {
        if complete {
            return None; // trailing junk after `end`
        }
        let mut parts = line.split(' ');
        let tag = parts.next()?;
        let rest: Vec<&str> = parts.collect();
        match (tag, rest.as_slice()) {
            ("name", [n]) => name = Some(dec(n)?),
            ("engine", [e]) => engine = Some(dec(e)?),
            ("dims", [p, s]) => dims = Some((p.parse().ok()?, s.parse().ok()?)),
            ("states", [n]) => states = Some(n.parse::<u128>().ok()?),
            ("bdd", [a, b, c]) => {
                bdd = Some((a.parse().ok()?, b.parse().ok()?, c.parse().ok()?));
            }
            ("gc", [n, ms]) => gc = Some((n.parse().ok()?, ms.parse().ok()?)),
            ("trav", [a, b, c, d, e, f]) => {
                trav = Some(TraversalStats {
                    iterations: a.parse().ok()?,
                    peak_nodes: b.parse().ok()?,
                    final_nodes: c.parse().ok()?,
                    sift_passes: d.parse().ok()?,
                    num_states: e.parse().ok()?,
                    seconds: f.parse().ok()?,
                });
            }
            ("code", [n]) => code = Some(Code(n.parse().ok()?)),
            ("deadlock", [w]) => deadlock = Some(opt_wit_parse(w)?),
            ("safety", [t, p, w]) => safety.push(SafetyViolation {
                transition: TransId::from_index(t.parse().ok()?),
                place: PlaceId::from_index(p.parse().ok()?),
                witness: wit_parse(w)?,
            }),
            ("consistency", [s, pol, w]) => consistency.push(ConsistencyViolation {
                signal: SignalId::from_index(s.parse().ok()?),
                polarity: match *pol {
                    "R" => Polarity::Rise,
                    "F" => Polarity::Fall,
                    _ => return None,
                },
                witness: wit_parse(w)?,
            }),
            ("persistency", [t, s, w]) => persistency.push(SymSignalViolation {
                fired: TransId::from_index(t.parse().ok()?),
                disabled: SignalId::from_index(s.parse().ok()?),
                witness: wit_parse(w)?,
            }),
            ("transpers", [t, u, w]) => transition_persistency.push(SymTransViolation {
                fired: TransId::from_index(t.parse().ok()?),
                disabled: TransId::from_index(u.parse().ok()?),
                witness: wit_parse(w)?,
            }),
            ("fake", [t1, t2, co, f12, f21]) => fake_violations.push(FakeConflict {
                t1: TransId::from_index(t1.parse().ok()?),
                t2: TransId::from_index(t2.parse().ok()?),
                co_enabled: bool_parse(co)?,
                fake_1_by_2: bool_parse(f12)?,
                fake_2_by_1: bool_parse(f21)?,
            }),
            ("deterministic", [b]) => deterministic = Some(bool_parse(b)?),
            ("csc", [s, h, w]) => {
                let holds = bool_parse(h)?;
                csc.push(CscAnalysis {
                    signal: SignalId::from_index(s.parse().ok()?),
                    holds,
                    contradictory: if holds { Bdd::FALSE } else { Bdd::TRUE },
                    witness: opt_wit_parse(w)?,
                });
            }
            ("irreducible", [s]) => {
                irreducible_signals.push(SignalId::from_index(s.parse().ok()?));
            }
            ("times", [a, b, c, d, e]) => {
                times = Some(PhaseTimes {
                    traversal_consistency: a.parse().ok()?,
                    persistency: b.parse().ok()?,
                    commutativity: c.parse().ok()?,
                    csc: d.parse().ok()?,
                    total: e.parse().ok()?,
                });
            }
            ("verdict", [v]) => verdict = Some(verdict_parse(v)?),
            ("end", []) => complete = true,
            _ => return None,
        }
    }
    if !complete {
        return None; // truncated
    }
    let (places, signals) = dims?;
    let (bdd_peak, sift_passes, bdd_final) = bdd?;
    let (gc_collections, gc_pause_ms) = gc?;
    Some(SymbolicReport {
        name: name?,
        engine: engine?,
        places,
        signals,
        num_states: states?,
        bdd_peak,
        sift_passes,
        gc_collections,
        gc_pause_ms,
        bdd_final,
        traversal: trav?,
        initial_code: code?,
        deadlock: deadlock?,
        safety,
        consistency,
        persistency,
        transition_persistency,
        fake_violations,
        deterministic: deterministic?,
        csc,
        irreducible_signals,
        times: times?,
        verdict: verdict?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgcheck_stg::gen;

    fn roundtrip(stg: &Stg) {
        let report = crate::verify(stg, VerifyOptions::default()).unwrap();
        let text = report_to_text(&report);
        let back = report_from_text(&text).expect("round-trip parse");
        // Everything the text format carries must survive bit-exactly.
        assert_eq!(back.name, report.name);
        assert_eq!(back.engine, report.engine);
        assert_eq!(back.num_states, report.num_states);
        assert_eq!(back.verdict, report.verdict);
        assert_eq!(back.initial_code, report.initial_code);
        assert_eq!(back.times.total, report.times.total);
        assert_eq!(back.traversal.seconds, report.traversal.seconds);
        assert_eq!(back.safety.len(), report.safety.len());
        assert_eq!(back.deterministic, report.deterministic);
        assert_eq!(back.csc.len(), report.csc.len());
        for (a, b) in back.csc.iter().zip(&report.csc) {
            assert_eq!(a.holds, b.holds);
            assert_eq!(a.witness, b.witness);
            assert_eq!(a.holds, a.contradictory.is_false(), "placeholder invariant");
        }
        assert_eq!(back.irreducible_signals, report.irreducible_signals);
        // And re-rendering is a fixpoint.
        assert_eq!(report_to_text(&back), text);
    }

    #[test]
    fn report_text_round_trips() {
        roundtrip(&gen::muller_pipeline(4));
        roundtrip(&gen::vme_read()); // CSC violations + witnesses
        roundtrip(&gen::nonpersistent_stg()); // persistency violations
        roundtrip(&gen::unsafe_stg()); // safety violations
    }

    #[test]
    fn malformed_reports_are_misses() {
        let report = crate::verify(&gen::muller_pipeline(3), VerifyOptions::default()).unwrap();
        let text = report_to_text(&report);
        assert!(report_from_text(&text).is_some());
        // Truncations (drop the `end` trailer or cut mid-line) are misses.
        for cut in [text.len() - 4, text.len() / 2, 10, 0] {
            assert!(report_from_text(&text[..cut]).is_none(), "cut at {cut}");
        }
        // Unknown tags, bad version and trailing junk are misses.
        assert!(report_from_text(&text.replace("verdict", "verdikt")).is_none());
        assert!(report_from_text(&text.replace("report-v3", "report-v9")).is_none());
        assert!(report_from_text(&format!("{text}junk\n")).is_none());
        // The `gc` line is required and has exactly two fields.
        let gc = text.lines().find(|l| l.starts_with("gc ")).unwrap();
        assert!(report_from_text(&text.replace(&format!("{gc}\n"), "")).is_none());
        assert!(report_from_text(&text.replace(gc, &format!("gc 0 {}", &gc[3..]))).is_none());
        // A report written before the worker-peak column was dropped has
        // a 7-field `trav` line: a clean miss, recomputed cold.
        let trav = text.lines().find(|l| l.starts_with("trav ")).unwrap();
        let f: Vec<&str> = trav.split(' ').collect();
        let seven = format!("{} {} {} 0 {}", f[0], f[1], f[2], f[3..].join(" "));
        assert!(report_from_text(&text.replace(trav, &seven)).is_none());
    }

    #[test]
    fn only_an_intact_seal_unseals() {
        let report = crate::verify(&gen::mutex_element(), VerifyOptions::default()).unwrap();
        let body = report_to_text(&report);
        let sealed = format!("{body}{}", seal(body.as_bytes())).into_bytes();
        assert_eq!(unseal(&sealed), Some(body.as_str()));
        // Flipping any one bit of the body or of the seal, case included.
        for at in 0..sealed.len() {
            for bit in [0, 5] {
                let mut edited = sealed.clone();
                edited[at] ^= 1 << bit;
                assert_eq!(unseal(&edited), None, "byte {at}, bit {bit}");
            }
        }
        for cut in [0, SEAL_LEN - 1, SEAL_LEN, sealed.len() - 1] {
            assert_eq!(unseal(&sealed[..cut]), None, "cut at {cut}");
        }
        assert_eq!(unseal(&[sealed.as_slice(), b"\n"].concat()), None);
        assert_eq!(unseal(body.as_bytes()), None, "an unsealed report");
    }

    #[test]
    fn reports_that_do_not_fit_the_net_are_misses() {
        let stg = gen::nonpersistent_stg();
        let report = crate::verify(&stg, VerifyOptions::default()).unwrap();
        assert!(report_fits(&report, &stg));
        let text = report_to_text(&report);
        let line = text.lines().find(|l| l.starts_with("persistency ")).unwrap();
        let f: Vec<&str> = line.split(' ').collect();
        let nt = stg.net().num_transitions();
        let ns = stg.num_signals();
        let dims = format!("dims {} {}", report.places, report.signals);
        for edited in [
            text.replace(line, &format!("persistency {} {ns} {}", f[1], f[3])),
            text.replace(line, &format!("persistency {nt} {} {}", f[2], f[3])),
            text.replace(&dims, &format!("dims {} {}", report.places + 1, report.signals)),
        ] {
            // Well-formed text, so only the fit against the net rejects it.
            let parsed = report_from_text(&edited).expect("syntactically valid");
            assert!(!report_fits(&parsed, &stg), "{edited}");
        }
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["plain", "with space", "a|b,c", "100%", "tab\there", "nl\nthere", ""] {
            assert_eq!(dec(&enc(s)).as_deref(), Some(s));
        }
        assert_eq!(dec("%zz"), None);
        assert_eq!(dec("%2"), None);
    }

    #[test]
    fn monotone_extension_accepts_pure_additions() {
        // muller_pipeline(3) → muller_pipeline(4) is NOT monotone (the
        // interface grows), but a net against itself trivially is.
        let a = gen::muller_pipeline(3);
        assert!(monotone_extension(&a, &a));
        assert!(!monotone_extension(&a, &gen::muller_pipeline(4)));
        // Different initial marking breaks it.
        let b = gen::mutex_element();
        assert!(monotone_extension(&b, &b));
        assert!(!monotone_extension(&a, &b));
    }

    #[test]
    fn cache_keys_separate_options() {
        let base = VerifyOptions::default();
        let k0 = cache_key(7, &base);
        assert_eq!(k0, "00000000000000000000000000000007-iv-strict-pt-j0-rn");
        let mut sift = base;
        sift.reorder = ReorderMode::Sift;
        assert_ne!(cache_key(7, &sift), k0);
        // Either reorder knob selects the same run, so the same entry.
        let mut engine_sift = base;
        engine_sift.engine.reorder = ReorderMode::Sift;
        assert_eq!(cache_key(7, &engine_sift), cache_key(7, &sift));
        let mut pa = base;
        pa.engine.kind = EngineKind::ParallelSharded;
        assert_ne!(cache_key(7, &pa), k0);
        // `jobs` separates parallel runs only: per-transition ignores it.
        let mut pt_j2 = base;
        pt_j2.engine.jobs = 2;
        assert_eq!(cache_key(7, &pt_j2), k0);
        let (mut pa_j1, mut pa_j2) = (pa, pa);
        pa_j1.engine.jobs = 1;
        pa_j2.engine.jobs = 2;
        assert_ne!(cache_key(7, &pa_j1), cache_key(7, &pa_j2));
        // `clustered` is a spelling of saturation, so it shares its key.
        let with_engine = |name: &str| {
            let mut o = base;
            o.engine.kind = name.parse().unwrap();
            cache_key(7, &o)
        };
        assert_eq!(with_engine("clustered"), with_engine("saturation"));
        assert_ne!(with_engine("saturation"), k0);
        assert_ne!(cache_key(8, &base), k0);
        // The budget never reaches the key: a verdict cached by a
        // generous run serves a tightly-budgeted rerun of the same net.
        let mut tight = base;
        tight.budget = crate::BudgetSpec { max_nodes: 1000, max_steps: 42, ..Default::default() };
        assert_eq!(cache_key(7, &tight), k0);
        // The latest pointer survives hostile names.
        let p = latest_pointer("weird net/name", &k0);
        assert!(p.starts_with("latest-weird_net_name-"));
        assert!(!p.contains('/'));
    }

    /// `--cache-max-mb` eviction drops the oldest `latest-*` pointer
    /// together with every artifact of its hash, then orphans, and stops
    /// as soon as the store fits the cap.
    #[test]
    fn evict_to_cap_drops_oldest_entries_first() {
        let dir = std::env::temp_dir().join(format!("stgcheck-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir, FaultPlan::default()).unwrap();
        let old_hash = format!("{:032x}", 1u128);
        let new_hash = format!("{:032x}", 2u128);
        let kb = vec![b'x'; 1024];
        for (hash, pointer) in [(&old_hash, "latest-old-k"), (&new_hash, "latest-new-k")] {
            std::fs::write(dir.join(format!("{hash}.report")), &kb).unwrap();
            std::fs::write(dir.join(format!("{hash}.reached")), &kb).unwrap();
            std::fs::write(dir.join(format!("{hash}.g")), &kb).unwrap();
            std::fs::write(dir.join(pointer), hash).unwrap();
            // Distinct mtimes order the pointers (filesystem clocks can
            // be coarse, so a real gap, not a yield).
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        std::fs::write(dir.join("orphan.bin"), &kb).unwrap();

        // Both entries fit: nothing happens.
        let notes = store.evict_to_cap(1 << 20).unwrap();
        assert!(notes.is_empty(), "{notes:?}");

        // 4 KiB cap: the old entry (3 KiB + pointer) must go, the new
        // one (plus the orphan) fits and stays.
        let notes = store.evict_to_cap(4 * 1024 + 128).unwrap();
        assert!(notes.iter().any(|n| n.contains("latest-old-k")), "{notes:?}");
        assert!(!dir.join(format!("{old_hash}.report")).exists());
        assert!(!dir.join("latest-old-k").exists());
        assert!(dir.join(format!("{new_hash}.report")).exists());
        assert!(dir.join("orphan.bin").exists());

        // 1 KiB cap: the new entry goes too, then orphans oldest-first.
        let notes = store.evict_to_cap(1024).unwrap();
        assert!(notes.iter().any(|n| n.contains("latest-new-k")), "{notes:?}");
        assert!(!dir.join(format!("{new_hash}.g")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
