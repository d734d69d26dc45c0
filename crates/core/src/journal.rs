//! Crash-safe request journal for `stgcheck serve`.
//!
//! The daemon journals every *accepted* verify request before running it
//! and marks it *answered* after the response reaches the client. After a
//! crash (power cut, SIGKILL), `stgcheck serve --recover` replays every
//! accepted-but-unanswered record so no admitted request is silently
//! lost. Because the answer mark is written *after* the response, a crash
//! between the two replays a request whose answer the client may already
//! hold — at-least-once semantics; the result cache makes the replay
//! cheap and the verdict identical.
//!
//! ## On-disk format
//!
//! One file per record, so a crash can tear at most the record being
//! written — and even that is impossible by construction, because every
//! record is written tmp-then-rename (the same discipline as the v3
//! checkpoint store). Within a journal directory:
//!
//! ```text
//! a-0000000042.rec     accept record for sequence number 42
//! z-0000000042.rec     answer record for sequence number 42
//! ```
//!
//! Each record is the header line `stgcheck-journal-v1`, the payload
//! lines, and an 8-byte little-endian FNV-1a-64 checksum of everything
//! before it — the same trailer scheme the v3 checkpoint format uses. An
//! accept payload is the request id (JSON-escaped, so it fits on one
//! line) followed by the verbatim request line; replay simply re-parses
//! that line. An answer payload is the word `answer` and the sequence
//! number.
//!
//! Corrupt or unreadable records are *skipped with a note*, never
//! trusted and never fatal: a torn accept loses at most that one request
//! (which was by definition never answered under this scheme only if the
//! rename itself was torn — which rename prevents), and a torn answer
//! merely causes one duplicate replay.
//!
//! The `journal-write` and `journal-read` failpoints of the daemon's
//! [`FaultPlan`] fault the record writer and reader; the serve layer must
//! degrade (note + keep answering) on write faults and skip-with-note on
//! read faults.

use std::io;
use std::path::{Path, PathBuf};

use stgcheck_bdd::{fnv64, FaultPlan};

use crate::protocol::json_escape;

const HEADER: &str = "stgcheck-journal-v1";

/// Appends the checksum trailer and writes the record tmp-then-rename.
fn write_record(path: &Path, body: &str, faults: &FaultPlan) -> io::Result<()> {
    if faults.hit("journal-write") {
        return Err(io::Error::other("failpoint journal-write armed"));
    }
    let mut bytes = body.as_bytes().to_vec();
    bytes.extend_from_slice(&fnv64(body.as_bytes()).to_le_bytes());
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

/// Reads a record, verifies the trailer, returns the body text.
fn read_record(path: &Path, faults: &FaultPlan) -> Result<String, String> {
    if faults.hit("journal-read") {
        return Err("failpoint journal-read armed".to_string());
    }
    let bytes = std::fs::read(path).map_err(|e| format!("read: {e}"))?;
    if bytes.len() < 8 {
        return Err("truncated (shorter than the checksum trailer)".to_string());
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv64(body) != want {
        return Err("checksum mismatch".to_string());
    }
    let text = std::str::from_utf8(body).map_err(|_| "invalid UTF-8 body".to_string())?;
    match text.strip_prefix(HEADER) {
        Some(rest) if rest.starts_with('\n') => Ok(rest[1..].to_string()),
        _ => Err(format!("bad header (expected `{HEADER}`)")),
    }
}

fn accept_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("a-{seq:010}.rec"))
}

fn answer_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("z-{seq:010}.rec"))
}

/// Parses `a-0000000042.rec` / `z-0000000042.rec` names into
/// (kind, seq).
fn parse_name(name: &str) -> Option<(u8, u64)> {
    let rest = name.strip_suffix(".rec")?;
    let (kind, digits) = match rest.as_bytes().first()? {
        b'a' => (b'a', rest.strip_prefix("a-")?),
        b'z' => (b'z', rest.strip_prefix("z-")?),
        _ => return None,
    };
    digits.parse().ok().map(|seq| (kind, seq))
}

/// An open journal: the daemon's write handle.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    next_seq: u64,
    /// Fires the `journal-write` fault.
    faults: FaultPlan,
}

impl Journal {
    /// Opens (creating if needed) the journal directory and positions the
    /// sequence counter after the highest existing record, so recovery
    /// and continued operation never collide. Record writes hit the
    /// `journal-write` failpoint of `faults`.
    ///
    /// # Errors
    ///
    /// Directory creation or listing failures.
    pub fn open(dir: &Path, faults: FaultPlan) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let mut max_seq = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some((_, seq)) = entry.file_name().to_str().and_then(parse_name) {
                max_seq = max_seq.max(seq);
            }
        }
        Ok(Journal { dir: dir.to_path_buf(), next_seq: max_seq + 1, faults })
    }

    /// Journals an accepted request (id + verbatim request line) and
    /// returns its sequence number.
    ///
    /// # Errors
    ///
    /// I/O or an armed `journal-write` failpoint. The caller degrades:
    /// the request still runs and is answered, it just loses crash
    /// protection (and says so in the response notes).
    pub fn record_accept(&mut self, id: &str, line: &str) -> io::Result<u64> {
        let seq = self.next_seq;
        let body = format!("{HEADER}\n{}\n{line}\n", json_escape(id));
        write_record(&accept_path(&self.dir, seq), &body, &self.faults)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Marks sequence `seq` answered. Called after the response has been
    /// written to the client, so a crash between the two causes a
    /// duplicate replay rather than a lost answer.
    ///
    /// # Errors
    ///
    /// I/O or an armed `journal-write` failpoint; same degradation
    /// contract as [`Journal::record_accept`].
    pub fn record_answer(&self, seq: u64) -> io::Result<()> {
        let body = format!("{HEADER}\nanswer {seq}\n");
        write_record(&answer_path(&self.dir, seq), &body, &self.faults)
    }

    /// Removes every record after a clean drain: nothing is unanswered,
    /// so the next start has nothing to replay.
    ///
    /// # Errors
    ///
    /// Directory listing or unlink failures.
    pub fn clear(&self) -> io::Result<()> {
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if parse_name(name).is_some() || name.ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

/// One accepted-but-unanswered request recovered from a journal.
#[derive(Clone, Debug, PartialEq)]
pub struct Recovered {
    /// Journal sequence number (replay re-answers in this order).
    pub seq: u64,
    /// The request id (unescaped).
    pub id: String,
    /// The verbatim original request line, ready to re-parse.
    pub line: String,
}

/// Scans a journal directory for accepted-but-unanswered requests.
///
/// Returns the replayable records in sequence order plus human-readable
/// notes for every record that was skipped (corrupt, unreadable, or
/// faulted by the `journal-read` failpoint of `faults`). Skipping is
/// always safe: a lost accept means one unreplayed request, never a
/// wrong answer.
pub fn unanswered(dir: &Path, faults: &FaultPlan) -> (Vec<Recovered>, Vec<String>) {
    let mut notes = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            notes.push(format!("journal dir {}: {e}", dir.display()));
            return (Vec::new(), notes);
        }
    };
    let mut accepts = Vec::new();
    let mut answered = std::collections::HashSet::new();
    for entry in entries.flatten() {
        match entry.file_name().to_str().and_then(parse_name) {
            Some((b'a', seq)) => accepts.push(seq),
            Some((b'z', seq)) => {
                answered.insert(seq);
            }
            _ => {}
        }
    }
    accepts.sort_unstable();
    let mut out = Vec::new();
    for seq in accepts {
        if answered.contains(&seq) {
            continue;
        }
        let path = accept_path(dir, seq);
        let body = match read_record(&path, faults) {
            Ok(body) => body,
            Err(e) => {
                notes.push(format!("journal record {}: {e}; skipped", path.display()));
                continue;
            }
        };
        // Body: escaped id line, then the verbatim request line.
        let Some((escaped_id, rest)) = body.split_once('\n') else {
            notes.push(format!("journal record {}: missing id line; skipped", path.display()));
            continue;
        };
        let line = rest.strip_suffix('\n').unwrap_or(rest).to_string();
        let id = match crate::protocol::parse_json(&format!("\"{escaped_id}\"")) {
            Ok(crate::protocol::Json::Str(id)) => id,
            _ => {
                notes.push(format!("journal record {}: bad id encoding; skipped", path.display()));
                continue;
            }
        };
        out.push(Recovered { seq, id, line });
    }
    (out, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stgcheck-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn accept_answer_replay_roundtrip() {
        let dir = scratch("roundtrip");
        let mut j = Journal::open(&dir, FaultPlan::default()).unwrap();
        let s1 = j.record_accept("r1", r#"{"id":"r1","net":"x"}"#).unwrap();
        let s2 = j.record_accept("r\"2\nodd", r#"{"id":"r2","net":"y"}"#).unwrap();
        let s3 = j.record_accept("r3", r#"{"id":"r3","net":"z"}"#).unwrap();
        assert!(s1 < s2 && s2 < s3);
        j.record_answer(s2).unwrap();

        let (replay, notes) = unanswered(&dir, &FaultPlan::default());
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0].seq, s1);
        assert_eq!(replay[0].id, "r1");
        assert_eq!(replay[0].line, r#"{"id":"r1","net":"x"}"#);
        assert_eq!(replay[1].id, "r3");

        // Reopening continues the sequence instead of reusing numbers.
        let j2 = Journal::open(&dir, FaultPlan::default()).unwrap();
        assert!(j2.next_seq > s3);

        j2.clear().unwrap();
        let (replay, notes) = unanswered(&dir, &FaultPlan::default());
        assert!(replay.is_empty() && notes.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_skipped_with_notes() {
        let dir = scratch("corrupt");
        let mut j = Journal::open(&dir, FaultPlan::default()).unwrap();
        let s1 = j.record_accept("ok", r#"{"id":"ok","net":"x"}"#).unwrap();
        let s2 = j.record_accept("torn", r#"{"id":"torn","net":"y"}"#).unwrap();

        // Flip a byte in the middle of the second record: the checksum
        // trailer must reject it, and recovery must keep the first.
        let path = accept_path(&dir, s2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (replay, notes) = unanswered(&dir, &FaultPlan::default());
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].seq, s1);
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("checksum mismatch"), "{notes:?}");

        // A truncated record (shorter than the trailer) is also a skip.
        std::fs::write(accept_path(&dir, 99), b"abc").unwrap();
        let (replay, notes) = unanswered(&dir, &FaultPlan::default());
        assert_eq!(replay.len(), 1);
        assert!(notes.iter().any(|n| n.contains("truncated")), "{notes:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_failpoints_fault_the_seams() {
        let dir = scratch("failpoints");
        let disarmed = FaultPlan::default();
        let mut j = Journal::open(&dir, disarmed.clone()).unwrap();
        let s1 = j.record_accept("r1", r#"{"id":"r1","net":"x"}"#).unwrap();

        let write_fault = FaultPlan::parse("journal-write").unwrap();
        let mut faulted = Journal::open(&dir, write_fault).unwrap();
        assert!(faulted.record_accept("r2", "{}").is_err());
        assert!(faulted.record_answer(s1).is_err());
        assert_eq!(faulted.next_seq, s1 + 1);

        // The failed accept consumed no sequence number and left no
        // partial record — recovery sees exactly the one good record.
        let (replay, notes) = unanswered(&dir, &disarmed);
        assert_eq!((replay.len(), notes.len()), (1, 0), "{notes:?}");

        let read_fault = FaultPlan::parse("journal-read").unwrap();
        let (replay, notes) = unanswered(&dir, &read_fault);
        assert!(replay.is_empty());
        assert!(notes.iter().any(|n| n.contains("journal-read")), "{notes:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
