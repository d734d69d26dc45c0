//! Untrusted input never panics. Seeded mutations of every
//! `benchmarks/*.g` net go into `parse_g`, and every net that still
//! parses goes on to `verify` under a small budget; mutated valid request
//! lines go into the `serve` protocol parser. The same edits applied to
//! on-disk artifacts — stored reports of the result cache and `serve`
//! journal records — must leave a miss (a cold recompute, a skipped
//! record) unless they change no byte.
//!
//! A case fails on a panic, or on an edited artifact that is used: an
//! error result is the right answer to garbage. The vendored proptest
//! derives every case from the test name and the case index, so a
//! failure reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use stgcheck::bdd::fnv64;
use stgcheck::core::journal::{unanswered, Journal};
use stgcheck::core::protocol::parse_request;
use stgcheck::core::{
    verify, verify_persistent, BudgetSpec, CacheStatus, FaultPlan, PersistOptions, VerifyOptions,
};
use stgcheck::stg::{gen, parse_g, Stg};

mod common;

/// The `.g` files of `benchmarks/`, in name order.
fn g_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("benchmarks/ is readable")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "g"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "benchmarks/ holds .g nets");
        paths.iter().map(|p| std::fs::read(p).expect("net is readable")).collect()
    })
}

/// Valid request lines covering every op and every verify field.
const REQUESTS: &[&str] = &[
    r#"{"op":"ping","id":"p0"}"#,
    r#"{"op":"cancel","target":"r2"}"#,
    r#"{"id":"r1","net_path":"benchmarks/par_join.g"}"#,
    r#"{"id":"r2","op":"verify","net":".model hs\n.inputs r\n.outputs a\n.graph\nr+ a+\na+ r-\nr- a-\na- r+\n.marking { <a-,r+> }\n.end\n","engine":"saturation","reorder":"auto","order":"declaration","jobs":1,"arbitration":true}"#,
    r#"{"id":"r3","net_path":"benchmarks/mutex_3.g","timeout_s":1e10,"max_nodes":100000,"max_steps":5000,"fallback":false}"#,
];

/// A random index below `n` (`n > 0`).
fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One random edit of `text`: flip a bit, delete a short run, truncate,
/// swap two bytes, or repeat a piece — a whitespace-separated word when
/// `words` (which repeats arcs, places and signals in `.g` text), else a
/// run of up to four bytes.
fn mutate_once(text: &mut Vec<u8>, rng: &mut TestRng, words: bool) {
    if text.is_empty() {
        return;
    }
    let at = below(rng, text.len());
    match below(rng, 5) {
        0 => text[at] ^= 1u8 << below(rng, 8),
        1 => {
            let end = (at + 1 + below(rng, 8)).min(text.len());
            text.drain(at..end);
        }
        2 => text.truncate(at),
        3 => {
            let other = below(rng, text.len());
            text.swap(at, other);
        }
        _ if words => {
            let is_space = |b: &u8| b.is_ascii_whitespace();
            let start = text[..at].iter().rposition(is_space).map_or(0, |i| i + 1);
            let end = text[at..].iter().position(is_space).map_or(text.len(), |i| at + i);
            let mut word = text[start..end].to_vec();
            word.insert(0, b' ');
            text.splice(end..end, word);
        }
        _ => {
            let end = (at + 1 + below(rng, 4)).min(text.len());
            let run = text[at..end].to_vec();
            text.splice(end..end, run);
        }
    }
}

/// One to three random edits of `seed`.
fn mutated_bytes(seed: &[u8], mut rng: TestRng, words: bool) -> Vec<u8> {
    let mut text = seed.to_vec();
    for _ in 0..1 + below(&mut rng, 3) {
        mutate_once(&mut text, &mut rng, words);
    }
    text
}

/// One to three random edits of `seed`, as text.
fn mutated(seed: &[u8], rng: TestRng, words: bool) -> String {
    String::from_utf8_lossy(&mutated_bytes(seed, rng, words)).into_owned()
}

fn mutated_g() -> impl Strategy<Value = String> {
    (0..g_corpus().len()).prop_perturb(|i, rng| mutated(&g_corpus()[i], rng, true))
}

fn mutated_request() -> impl Strategy<Value = String> {
    (0..REQUESTS.len()).prop_perturb(|i, rng| mutated(REQUESTS[i].as_bytes(), rng, false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Mutated `.g` text parses or is rejected, and a net that parses
    /// verifies or stops on its budget — never a panic.
    #[test]
    fn mutated_g_text_never_panics(text in mutated_g()) {
        let parsed = catch_unwind(|| parse_g(&text));
        prop_assert!(parsed.is_ok(), "parse_g panicked on {text:?}");
        if let Ok(Ok(stg)) = parsed {
            let opts = VerifyOptions {
                budget: BudgetSpec { max_steps: 50_000, ..BudgetSpec::default() },
                ..VerifyOptions::default()
            };
            let run = catch_unwind(AssertUnwindSafe(|| verify(&stg, opts)));
            prop_assert!(run.is_ok(), "verify panicked on {text:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Mutated request lines resolve to a request or a `bad_request`
    /// message — never a panic.
    #[test]
    fn mutated_request_lines_never_panic(line in mutated_request()) {
        let parsed = catch_unwind(|| parse_request(&line, &VerifyOptions::default()));
        prop_assert!(parsed.is_ok(), "parse_request panicked on {line:?}");
    }
}

/// A fresh scratch directory per artifact kind (tests share one process).
fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("stgcheck-untrusted-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A net whose stored report is edited, with its cache directory, the
/// report file the first (cold) run stored there, that file's bytes and
/// the scratch answer.
struct StoredReport {
    stg: Stg,
    persist: PersistOptions,
    path: PathBuf,
    text: Vec<u8>,
    answer: String,
}

/// Nets whose reports between them carry every kind of index line:
/// mutex-3 (persistency), an unsafe net (safety), a non-persistent one,
/// and two with CSC conflicts (one irreducible).
fn stored_reports() -> &'static [StoredReport] {
    static REPORTS: OnceLock<Vec<StoredReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let nets = [
            common::fixture("mutex_3.g"),
            gen::unsafe_stg(),
            gen::nonpersistent_stg(),
            gen::vme_read(),
            gen::irreducible_csc_stg(),
        ];
        let base = tmp("reports");
        nets.into_iter()
            .enumerate()
            .map(|(i, stg)| {
                let dir = base.join(i.to_string());
                let persist = PersistOptions { cache_dir: Some(dir.clone()), ..Default::default() };
                let cold = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
                assert_eq!(cold.cache, CacheStatus::Cold);
                let answer = common::answer(cold.report().expect("completes"));
                let path = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .find(|p| p.extension().is_some_and(|x| x == "report"))
                    .expect("the cold run stored a report");
                // Zero the wall-clock fields so that the seed of every edit,
                // and so every case, is the same on every run; then seal
                // the zeroed text again, as the store seals what it writes.
                let text: String = std::fs::read_to_string(&path)
                    .unwrap()
                    .lines()
                    .filter(|line| !line.starts_with("sum "))
                    .map(|line| match line.split(' ').collect::<Vec<_>>().as_mut_slice() {
                        ["times", ..] => "times 0 0 0 0 0\n".to_string(),
                        [tag @ ("trav" | "gc"), fields @ ..] => {
                            *fields.last_mut().unwrap() = "0";
                            format!("{tag} {}\n", fields.join(" "))
                        }
                        _ => format!("{line}\n"),
                    })
                    .collect();
                let text = format!("{text}sum {:016x}\n", fnv64(text.as_bytes()));
                std::fs::write(&path, &text).unwrap();
                let text = text.into_bytes();
                StoredReport { stg, persist, path, text, answer }
            })
            .collect()
    })
}

fn edited_report() -> impl Strategy<Value = (usize, Vec<u8>)> {
    (0..stored_reports().len())
        .prop_perturb(|i, rng| (i, mutated_bytes(&stored_reports()[i].text, rng, true)))
}

/// A `serve` journal holding one accepted request, and that record's
/// path and bytes.
fn journal_record() -> &'static (PathBuf, PathBuf, Vec<u8>) {
    static RECORD: OnceLock<(PathBuf, PathBuf, Vec<u8>)> = OnceLock::new();
    RECORD.get_or_init(|| {
        let dir = tmp("journal");
        let mut journal = Journal::open(&dir, FaultPlan::default()).unwrap();
        journal.record_accept("r3", REQUESTS[4]).unwrap();
        let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        (dir, path, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Seeded edits of a stored report: the seal rejects every edit that
    /// changes a byte, so the rerun recomputes the scratch answer cold;
    /// an edit that changes nothing is a warm hit with that answer. Never
    /// a panic.
    #[test]
    fn edited_stored_reports_are_misses_or_fit_the_net(case in edited_report()) {
        let (i, text) = case;
        let stored = &stored_reports()[i];
        std::fs::write(&stored.path, &text).unwrap();
        let run = catch_unwind(|| {
            verify_persistent(&stored.stg, VerifyOptions::default(), &stored.persist)
        });
        prop_assert!(run.is_ok(), "verify panicked on {:?}", String::from_utf8_lossy(&text));
        let run = run.unwrap().unwrap();
        let expected = if text == stored.text { CacheStatus::Warm } else { CacheStatus::Cold };
        prop_assert_eq!(run.cache, expected, "{:?}", String::from_utf8_lossy(&text));
        let report = run.report().expect("completes");
        prop_assert_eq!(common::answer(report), stored.answer.clone());
    }

    /// Seeded edits of a journal record: the checksum trailer rejects
    /// every edit that changes a byte, so recovery skips the record with
    /// a note; an edit that changes nothing replays the request.
    #[test]
    fn edited_journal_records_are_skipped(bytes in Just(()).prop_perturb(|_, rng| {
        mutated_bytes(&journal_record().2, rng, false)
    })) {
        let (dir, path, original) = journal_record();
        std::fs::write(path, &bytes).unwrap();
        let recovered = catch_unwind(|| unanswered(dir, &FaultPlan::default()));
        prop_assert!(recovered.is_ok(), "recovery panicked on {:?}", bytes);
        let (records, notes) = recovered.unwrap();
        if bytes == *original {
            prop_assert_eq!(records.len(), 1);
            prop_assert_eq!(records[0].line.as_str(), REQUESTS[4]);
        } else {
            prop_assert!(records.is_empty(), "an edited record was replayed: {:?}", bytes);
            prop_assert_eq!(notes.len(), 1);
        }
    }
}
