//! Untrusted input never panics. Seeded mutations of every
//! `benchmarks/*.g` net go into `parse_g`, and every net that still
//! parses goes on to `verify` under a small budget; mutated valid request
//! lines go into the `serve` protocol parser.
//!
//! A case fails on a panic only: an error result is the right answer to
//! garbage. The vendored proptest derives every case from the test name
//! and the case index, so a failure reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use stgcheck::core::protocol::parse_request;
use stgcheck::core::{verify, BudgetSpec, VerifyOptions};
use stgcheck::stg::parse_g;

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
    r#"{"id":"r2","op":"verify","net":".model hs\n.inputs r\n.outputs a\n.graph\nr+ a+\na+ r-\nr- a-\na- r+\n.marking { <a-,r+> }\n.end\n","engine":"saturation","reorder":"auto","order":"declaration","jobs":2,"arbitration":true}"#,
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

/// One to three random edits of `seed`, as text.
fn mutated(seed: &[u8], mut rng: TestRng, words: bool) -> String {
    let mut text = seed.to_vec();
    for _ in 0..1 + below(&mut rng, 3) {
        mutate_once(&mut text, &mut rng, words);
    }
    String::from_utf8_lossy(&text).into_owned()
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
