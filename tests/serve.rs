//! End-to-end tests of `stgcheck serve`: protocol conformance against
//! the one-shot CLI, concurrent socket clients, cancellation, budget
//! exhaustion, crash recovery via the request journal, signal-driven
//! drains, and the serve-specific failpoints.
#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use stgcheck::core::journal::Journal;
use stgcheck::core::protocol::{json_escape, parse_json, Json};
use stgcheck::core::FaultPlan;
use stgcheck::stg::{gen, write_g};

fn bin() -> PathBuf {
    // Cargo puts integration tests and binaries in the same target dir.
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // test binary name
    path.pop(); // deps/
    path.push(format!("stgcheck{}", std::env::consts::EXE_SUFFIX));
    path
}

fn data(file: &str) -> String {
    format!("{}/examples/data/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn bench(file: &str) -> String {
    format!("{}/benchmarks/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stgcheck-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a deliberately expensive net (under a second in release
/// builds, seconds in debug ones) so a test can observe a request
/// mid-run. Every user of this net pairs it with a `timeout_s` backstop
/// so a broken cancel path fails the test instead of hanging it.
fn slow_net(dir: &Path) -> String {
    let path = dir.join("slow.g");
    std::fs::write(&path, write_g(&gen::master_read(12))).unwrap();
    path.to_string_lossy().into_owned()
}

/// Writes a net that no build profile verifies within a test's fixed
/// wait (master-read-16 runs well past 20 s in release builds), for a
/// test that needs its request still running after that wait. It is only
/// ever interrupted, never run to completion.
fn endless_net(dir: &Path) -> String {
    let path = dir.join("endless.g");
    std::fs::write(&path, write_g(&gen::master_read(16))).unwrap();
    path.to_string_lossy().into_owned()
}

/// A `serve` daemon speaking JSON-lines over stdin/stdout.
struct Serve {
    child: Child,
    stdin: Option<std::process::ChildStdin>,
    reader: BufReader<std::process::ChildStdout>,
}

impl Serve {
    fn spawn(args: &[&str]) -> Serve {
        let mut child = Command::new(bin())
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve spawns");
        let stdin = child.stdin.take().unwrap();
        let reader = BufReader::new(child.stdout.take().unwrap());
        Serve { child, stdin: Some(stdin), reader }
    }

    fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("stdin still open");
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
    }

    /// Reads exactly one response line and parses it.
    fn read_response(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("response line");
        assert!(n > 0, "serve closed stdout before answering");
        parse_json(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
    }

    /// Reads `n` response lines and indexes them by their `id` field
    /// (responses from concurrent workers interleave in any order).
    fn read_by_id(&mut self, n: usize) -> HashMap<String, Json> {
        let mut out = HashMap::new();
        for _ in 0..n {
            let v = self.read_response();
            let id = v.get("id").and_then(Json::as_str).expect("response has id").to_string();
            out.insert(id, v);
        }
        out
    }

    /// Closes stdin (EOF drain) and waits for the daemon to exit.
    fn finish(mut self) -> i32 {
        drop(self.stdin.take());
        let status = self.child.wait().expect("serve exits");
        status.code().expect("serve exit code")
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing `{key}` in {v:?}"))
}

fn num_field(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_num).unwrap_or_else(|| panic!("missing `{key}` in {v:?}"))
}

fn one_shot_exit(file: &str) -> i32 {
    let out = Command::new(bin()).args(["--quiet", file]).output().expect("one-shot runs");
    out.status.code().expect("one-shot exit code")
}

/// Ping, malformed lines, unknown cancel targets, and missing ids all
/// get typed responses without disturbing the daemon; EOF drains clean.
#[test]
fn protocol_errors_are_typed_and_nonfatal() {
    let mut serve = Serve::spawn(&["--workers", "1"]);
    serve.send(r#"{"op":"ping","id":"p1"}"#);
    let pong = serve.read_response();
    assert_eq!(str_field(&pong, "status"), "ok");
    assert_eq!(str_field(&pong, "op"), "ping");
    assert_eq!(str_field(&pong, "id"), "p1");

    serve.send("this is not json");
    let bad = serve.read_response();
    assert_eq!(str_field(&bad, "status"), "error");
    assert_eq!(str_field(&bad, "reason"), "bad_request");
    assert_eq!(num_field(&bad, "exit_code"), 2.0);

    serve.send(r#"{"op":"verify","net":"x"}"#); // no id
    let no_id = serve.read_response();
    assert_eq!(str_field(&no_id, "reason"), "bad_request");

    serve.send(r#"{"op":"cancel","target":"nope"}"#);
    let cancel = serve.read_response();
    assert_eq!(str_field(&cancel, "op"), "cancel");
    assert_eq!(cancel.get("cancelled").and_then(Json::as_bool), Some(false));

    assert_eq!(serve.finish(), 0);
}

/// Requests that once killed the daemon or that name a retired option —
/// an inline net with a repeated arc, a `timeout_s` too large for a
/// deadline, the `bfs` field — are each refused as `bad_request`, and the
/// daemon goes on to answer the request behind them.
#[test]
fn hostile_requests_are_refused_and_the_daemon_keeps_serving() {
    let mut serve = Serve::spawn(&["--workers", "1"]);
    let dup = json_escape(".model dup\n.inputs a\n.graph\na+ a-\na- a+ a+\n.end\n");
    let handshake = data("handshake.g");
    for (id, line, needle) in [
        ("dup", format!(r#"{{"id":"dup","net":"{dup}"}}"#), "duplicate arc `a-` -> `a+`"),
        (
            "huge",
            format!(r#"{{"id":"huge","net_path":"{handshake}","timeout_s":1e300}}"#),
            "`timeout_s` must be at most",
        ),
        (
            "bfs",
            format!(r#"{{"id":"bfs","net_path":"{handshake}","bfs":true}}"#),
            "unknown field `bfs`",
        ),
    ] {
        serve.send(&line);
        let resp = serve.read_response();
        assert_eq!(str_field(&resp, "id"), id, "{resp:?}");
        assert_eq!(str_field(&resp, "reason"), "bad_request", "{resp:?}");
        assert!(str_field(&resp, "error").contains(needle), "{id}: {resp:?}");
    }
    serve.send(r#"{"op":"ping","id":"after"}"#);
    let pong = serve.read_response();
    assert_eq!(str_field(&pong, "id"), "after");
    assert_eq!(str_field(&pong, "status"), "ok");
    assert_eq!(serve.finish(), 0);
}

/// Serve responses agree with the one-shot CLI on verdict string and
/// exit code for every implementability class the examples cover.
#[test]
fn responses_match_one_shot_cli_verdicts() {
    let cases: &[(&str, &str, &str)] = &[
        ("handshake", &data("handshake.g"), "gate-implementable"),
        ("vme", &data("vme_read.g"), "I/O-implementable"),
        ("irreducible", &data("irreducible.g"), "interface change needed"),
    ];
    let mut serve = Serve::spawn(&["--workers", "2"]);
    for (id, path, _) in cases {
        serve.send(&format!(r#"{{"id":"{id}","net_path":"{path}"}}"#));
    }
    let responses = serve.read_by_id(cases.len());
    for (id, path, verdict) in cases {
        let resp = &responses[*id];
        assert_eq!(str_field(resp, "status"), "ok", "{id}: {resp:?}");
        assert!(str_field(resp, "verdict").contains(verdict), "{id}: {resp:?}");
        let cli = one_shot_exit(path);
        assert_eq!(num_field(resp, "exit_code") as i32, cli, "{id}: serve vs one-shot");
    }
    assert_eq!(serve.finish(), 0);
}

/// `"clustered"` and `"cluster"`, the names of the retired clustered
/// engine, are spellings of saturation: such a request is served from the
/// entry a saturation request stored, and a per-transition one is not.
#[test]
fn clustered_engine_spelling_shares_the_saturation_cache_entry() {
    let cache = scratch("clustered").join("cache");
    let mut serve = Serve::spawn(&["--workers", "1", "--cache-dir", &cache.to_string_lossy()]);
    let net = bench("master_read_3.g");
    for (id, engine, status) in [
        ("s", "saturation", "cold"),
        ("c", "clustered", "warm"),
        ("k", "cluster", "warm"),
        ("p", "per-transition", "cold"),
    ] {
        serve.send(&format!(r#"{{"id":"{id}","net_path":"{net}","engine":"{engine}"}}"#));
        let resp = serve.read_response();
        assert_eq!(str_field(&resp, "status"), "ok", "{id}: {resp:?}");
        assert_eq!(str_field(&resp, "cache"), status, "{id}: {resp:?}");
    }
    assert_eq!(serve.finish(), 0);
}

/// Concurrent unix-socket clients: cold runs fill the cache, an
/// identical re-request hits it warm, and duplicate in-flight requests
/// coalesce onto one computation. SIGTERM then drains the idle daemon
/// with exit 3.
#[test]
fn socket_clients_share_cache_and_coalesce() {
    let dir = scratch("socket");
    let sock = dir.join("serve.sock");
    let cache = dir.join("cache");
    let serve = Serve::spawn(&[
        "--listen",
        sock.to_str().unwrap(),
        "--workers",
        "2",
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    let request = |id: &str, path: &str| {
        let mut conn = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        writeln!(conn, r#"{{"id":"{id}","net_path":"{path}"}}"#).unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        parse_json(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
    };

    // Two clients verifying different nets concurrently, both cold.
    let muller = bench("muller_pipeline_8.g");
    let mutex = bench("mutex_3.g");
    let cold = std::thread::scope(|s| {
        let a = s.spawn(|| request("a", &muller));
        let b = s.spawn(|| request("b", &mutex));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(str_field(&cold.0, "cache"), "cold", "{:?}", cold.0);
    assert_eq!(str_field(&cold.1, "cache"), "cold", "{:?}", cold.1);
    assert_eq!(str_field(&cold.0, "verdict"), "gate-implementable");

    // The same request again is a warm hit with an identical verdict.
    let warm = request("a2", &muller);
    assert_eq!(str_field(&warm, "cache"), "warm", "{warm:?}");
    assert_eq!(str_field(&warm, "verdict"), str_field(&cold.0, "verdict"));

    // Two identical uncached requests in flight at once: the follower is
    // served from the leader's computation, not run twice.
    let mr3 = bench("master_read_3.g");
    let mut conn = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    writeln!(conn, r#"{{"id":"c1","net_path":"{mr3}"}}"#).unwrap();
    writeln!(conn, r#"{{"id":"c2","net_path":"{mr3}"}}"#).unwrap();
    let mut reader = BufReader::new(conn);
    let mut responses = HashMap::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        let v = parse_json(line.trim()).expect("json response");
        responses.insert(str_field(&v, "id").to_string(), v);
    }
    let (c1, c2) = (&responses["c1"], &responses["c2"]);
    assert_eq!(str_field(c1, "verdict"), str_field(c2, "verdict"));
    // The follower either coalesced onto the in-flight leader or (if the
    // leader finished first) hit the now-warm cache; both mean one run.
    let c2_coalesced = c2.get("coalesced").and_then(Json::as_bool) == Some(true);
    assert!(c2_coalesced || str_field(c2, "cache") == "warm", "{c2:?}");

    // An idle daemon under SIGTERM drains immediately with exit 3.
    let pid = serve.child.id().to_string();
    Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs");
    let mut serve = serve;
    let deadline = Instant::now() + Duration::from_secs(30);
    let code = loop {
        if let Some(status) = serve.child.try_wait().expect("try_wait") {
            break status.code().expect("exit code");
        }
        assert!(Instant::now() < deadline, "serve did not exit after SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(code, 3);
}

/// Per-request budgets exhaust with exit code 4 exactly like the
/// one-shot CLI, and a `cancel` request interrupts a queued job without
/// disturbing its neighbours.
#[test]
fn budgets_and_cancellation_mirror_one_shot() {
    let dir = scratch("cancel");
    let slow = slow_net(&dir);
    let mr2 = bench("master_read_2.g");
    let handshake = data("handshake.g");

    let cli = Command::new(bin())
        .args(["--quiet", "--max-steps", "40", &mr2])
        .output()
        .expect("one-shot runs");
    assert_eq!(cli.status.code(), Some(4));

    let mut serve = Serve::spawn(&["--workers", "1"]);
    serve.send(&format!(r#"{{"id":"b1","net_path":"{mr2}","max_steps":40}}"#));
    serve.send(&format!(r#"{{"id":"s1","net_path":"{slow}","timeout_s":120}}"#));
    serve.send(&format!(r#"{{"id":"f1","net_path":"{handshake}"}}"#));
    serve.send(r#"{"op":"cancel","target":"s1"}"#);

    let mut responses = HashMap::new();
    while responses.len() < 3 {
        let v = serve.read_response();
        if v.get("op").and_then(Json::as_str) == Some("cancel") {
            assert_eq!(v.get("cancelled").and_then(Json::as_bool), Some(true), "{v:?}");
            continue;
        }
        responses.insert(str_field(&v, "id").to_string(), v);
    }
    let b1 = &responses["b1"];
    assert_eq!(str_field(b1, "outcome"), "exhausted", "{b1:?}");
    assert_eq!(num_field(b1, "exit_code"), 4.0);
    let s1 = &responses["s1"];
    assert_eq!(str_field(s1, "outcome"), "interrupted", "{s1:?}");
    assert_eq!(num_field(s1, "exit_code"), 3.0);
    let f1 = &responses["f1"];
    assert_eq!(str_field(f1, "verdict"), "gate-implementable", "{f1:?}");
    assert_eq!(serve.finish(), 0);
}

/// Kill -9 a daemon with accepted-but-unanswered requests; `--recover`
/// replays exactly those requests and answers them equivalently.
#[test]
fn recover_replays_unanswered_requests_after_crash() {
    let dir = scratch("recover");
    let journal = dir.join("journal");
    let slow = slow_net(&dir);
    let handshake = data("handshake.g");

    let mut serve = Serve::spawn(&["--workers", "1", "--journal", journal.to_str().unwrap()]);
    serve.send(&format!(r#"{{"id":"r1","net_path":"{slow}","timeout_s":120}}"#));
    serve.send(&format!(r#"{{"id":"r2","net_path":"{handshake}"}}"#));

    // Wait until both accepts hit the journal, then crash hard. r1 hogs
    // the only worker and r2 waits behind it, so neither is answered.
    let accepts = |dir: &PathBuf| -> usize {
        std::fs::read_dir(dir)
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().starts_with("a-"))
                    .count()
            })
            .unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while accepts(&journal) < 2 {
        assert!(Instant::now() < deadline, "accept records never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    serve.child.kill().expect("SIGKILL");
    let _ = serve.child.wait();
    drop(serve);

    // Recovery replays both. r2 completes on the second worker while the
    // slow r1 is cancelled through the normal protocol path.
    let mut serve =
        Serve::spawn(&["--workers", "2", "--journal", journal.to_str().unwrap(), "--recover"]);
    let r2 = serve.read_response();
    assert_eq!(str_field(&r2, "id"), "r2", "{r2:?}");
    assert_eq!(str_field(&r2, "verdict"), "gate-implementable");
    assert_eq!(num_field(&r2, "exit_code") as i32, one_shot_exit(&handshake));

    serve.send(r#"{"op":"cancel","target":"r1"}"#);
    let mut r1 = serve.read_response();
    if r1.get("op").and_then(Json::as_str) == Some("cancel") {
        assert_eq!(r1.get("cancelled").and_then(Json::as_bool), Some(true), "{r1:?}");
        r1 = serve.read_response();
    }
    assert_eq!(str_field(&r1, "id"), "r1", "{r1:?}");
    assert_eq!(str_field(&r1, "outcome"), "interrupted");

    assert_eq!(serve.finish(), 0);
    // A clean EOF drain clears the journal: nothing left to replay.
    assert_eq!(accepts(&journal), 0);
}

/// `--recover` under an armed `journal-read` failpoint skips every
/// record instead of crashing or replaying garbage; with the failpoint
/// gone, the same journal replays normally.
#[test]
fn recover_tolerates_unreadable_records() {
    let dir = scratch("corrupt");
    let journal_dir = dir.join("journal");
    let handshake = data("handshake.g");
    let mut journal = Journal::open(&journal_dir, FaultPlan::default()).unwrap();
    journal.record_accept("j1", &format!(r#"{{"id":"j1","net_path":"{handshake}"}}"#)).unwrap();

    // Every read fails: recovery degrades to an empty replay set.
    let serve = Serve::spawn(&[
        "--journal",
        journal_dir.to_str().unwrap(),
        "--recover",
        "--failpoints",
        "journal-read",
    ]);
    assert_eq!(serve.finish(), 0);

    // The journal survived the degraded pass; a healthy recovery answers
    // the request it holds.
    let mut serve = Serve::spawn(&["--journal", journal_dir.to_str().unwrap(), "--recover"]);
    let j1 = serve.read_response();
    assert_eq!(str_field(&j1, "id"), "j1", "{j1:?}");
    assert_eq!(str_field(&j1, "verdict"), "gate-implementable");
    assert_eq!(serve.finish(), 0);
}

/// The serve-specific failpoints: an admission fault refuses loudly and
/// recovers, a journal-write fault degrades to an annotated answer, and
/// a worker panic is isolated to one `internal_error` response.
#[test]
fn failpoints_inject_typed_degradation() {
    let handshake = data("handshake.g");

    // serve-accept: first request refused with a retryable rejection.
    let mut serve = Serve::spawn(&["--workers", "1", "--failpoints", "serve-accept=1"]);
    serve.send(&format!(r#"{{"id":"a1","net_path":"{handshake}"}}"#));
    let refused = serve.read_response();
    assert_eq!(str_field(&refused, "status"), "rejected", "{refused:?}");
    assert_eq!(str_field(&refused, "reason"), "serve_accept_fault");
    serve.send(&format!(r#"{{"id":"a2","net_path":"{handshake}"}}"#));
    let ok = serve.read_response();
    assert_eq!(str_field(&ok, "verdict"), "gate-implementable", "{ok:?}");
    assert_eq!(serve.finish(), 0);

    // journal-write: the request still runs, the response says the
    // crash protection was lost.
    let dir = scratch("jw");
    let mut serve = Serve::spawn(&[
        "--workers",
        "1",
        "--journal",
        dir.join("journal").to_str().unwrap(),
        "--failpoints",
        "journal-write=1",
    ]);
    serve.send(&format!(r#"{{"id":"w1","net_path":"{handshake}"}}"#));
    let degraded = serve.read_response();
    assert_eq!(str_field(&degraded, "status"), "ok", "{degraded:?}");
    let notes = format!("{:?}", degraded.get("notes"));
    assert!(notes.contains("journal accept failed"), "{degraded:?}");
    assert_eq!(serve.finish(), 0);

    // worker-panic: one poisoned response, the pool keeps serving.
    let mut serve = Serve::spawn(&["--workers", "1", "--failpoints", "worker-panic=1"]);
    serve.send(&format!(r#"{{"id":"p1","net_path":"{handshake}"}}"#));
    let poisoned = serve.read_response();
    assert_eq!(str_field(&poisoned, "status"), "error", "{poisoned:?}");
    assert_eq!(str_field(&poisoned, "outcome"), "internal_error");
    assert_eq!(num_field(&poisoned, "exit_code"), 5.0);
    serve.send(&format!(r#"{{"id":"p2","net_path":"{handshake}"}}"#));
    let healthy = serve.read_response();
    assert_eq!(str_field(&healthy, "verdict"), "gate-implementable", "{healthy:?}");
    assert_eq!(serve.finish(), 0);
}

/// A panic while the admission thread parses a net (the `serve-parse`
/// fault) costs that one request an `internal_error` refusal: the ping
/// behind it is answered, the next net verifies, and EOF drains clean.
#[test]
fn parse_panic_on_admission_is_one_internal_error() {
    let handshake = data("handshake.g");
    let mut serve = Serve::spawn(&["--workers", "1", "--failpoints", "serve-parse=1"]);
    serve.send(&format!(r#"{{"id":"x1","net_path":"{handshake}"}}"#));
    serve.send(r#"{"op":"ping","id":"x2"}"#);
    let refused = serve.read_response();
    assert_eq!(str_field(&refused, "id"), "x1", "{refused:?}");
    assert_eq!(str_field(&refused, "status"), "error", "{refused:?}");
    assert_eq!(str_field(&refused, "reason"), "internal_error", "{refused:?}");
    assert_eq!(num_field(&refused, "exit_code"), 5.0, "{refused:?}");
    let pong = serve.read_response();
    assert_eq!(str_field(&pong, "id"), "x2", "{pong:?}");
    assert_eq!(str_field(&pong, "op"), "ping", "{pong:?}");
    serve.send(&format!(r#"{{"id":"x3","net_path":"{handshake}"}}"#));
    let ok = serve.read_response();
    assert_eq!(str_field(&ok, "verdict"), "gate-implementable", "{ok:?}");
    assert_eq!(serve.finish(), 0);
}

/// SIGTERM mid-run: in-flight work is answered as interrupted and the
/// daemon exits 3, mirroring the one-shot CLI's signal contract.
#[test]
fn sigterm_drains_serve_with_interrupted_responses() {
    let dir = scratch("sigterm");
    let slow = endless_net(&dir);
    let mut serve = Serve::spawn(&["--workers", "1"]);
    serve.send(&format!(r#"{{"id":"s1","net_path":"{slow}","timeout_s":120}}"#));
    // Give the job time to get onto the worker before the signal.
    std::thread::sleep(Duration::from_millis(1000));
    let pid = serve.child.id().to_string();
    Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs");

    let s1 = serve.read_response();
    assert_eq!(str_field(&s1, "id"), "s1", "{s1:?}");
    assert_eq!(str_field(&s1, "outcome"), "interrupted");
    assert_eq!(num_field(&s1, "exit_code"), 3.0);

    let deadline = Instant::now() + Duration::from_secs(30);
    let code = loop {
        if let Some(status) = serve.child.try_wait().expect("try_wait") {
            break status.code().expect("exit code");
        }
        assert!(Instant::now() < deadline, "serve did not exit after SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(code, 3);
}

/// SIGTERM against the one-shot CLI: cooperative interrupt, exit 3, and
/// a loadable checkpoint (proved by resuming it under a tiny budget).
#[test]
fn sigterm_interrupts_one_shot_with_valid_checkpoint() {
    let dir = scratch("oneshot-term");
    let slow = slow_net(&dir);
    let ck = dir.join("ck.bin");
    let mut child = Command::new(bin())
        .args(["--quiet", "--checkpoint"])
        .arg(&ck)
        .args(["--checkpoint-every", "1", &slow])
        .stdout(Stdio::piped())
        .spawn()
        .expect("one-shot spawns");
    // Interrupt only after the first periodic checkpoint committed, so
    // the signal provably lands mid-traversal (the net runs for several
    // seconds past that point in any build profile).
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ck.exists() {
        assert!(Instant::now() < deadline, "no periodic checkpoint appeared");
        assert!(child.try_wait().expect("try_wait").is_none(), "one-shot finished too fast");
        std::thread::sleep(Duration::from_millis(20));
    }
    Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "one-shot did not exit after SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(3));
    let mut stdout = String::new();
    child.stdout.take().unwrap().read_to_string(&mut stdout).unwrap();
    assert!(stdout.contains("interrupted"), "{stdout}");
    assert!(ck.exists(), "interrupt left no checkpoint");

    // The checkpoint loads: a resume under a tiny step budget makes
    // progress from it and exhausts (4) rather than failing to parse (2).
    let resumed = Command::new(bin())
        .args(["--quiet", "--resume", "--checkpoint"])
        .arg(&ck)
        .args(["--max-steps", "1", &slow])
        .output()
        .expect("resume runs");
    assert_eq!(resumed.status.code(), Some(4), "{}", String::from_utf8_lossy(&resumed.stdout));
}

/// `--cache-max-mb 0` is a usage error in both the one-shot CLI and
/// serve: a zero cap would evict every result it just wrote.
#[test]
fn zero_cache_cap_is_rejected() {
    let out = Command::new(bin())
        .args(["--cache-max-mb", "0", &data("handshake.g")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache-max-mb"), "{stderr}");

    let out =
        Command::new(bin()).args(["serve", "--cache-max-mb", "0"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}
