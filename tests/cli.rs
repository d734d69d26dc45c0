//! End-to-end test of the `stgcheck` CLI binary on the shipped `.g`
//! files: exit codes and verdict lines.

use std::path::PathBuf;
use std::process::Command;

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

fn fixture(file: &str) -> String {
    format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// The hand-written smoke fixture (explicit places, a dummy transition,
/// comments — see docs/g-format.md) parses and verifies end-to-end.
#[test]
fn smoke_fixture_full_report() {
    let out = Command::new(bin()).arg(fixture("smoke.g")).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("safe:        true"), "{stdout}");
    assert!(stdout.contains("CSC:         true"), "{stdout}");
    assert!(stdout.contains("gate-implementable"), "{stdout}");
}

/// Several files in one invocation: the worst verdict drives the exit
/// code, but every file still gets its own verdict line.
#[test]
fn multiple_files_report_individually() {
    let out = Command::new(bin())
        .args(["--quiet", &fixture("smoke.g"), &data("irreducible.g")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("smoke.g: gate-implementable"), "{stdout}");
    assert!(stdout.contains("interface change needed"), "{stdout}");
}

/// Parse errors name the offending line and exit with code 2.
#[test]
fn unparsable_fixture_exits_2_with_line_number() {
    let out = Command::new(bin()).arg(fixture("unparsable.g")).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 7"), "{stderr}");
    assert!(stderr.contains("arc between two places"), "{stderr}");
}

#[test]
fn handshake_file_passes() {
    let out =
        Command::new(bin()).args(["--quiet", &data("handshake.g")]).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gate-implementable"), "{stdout}");
}

#[test]
fn vme_file_is_io_implementable() {
    let out =
        Command::new(bin()).args(["--quiet", &data("vme_read.g")]).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("I/O-implementable"), "{stdout}");
}

#[test]
fn full_report_mentions_csc_conflicts() {
    let out = Command::new(bin()).arg(data("vme_read.g")).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("conflict on `lds` (reducible)"), "{stdout}");
    assert!(stdout.contains("conflict on `d` (reducible)"), "{stdout}");
}

#[test]
fn mutex4_needs_arbitration_flag() {
    let strict =
        Command::new(bin()).args(["--quiet", &data("mutex4.g")]).output().expect("binary runs");
    assert!(!strict.status.success());
    let relaxed = Command::new(bin())
        .args(["--quiet", "--arbitration", &data("mutex4.g")])
        .output()
        .expect("binary runs");
    assert!(relaxed.status.success());
    assert!(String::from_utf8_lossy(&relaxed.stdout).contains("gate-implementable"));
}

#[test]
fn irreducible_file_fails_with_si_verdict() {
    let out = Command::new(bin())
        .args(["--quiet", &data("irreducible.g")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("interface change needed"));
}

/// An STG whose initial value is ambiguous only deep in the frozen
/// subspace (`a+` is enabled at once, `a-` after four other edges) exits
/// 1 with the inference error, not with a verdict. Under a budget that
/// the inference fits but the traversal does not, it exits 4 before the
/// ambiguity is known.
#[test]
fn late_ambiguity_cannot_determine_the_initial_code() {
    let out = Command::new(bin()).arg(fixture("ambiguous_late.g")).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot determine initial code"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());

    let out = Command::new(bin())
        .args(["--max-nodes", "110"])
        .arg(fixture("ambiguous_late.g"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("budget exhausted"), "{stdout}");
}

#[test]
fn missing_file_exits_2() {
    let out = Command::new(bin()).arg("/nonexistent/never.g").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_option_exits_2_with_usage() {
    // `--sharing` and `--bfs` were removed and must fail like any unknown
    // option.
    let handshake = data("handshake.g");
    for args in
        [vec!["--frobnicate"], vec!["--sharing", "private", &handshake], vec!["--bfs", &handshake]]
    {
        let out = Command::new(bin()).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{args:?}");
    }
}

/// `clustered` named the retired clustered engine and is now a spelling
/// of saturation: the run succeeds and its row names the engine that ran.
/// An unknown engine still exits 2.
#[test]
fn clustered_engine_spelling_runs_saturation() {
    let out = Command::new(bin())
        .args(["--engine", "clustered", &data("handshake.g")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout.lines().find(|l| l.starts_with("handshake")).expect("a table row");
    assert_eq!(row.split_whitespace().nth(1), Some("saturation"), "{stdout}");
    assert!(!stdout.contains("clustered"), "{stdout}");

    let bad = Command::new(bin())
        .args(["--engine", "bogus", &data("handshake.g")])
        .output()
        .expect("binary runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown engine"));
}

#[test]
fn order_flag_accepted() {
    for order in ["interleaved", "places", "signals", "declaration"] {
        let out = Command::new(bin())
            .args(["--quiet", "--order", order, &data("handshake.g")])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "order {order}");
    }
}

fn bench(file: &str) -> String {
    format!("{}/benchmarks/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory for checkpoint files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stgcheck-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The exit-code contract for budget exhaustion: a run that overruns
/// `--max-steps` exits 4 (never 1, never a panic), and rerunning with
/// the budget lifted — resuming any checkpoint the first run left —
/// completes with exit 0 and the true verdict.
#[test]
fn budget_exhaustion_exits_4_and_resume_completes() {
    let ck = scratch("exhaust").join("ck.bin");
    let exhausted = Command::new(bin())
        .args(["--quiet", "--max-steps", "400", "--checkpoint"])
        .arg(&ck)
        .args(["--checkpoint-every", "1", &bench("master_read_2.g")])
        .output()
        .expect("binary runs");
    assert_eq!(exhausted.status.code(), Some(4), "{}", String::from_utf8_lossy(&exhausted.stdout));
    assert!(
        String::from_utf8_lossy(&exhausted.stdout).contains("budget exhausted"),
        "{}",
        String::from_utf8_lossy(&exhausted.stdout)
    );

    let resumed = Command::new(bin())
        .args(["--quiet", "--resume", "--checkpoint"])
        .arg(&ck)
        .arg(bench("master_read_2.g"))
        .output()
        .expect("binary runs");
    assert_eq!(resumed.status.code(), Some(0), "{}", String::from_utf8_lossy(&resumed.stdout));
    assert!(String::from_utf8_lossy(&resumed.stdout).contains("gate-implementable"));
}

/// `--abort-after` routes through the cancellation latch: exit 3 with a
/// resumable checkpoint, and the resume finishes the job with exit 0.
#[test]
fn abort_after_exits_3_with_resumable_checkpoint() {
    let ck = scratch("abort").join("ck.bin");
    let aborted = Command::new(bin())
        .args(["--quiet", "--abort-after", "1", "--checkpoint"])
        .arg(&ck)
        .arg(bench("master_read_2.g"))
        .output()
        .expect("binary runs");
    assert_eq!(aborted.status.code(), Some(3), "{}", String::from_utf8_lossy(&aborted.stdout));
    assert!(String::from_utf8_lossy(&aborted.stdout).contains("interrupted"));
    assert!(ck.exists(), "an abort must leave a checkpoint behind");

    let resumed = Command::new(bin())
        .args(["--quiet", "--resume", "--checkpoint"])
        .arg(&ck)
        .arg(bench("master_read_2.g"))
        .output()
        .expect("binary runs");
    assert_eq!(resumed.status.code(), Some(0), "{}", String::from_utf8_lossy(&resumed.stdout));
    assert!(String::from_utf8_lossy(&resumed.stdout).contains("gate-implementable"));
}

/// A step budget that trips inside the persistency check, after the
/// traversal converged, is an exhaustion like any other: exit 4, not a
/// panic on a witness set the inert operations left empty.
#[test]
fn budget_trip_inside_the_checks_exits_4() {
    let out = Command::new(bin())
        .args(["--max-steps", "700", &bench("mutex_3.g")])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(4), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("budget exhausted"), "{stdout}");
}

/// An edited stored report is a cache miss: the rerun recomputes cold
/// and prints the violations of the first run, instead of indexing the
/// net with a corrupted signal or serving an edit that stays in range.
#[test]
fn corrupted_stored_report_is_a_cold_miss() {
    let dir = scratch("corrupt-report");
    let run = || {
        let out = Command::new(bin())
            .arg("--cache-dir")
            .arg(&dir)
            .arg(bench("mutex_3.g"))
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(out.status.code(), Some(1), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        stdout
    };
    let violations = |stdout: &str| {
        stdout.lines().filter(|l| l.contains("disabled by")).collect::<Vec<_>>().join("\n")
    };
    let first = run();
    assert!(!violations(&first).is_empty(), "{first}");
    let report = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "report"))
        .expect("the first run stored a report");
    // Signal 93 does not exist: mutex-3 has six. Signal 2 does, so only
    // the seal tells that edit from a stored answer.
    for signal in ["93", "2"] {
        let text = std::fs::read_to_string(&report).unwrap();
        let edited = text.replacen("\npersistency 4 3 ", &format!("\npersistency 4 {signal} "), 1);
        assert_ne!(edited, text, "{text}");
        std::fs::write(&report, edited).unwrap();
        let rerun = run();
        assert!(rerun.contains("cache:       cold"), "signal {signal}: {rerun}");
        assert_eq!(violations(&rerun), violations(&first), "signal {signal}");
    }
}

/// Budget and fault-injection flags validate their arguments: garbage
/// is a usage error (exit 2), never a silently ignored knob.
#[test]
fn bad_budget_and_failpoint_specs_exit_2() {
    for args in [
        vec!["--timeout", "bogus"],
        vec!["--timeout", "-1"],
        vec!["--timeout", "NaN"],
        vec!["--timeout", "inf"],
        vec!["--timeout", "1e300"],
        vec!["--max-nodes", "many"],
        vec!["--max-steps", "few"],
        vec!["--failpoints", "no-such-point"],
        vec!["--failpoints", "store-rename=0"],
    ] {
        let out =
            Command::new(bin()).args(&args).arg(fixture("smoke.g")).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

/// A timeout too long for the clock, yet within a `Duration`, means no
/// deadline: the run completes instead of panicking.
#[test]
fn timeout_beyond_the_clock_range_runs_to_completion() {
    let out = Command::new(bin())
        .args(["--quiet", "--timeout", "1e19", &data("handshake.g")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// A repeated arc is a parse error with its line number (exit 2), not a
/// panic.
#[test]
fn repeated_arc_exits_2_with_line_number() {
    let dir = scratch("dup-arc");
    let path = dir.join("dup.g");
    std::fs::write(&path, ".model dup\n.inputs a\n.graph\na+ a-\na- a+ a+\n.end\n").unwrap();
    let out = Command::new(bin()).arg(&path).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 5") && stderr.contains("duplicate arc"), "{stderr}");
}

/// A repeated `--failpoints` replaces the earlier plan, like every other
/// flag; one `;`-separated spec arms several points.
#[test]
fn repeated_failpoints_flag_replaces_the_plan() {
    let exit = |spec: &[&str]| {
        let mut cmd = Command::new(bin());
        for s in spec {
            cmd.args(["--failpoints", s]);
        }
        cmd.arg(fixture("smoke.g")).output().expect("binary runs").status.code()
    };
    assert_eq!(exit(&["arena-alloc"]), Some(4));
    assert_eq!(exit(&["arena-alloc", "store-read"]), Some(0));
    assert_eq!(exit(&["store-read;arena-alloc"]), Some(4));
}

/// An armed store-write failpoint degrades the run — the result cannot
/// be cached, which becomes a note — but the verdict and exit code are
/// untouched.
#[test]
fn armed_store_fault_degrades_without_changing_the_verdict() {
    let dir = scratch("store-fault");
    let out = Command::new(bin())
        .args(["--failpoints", "store-write", "--cache-dir"])
        .arg(&dir)
        .arg(fixture("smoke.g"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gate-implementable"), "{stdout}");
    assert!(stdout.contains("could not store result"), "{stdout}");
}

/// A reader that closes early (`stgcheck … | head`) must not panic the
/// CLI: broken-pipe write errors are swallowed and the exit code stays
/// verdict-driven.
#[test]
fn closed_stdout_pipe_does_not_panic() {
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!("{} {} | head -n 1", bin().display(), fixture("smoke.g")))
        .output()
        .expect("shell runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Every `--reorder` mode yields the same verdict, even when paired with
/// a deliberately bad static order; an unknown mode exits with usage.
#[test]
fn reorder_flag_accepted_and_verdict_stable() {
    for reorder in ["none", "sift", "auto"] {
        let out = Command::new(bin())
            .args(["--quiet", "--order", "declaration", "--reorder", reorder, &data("vme_read.g")])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "reorder {reorder}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("I/O-implementable"),
            "reorder {reorder}"
        );
    }
    let bad = Command::new(bin())
        .args(["--reorder", "frobnicate", &data("vme_read.g")])
        .output()
        .expect("binary runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown reorder mode"));
}
