//! `table1` refuses what it does not understand instead of silently
//! running its defaults, and `--compare` fails a run whose answers moved.

use std::process::{Command, Output};

#[test]
fn unknown_flags_and_values_exit_2() {
    for args in [
        &["--sharing", "private"][..],
        &["--small", "--frobnicate"],
        &["--order", "bogus"],
        &["--engine", "bogus"],
        &["--reorder", "bogus"],
        &["--small", "--timeout", "1e300"],
        &["--small", "--timeout", "0"],
        &["--small", "--compare", "/nonexistent/table1.json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

/// A run compared with its own `--json` file passes; the same file with
/// one verdict changed, or a run whose rows the file lacks, exits 1.
#[test]
fn compare_exits_1_on_answer_drift() {
    let dir = std::env::temp_dir().join(format!("table1-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/celement.g");
    let run = |extra: &[&str]| -> Output {
        Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(["--from-dir", net, "--order", "declaration"])
            .args(extra)
            .output()
            .expect("runs")
    };
    let base = dir.join("base.json");
    let base = base.to_str().unwrap();
    assert_eq!(run(&["--json", base]).status.code(), Some(0));
    let same = run(&["--compare", base]);
    assert_eq!(same.status.code(), Some(0), "{}", String::from_utf8_lossy(&same.stdout));

    let text = std::fs::read_to_string(base).unwrap();
    assert!(text.contains(r#""verdict": "gate""#), "{text}");
    let doctored = dir.join("doctored.json");
    std::fs::write(&doctored, text.replace(r#""verdict": "gate""#, r#""verdict": "i/o""#)).unwrap();
    let drift = run(&["--compare", doctored.to_str().unwrap()]);
    assert_eq!(drift.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&drift.stdout).contains("DRIFT: verdict i/o -> gate"));

    let unmatched = run(&["--engine", "saturation", "--compare", base]);
    assert_eq!(unmatched.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
