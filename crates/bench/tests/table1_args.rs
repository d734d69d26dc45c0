//! `table1` refuses what it does not understand instead of silently
//! running its defaults, `--compare` fails a run whose answers moved, and
//! every row — completed or exhausted — lands in the `--json` report.

use std::process::{Command, Output};

use stgcheck_core::protocol::{parse_json, Json};

/// Runs `table1` with `args` plus `--json` into a scratch file named
/// `tag`, and returns the output with the parsed rows.
fn json_run(tag: &str, args: &[&str]) -> (Output, Vec<Json>) {
    let path = std::env::temp_dir().join(format!("table1-{tag}-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .arg("--json")
        .arg(&path)
        .output()
        .expect("runs");
    let text = std::fs::read_to_string(&path).expect("table1 wrote its rows");
    let _ = std::fs::remove_file(&path);
    match parse_json(&text).expect("valid JSON").get("rows") {
        Some(Json::Arr(rows)) => (out, rows.clone()),
        _ => panic!("no `rows` array: {text}"),
    }
}

/// A row's text column.
fn text<'a>(row: &'a Json, column: &str) -> &'a str {
    row.get(column).and_then(Json::as_str).unwrap_or_else(|| panic!("no `{column}`"))
}

/// A row's number column.
fn number(row: &Json, column: &str) -> f64 {
    row.get(column).and_then(Json::as_num).unwrap_or_else(|| panic!("no `{column}`"))
}

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
        // Retired flags: the serve scheduler, the warm pass and the jobs
        // matrix, which `--jobs 1,2` now spells.
        &["--small", "--batch"],
        &["--small", "--workers", "2"],
        &["--small", "--warm-rerun"],
        &["--small", "--jobs-matrix", "1,2"],
        &["--small", "--jobs", "1,x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

/// A run compared with its own `--json` file passes and tallies every
/// peak equal; the same file with one verdict changed, or a run whose
/// rows the file lacks, exits 1.
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
    // One net, one engine, one reorder mode: one row, its peak equal.
    let tally = "peak tally: 1 equal, 0 higher, 0 lower";
    assert!(String::from_utf8_lossy(&same.stdout).contains(tally), "{tally}");

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

/// `--jobs 1,2` gives the parallel engine one row per value and the other
/// engines one row at the first: 5 nets × (2 + 1 + 1) rows.
#[test]
fn jobs_list_multiplies_only_the_parallel_engine() {
    let (out, rows) = json_run("jobs", &["--small", "--jobs", "1,2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(rows.len(), 20);
    let count = |engine: &str, jobs: f64| {
        rows.iter().filter(|r| text(r, "engine") == engine && number(r, "jobs") == jobs).count()
    };
    assert_eq!((count("parallel", 1.0), count("parallel", 2.0)), (5, 5));
    for engine in ["per-transition", "saturation"] {
        assert_eq!((count(engine, 1.0), count(engine, 2.0)), (5, 0), "{engine}");
    }
}

/// A row that exhausts its budget is still a row: `?` answers, zero
/// sizes, outcome `exhausted`, and the table exits 4.
#[test]
fn exhausted_rows_are_recorded_and_exit_4() {
    let args = ["--small", "--engine", "per-transition", "--max-steps", "300"];
    let (out, rows) = json_run("exhausted", &args);
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stdout));
    assert_eq!(rows.len(), 5);
    for row in &rows {
        assert_eq!(text(row, "outcome"), "exhausted");
        assert_eq!((text(row, "states"), text(row, "verdict")), ("?", "?"));
        assert_eq!((number(row, "peak_live_nodes"), number(row, "final_nodes")), (0.0, 0.0));
        assert_eq!(number(row, "max_steps"), 300.0);
    }
}

/// A net whose name holds a control byte still yields a `--json` file
/// that parses, keeps the name, and that `--compare` reads back.
#[test]
fn control_bytes_in_names_round_trip_through_json() {
    let dir = std::env::temp_dir().join(format!("table1-ctl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = ".model hs\u{1}x\n.inputs r\n.outputs a\n.graph\nr+ a+\na+ r-\nr- a-\na- r+\n\
               .marking { <a-,r+> }\n.end\n";
    std::fs::write(dir.join("hs.g"), net).unwrap();
    let from = ["--from-dir", dir.to_str().unwrap()];
    let (out, rows) = json_run("ctl", &from);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(rows.len(), 1);
    assert_eq!(text(&rows[0], "name"), "hs\u{1}x");

    let base = dir.join("base.json");
    let base = base.to_str().unwrap();
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_table1")).args(from).args(extra).output().expect("runs")
    };
    assert_eq!(run(&["--json", base]).status.code(), Some(0));
    let same = run(&["--compare", base]);
    assert_eq!(same.status.code(), Some(0), "{}", String::from_utf8_lossy(&same.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}
