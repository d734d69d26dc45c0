//! Regenerates the paper's Table 1: for every benchmark STG, the number of
//! places and signals, the reachable state count, the peak and final BDD
//! sizes, and the CPU time of each verification phase (T+C, NI-p, Com,
//! CSC) plus the total — with an engine column naming the image engine
//! that ran the traversal.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p stgcheck-bench --bin table1 [--explicit] \
//!     [--order <strategy>] [--engine <engine>|all] [--jobs <n,n,…>] \
//!     [--repeat <n>] [--reorder <mode>|all] [--from-dir <dir>] \
//!     [--json <path>] [--compare <old.json>] [--cache-dir <dir>] \
//!     [--timeout <secs>] [--max-nodes <n>] [--max-steps <n>] \
//!     [--fallback] [--small]
//! ```
//!
//! An unknown flag or an unknown `--order`/`--engine`/`--reorder` value
//! exits 2 instead of silently running the defaults.
//!
//! * `--explicit` additionally times the explicit state-graph baseline on
//!   the workloads where it is feasible (the paper's motivation: symbolic
//!   beats explicit enumeration as soon as the state space grows);
//! * `--order interleaved|places|signals|declaration` selects the variable
//!   ordering strategy (default: interleaved);
//! * `--engine per-transition|parallel|saturation|all` selects the image
//!   engine (default: per-transition); `all` prints one row per engine so
//!   the engines can be compared line by line; `clustered` is accepted as
//!   a spelling of saturation;
//! * `--jobs <n,n,…>` sets the worker count for the parallel engine,
//!   whose workers share one BDD arena; `0` (the default) auto-detects
//!   the machine's available parallelism, and every row records the
//!   detected value as `jobs_detected`. A comma list (e.g. `1,2,4,8`)
//!   prints one parallel-engine row per value, so the single-worker wall
//!   sits next to the multi-worker scaling curve in one table; the other
//!   engines ignore `jobs` and get one row each, at the first value;
//! * `--repeat <n>` verifies every row `n` times and reports the median
//!   wall time (min/max land in the JSON as `wall_min_s`/`wall_max_s`) —
//!   the checked-in `BENCH_table1.json` uses `--repeat 3`; note that with
//!   `--cache-dir` every repeat after the first is served warm;
//! * `--reorder none|sift|auto|all` selects the dynamic variable
//!   reordering mode (default: none; see `docs/reordering.md`); `all`
//!   prints one row per mode so the static order and the sifted runs can
//!   be compared line by line;
//! * `--from-dir <dir>` verifies every `.g` file in `dir` (e.g. the
//!   checked-in `benchmarks/` corpus) instead of the generator-built
//!   workload table; a single `.g` file path pins one net;
//! * `--json <path>` additionally writes every row as machine-readable
//!   JSON (per net: states, peak live nodes, wall time, engine, reorder
//!   mode, cache status, …) so the perf trajectory is recorded across
//!   PRs — the checked-in `BENCH_table1.json` is produced this way;
//! * `--compare <old.json>` matches every row of this run to the row of
//!   an earlier `--json` file with the same name, engine, order, reorder
//!   mode and jobs, prints the peak-live-node and wall ratios (this run
//!   over the old one) per row with their medians, tallies the rows whose
//!   peak is equal, higher (naming the largest rise) and lower, and exits
//!   1 when a row's `verdict`, `states`, `outcome`, `final_nodes` or
//!   `sift_passes` differ or a row has no counterpart (rows only in the
//!   old file are ignored) — the check that a change moved costs, not
//!   answers;
//! * `--cache-dir <dir>` routes every row through the persistent result
//!   store (see `docs/persistent-store.md`): a rerun of an unchanged
//!   corpus reports `cache: warm` rows served without any fixpoint;
//! * `--timeout <secs>` / `--max-nodes <n>` / `--max-steps <n>` put a
//!   resource budget on every row, parsed by [`BudgetSpec::set_flag`] as
//!   in the CLI; a row that exhausts its budget is recorded with
//!   `outcome: "exhausted"` (`?` answers, zeroed stats) instead of
//!   aborting the table, and the process exits 4 (see
//!   `docs/robustness.md`);
//! * `--fallback` arms the degradation ladder: on node/arena exhaustion a
//!   row retries the remaining fixpoint with the saturation engine plus
//!   forced sifting and, when that completes, is recorded with
//!   `outcome: "fallback"`;
//! * `--small` runs the quick workload set across **all** engines — the
//!   CI smoke configuration that keeps the engine column honest.
//!
//! The process exits 1 on a verification error or on `--compare` drift,
//! 3 when a row was interrupted and 4 when one exhausted its budget; a
//! rejecting verdict is a row of the table, not a failure.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use stgcheck_bench::{quick_workloads, table1_workloads, workloads_from_dir};
use stgcheck_core::protocol::{json_escape, parse_json, Json};
use stgcheck_core::{
    format_states, verify_persistent, BudgetSpec, EngineKind, EngineOptions, Outcome,
    PersistOptions, ProcessExit, ReorderMode, SymbolicReport, VarOrder, VerifyError, VerifyOptions,
    VerifyRun,
};
use stgcheck_stg::{build_state_graph, Implementability, PersistencyPolicy, SgOptions, Stg};

/// Flags that stand alone, and flags that consume the next argument.
const SWITCHES: [&str; 3] = ["--explicit", "--small", "--fallback"];
const VALUED: [&str; 12] = [
    "--compare",
    "--order",
    "--engine",
    "--jobs",
    "--repeat",
    "--reorder",
    "--from-dir",
    "--json",
    "--cache-dir",
    "--timeout",
    "--max-nodes",
    "--max-steps",
];

const ALL_ENGINES: [EngineKind; 3] =
    [EngineKind::PerTransition, EngineKind::ParallelSharded, EngineKind::Saturation];

const ALL_REORDERS: [ReorderMode; 3] = [ReorderMode::None, ReorderMode::Sift, ReorderMode::Auto];

/// Parses an `--order`/`--engine`/`--reorder` value with the parser the
/// CLI and `serve` use, exiting 2 with its message on an unknown one.
fn parse_or_exit<T: std::str::FromStr<Err = String>>(v: &str) -> T {
    v.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// One verified row, kept for the `--json` report.
struct JsonRow {
    name: String,
    engine: String,
    reorder: ReorderMode,
    order: VarOrder,
    /// Requested worker count (0 = auto) — meaningful for the parallel
    /// engine, recorded on every row so perf diffs can tell runs apart.
    jobs: usize,
    /// What `jobs` resolved to (`available_parallelism` when 0), so rows
    /// benchmarked on different machines stay comparable.
    jobs_detected: usize,
    states: String,
    peak_live_nodes: usize,
    final_nodes: usize,
    sift_passes: usize,
    /// Measured wall seconds around the whole verification call — for a
    /// warm row this is the cache-lookup time, which is the point. With
    /// `--repeat` this is the median over all repeats.
    wall_s: f64,
    /// Fastest and slowest repeat (equal to `wall_s` without `--repeat`).
    wall_min_s: f64,
    wall_max_s: f64,
    /// Garbage collections the row ran and the total stop-the-world
    /// pause they cost, in milliseconds.
    gc_collections: usize,
    gc_pause_ms: f64,
    /// Process peak resident set (`VmHWM`) in kB after the row, read from
    /// `/proc/self/status`; 0 off Linux. Monotone across rows — only the
    /// first row to touch a new high is attributable.
    peak_rss_kb: u64,
    /// Result-cache status of this row: off, cold, warm or incremental.
    cache: String,
    verdict: &'static str,
    /// How the row finished: `ok`, `fallback` (completed via the
    /// degradation ladder), `exhausted` (budget or arena limit hit) or
    /// `interrupted` (cooperative cancel).
    outcome: &'static str,
    /// Budget the row ran under (0 = unlimited), so perf diffs can tell
    /// budgeted rows from free-running ones.
    timeout_s: f64,
    max_nodes: usize,
    max_steps: u64,
}

fn render_json(rows: &[JsonRow]) -> String {
    let mut out = String::from("{\n  \"generated_by\": \"table1\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"reorder\": \"{}\", \
             \"order\": \"{}\", \"jobs\": {}, \"jobs_detected\": {}, \"states\": \"{}\", \
             \"peak_live_nodes\": {}, \"final_nodes\": {}, \"sift_passes\": {}, \
             \"wall_s\": {:.6}, \"wall_min_s\": {:.6}, \"wall_max_s\": {:.6}, \
             \"gc_collections\": {}, \"gc_pause_ms\": {:.3}, \"peak_rss_kb\": {}, \
             \"cache\": \"{}\", \"verdict\": \"{}\", \
             \"outcome\": \"{}\", \"timeout_s\": {}, \"max_nodes\": {}, \
             \"max_steps\": {}}}{}\n",
            json_escape(&r.name),
            r.engine,
            r.reorder,
            r.order,
            r.jobs,
            r.jobs_detected,
            r.states,
            r.peak_live_nodes,
            r.final_nodes,
            r.sift_passes,
            r.wall_s,
            r.wall_min_s,
            r.wall_max_s,
            r.gc_collections,
            r.gc_pause_ms,
            r.peak_rss_kb,
            r.cache,
            r.verdict,
            r.outcome,
            r.timeout_s,
            r.max_nodes,
            r.max_steps,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The columns that say what a row answered; `--compare` fails when one
/// of them moves.
const ANSWER_COLUMNS: [&str; 5] = ["verdict", "states", "outcome", "final_nodes", "sift_passes"];

/// The columns that identify a row across runs.
const KEY_COLUMNS: [&str; 5] = ["name", "engine", "order", "reorder", "jobs"];

/// A row cell as text: strings as they are, numbers in their shortest
/// form, anything else (a missing column) as `?`.
fn cell(row: &Json, column: &str) -> String {
    match row.get(column) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => n.to_string(),
        _ => "?".to_string(),
    }
}

/// The `rows` array of a `--json` document.
fn rows_of(text: &str) -> Result<Vec<Json>, String> {
    match parse_json(text)?.get("rows") {
        Some(Json::Arr(rows)) => Ok(rows.clone()),
        _ => Err("no `rows` array".to_string()),
    }
}

/// `--compare`: matches each row of `new` to the row of `old` with the
/// same [`KEY_COLUMNS`], prints its peak and wall ratios (new over old),
/// the medians and a tally of equal, higher and lower peaks, and returns
/// the number of rows whose [`ANSWER_COLUMNS`] drifted or that have no
/// counterpart in `old`.
fn compare(old: &[Json], new: &[Json]) -> usize {
    let key = |row: &Json| KEY_COLUMNS.map(|c| cell(row, c)).join(" ");
    let old_rows: HashMap<String, &Json> = old.iter().map(|row| (key(row), row)).collect();
    let ratio = |a: &Json, b: &Json, column: &str| {
        let (a, b) = (a.get(column)?.as_num()?, b.get(column)?.as_num()?);
        (a > 0.0).then(|| b / a)
    };
    let (mut peaks, mut walls, mut drifted) = (Vec::new(), Vec::new(), 0);
    // Peak tally: rows whose peak is equal, higher and lower, and the
    // largest rise (ratio, row) — a median ratio hides an outlier.
    let peak_nodes = |row: &Json| row.get("peak_live_nodes").and_then(Json::as_num);
    let (mut equal, mut higher, mut lower, mut largest) = (0, 0, 0, None::<(f64, String)>);
    println!();
    println!(
        "{:<60} {:>10} {:>10}",
        "compared row (name engine order reorder jobs)", "peak", "wall"
    );
    for row in new {
        let k = key(row);
        let Some(old_row) = old_rows.get(&k) else {
            println!("{k:<60} DRIFT: no row of the old file");
            drifted += 1;
            continue;
        };
        let peak = ratio(old_row, row, "peak_live_nodes");
        let wall = ratio(old_row, row, "wall_s");
        if let (Some(a), Some(b)) = (peak_nodes(old_row), peak_nodes(row)) {
            if b == a {
                equal += 1;
            } else if b < a {
                lower += 1;
            } else {
                higher += 1;
                if largest.as_ref().is_none_or(|(r, _)| b / a > *r) {
                    largest = Some((b / a, k.clone()));
                }
            }
        }
        peaks.extend(peak);
        walls.extend(wall);
        let show = |r: Option<f64>| r.map_or_else(|| "—".to_string(), |r| format!("{r:.3}"));
        print!("{k:<60} {:>10} {:>10}", show(peak), show(wall));
        let drift: Vec<String> = ANSWER_COLUMNS
            .iter()
            .filter(|c| cell(old_row, c) != cell(row, c))
            .map(|c| format!("{c} {} -> {}", cell(old_row, c), cell(row, c)))
            .collect();
        if drift.is_empty() {
            println!();
        } else {
            println!("  DRIFT: {}", drift.join(", "));
            drifted += 1;
        }
    }
    let show_median = |v: &mut Vec<f64>| {
        if v.is_empty() {
            "—".to_string()
        } else {
            format!("{:.3}", median(v))
        }
    };
    println!(
        "median ratio (new/old): peak {}, wall {} over {} rows; {drifted} drifted",
        show_median(&mut peaks),
        show_median(&mut walls),
        new.len(),
    );
    let largest = largest.map_or_else(String::new, |(r, k)| format!(" (largest {r:.3}: {k})"));
    println!("peak tally: {equal} equal, {higher} higher{largest}, {lower} lower");
    drifted
}

/// Process peak resident set (`VmHWM`) in kB from `/proc/self/status`;
/// 0 where the file or the field is unavailable (non-Linux).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Median of `walls` (upper median for even lengths); callers guarantee
/// at least one sample.
fn median(walls: &mut [f64]) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// Verifies one row `repeat` times and returns the first run with the
/// sorted walls of every run. Repeats are result-deterministic, so only
/// the wall needs them, and a run that does not complete ends the row:
/// repeating an exhausted row is pure waste.
fn run_row(
    stg: &Stg,
    opts: VerifyOptions,
    persist: &PersistOptions,
    repeat: usize,
) -> Result<(VerifyRun, Vec<f64>), VerifyError> {
    let mut walls = Vec::with_capacity(repeat);
    let mut first = None;
    for _ in 0..repeat {
        let start = Instant::now();
        let run = verify_persistent(stg, opts, persist)?;
        walls.push(start.elapsed().as_secs_f64());
        let done = run.report().is_some();
        first.get_or_insert(run);
        if !done {
            break;
        }
    }
    walls.sort_by(f64::total_cmp);
    Ok((first.expect("`--repeat` is at least 1"), walls))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if VALUED.contains(&a.as_str()) {
            rest.next();
        } else if !SWITCHES.contains(&a.as_str()) {
            eprintln!(
                "unknown argument `{a}` (flags: {} and {} <value>)",
                SWITCHES.join(" "),
                VALUED.join(" ")
            );
            std::process::exit(2);
        }
    }
    let explicit = args.iter().any(|a| a == "--explicit");
    let small = args.iter().any(|a| a == "--small");
    let value_of = |flag: &str| -> Option<&String> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        })
    };
    let order: VarOrder = value_of("--order").map_or_else(VarOrder::default, |v| parse_or_exit(v));
    let jobs: Vec<usize> = value_of("--jobs").map_or(vec![0], |v| {
        v.split(',')
            .map(|p| {
                p.trim().parse().unwrap_or_else(|_| {
                    eprintln!("--jobs needs a number or comma-separated numbers, got `{v}`");
                    std::process::exit(2);
                })
            })
            .collect()
    });
    let repeat: usize = value_of("--repeat").map_or(1, |v| {
        let n = v.parse().unwrap_or_else(|_| {
            eprintln!("--repeat needs a number, got `{v}`");
            std::process::exit(2);
        });
        if n == 0 {
            eprintln!("--repeat needs at least 1, got `{v}`");
            std::process::exit(2);
        }
        n
    });
    let json_path: Option<PathBuf> = value_of("--json").map(PathBuf::from);
    // Read the baseline before the run, so a bad path fails fast.
    let baseline: Option<(&String, Vec<Json>)> = value_of("--compare").map(|path| {
        let rows = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| rows_of(&text))
            .unwrap_or_else(|e| {
                eprintln!("--compare {path}: {e}");
                std::process::exit(2);
            });
        (path, rows)
    });
    let from_dir: Option<PathBuf> = value_of("--from-dir").map(PathBuf::from);
    let persist = PersistOptions {
        cache_dir: value_of("--cache-dir").map(PathBuf::from),
        ..Default::default()
    };
    let engines: Vec<EngineKind> = match value_of("--engine").map(String::as_str) {
        None if small => ALL_ENGINES.to_vec(),
        None => vec![EngineKind::PerTransition],
        Some("all") => ALL_ENGINES.to_vec(),
        Some(s) => vec![parse_or_exit(s)],
    };
    let reorders: Vec<ReorderMode> = match value_of("--reorder").map(String::as_str) {
        None => vec![ReorderMode::None],
        Some("all") => ALL_REORDERS.to_vec(),
        Some(s) => vec![parse_or_exit(s)],
    };
    let mut budget =
        BudgetSpec { fallback: args.iter().any(|a| a == "--fallback"), ..Default::default() };
    for flag in ["--timeout", "--max-nodes", "--max-steps"] {
        if let Some(v) = value_of(flag) {
            budget.set_flag(flag, v).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
        }
    }
    let timeout_s = budget.timeout.map_or(0.0, |d| d.as_secs_f64());

    println!("stgcheck — Table 1 reproduction (order: {order:?})");
    println!("columns: example, engine, places, signals, reachable states, BDD peak/final");
    println!("         nodes, CPU seconds for T+C / NI-p / Com / CSC / total");
    if explicit {
        println!("         + explicit baseline seconds (— where infeasible)");
    }
    println!();
    let mut header = SymbolicReport::table1_header();
    if explicit {
        header.push_str(&format!(" {:>10}", "explicit"));
    }
    header.push_str(&format!(" {:>7} {:>7} {:>10}", "reorder", "jobs", "verdict"));
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    let workloads = match &from_dir {
        Some(dir) => workloads_from_dir(dir).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None if small => quick_workloads(),
        None => table1_workloads(),
    };
    // One row per (engine, reorder, jobs) combination, jobs innermost so
    // the scaling curve of one configuration reads as consecutive lines.
    // Only the parallel engine reads `jobs`, so only it gets a row per
    // value; every other engine runs at the first.
    let mut combos: Vec<(EngineKind, ReorderMode, usize)> = Vec::new();
    for &kind in &engines {
        let kind_jobs = if kind == EngineKind::ParallelSharded { &jobs[..] } else { &jobs[..1] };
        for &reorder in &reorders {
            combos.extend(kind_jobs.iter().map(|&j| (kind, reorder, j)));
        }
    }
    let mut json_rows: Vec<JsonRow> = Vec::new();
    let mut exit = ProcessExit::Success;
    for w in &workloads {
        // The explicit baseline is engine- and reorder-independent: time
        // it once per workload, outside the row loop.
        let explicit_cell: Option<Result<(f64, usize), String>> = (explicit && w.explicit_feasible)
            .then(|| {
                let start = Instant::now();
                let sg = build_state_graph(&w.stg, SgOptions::default());
                let secs = start.elapsed().as_secs_f64();
                sg.map(|sg| (secs, sg.len())).map_err(|e| e.to_string())
            });
        for &(kind, reorder, j) in &combos {
            let opts = VerifyOptions {
                order,
                policy: PersistencyPolicy { allow_arbitration: w.arbitration },
                engine: EngineOptions { kind, jobs: j, ..Default::default() },
                reorder,
                budget,
            };
            let jobs_detected = opts.engine.effective_jobs();
            let (run, walls) = match run_row(&w.stg, opts, &persist, repeat) {
                Ok(row) => row,
                Err(e) => {
                    println!("{:<16} verification aborted: {e}", w.name);
                    exit = exit.worst(ProcessExit::Violation);
                    continue;
                }
            };
            let report = run.report();
            let outcome = match &run.outcome {
                Outcome::Completed(_) if run.fell_back => "fallback",
                Outcome::Completed(_) => "ok",
                Outcome::Exhausted { reason, .. } => {
                    println!("{:<16} {kind:>14} budget exhausted: {reason}", w.name);
                    exit = exit.worst(ProcessExit::Exhausted);
                    "exhausted"
                }
                Outcome::Interrupted { .. } => {
                    println!("{:<16} {kind:>14} interrupted", w.name);
                    exit = exit.worst(ProcessExit::Interrupted);
                    "interrupted"
                }
            };
            let verdict = report.map_or("?", |r| match r.verdict {
                Implementability::Gate => "gate",
                Implementability::InputOutput => "i/o",
                Implementability::SpeedIndependent => "si-only",
                Implementability::NotImplementable => "reject",
            });
            if let Some(report) = report {
                let mut row = report.table1_row();
                if explicit {
                    row.push_str(&match &explicit_cell {
                        Some(Ok((secs, len))) => {
                            assert_eq!(
                                *len as u128, report.num_states,
                                "{}: explicit and symbolic disagree",
                                w.name
                            );
                            format!(" {secs:>10.3}")
                        }
                        Some(Err(e)) => format!(" {e:>10}"),
                        None => format!(" {:>10}", "—"),
                    });
                }
                let jobs_cell = format!("{j}/{jobs_detected}");
                println!("{row} {reorder:>7} {jobs_cell:>7} {verdict:>10}");
            }
            // An exhausted or interrupted row has no report: its answer
            // columns read `?` and its sizes 0. A completed row names the
            // engine that ran, which is saturation after a fallback.
            json_rows.push(JsonRow {
                name: w.name.clone(),
                engine: report.map_or_else(|| kind.to_string(), |r| r.engine.clone()),
                reorder,
                order,
                jobs: j,
                jobs_detected,
                states: report.map_or_else(|| "?".to_string(), |r| format_states(r.num_states)),
                peak_live_nodes: report.map_or(0, |r| r.bdd_peak),
                final_nodes: report.map_or(0, |r| r.bdd_final),
                sift_passes: report.map_or(0, |r| r.sift_passes),
                wall_s: walls[walls.len() / 2],
                wall_min_s: walls[0],
                wall_max_s: walls[walls.len() - 1],
                gc_collections: report.map_or(0, |r| r.gc_collections),
                gc_pause_ms: report.map_or(0.0, |r| r.gc_pause_ms),
                peak_rss_kb: peak_rss_kb(),
                cache: run.cache.to_string(),
                verdict,
                outcome,
                timeout_s,
                max_nodes: budget.max_nodes,
                max_steps: budget.max_steps,
            });
        }
    }
    let json = render_json(&json_rows);
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("{}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote {} rows to {}", json_rows.len(), path.display());
    }
    if let Some((path, old)) = &baseline {
        let new = rows_of(&json).expect("table1 writes valid JSON");
        let drifted = compare(old, &new);
        if drifted > 0 {
            eprintln!("--compare {path}: {drifted} rows drifted");
            exit = exit.worst(ProcessExit::Violation);
        }
    }
    println!();
    println!("Shape expectations (paper Section 6): state counts grow exponentially in n");
    println!("while BDD sizes and CPU stay moderate; NI-p/Com are negligible on marked");
    println!("graphs (muller, master-read); mutex rows exercise the conflict machinery.");
    println!("Engines must agree on every column except the CPU times (and iterations);");
    println!("reorder modes must agree on everything except BDD sizes and CPU times.");
    if exit != ProcessExit::Success {
        std::process::exit(exit.code());
    }
}
