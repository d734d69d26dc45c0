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
//!     [--order <strategy>] [--engine <engine>|all] [--jobs <n>] \
//!     [--jobs-matrix <n,n,…>] [--repeat <n>] [--reorder <mode>|all] \
//!     [--from-dir <dir>] [--json <path>] [--compare <old.json>] [--small]
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
//! * `--jobs <n>` sets the worker count for the parallel engine, whose
//!   workers share one BDD arena; `0` (the default) auto-detects the
//!   machine's available parallelism, and every row records the detected
//!   value as `jobs_detected`;
//! * `--jobs-matrix <n,n,…>` (e.g. `1,2,4,8`) prints one parallel-engine
//!   row per jobs value so the single-worker wall sits next to the
//!   multi-worker scaling curve in one table; overrides `--jobs`. The
//!   other engines ignore `jobs` and get one row each, at `jobs` 1;
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
//!   over the old one) per row with their medians, and exits 1 when a
//!   row's `verdict`, `states`, `outcome`, `final_nodes` or `sift_passes`
//!   differ or a row has no counterpart (rows only in the old file are
//!   ignored) — the check that a change moved costs, not answers;
//! * `--cache-dir <dir>` routes every row through the persistent result
//!   store (see `docs/persistent-store.md`): a rerun of an unchanged
//!   corpus reports `cache: warm` rows served without any fixpoint;
//! * `--warm-rerun` (requires `--cache-dir`) runs the whole table twice
//!   in one invocation — a cold pass then a warm pass — asserting that
//!   both passes agree on every verdict and state count and printing the
//!   aggregate cold/warm wall times and the speedup;
//! * `--timeout <secs>` / `--max-nodes <n>` / `--max-steps <n>` put a
//!   resource budget on every row; a row that exhausts its budget is
//!   recorded with `outcome: "exhausted"` (zeroed stats) instead of
//!   aborting the table, and the process exits 4 (see
//!   `docs/robustness.md`);
//! * `--fallback` arms the degradation ladder: on node/arena exhaustion a
//!   row retries the remaining fixpoint with the saturation engine plus
//!   forced sifting and, when that completes, is recorded with
//!   `outcome: "fallback"`;
//! * `--batch` drives every row through the `stgcheck serve` scheduler
//!   ([`stgcheck_core::Scheduler`]) instead of calling the verifier
//!   inline: rows are submitted up front and run on a fixed worker pool
//!   (`--workers <n>`, default 2) with the same coalescing path the
//!   daemon uses, and every row records its `queue_wait_ms`. Rows still
//!   print in table order. Incompatible with `--explicit`,
//!   `--warm-rerun` and `--repeat` (the pool owns the timing);
//! * `--small` runs the quick workload set across **all** engines — the
//!   CI smoke configuration that keeps the engine column honest.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use stgcheck_bench::{quick_workloads, table1_workloads, workloads_from_dir};
use stgcheck_core::protocol::{parse_json, Json};
use stgcheck_core::{
    verify_persistent, BudgetSpec, CacheStatus, EngineKind, Outcome, PersistOptions, ProcessExit,
    ReorderMode, SymbolicReport, VarOrder, VerifyOptions,
};
use stgcheck_stg::{build_state_graph, PersistencyPolicy, SgOptions};

/// Flags that stand alone, and flags that consume the next argument.
const SWITCHES: [&str; 5] = ["--explicit", "--small", "--warm-rerun", "--batch", "--fallback"];
const VALUED: [&str; 14] = [
    "--compare",
    "--order",
    "--engine",
    "--jobs",
    "--jobs-matrix",
    "--repeat",
    "--reorder",
    "--from-dir",
    "--json",
    "--cache-dir",
    "--workers",
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
    /// Milliseconds the row waited in the scheduler queue before a
    /// worker picked it up (`--batch` only; 0 for inline rows).
    queue_wait_ms: f64,
    /// Garbage collections the row ran (minor + full) and the total
    /// stop-the-world pause they cost, in milliseconds.
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

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_json(rows: &[JsonRow]) -> String {
    let mut out = String::from("{\n  \"generated_by\": \"table1\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"reorder\": \"{}\", \
             \"order\": \"{}\", \"jobs\": {}, \"jobs_detected\": {}, \"states\": \"{}\", \
             \"peak_live_nodes\": {}, \"final_nodes\": {}, \"sift_passes\": {}, \
             \"wall_s\": {:.6}, \"wall_min_s\": {:.6}, \"wall_max_s\": {:.6}, \
             \"queue_wait_ms\": {:.3}, \
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
            r.queue_wait_ms,
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
/// same [`KEY_COLUMNS`], prints its peak and wall ratios (new over old)
/// and the medians, and returns the number of rows whose
/// [`ANSWER_COLUMNS`] drifted or that have no counterpart in `old`.
fn compare(old: &[Json], new: &[Json]) -> usize {
    let key = |row: &Json| KEY_COLUMNS.map(|c| cell(row, c)).join(" ");
    let old_rows: HashMap<String, &Json> = old.iter().map(|row| (key(row), row)).collect();
    let ratio = |a: &Json, b: &Json, column: &str| {
        let (a, b) = (a.get(column)?.as_num()?, b.get(column)?.as_num()?);
        (a > 0.0).then(|| b / a)
    };
    let (mut peaks, mut walls, mut drifted) = (Vec::new(), Vec::new(), 0);
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
    let jobs: usize = value_of("--jobs").map_or(0, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--jobs needs a number, got `{v}`");
            std::process::exit(2);
        })
    });
    let jobs_matrix: Option<Vec<usize>> = value_of("--jobs-matrix").map(|v| {
        v.split(',')
            .map(|p| {
                p.trim().parse().unwrap_or_else(|_| {
                    eprintln!("--jobs-matrix needs comma-separated numbers, got `{v}`");
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
    let cache_dir: Option<PathBuf> = value_of("--cache-dir").map(PathBuf::from);
    let warm_rerun = args.iter().any(|a| a == "--warm-rerun");
    if warm_rerun && cache_dir.is_none() {
        eprintln!("--warm-rerun requires --cache-dir");
        std::process::exit(2);
    }
    let batch = args.iter().any(|a| a == "--batch");
    let batch_workers: usize = value_of("--workers").map_or(2, |v| {
        let n = v.parse().unwrap_or_else(|_| {
            eprintln!("--workers needs a number, got `{v}`");
            std::process::exit(2);
        });
        if n == 0 {
            eprintln!("--workers needs at least 1, got `{v}`");
            std::process::exit(2);
        }
        n
    });
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
    let mut budget = BudgetSpec::default();
    if let Some(v) = value_of("--timeout") {
        let secs: f64 = v.parse().unwrap_or_else(|_| {
            eprintln!("--timeout needs a number of seconds, got `{v}`");
            std::process::exit(2);
        });
        let timeout = BudgetSpec::timeout_from_secs(secs).unwrap_or_else(|e| {
            eprintln!("--timeout {e}, got `{v}`");
            std::process::exit(2);
        });
        budget.timeout = Some(timeout);
    }
    if let Some(v) = value_of("--max-nodes") {
        budget.max_nodes = v.parse().unwrap_or_else(|_| {
            eprintln!("--max-nodes needs a number, got `{v}`");
            std::process::exit(2);
        });
    }
    if let Some(v) = value_of("--max-steps") {
        budget.max_steps = v.parse().unwrap_or_else(|_| {
            eprintln!("--max-steps needs a number, got `{v}`");
            std::process::exit(2);
        });
    }
    budget.fallback = args.iter().any(|a| a == "--fallback");
    let timeout_s = budget.timeout.map_or(0.0, |d| d.as_secs_f64());
    if batch && (explicit || warm_rerun || repeat > 1) {
        eprintln!("--batch is incompatible with --explicit, --warm-rerun and --repeat");
        std::process::exit(2);
    }

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
    header.push_str(&format!(" {:>7}", "reorder"));
    header.push_str(&format!(" {:>7}", "jobs"));
    header.push_str(&format!(" {:>10}", "verdict"));
    if batch {
        header.push_str(&format!(" {:>8}", "q-wait"));
    }
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
    let mut json_rows: Vec<JsonRow> = Vec::new();
    let persist = PersistOptions { cache_dir: cache_dir.clone(), ..PersistOptions::default() };
    // One row per (engine, reorder, jobs) combination, jobs innermost so
    // the scaling curve of one configuration reads as consecutive lines.
    // Only the parallel engine reads `jobs`, so only it is multiplied by
    // the matrix; a bare `--jobs N` is the 1-element matrix of every engine.
    let mut combos: Vec<(EngineKind, ReorderMode, usize)> = Vec::new();
    for &kind in &engines {
        let jobs_of_kind = match &jobs_matrix {
            Some(matrix) if kind == EngineKind::ParallelSharded => matrix.clone(),
            Some(_) => vec![1],
            None => vec![jobs],
        };
        for &reorder in &reorders {
            for &j in &jobs_of_kind {
                combos.push((kind, reorder, j));
            }
        }
    }
    let make_opts =
        |arbitration: bool, kind: EngineKind, reorder: ReorderMode, j: usize| VerifyOptions {
            order,
            policy: PersistencyPolicy { allow_arbitration: arbitration },
            engine: stgcheck_core::EngineOptions { kind, jobs: j, ..Default::default() },
            reorder,
            budget,
        };
    // `--batch`: submit every (net, combo) row to the serve scheduler up
    // front, then consume the results from this map in table order — the
    // same worker pool + coalescing path `stgcheck serve` uses.
    let mut batch_results: HashMap<(usize, usize), stgcheck_core::JobResult> = HashMap::new();
    if batch {
        let scheduler =
            stgcheck_core::Scheduler::new(batch_workers, workloads.len() * combos.len() + 1);
        let (tx, rx) = std::sync::mpsc::channel();
        let mut submitted = 0;
        for (wi, w) in workloads.iter().enumerate() {
            for (ci, &(kind, reorder, j)) in combos.iter().enumerate() {
                let spec = stgcheck_core::JobSpec {
                    stg: w.stg.clone(),
                    options: make_opts(w.arbitration, kind, reorder, j),
                    persist: persist.clone(),
                };
                let tx = tx.clone();
                scheduler
                    .submit(
                        spec,
                        Box::new(move |r| {
                            let _ = tx.send(((wi, ci), r));
                        }),
                    )
                    .expect("batch queue is sized to fit every row");
                submitted += 1;
            }
        }
        for _ in 0..submitted {
            let (key, result) = rx.recv().expect("batch row result");
            batch_results.insert(key, result);
        }
        scheduler.drain();
    }
    let passes = if warm_rerun { 2 } else { 1 };
    // Cold-pass verdict + state count per (net, engine, reorder), checked
    // against the warm pass: a cache hit must be byte-identical on the
    // columns that matter.
    let mut cold_results: HashMap<(String, String, String), (&'static str, String)> =
        HashMap::new();
    let mut pass_wall = [0.0f64; 2];
    let mut exit = ProcessExit::Success;
    for (pass, pass_wall_slot) in pass_wall.iter_mut().enumerate().take(passes) {
        if warm_rerun {
            println!();
            println!("-- pass {}: {} --", pass + 1, if pass == 0 { "cold" } else { "warm" });
        }
        for (wi, w) in workloads.iter().enumerate() {
            // The explicit baseline is engine- and reorder-independent:
            // time it once per workload (cold pass only), outside the row
            // loops.
            let explicit_cell: Option<Result<(f64, usize), String>> =
                (explicit && w.explicit_feasible && pass == 0).then(|| {
                    let start = Instant::now();
                    let sg = build_state_graph(&w.stg, SgOptions::default());
                    let secs = start.elapsed().as_secs_f64();
                    sg.map(|sg| (secs, sg.len())).map_err(|e| e.to_string())
                });
            for (ci, &(kind, reorder, j)) in combos.iter().enumerate() {
                {
                    let opts = make_opts(w.arbitration, kind, reorder, j);
                    let jobs_detected = opts.engine.effective_jobs();
                    // `--repeat`: the reported wall is the median over all
                    // repeats; stats and verdict come from the first run
                    // (repeats are result-deterministic).
                    let mut walls: Vec<f64> = Vec::with_capacity(repeat);
                    let mut first = None;
                    let mut aborted = false;
                    let mut queue_wait_ms = 0.0;
                    for _ in 0..repeat {
                        let start = Instant::now();
                        // `--batch`: the row already ran on the scheduler's
                        // worker pool; consume its result instead of
                        // verifying inline.
                        let row_run = if batch {
                            let jr = batch_results
                                .remove(&(wi, ci))
                                .expect("each batch row is consumed exactly once");
                            queue_wait_ms = jr.queue_wait.as_secs_f64() * 1e3;
                            walls.push(jr.wall.as_secs_f64());
                            jr.run.map_err(|e| match e {
                                stgcheck_core::JobError::Verify(msg) => msg,
                                stgcheck_core::JobError::Panic(msg) => {
                                    format!("worker panic: {msg}")
                                }
                            })
                        } else {
                            let r = verify_persistent(&w.stg, opts, &persist)
                                .map_err(|e| e.to_string());
                            if r.is_ok() {
                                walls.push(start.elapsed().as_secs_f64());
                            }
                            r
                        };
                        match row_run {
                            Ok(r) => {
                                let done = matches!(r.outcome, Outcome::Completed(_));
                                if first.is_none() {
                                    first = Some(r);
                                }
                                if !done {
                                    break; // repeating an exhausted row is pure waste
                                }
                            }
                            Err(e) => {
                                println!("{:<16} verification aborted: {e}", w.name);
                                exit = exit.worst(ProcessExit::Violation);
                                aborted = true;
                                break;
                            }
                        }
                    }
                    if aborted || first.is_none() {
                        continue;
                    }
                    let run = first.expect("row ran at least once");
                    let wall_s = median(&mut walls);
                    let wall_min_s = walls.first().copied().unwrap_or(wall_s);
                    let wall_max_s = walls.last().copied().unwrap_or(wall_s);
                    *pass_wall_slot += wall_s;
                    let report = match run.outcome {
                        Outcome::Completed(report) => report,
                        Outcome::Exhausted { reason, .. } => {
                            println!("{:<16} {kind:>14} budget exhausted: {reason}", w.name);
                            exit = exit.worst(ProcessExit::Exhausted);
                            json_rows.push(JsonRow {
                                name: w.name.clone(),
                                engine: kind.to_string(),
                                reorder,
                                order,
                                jobs: j,
                                jobs_detected,
                                states: "?".to_string(),
                                peak_live_nodes: 0,
                                final_nodes: 0,
                                sift_passes: 0,
                                wall_s,
                                wall_min_s,
                                wall_max_s,
                                queue_wait_ms,
                                gc_collections: 0,
                                gc_pause_ms: 0.0,
                                peak_rss_kb: peak_rss_kb(),
                                cache: run.cache.to_string(),
                                verdict: "?",
                                outcome: "exhausted",
                                timeout_s,
                                max_nodes: budget.max_nodes,
                                max_steps: budget.max_steps,
                            });
                            continue;
                        }
                        Outcome::Interrupted { .. } => {
                            println!("{:<16} {kind:>14} interrupted", w.name);
                            exit = exit.worst(ProcessExit::Interrupted);
                            json_rows.push(JsonRow {
                                name: w.name.clone(),
                                engine: kind.to_string(),
                                reorder,
                                order,
                                jobs: j,
                                jobs_detected,
                                states: "?".to_string(),
                                peak_live_nodes: 0,
                                final_nodes: 0,
                                sift_passes: 0,
                                wall_s,
                                wall_min_s,
                                wall_max_s,
                                queue_wait_ms,
                                gc_collections: 0,
                                gc_pause_ms: 0.0,
                                peak_rss_kb: peak_rss_kb(),
                                cache: run.cache.to_string(),
                                verdict: "?",
                                outcome: "interrupted",
                                timeout_s,
                                max_nodes: budget.max_nodes,
                                max_steps: budget.max_steps,
                            });
                            continue;
                        }
                    };
                    let mut row = report.table1_row();
                    if explicit {
                        match &explicit_cell {
                            Some(Ok((secs, len))) => {
                                assert_eq!(
                                    *len as u128, report.num_states,
                                    "{}: explicit and symbolic disagree",
                                    w.name
                                );
                                row.push_str(&format!(" {secs:>10.3}"));
                            }
                            Some(Err(e)) => row.push_str(&format!(" {e:>10}")),
                            None => row.push_str(&format!(" {:>10}", "—")),
                        }
                    }
                    row.push_str(&format!(" {reorder:>7}"));
                    row.push_str(&format!(" {:>7}", format!("{j}/{jobs_detected}")));
                    let verdict = match report.verdict {
                        stgcheck_stg::Implementability::Gate => "gate",
                        stgcheck_stg::Implementability::InputOutput => "i/o",
                        stgcheck_stg::Implementability::SpeedIndependent => "si-only",
                        stgcheck_stg::Implementability::NotImplementable => "reject",
                    };
                    row.push_str(&format!(" {verdict:>10}"));
                    if batch {
                        row.push_str(&format!(" {queue_wait_ms:>8.1}"));
                    }
                    println!("{row}");
                    let states = stgcheck_core::format_states(report.num_states);
                    if warm_rerun {
                        let key =
                            (w.name.clone(), report.engine.clone(), format!("{reorder}-j{j}"));
                        if pass == 0 {
                            cold_results.insert(key, (verdict, states.clone()));
                        } else {
                            assert_eq!(
                                run.cache,
                                CacheStatus::Warm,
                                "{}: warm pass missed the cache",
                                w.name
                            );
                            let (cold_verdict, cold_states) =
                                cold_results.get(&key).expect("cold row for warm row");
                            assert_eq!(
                                (*cold_verdict, cold_states),
                                (verdict, &states),
                                "{}: warm result diverges from cold",
                                w.name
                            );
                        }
                    }
                    json_rows.push(JsonRow {
                        name: w.name.clone(),
                        engine: report.engine.clone(),
                        reorder,
                        order,
                        jobs: j,
                        jobs_detected,
                        states,
                        peak_live_nodes: report.bdd_peak,
                        final_nodes: report.bdd_final,
                        sift_passes: report.sift_passes,
                        wall_s,
                        wall_min_s,
                        wall_max_s,
                        queue_wait_ms,
                        gc_collections: report.gc_collections,
                        gc_pause_ms: report.gc_pause_ms,
                        peak_rss_kb: peak_rss_kb(),
                        cache: run.cache.to_string(),
                        verdict,
                        outcome: if run.fell_back { "fallback" } else { "ok" },
                        timeout_s,
                        max_nodes: budget.max_nodes,
                        max_steps: budget.max_steps,
                    });
                }
            }
        }
    }
    if warm_rerun {
        println!();
        println!(
            "cache: cold pass {:.3}s, warm pass {:.3}s ({:.1}x speedup), verdicts identical",
            pass_wall[0],
            pass_wall[1],
            pass_wall[0] / pass_wall[1].max(1e-9),
        );
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
