//! The stgcheck benchmark: four seeded workloads, each loading a different
//! layer, with end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bad-order|default-order|bad-order-sift|serve-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload all` runs every workload, each in a process of its own.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A verdict or state count that differs from its
//! independent reference makes the run exit 1.

mod batch;
mod compose;
mod host;
mod layers;
mod refs;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

const WORKLOADS: [&str; 4] = ["bad-order", "default-order", "bad-order-sift", "serve-mixed"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("verify_geomean_s", "s"),
    ("peak_rss_mb", "MB"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_max_rps", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (zero
/// where the workload does not reach the layer).
const PER_LAYER: [(&str, &str); 40] = [
    ("stg.parse_s", "s"),
    ("encode.new_s", "s"),
    ("encode.new_share_small", "frac"),
    ("traverse.infer_s", "s"),
    ("traverse.infer.gc_pause_s", "s"),
    ("traverse.infer_share", "frac"),
    ("traverse.project_s", "s"),
    ("engine.traverse_s", "s"),
    ("engine.iterations", "count"),
    ("engine.reached_nodes", "count"),
    ("engine.traverse.gc_pause_s", "s"),
    ("consistency.check_s", "s"),
    ("persistency.check_s", "s"),
    ("fake.check_s", "s"),
    ("csc.nondeterminism_s", "s"),
    ("csc.check_s", "s"),
    ("csc.check.gc_pause_s", "s"),
    ("csc.check_share", "frac"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_full_runs", "count"),
    ("bdd.gc_pause_s", "s"),
    ("bdd.gc_reclaimed", "count"),
    ("bdd.reclaimed_per_gc", "count"),
    ("bdd.gc_share", "frac"),
    ("bdd.sift_runs", "count"),
    ("bdd.sift_swaps", "count"),
    ("store.hit_ratio", "frac"),
    ("store.warm_ms_p50", "ms"),
    ("store.cold_ms_p50", "ms"),
    ("store.bytes", "bytes"),
    ("protocol.parse_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.run_ms_p99", "ms"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Printed with the figures, carried on the result line as `correct`,
/// `failed` and `attempted` (they are 0 on a good run).
const PRINTED_ONLY: [(&str, &str); 2] = [("wrong_frac", "frac"), ("failed_frac", "frac")];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Results that differ from their independent reference.
    pub wrong: usize,
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Process peak resident set (`VmHWM`) in MB; 0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Flushes dirty file-system state (`sync`); a no-op where the command is
/// missing.
pub fn sync_disks() {
    let _ = std::process::Command::new("sync").status();
}

/// Runs every workload in a child process with the same arguments, so each
/// process's peak RSS belongs to one workload, and exits with the worst
/// exit code.
fn run_all() -> ! {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut worst = 0;
    for w in WORKLOADS {
        let mut child_args = argv.clone();
        let i = child_args.iter().position(|a| a == "--workload").expect("checked by parse_args");
        child_args[i + 1] = w.to_string();
        let code = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_or(2, |s| s.code().unwrap_or(2));
        worst = worst.max(code);
    }
    std::process::exit(worst);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    if args.workload == "all" {
        run_all();
    }
    // Start from a quiet file system: write-back and discards left by an
    // earlier run would otherwise land inside this run's measurements.
    sync_disks();
    let out_dir = PathBuf::from(".perfbench");
    let work = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    });
    let mut report = if let Some(rows) = batch::rows(&args.workload) {
        batch::run(&args, rows, &work)
    } else if args.workload == "serve-mixed" {
        serve::run(&args, &work)
    } else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        let _ = std::fs::remove_dir_all(&work);
        std::process::exit(2);
    };
    report.set("peak_rss_mb", peak_rss_mb());
    let _ = std::fs::remove_dir_all(&work);
    sync_disks();
    let attempted = report.attempted.max(1) as f64;
    report.set("wrong_frac", report.wrong as f64 / attempted);
    report.set("failed_frac", report.failed as f64 / attempted);
    if let Some(tracer) = &report.tracer {
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => {
                report.note(format!("{} spans written to {}", tracer.spans.len(), path.display()))
            }
            Err(e) => report.note(format!("could not write {}: {e}", path.display())),
        }
    }

    println!(
        "perfbench {} seed {} ({}s, trace {})",
        args.workload, args.seed, args.seconds, args.trace
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for (name, value) in &report.metrics {
        let unit =
            END_TO_END.iter().chain(&PER_LAYER).chain(&PRINTED_ONLY).find(|(n, _)| n == name);
        println!("  {name:<28} {value} {}", unit.map_or("", |(_, u)| *u));
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(*name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.wrong > 0 {
        std::process::exit(1);
    }
}
