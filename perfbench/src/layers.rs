//! Per-layer metrics from the traced run's spans.

use crate::trace::Tracer;
use crate::Report;

/// Span names summed into each per-layer time metric.
const TIMES: [(&str, &[&str]); 10] = [
    ("stg.parse_s", &["stg.parse"]),
    ("encode.new_s", &["encode.new"]),
    ("traverse.infer_s", &["traverse.infer"]),
    ("traverse.project_s", &["traverse.project"]),
    ("engine.traverse_s", &["engine.traverse"]),
    ("consistency.check_s", &["consistency.check", "safety.check", "deadlock.check"]),
    ("persistency.check_s", &["persistency.check", "persistency.transition"]),
    ("fake.check_s", &["fake.check"]),
    ("csc.nondeterminism_s", &["csc.nondeterminism"]),
    ("csc.check_s", &["csc.check", "csc.reducible"]),
];

/// GC pauses inside the three phases that collect most.
const GC_PAUSES: [(&str, &[&str]); 3] = [
    ("traverse.infer.gc_pause_s", &["traverse.infer"]),
    ("engine.traverse.gc_pause_s", &["engine.traverse"]),
    ("csc.check.gc_pause_s", &["csc.check", "csc.reducible"]),
];

/// Sets every span-derived per-layer metric on `report`, per pass (the
/// spans of `passes` traced repetitions of the same rows are averaged).
/// `verify_s` is the untraced wall of one pass, the base of `bdd.gc_share`.
pub fn from_spans(tr: &Tracer, passes: usize, verify_s: f64, report: &mut Report) {
    let per_pass = |x: f64| x / passes as f64;
    let own = tr.self_by_name();
    let self_of = |names: &[&str]| names.iter().filter_map(|n| own.get(n)).sum::<f64>();
    for (metric, names) in TIMES {
        report.set(metric, per_pass(self_of(names)));
    }
    let pause_of = |names: &[&str]| {
        tr.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .filter_map(|s| s.bdd)
            .map(|b| b.gc_pause_ns as f64 / 1e9)
            .sum::<f64>()
    };
    for (metric, names) in GC_PAUSES {
        report.set(metric, per_pass(pause_of(names)));
    }

    let rows_wall: f64 = tr.spans.iter().filter(|s| s.name == "row").map(|s| s.secs()).sum();
    let share = |names: &[&str]| if rows_wall > 0.0 { self_of(names) / rows_wall } else { 0.0 };
    report.set("traverse.infer_share", share(&["traverse.infer"]));
    report.set("csc.check_share", share(&["csc.check", "csc.reducible"]));

    let deltas: Vec<_> = tr.spans.iter().filter_map(|s| s.bdd).collect();
    let sum = |f: &dyn Fn(&crate::trace::BddDelta) -> f64| deltas.iter().map(f).sum::<f64>();
    let gc_runs = sum(&|b| b.gc_runs as f64);
    let reclaimed = sum(&|b| b.gc_reclaimed as f64);
    let pause = sum(&|b| b.gc_pause_ns as f64 / 1e9);
    report
        .set("bdd.peak_live_nodes", deltas.iter().map(|b| b.peak_after).max().unwrap_or(0) as f64);
    report.set("bdd.gc_runs", per_pass(gc_runs));
    report.set("bdd.gc_full_runs", per_pass(sum(&|b| b.gc_full_runs as f64)));
    report.set("bdd.gc_pause_s", per_pass(pause));
    report.set("bdd.gc_reclaimed", per_pass(reclaimed));
    report.set("bdd.reclaimed_per_gc", if gc_runs > 0.0 { reclaimed / gc_runs } else { 0.0 });
    report.set("bdd.gc_share", if verify_s > 0.0 { per_pass(pause) / verify_s } else { 0.0 });
    report.set("bdd.sift_runs", per_pass(sum(&|b| b.sift_runs as f64)));
    report.set("bdd.sift_swaps", per_pass(sum(&|b| b.sift_swaps as f64)));
}
