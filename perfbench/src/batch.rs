//! The batch workloads: a fixed list of rows (net × engine × jobs), each
//! fed to the program as `.g` text and verified the way the CLI does it,
//! repeated in passes until the run's time is used.

use std::path::Path;
use std::time::Instant;

use stgcheck_core::{EngineKind, EngineOptions, ReorderMode, VarOrder, VerifyOptions};
use stgcheck_stg::{write_g, PersistencyPolicy};

use crate::compose::{timed, verify_text, verify_traced, Summary};
use crate::host::Host;
use crate::refs::{family_expected, Expected, Family};
use crate::rng::Rng;
use crate::stats::{geomean, median, spread};
use crate::trace::Tracer;
use crate::{Args, Report};

/// One row: a family member verified under one configuration.
#[derive(Copy, Clone, Debug)]
pub struct Row {
    pub family: Family,
    pub n: usize,
    pub kind: EngineKind,
    pub jobs: usize,
    pub order: VarOrder,
    pub reorder: ReorderMode,
}

impl Row {
    fn label(&self) -> String {
        format!("{}-{} {} j{}", self.family.name(), self.n, self.kind, self.jobs)
    }

    fn options(&self) -> VerifyOptions {
        VerifyOptions {
            order: self.order,
            policy: PersistencyPolicy { allow_arbitration: self.family.arbitration() },
            engine: EngineOptions { kind: self.kind, jobs: self.jobs, ..EngineOptions::default() },
            reorder: self.reorder,
            ..VerifyOptions::default()
        }
    }

    fn expected(&self) -> Expected {
        family_expected(self.family, self.n)
    }
}

/// The rows of a batch workload, or `None` for another workload's name.
pub fn rows(workload: &str) -> Option<Vec<Row>> {
    use EngineKind::{ParallelSharded as Par, PerTransition as Pt, Saturation as Sat};
    use Family::{MasterRead, Muller, Mutex, ParHs};
    let decl = |family, n, kind, jobs| Row {
        family,
        n,
        kind,
        jobs,
        order: VarOrder::Declaration,
        reorder: ReorderMode::None,
    };
    let rows = match workload {
        "bad-order" => vec![
            decl(MasterRead, 6, Pt, 1),
            decl(ParHs, 6, Pt, 1),
            decl(Muller, 11, Pt, 1),
            decl(Mutex, 8, Pt, 1),
            decl(Muller, 11, Sat, 1),
            decl(ParHs, 6, Par, 2),
        ],
        "default-order" => [(MasterRead, 8), (Muller, 20), (Mutex, 16)]
            .into_iter()
            .map(|(family, n)| Row {
                family,
                n,
                kind: Pt,
                jobs: 1,
                order: VarOrder::Interleaved,
                reorder: ReorderMode::None,
            })
            .collect(),
        "bad-order-sift" => [(Muller, 10), (MasterRead, 6), (ParHs, 6)]
            .into_iter()
            .map(|(family, n)| Row { reorder: ReorderMode::Auto, ..decl(family, n, Pt, 1) })
            .collect(),
        _ => return None,
    };
    Some(rows)
}

/// Set-up repetitions; the median is reported.
const SETUPS: usize = 51;

/// Generates every row's net, writes it as `.g` into `dir` and reads the
/// text back: the inputs the measured calls receive. The seed only names
/// the models; the nets are the fixed family members.
fn make_inputs(rows: &[Row], dir: &Path, seed: u64) -> std::io::Result<Vec<String>> {
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let text = write_g(&row.family.build(row.n)).replacen(
                ".model ",
                &format!(".model s{seed}-{i}-"),
                1,
            );
            let path = dir.join(format!("row{i}.g"));
            std::fs::write(&path, text)?;
            std::fs::read_to_string(&path)
        })
        .collect()
}

/// Per-row samples across passes.
#[derive(Default)]
struct RowSamples {
    /// Walls scaled to the reference host speed (see `host`).
    walls: Vec<f64>,
    /// The same walls as measured.
    raw: Vec<f64>,
    traced_walls: Vec<f64>,
    gc_pause_s: Vec<f64>,
}

pub fn run(args: &Args, rows: Vec<Row>, dir: &Path) -> Report {
    let mut rng = Rng::new(args.seed);
    let mut host = Host::new();
    // Set-up is repeated and its median reported, so that set-up time is
    // measured as steadily as the rest.
    let mut setup = Vec::new();
    let mut texts = Vec::new();
    for _ in 0..SETUPS {
        let (made, scaled, _) = host.timed(|| make_inputs(&rows, dir, args.seed));
        texts = made.expect("write benchmark inputs");
        setup.push(scaled);
    }
    let mut report = Report::default();
    report.set("setup_s", median(&setup));

    // One untimed pass first, so the allocator and the caches are warm when
    // timing starts.
    for (row, text) in rows.iter().zip(&texts) {
        let _ = verify_text(text, row.options());
    }

    let mut samples: Vec<RowSamples> = rows.iter().map(|_| RowSamples::default()).collect();
    let mut tracer = Tracer::new();
    let mut traced_rows: Vec<Option<Summary>> = vec![None; rows.len()];
    let start = Instant::now();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    for pass in 0.. {
        let pass_start = Instant::now();
        rng.shuffle(&mut order);
        for &i in &order {
            let row = &rows[i];
            let opts = row.options();
            report.attempted += 1;
            // The traced run alternates which side goes first, so neither
            // always finds the allocator warm.
            let traced_first = pass % 2 == 1;
            let trace_row =
                |tracer: &mut Tracer| timed(|| verify_traced(&texts[i], opts, tracer, i));
            let early = (args.trace && traced_first).then(|| trace_row(&mut tracer));
            let (run, wall, raw) = host.timed(|| verify_text(&texts[i], opts));
            let traced = early.or_else(|| args.trace.then(|| trace_row(&mut tracer)));
            let r = match run {
                Ok(r) => r,
                Err(e) => {
                    report.failed += 1;
                    report.note(format!("{}: {e}", row.label()));
                    continue;
                }
            };
            let got = Summary::from(&r);
            if (got.verdict, got.states) != (row.expected().verdict, row.expected().states) {
                report.wrong += 1;
                report.note(format!("{}: got {got:?}, expected {:?}", row.label(), row.expected()));
            }
            samples[i].walls.push(wall);
            samples[i].raw.push(raw);
            samples[i].gc_pause_s.push(r.gc_pause_ms / 1e3);
            if let Some((traced, traced_wall)) = traced {
                match traced {
                    Ok(traced) if traced == got => traced_rows[i] = Some(traced),
                    Ok(traced) => {
                        report.wrong += 1;
                        report.note(format!(
                            "{}: traced composition {traced:?} differs from verify {got:?}",
                            row.label()
                        ));
                    }
                    Err(e) => {
                        report.failed += 1;
                        report.note(format!("{} (traced): {e}", row.label()));
                    }
                }
                samples[i].traced_walls.push(traced_wall);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + pass_start.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }

    if samples.iter().any(|s| s.walls.is_empty()) {
        return report; // a row never verified: its errors are in the notes
    }
    let passes = samples[0].walls.len();
    let row_walls: Vec<f64> = samples.iter().map(|s| median(&s.walls)).collect();
    for (row, (s, w)) in rows.iter().zip(samples.iter().zip(&row_walls)) {
        let within = if s.walls.len() >= 2 { spread(&s.walls) } else { 0.0 };
        report.note(format!(
            "row {:<28} wall {w:>8.4} s (measured {:>8.4} s)  gc pause {:>7.4} s  ({} samples, IQR/median {within:.3})",
            row.label(),
            median(&s.raw),
            median(&s.gc_pause_s),
            s.walls.len()
        ));
    }
    let verify_s: f64 = row_walls.iter().sum();
    let measured_s: f64 = samples.iter().map(|s| median(&s.raw)).sum();
    report.note(format!("verify_s as measured {measured_s:.5} s"));
    report.set("verify_s", verify_s);
    report.set("verify_geomean_s", geomean(&row_walls));
    // A batch row is one closed-loop request from one client: its latency
    // is the row's wall. A handful of rows leaves no percentile with ten
    // samples beyond it, so the tail is the slowest row.
    report.set("serve_p50_ms", median(&row_walls) * 1e3);
    report.set("serve_p99_ms", row_walls.iter().copied().fold(0.0, f64::max) * 1e3);
    report.set("serve_max_rps", rows.len() as f64 / verify_s);
    report.note(format!("{passes} passes over {} rows", rows.len()));
    if args.trace {
        // Spans are measured walls, so the traced side is compared with
        // the measured (unscaled) untraced walls.
        let traced: f64 = samples.iter().map(|s| median(&s.traced_walls)).sum();
        report.set("trace.overhead_frac", traced / measured_s - 1.0);
        crate::layers::from_spans(&tracer, passes, measured_s, &mut report);
        let traced = traced_rows.iter().flatten();
        report.set("engine.iterations", traced.clone().map(|t| t.iterations as f64).sum());
        report.set("engine.reached_nodes", traced.map(|t| t.reached_nodes as f64).sum());
        report.tracer = Some(tracer);
    }
    report
}
