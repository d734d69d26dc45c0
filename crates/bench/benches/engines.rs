//! Image-engine comparison: the per-transition baseline vs. the parallel
//! sharded engine vs. the saturation engine, on the workloads the
//! acceptance story names (`muller_pipeline(10)` and the wider scalable
//! families).
//!
//! The three engines compute the identical `Reached` BDD
//! (`tests/engines.rs` asserts it); this bench measures what each one
//! pays for it. Expectations: the sharded engine needs real cores — on a
//! single-CPU host its sync overhead makes it a regression, which is
//! exactly the kind of fact the engine column exists to surface;
//! saturation trades frontier breadth for cluster-local fixpoints and
//! should win the peak-node column on pipeline-shaped nets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stgcheck_core::{EngineKind, EngineOptions, SymbolicStg, VarOrder};
use stgcheck_stg::{gen, Code};

fn engine_configs() -> Vec<(&'static str, EngineOptions)> {
    vec![
        ("per-transition", EngineOptions::default()),
        (
            "parallel-2",
            EngineOptions { kind: EngineKind::ParallelSharded, jobs: 2, ..Default::default() },
        ),
        (
            "parallel-4",
            EngineOptions { kind: EngineKind::ParallelSharded, jobs: 4, ..Default::default() },
        ),
        ("saturation", EngineOptions { kind: EngineKind::Saturation, ..Default::default() }),
    ]
}

fn bench_engines_muller10(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines/muller10");
    let stg = gen::muller_pipeline(10);
    for (name, opts) in engine_configs() {
        group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
                let t = sym.traverse_with_engine(Code::ZERO, &opts);
                std::hint::black_box(t.stats.num_states)
            });
        });
    }
    group.finish();
}

fn bench_engines_master_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines/master_read8");
    let stg = gen::master_read(8);
    for (name, opts) in engine_configs() {
        group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
                let code = sym.effective_initial_code().unwrap();
                let t = sym.traverse_with_engine(code, &opts);
                std::hint::black_box(t.stats.num_states)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines_muller10, bench_engines_master_read);
criterion_main!(benches);
