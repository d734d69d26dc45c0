//! Per-phase benchmarks: the cost of each verification phase of Table 1
//! (T+C, NI-p, Com, CSC) on the quick workload set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stgcheck_bench::quick_workloads;
use stgcheck_core::{SymbolicStg, VarOrder};
use stgcheck_stg::PersistencyPolicy;

fn bench_phases(c: &mut Criterion) {
    for w in quick_workloads() {
        let mut group = c.benchmark_group(format!("checks/{}", w.name));
        let policy = PersistencyPolicy { allow_arbitration: w.arbitration };

        group.bench_function(BenchmarkId::new("traversal+consistency", ""), |bencher| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&w.stg, VarOrder::Interleaved);
                let code = sym.effective_initial_code().expect("code");
                let t = sym.traverse(code);
                let cons = sym.check_consistency(t.reached);
                std::hint::black_box((t.stats.num_states, cons.len()))
            });
        });

        // Pre-compute the reachable set once for the downstream phases.
        let mut sym = SymbolicStg::new(&w.stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().expect("code");
        let t = sym.traverse(code);
        let reached = t.reached;
        let r_n = sym.project_markings(reached);

        group.bench_function(BenchmarkId::new("persistency", ""), |bencher| {
            bencher.iter(|| std::hint::black_box(sym.check_signal_persistency(r_n, policy).len()));
        });
        group.bench_function(BenchmarkId::new("fake-conflicts", ""), |bencher| {
            bencher.iter(|| std::hint::black_box(sym.check_fake_freedom(r_n).len()));
        });
        group.bench_function(BenchmarkId::new("csc", ""), |bencher| {
            bencher.iter(|| {
                let analyses = sym.check_csc(reached);
                std::hint::black_box(analyses.iter().filter(|a| !a.holds).count())
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
