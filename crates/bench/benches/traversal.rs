//! Traversal benchmarks: the Fig. 5 fixed point on the scalable examples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stgcheck_core::{SymbolicStg, VarOrder};
use stgcheck_stg::{gen, Code};

fn bench_muller_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("traversal/muller");
    for n in [8usize, 16, 24] {
        let stg = gen::muller_pipeline(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
                let t = sym.traverse(Code::ZERO);
                std::hint::black_box(t.stats.num_states)
            });
        });
    }
    group.finish();
}

fn bench_par_handshakes_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("traversal/par_handshakes");
    for n in [8usize, 16, 24] {
        let stg = gen::par_handshakes(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
                let t = sym.traverse(Code::ZERO);
                std::hint::black_box(t.stats.num_states)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_muller_scaling, bench_par_handshakes_scaling);
criterion_main!(benches);
