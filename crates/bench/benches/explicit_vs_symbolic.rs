//! The paper's motivation quantified: explicit state enumeration
//! (`build_state_graph`) versus symbolic traversal as the state space
//! grows. The crossover — where the symbolic method starts winning — is
//! the experimental claim of Section 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stgcheck_core::{SymbolicStg, VarOrder};
use stgcheck_stg::{build_state_graph, gen, Code, SgOptions};

fn bench_crossover(c: &mut Criterion) {
    // Explicit enumeration is capped at small n (it explodes — that is
    // the point); the symbolic side scales much further.
    for n in [4usize, 8, 12] {
        let stg = gen::muller_pipeline(n);
        let mut group = c.benchmark_group(format!("explicit_vs_symbolic/muller{n}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("symbolic", n), |bencher| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
                let t = sym.traverse(Code::ZERO);
                std::hint::black_box(t.stats.num_states)
            });
        });
        if n <= 12 {
            group.bench_function(BenchmarkId::new("explicit", n), |bencher| {
                bencher.iter(|| {
                    let sg = build_state_graph(&stg, SgOptions::default()).expect("ok");
                    std::hint::black_box(sg.len())
                });
            });
        }
        group.finish();
    }
}

fn bench_crossover_par(c: &mut Criterion) {
    for n in [4usize, 6, 8] {
        let stg = gen::par_handshakes(n);
        let mut group = c.benchmark_group(format!("explicit_vs_symbolic/par_handshakes{n}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("symbolic", n), |bencher| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
                let t = sym.traverse(Code::ZERO);
                std::hint::black_box(t.stats.num_states)
            });
        });
        group.bench_function(BenchmarkId::new("explicit", n), |bencher| {
            bencher.iter(|| {
                let sg = build_state_graph(&stg, SgOptions::default()).expect("ok");
                std::hint::black_box(sg.len())
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_crossover, bench_crossover_par);
criterion_main!(benches);
