//! Variable-ordering ablation, the timing half of
//! `tests/ordering_ablation.rs`.
//!
//! The paper: "we have found that BDDs may have an exponential size if
//! appropriate heuristics for variable ordering are not used". This bench
//! traverses the same nets under each [`VarOrder`] strategy and reports
//! the runtime; that test asserts the peak-size ranking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stgcheck_core::{SymbolicStg, VarOrder};
use stgcheck_stg::{gen, Code};

const ORDERS: [(&str, VarOrder); 4] = [
    ("interleaved", VarOrder::Interleaved),
    ("places-first", VarOrder::PlacesThenSignals),
    ("signals-first", VarOrder::SignalsThenPlaces),
    ("declaration", VarOrder::Declaration),
];

fn bench_orders_muller(c: &mut Criterion) {
    let mut group = c.benchmark_group("ordering/muller10");
    let stg = gen::muller_pipeline(10);
    for (name, order) in ORDERS {
        group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&stg, order);
                let t = sym.traverse(Code::ZERO);
                std::hint::black_box((t.stats.num_states, t.stats.peak_nodes))
            });
        });
    }
    group.finish();
}

fn bench_orders_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("ordering/par_handshakes8");
    let stg = gen::par_handshakes(8);
    for (name, order) in ORDERS {
        group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
            bencher.iter(|| {
                let mut sym = SymbolicStg::new(&stg, order);
                let t = sym.traverse(Code::ZERO);
                std::hint::black_box((t.stats.num_states, t.stats.peak_nodes))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_orders_muller, bench_orders_par);
criterion_main!(benches);
