//! Micro-benchmarks of the BDD substrate: the operations the symbolic
//! traversal is made of (conjunction, cube cofactor, existential
//! abstraction, and the `flip_cube` image kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stgcheck_bdd::{Bdd, BddManager, BddOps, Literal, Var};

/// Builds the disjunction of `n` conjunctions `aᵢ ∧ bᵢ` under an
/// interleaved order — linear-sized, a realistic reachable-set shape.
fn build_sum_of_products(n: usize) -> (BddManager, Bdd, Vec<Var>, Vec<Var>) {
    let mut m = BddManager::new();
    let mut avars = Vec::new();
    let mut bvars = Vec::new();
    for i in 0..n {
        avars.push(m.new_var(format!("a{i}")));
        bvars.push(m.new_var(format!("b{i}")));
    }
    let mut f = m.zero();
    for i in 0..n {
        let (a, b) = (m.var(avars[i]), m.var(bvars[i]));
        let t = m.and(a, b);
        f = m.or(f, t);
    }
    (m, f, avars, bvars)
}

fn bench_and(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd/and");
    for n in [16usize, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let (mut m, f, avars, _) = build_sum_of_products(n);
            let mut g = m.one();
            for &v in avars.iter().take(n / 2) {
                let lv = m.var(v);
                g = m.and(g, lv);
            }
            bencher.iter(|| std::hint::black_box(m.and(f, g)));
        });
    }
    group.finish();
}

fn bench_cofactor(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd/cofactor_cube");
    for n in [16usize, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let (mut m, f, avars, bvars) = build_sum_of_products(n);
            let lits: Vec<Literal> = avars
                .iter()
                .step_by(4)
                .map(|&v| Literal::positive(v))
                .chain(bvars.iter().step_by(8).map(|&v| Literal::negative(v)))
                .collect();
            let cube = m.cube(&lits);
            bencher.iter(|| std::hint::black_box(m.cofactor_cube(f, cube)));
        });
    }
    group.finish();
}

fn bench_exists(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd/exists");
    for n in [16usize, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let (mut m, f, avars, _) = build_sum_of_products(n);
            let cube = m.vars_cube(&avars);
            bencher.iter(|| std::hint::black_box(m.exists(f, cube)));
        });
    }
    group.finish();
}

/// The image kernel on the same cube as `bench_cofactor`: one pass that
/// replaces the cofactor and the product with the flipped literals.
fn bench_flip_cube(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd/flip_cube");
    for n in [16usize, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            let (mut m, f, avars, bvars) = build_sum_of_products(n);
            let lits: Vec<Literal> = avars
                .iter()
                .step_by(4)
                .map(|&v| Literal::positive(v))
                .chain(bvars.iter().step_by(8).map(|&v| Literal::negative(v)))
                .collect();
            let cube = m.cube(&lits);
            bencher.iter(|| std::hint::black_box(m.flip_cube(f, cube, false)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_and, bench_cofactor, bench_exists, bench_flip_cube);
criterion_main!(benches);
