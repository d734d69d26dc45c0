//! Helpers shared by the integration suites that read the checked-in
//! `benchmarks/` corpus. The corpus contents themselves have one source
//! of truth: `stgcheck::stg::gen::benchmark_fixtures`.

// Each test target compiles its own copy of this module and not every
// target uses every helper.
#![allow(dead_code)]

use std::path::Path;

use stgcheck::core::SymbolicReport;
use stgcheck::stg::{gen, parse_g, Stg};

/// Parses one checked-in fixture from `benchmarks/`.
pub fn fixture(name: &str) -> Stg {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks").join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run `cargo run --example gen_data`)", path.display()));
    parse_g(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every checked-in benchmark fixture, parsed from disk.
pub fn fixture_corpus() -> Vec<Stg> {
    gen::benchmark_fixtures().into_iter().map(|(name, _)| fixture(name)).collect()
}

/// The hand-imported corpus nets (no in-code generator; the `.g` files
/// are the source of truth — see `benchmarks/README.md`).
pub fn imported_corpus() -> Vec<Stg> {
    ["celement.g", "fd_latch_simple.g", "par_join.g"].into_iter().map(fixture).collect()
}

/// What a verification answered, without the timings: the verdict, the
/// state count and every violation by index.
pub fn answer(r: &SymbolicReport) -> String {
    let pers: Vec<_> = r.persistency.iter().map(|v| (v.fired, v.disabled)).collect();
    let trans: Vec<_> = r.transition_persistency.iter().map(|v| (v.fired, v.disabled)).collect();
    let safety: Vec<_> = r.safety.iter().map(|v| (v.transition, v.place)).collect();
    let consistency: Vec<_> = r.consistency.iter().map(|v| (v.signal, v.polarity)).collect();
    let fake: Vec<_> = r.fake_violations.iter().map(|v| (v.t1, v.t2)).collect();
    let csc: Vec<_> = r.csc.iter().map(|a| (a.signal, a.holds)).collect();
    format!(
        "{:?} {} {pers:?} {trans:?} {safety:?} {consistency:?} {fake:?} {csc:?} {:?}",
        r.verdict, r.num_states, r.irreducible_signals
    )
}
