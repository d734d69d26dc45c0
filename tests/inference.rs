//! Initial-code inference on STGs without a declared code.
//!
//! `SymbolicStg::effective_initial_code` stops each frozen fixpoint at
//! the first iteration that enables its signal, so on an inconsistent STG
//! it may return a code where the exhaustive Section 5.1 loop reports an
//! ambiguity. `verify` certifies the code with its consistency check and
//! re-runs the exhaustive loop when that check fails. These tests pin the
//! contract: `verify` answers exactly as the exhaustive loop, and as the
//! explicit `stgcheck_stg::infer_initial_code`, under every engine.

mod common;

use common::{fixture_corpus, imported_corpus};
use stgcheck::core::{
    verify, Budget, BudgetSpec, EngineKind, EngineOptions, ReorderMode, ResourceError, SymbolicStg,
    VarOrder, VerifyError, VerifyOptions,
};
use stgcheck::stg::{gen, infer_initial_code, parse_g, write_g, Code, SgError, SgOptions, Stg};

fn ambiguous_late() -> Stg {
    let path = format!("{}/tests/fixtures/ambiguous_late.g", env!("CARGO_MANIFEST_DIR"));
    parse_g(&std::fs::read_to_string(&path).expect("fixture exists")).expect("fixture parses")
}

/// Signal `a` is ambiguous only once `b+ c+` have fired (as in
/// `ambiguous_late.g`); the later signal `z` has both edges enabled in
/// the initial marking.
const FIRST_WINS: &str = "\
.model first-wins
.inputs a b c z
.graph
p0 a+
a+ p1
p0 b+
b+ q1
q1 c+
c+ q2
q2 a-
a- q3
r0 z+
z+ r1
r0 z-
z- r2
.marking { p0 r0 }
.end
";

/// The outcome that must not depend on the engine: the initial code, or
/// the inference error.
fn verified_code(stg: &Stg, opts: VerifyOptions) -> Result<Code, SgError> {
    match verify(stg, opts) {
        Ok(report) => Ok(report.initial_code),
        Err(VerifyError::InitialCode(e)) => Err(e),
        Err(e) => panic!("{}: unexpected error {e}", stg.name()),
    }
}

/// The early-stopping inference returns a code on `ambiguous_late.g`:
/// `a+` is enabled in the initial marking, so `a`'s frozen fixpoint stops
/// at its seed. `verify` still reports the ambiguity the exhaustive loop
/// finds after `b+ c+ d+ e+`, because the code fails the consistency
/// check.
#[test]
fn verify_reports_an_ambiguity_the_stopped_loops_miss() {
    let stg = ambiguous_late();
    let a = stg.signal_by_name("a").unwrap();
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    assert_eq!(sym.effective_initial_code(), Ok(Code::ZERO));
    assert_eq!(
        verified_code(&stg, VerifyOptions::default()),
        Err(SgError::AmbiguousInitialValue(a))
    );
    assert_eq!(
        infer_initial_code(&stg, SgOptions::default()),
        Err(SgError::AmbiguousInitialValue(a))
    );
}

/// Under a budget an ambiguous STG can end exhausted before its ambiguity
/// is known: 110 live nodes fit the early-stopping inference of
/// `ambiguous_late.g` (and the exhaustive loop alone, which is all the
/// ambiguity needs), but not the traversal that precedes the re-check.
/// No budget turns the ambiguity into a verdict or another error, and
/// once a budget reports it every larger one does.
#[test]
fn a_budget_can_trip_before_a_late_ambiguity_is_known() {
    let stg = ambiguous_late();
    let a = stg.signal_by_name("a").unwrap();
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    sym.manager_mut().set_budget(Budget::new(None, 110, 0, None));
    assert_eq!(sym.effective_initial_code(), Ok(Code::ZERO));
    assert!(!sym.manager().budget().is_tripped());
    let budget = BudgetSpec { max_nodes: 110, ..BudgetSpec::default() };
    let tripped = verify(&stg, VerifyOptions { budget, ..VerifyOptions::default() });
    assert!(
        matches!(tripped, Err(VerifyError::Exhausted(ResourceError::NodeBudget { limit: 110 }))),
        "{tripped:?}"
    );
    let mut answered = false;
    for max_nodes in (20..=400).step_by(10) {
        let budget = BudgetSpec { max_nodes, ..BudgetSpec::default() };
        match verify(&stg, VerifyOptions { budget, ..VerifyOptions::default() }) {
            Err(VerifyError::Exhausted(ResourceError::NodeBudget { .. })) => {
                assert!(!answered, "{max_nodes} exhausts above a budget that answered");
            }
            Err(VerifyError::InitialCode(e)) => {
                assert_eq!(e, SgError::AmbiguousInitialValue(a), "{max_nodes}");
                answered = true;
            }
            other => panic!("{max_nodes}: {other:?}"),
        }
    }
    assert!(answered, "400 live nodes answer the ambiguity");
}

/// A signal ambiguous at once must not hide an earlier signal that only
/// the exhaustive loop finds ambiguous: the error names the first one in
/// signal order, as the exhaustive loop does.
#[test]
fn the_first_ambiguous_signal_is_named() {
    let stg = parse_g(FIRST_WINS).unwrap();
    let a = stg.signal_by_name("a").unwrap();
    let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
    assert_eq!(sym.effective_initial_code(), Err(SgError::AmbiguousInitialValue(a)));
    assert_eq!(
        verified_code(&stg, VerifyOptions::default()),
        Err(SgError::AmbiguousInitialValue(a))
    );
    assert_eq!(
        infer_initial_code(&stg, SgOptions::default()),
        Err(SgError::AmbiguousInitialValue(a))
    );
}

/// Random safe STGs and the corpus with their declared codes stripped
/// (`.g` carries none): `verify` infers the explicit checker's code, or
/// fails with the same error.
#[test]
fn verify_matches_explicit_inference_without_a_declared_code() {
    let mut nets: Vec<Stg> = (0..40).map(gen::random_safe_stg).collect();
    nets.extend(fixture_corpus());
    nets.extend(imported_corpus());
    nets.extend([
        gen::mutex_element(),
        gen::vme_read(),
        gen::csc_violation_stg(),
        gen::irreducible_csc_stg(),
        gen::nonpersistent_stg(),
        gen::inconsistent_stg(),
        gen::fig3_d1(),
        gen::fig3_d2(),
    ]);
    for net in nets {
        let stg = parse_g(&write_g(&net)).unwrap();
        assert!(stg.initial_code().is_none(), "{}", stg.name());
        assert_eq!(
            verified_code(&stg, VerifyOptions::default()),
            infer_initial_code(&stg, SgOptions::default()),
            "{}",
            stg.name()
        );
    }
}

/// Every engine under every reorder mode gives `verify` the same initial
/// code, or the same error, on every `benchmarks/*.g` file and the
/// ambiguous nets, although a stopped fixpoint depends on the engine's
/// schedule.
#[test]
fn inferred_codes_are_engine_and_reorder_independent() {
    let mut nets = fixture_corpus();
    nets.extend(imported_corpus());
    nets.push(ambiguous_late());
    nets.push(parse_g(FIRST_WINS).unwrap());
    for stg in &nets {
        let base = verified_code(stg, VerifyOptions::default());
        for kind in [EngineKind::PerTransition, EngineKind::ParallelSharded, EngineKind::Saturation]
        {
            for reorder in [ReorderMode::None, ReorderMode::Sift, ReorderMode::Auto] {
                let opts = VerifyOptions {
                    engine: EngineOptions { kind, jobs: 2, ..EngineOptions::default() },
                    reorder,
                    ..VerifyOptions::default()
                };
                assert_eq!(verified_code(stg, opts), base, "{} {kind} {reorder}", stg.name());
            }
        }
    }
}
