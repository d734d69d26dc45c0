//! Resource governance and graceful degradation (see
//! `docs/robustness.md`): budget exhaustion at arbitrary points resumes
//! to the scratch-identical verdict on every engine × reorder mode, the
//! `--fallback` ladder completes runs the plain budget rejects, external
//! cancellation interrupts promptly, and every armed failpoint yields a
//! typed error or a clean cold-path recompute — never a panic, a wrong
//! verdict, or an accepted partial artifact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use stgcheck::core::{
    verify, verify_persistent, BudgetSpec, CacheStatus, EngineKind, FaultPlan, PersistOptions,
    ReorderMode, ResourceError, VerifyError, VerifyOptions,
};
use stgcheck::stg::{parse_g, Stg};

mod common;

/// A fresh per-test scratch directory (tests share one process).
fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("stgcheck-robustness-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench_net(file: &str) -> Stg {
    let source = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks").join(file),
    )
    .unwrap();
    parse_g(&source).unwrap()
}

/// The tentpole acceptance test: interrupt *anywhere* — a ladder of
/// deterministic allocation-step budgets trips the run at a different
/// point each rung — then resume with the budget lifted and require the
/// verdict and state count to be identical to an unbudgeted scratch run.
/// All three engines under all three reorder modes.
#[test]
fn budget_trips_anywhere_resume_to_the_scratch_verdict() {
    let stg = bench_net("master_read_2.g");
    let base = tmp("interrupt-anywhere");
    for kind in [EngineKind::PerTransition, EngineKind::ParallelSharded, EngineKind::Saturation] {
        for reorder in [ReorderMode::None, ReorderMode::Sift, ReorderMode::Auto] {
            let tag = format!("{kind}-{reorder}");
            let mut opts = VerifyOptions::default();
            opts.engine.kind = kind;
            opts.engine.jobs = 2;
            opts.reorder = reorder;
            let scratch = verify(&stg, opts).unwrap();

            let mut exhausted_rungs = 0;
            for max_steps in [150u64, 400, 1000, 2500, 6000, 20000] {
                let ck_path = base.join(format!("ck-{tag}-{max_steps}.bin"));
                let mut budgeted = opts;
                budgeted.budget = BudgetSpec { max_steps, ..BudgetSpec::default() };
                let persist = PersistOptions {
                    checkpoint: Some(ck_path.clone()),
                    checkpoint_every: 1,
                    ..PersistOptions::default()
                };
                let run = verify_persistent(&stg, budgeted, &persist).unwrap();
                match run.exhausted() {
                    Some(reason) => {
                        assert_eq!(
                            reason,
                            ResourceError::StepBudget { limit: max_steps },
                            "{tag}/{max_steps}"
                        );
                        exhausted_rungs += 1;
                        // Resume with the budget lifted: bit-identical
                        // verdict and state count, whether or not the trip
                        // happened early enough to leave no checkpoint.
                        let resume = PersistOptions {
                            checkpoint: Some(ck_path.clone()),
                            resume: true,
                            ..PersistOptions::default()
                        };
                        let resumed = verify_persistent(&stg, opts, &resume).unwrap();
                        let report = resumed.into_report().unwrap_or_else(|| {
                            panic!("{tag}/{max_steps}: unbudgeted resume must complete")
                        });
                        assert_eq!(report.verdict, scratch.verdict, "{tag}/{max_steps}");
                        assert_eq!(report.num_states, scratch.num_states, "{tag}/{max_steps}");
                    }
                    None => {
                        let report = run.into_report().unwrap();
                        assert_eq!(report.verdict, scratch.verdict, "{tag}/{max_steps}");
                        assert_eq!(report.num_states, scratch.num_states, "{tag}/{max_steps}");
                    }
                }
            }
            assert!(
                exhausted_rungs > 0,
                "{tag}: the ladder never tripped — budgets too generous to test anything"
            );
        }
    }
}

/// A step budget that trips inside the Section 5 checks — where inert
/// operations can leave a set empty right after a non-emptiness test —
/// ends the run as a typed exhaustion, never a panic. mutex-3 has
/// persistency violations, so its checks decode witnesses; the dense
/// rungs from 690 to 750 trip them at the points that once panicked.
/// Every rung, under every engine, is an exhaustion or the scratch
/// answer, and every exhausted rung resumed with the budget lifted gives
/// the scratch answer.
///
/// After a trip inside the checks the traversal had converged, so the
/// run checkpoints the converged state: the full reached set with an
/// empty frontier. Its resume runs no iteration, so on every engine a
/// resume that starts at the scratch iteration count reports exactly that
/// count. Per-transition and parallel replay a saved frontier exactly, so
/// every one of their resumes reports the scratch count: the parallel
/// engine also trips inside its traversal on the low rungs, and those
/// resumes start one iteration short of it.
#[test]
fn step_budget_trips_inside_the_checks_are_exhaustions() {
    let stg = bench_net("mutex_3.g");
    let base = tmp("checks-trip");
    for kind in [EngineKind::PerTransition, EngineKind::ParallelSharded, EngineKind::Saturation] {
        let mut opts = VerifyOptions::default();
        opts.engine.kind = kind;
        opts.engine.jobs = 2;
        let scratch_report = verify(&stg, opts).unwrap();
        let scratch = common::answer(&scratch_report);
        let iterations = scratch_report.traversal.iterations;
        let at_scratch = format!("resumed from checkpoint at iteration {iterations}");
        let mut exhausted = 0;
        let mut converged_resumes = 0;
        for max_steps in (600..690).step_by(10).chain(690..=750).chain((760..=1300).step_by(20)) {
            let ck_path = base.join(format!("ck-{kind}-{max_steps}.bin"));
            let mut budgeted = opts;
            budgeted.budget = BudgetSpec { max_steps, ..BudgetSpec::default() };
            let persist =
                PersistOptions { checkpoint: Some(ck_path.clone()), ..PersistOptions::default() };
            let run = verify_persistent(&stg, budgeted, &persist).unwrap();
            match run.exhausted() {
                Some(reason) => {
                    assert_eq!(reason, ResourceError::StepBudget { limit: max_steps }, "{kind}");
                    exhausted += 1;
                    let resume = PersistOptions {
                        checkpoint: Some(ck_path),
                        resume: true,
                        ..PersistOptions::default()
                    };
                    let resumed = verify_persistent(&stg, opts, &resume).unwrap();
                    let report = resumed.report().unwrap_or_else(|| {
                        panic!("{kind}/{max_steps}: unbudgeted resume must complete")
                    });
                    assert_eq!(common::answer(report), scratch, "{kind}/{max_steps} resumed");
                    let converged = resumed.notes.contains(&at_scratch);
                    if converged || kind != EngineKind::Saturation {
                        let notes = &resumed.notes;
                        assert_eq!(
                            report.traversal.iterations, iterations,
                            "{kind}/{max_steps}: {notes:?}"
                        );
                    }
                    converged_resumes += usize::from(converged);
                }
                None => {
                    let report = run.into_report().expect("a run that did not trip completes");
                    assert_eq!(common::answer(&report), scratch, "{kind}/{max_steps}");
                }
            }
        }
        assert!(exhausted > 0, "{kind}: no rung tripped the budget");
        assert!(converged_resumes > 0, "{kind}: no rung tripped inside the checks");
    }
}

/// A tight live-node budget is a typed exhaustion, and `--fallback`
/// rescues the same budget by re-running the remaining fixpoint with the
/// saturation engine plus forced sifting — through `verify_persistent`
/// and through `verify` alike.
///
/// The budget must trip inside the main traversal (a trip in inference
/// or in the checks is not eligible for the retry) and leave the retry
/// room to finish: on par-hs-6 (peak 5,214 live nodes) every budget from
/// 2,200 to 4,400 does both, and 3,300 sits in the middle.
#[test]
fn fallback_ladder_completes_where_the_plain_budget_exhausts() {
    let stg = bench_net("par_handshakes_6.g");
    let scratch = verify(&stg, VerifyOptions::default()).unwrap();

    let mut opts = VerifyOptions {
        budget: BudgetSpec { max_nodes: 3300, ..BudgetSpec::default() },
        ..VerifyOptions::default()
    };
    let run = verify_persistent(&stg, opts, &PersistOptions::default()).unwrap();
    assert_eq!(
        run.exhausted(),
        Some(ResourceError::NodeBudget { limit: 3300 }),
        "notes: {:?}",
        run.notes
    );
    assert!(matches!(
        verify(&stg, opts),
        Err(VerifyError::Exhausted(ResourceError::NodeBudget { limit: 3300 }))
    ));

    opts.budget.fallback = true;
    let run = verify_persistent(&stg, opts, &PersistOptions::default()).unwrap();
    assert!(run.fell_back, "notes: {:?}", run.notes);
    let report = run.into_report().expect("fallback must complete this budget");
    assert_eq!(report.verdict, scratch.verdict);
    assert_eq!(report.num_states, scratch.num_states);

    let report = verify(&stg, opts).expect("verify honours the fallback too");
    assert_eq!(report.verdict, scratch.verdict);
    assert_eq!(report.num_states, scratch.num_states);
}

/// Raising the external cancel flag interrupts the run with
/// `Outcome::Interrupted` — the same cooperative path as `--abort-after`
/// — instead of completing or erroring.
#[test]
fn external_cancel_flag_interrupts_the_run() {
    let stg = bench_net("master_read_3.g");
    let flag = Arc::new(AtomicBool::new(true)); // pre-raised: trip at the first poll
    let persist = PersistOptions { cancel: Some(flag.clone()), ..PersistOptions::default() };
    let run = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
    assert!(run.interrupted(), "notes: {:?}", run.notes);
    assert!(run.report().is_none());

    // Lowered flag: same options complete normally.
    flag.store(false, Ordering::Relaxed);
    let run = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
    assert!(run.report().is_some(), "notes: {:?}", run.notes);
}

/// Injected arena-allocation failures surface as a typed
/// `ArenaExhausted` exhaustion — never a panic — whether they hit the
/// very first allocation or one deep inside the traversal.
#[test]
fn arena_allocation_faults_are_typed_errors_not_panics() {
    let stg = bench_net("master_read_2.g");

    for spec in ["arena-alloc", "arena-alloc=1", "arena-alloc=500"] {
        let persist =
            PersistOptions { faults: FaultPlan::parse(spec).unwrap(), ..PersistOptions::default() };
        let run = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
        assert_eq!(run.exhausted(), Some(ResourceError::ArenaExhausted), "{spec}: {:?}", run.notes);
    }

    // Without a plan the same net verifies cleanly in this process.
    assert!(verify(&stg, VerifyOptions::default()).is_ok());
}

/// An armed and an unarmed verification running at the same time in one
/// process: the fault plan belongs to the armed run alone, so the armed
/// thread exhausts and the unarmed thread matches the scratch verdict.
#[test]
fn armed_and_unarmed_runs_in_one_process_do_not_interfere() {
    let stg = bench_net("master_read_2.g");
    let scratch = verify(&stg, VerifyOptions::default()).unwrap();
    for round in 0..5 {
        // Both runs leave the barrier together, so the armed run's faults
        // fire while the unarmed run is encoding and traversing.
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let armed = s.spawn(|| {
                let persist = PersistOptions {
                    faults: FaultPlan::parse("arena-alloc").unwrap(),
                    ..PersistOptions::default()
                };
                start.wait();
                verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap()
            });
            let unarmed = s.spawn(|| {
                start.wait();
                verify_persistent(&stg, VerifyOptions::default(), &PersistOptions::default())
                    .unwrap()
            });
            let armed = armed.join().expect("armed run panicked");
            let unarmed = unarmed.join().expect("unarmed run panicked");
            assert_eq!(armed.exhausted(), Some(ResourceError::ArenaExhausted), "round {round}");
            let report = unarmed.into_report().expect("the unarmed run completes");
            assert_eq!(report.verdict, scratch.verdict, "round {round}");
            assert_eq!(report.num_states, scratch.num_states, "round {round}");
        });
    }
}

/// Store write/rename faults never leave an artifact a later run
/// accepts: the faulted run still completes (with a note), and the next
/// disarmed run is a clean *cold* recompute with the identical verdict.
/// A mid-set rename fault leaves crash debris (`.tmp`) plus a complete
/// first artifact — the loaders must serve the complete artifact and
/// ignore the debris.
#[test]
fn store_faults_never_yield_an_accepted_partial_artifact() {
    let stg = bench_net("celement.g");
    let scratch = verify(&stg, VerifyOptions::default()).unwrap();

    for spec in ["store-write", "store-rename"] {
        let dir = tmp(&format!("store-fault-{spec}"));
        let persist = PersistOptions { cache_dir: Some(dir.clone()), ..PersistOptions::default() };
        let armed = PersistOptions { faults: FaultPlan::parse(spec).unwrap(), ..persist.clone() };
        let run = verify_persistent(&stg, VerifyOptions::default(), &armed).unwrap();
        let report = run.into_report().expect("a store fault must not sink the verification");
        assert_eq!(report.verdict, scratch.verdict, "{spec}");

        // Nothing usable was stored: the next run is cold, not warm.
        let run = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
        assert_eq!(run.cache, CacheStatus::Cold, "{spec}: partial artifact accepted");
        assert_eq!(run.into_report().unwrap().verdict, scratch.verdict, "{spec}");
        // ... and that cold run repaired the cache.
        let run = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
        assert_eq!(run.cache, CacheStatus::Warm, "{spec}");
    }

    // Failing the *second* rename of the artifact set leaves a valid
    // report plus `.tmp` debris for the reached set. The report is a
    // complete artifact — serving it warm is correct — and the debris is
    // never parsed under a valid name.
    let dir = tmp("store-fault-second-rename");
    let persist = PersistOptions { cache_dir: Some(dir.clone()), ..PersistOptions::default() };
    let armed =
        PersistOptions { faults: FaultPlan::parse("store-rename=2").unwrap(), ..persist.clone() };
    let run = verify_persistent(&stg, VerifyOptions::default(), &armed).unwrap();
    assert_eq!(run.into_report().unwrap().verdict, scratch.verdict);
    let debris: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
        .collect();
    assert!(!debris.is_empty(), "rename fault must leave simulated crash debris");
    let run = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
    assert_eq!(run.into_report().unwrap().verdict, scratch.verdict);
}

/// An unreadable store (injected via `store-read`) silently degrades a
/// would-be warm hit to a cold recompute with the identical verdict.
#[test]
fn store_read_faults_degrade_to_a_clean_cold_recompute() {
    let stg = bench_net("celement.g");
    let dir = tmp("store-read-fault");
    let persist = PersistOptions { cache_dir: Some(dir), ..PersistOptions::default() };

    let cold = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
    assert_eq!(cold.cache, CacheStatus::Cold);
    let warm = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
    assert_eq!(warm.cache, CacheStatus::Warm);

    let armed =
        PersistOptions { faults: FaultPlan::parse("store-read").unwrap(), ..persist.clone() };
    let faulted = verify_persistent(&stg, VerifyOptions::default(), &armed).unwrap();
    assert_eq!(faulted.cache, CacheStatus::Cold, "unreadable store must recompute");
    assert_eq!(faulted.into_report().unwrap().verdict, cold.into_report().unwrap().verdict);

    let again = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
    assert_eq!(again.cache, CacheStatus::Warm, "store must be intact after the fault");
}

/// Oversized and non-ordinary nets are typed errors at the front door,
/// not downstream panics: the 510-variable packed-cell cap turns into
/// `VerifyError::TooManyVariables` before anything is encoded.
#[test]
fn oversized_nets_are_rejected_with_a_typed_error() {
    // A linear dummy chain of ~600 places: places + signals > MAX_VARS.
    let mut g = String::from(".model huge\n.inputs a\n.outputs b\n.dummy");
    for i in 0..600 {
        g.push_str(&format!(" d{i}"));
    }
    g.push_str("\n.graph\na+ d0\n");
    for i in 0..599 {
        g.push_str(&format!("d{i} d{}\n", i + 1));
    }
    g.push_str("d599 b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n");
    let stg = parse_g(&g).unwrap();
    let err = verify(&stg, VerifyOptions::default()).expect_err("600-var net must be rejected");
    assert!(matches!(err, VerifyError::TooManyVariables { .. }), "got {err}");
}
