//! End-to-end tests of the persistent store: checkpoint bulk loading
//! against the handles the BDD operations build, on the whole checked-in
//! corpus, interrupt/resume equivalence across every engine × reorder
//! mode, warm cache hits, and incremental reverification of monotone
//! edits.

use std::path::PathBuf;
use std::time::Duration;

use stgcheck::bdd::BddCheckpoint;
use stgcheck::core::{
    verify, verify_persistent, CacheStatus, EngineKind, Outcome, PersistOptions, ReorderMode,
    SymbolicStg, VarOrder, VerifyOptions,
};
use stgcheck::stg::{gen, parse_g, write_g, Stg};

/// A fresh per-test scratch directory (tests share one process).
fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("stgcheck-persistence-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every net of the checked-in `benchmarks/` corpus.
fn corpus() -> Vec<Stg> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks");
    let mut out = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "g"))
        .collect();
    paths.sort();
    for path in paths {
        let source = std::fs::read_to_string(&path).unwrap();
        out.push(parse_g(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display())));
    }
    assert!(out.len() >= 5, "corpus went missing");
    out
}

fn find_root(roots: &[(String, stgcheck::bdd::Bdd)], name: &str) -> stgcheck::bdd::Bdd {
    roots.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("root `{name}`")).1
}

/// The acceptance gate for the bulk loader: on every corpus net, the
/// level-ordered bulk import of the reached-set checkpoint must return
/// the handle the traversal's own operations built — both in the
/// exporting manager (identity) and in a fresh twin encoding that ran
/// the same traversal.
#[test]
fn bulk_checkpoint_load_matches_ops_built_handle_on_corpus() {
    for stg in corpus() {
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let reached = sym.traverse(code).reached;
        let hash = stg.content_hash();
        let ck =
            sym.export_checkpoint(hash, &[("reached", reached)], &[("iterations".to_string(), 7)]);

        // Byte round trip of the v3 artifact.
        let ck = BddCheckpoint::from_bytes(&ck.to_bytes()).unwrap_or_else(|e| {
            panic!("{}: checkpoint round trip: {e}", stg.name());
        });
        assert_eq!(ck.net_hash, hash, "{}", stg.name());
        assert_eq!(ck.meta_value("iterations"), Some(7), "{}", stg.name());

        // Bulk into the exporting manager: the exact same handle.
        let same = find_root(&sym.import_checkpoint(&ck).unwrap(), "reached");
        assert_eq!(same, reached, "{}", stg.name());

        // Bulk into a twin encoding equals what the twin's own traversal
        // built there.
        let mut twin = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let twin_code = twin.effective_initial_code().unwrap();
        let built = twin.traverse(twin_code).reached;
        let bulk = find_root(&twin.import_checkpoint(&ck).unwrap(), "reached");
        assert_eq!(bulk, built, "{}", stg.name());
        twin.manager_mut().check_invariants();
        assert_eq!(
            twin.manager().sat_count(bulk),
            sym.manager().sat_count(reached),
            "{}",
            stg.name()
        );
    }
}

/// Interrupt a run after one iteration, resume it, and require the final
/// reached set to be canonically equal to a scratch traversal — for all
/// three engines under all three reorder modes.
#[test]
fn interrupted_runs_resume_to_the_scratch_fixpoint() {
    let source = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks/master_read_2.g"),
    )
    .unwrap();
    let stg = parse_g(&source).unwrap();
    let base = tmp("resume");
    for kind in [EngineKind::PerTransition, EngineKind::ParallelSharded, EngineKind::Saturation] {
        for reorder in [ReorderMode::None, ReorderMode::Sift, ReorderMode::Auto] {
            let tag = format!("{kind}-{reorder}");
            let cache = base.join(format!("cache-{tag}"));
            let ck_path = base.join(format!("ck-{tag}.bin"));
            let mut opts = VerifyOptions::default();
            opts.engine.kind = kind;
            opts.engine.jobs = 2;
            opts.reorder = reorder;

            let scratch = verify(&stg, opts).unwrap();

            let interrupt = PersistOptions {
                checkpoint: Some(ck_path.clone()),
                checkpoint_every: 1,
                abort_after: 1,
                ..PersistOptions::default()
            };
            let run1 = verify_persistent(&stg, opts, &interrupt).unwrap();
            assert!(run1.interrupted(), "{tag}: abort-after must interrupt");
            assert!(run1.report().is_none(), "{tag}");
            assert!(ck_path.exists(), "{tag}: interrupt must leave a checkpoint");

            let resume = PersistOptions {
                cache_dir: Some(cache.clone()),
                checkpoint: Some(ck_path.clone()),
                resume: true,
                ..PersistOptions::default()
            };
            let run2 = verify_persistent(&stg, opts, &resume).unwrap();
            assert!(!run2.interrupted(), "{tag}");
            assert!(
                run2.notes.iter().any(|n| n.contains("resumed from checkpoint")),
                "{tag}: notes = {:?}",
                run2.notes
            );
            let resumed = run2.into_report().expect("completed");
            assert_eq!(resumed.verdict, scratch.verdict, "{tag}");
            assert_eq!(resumed.num_states, scratch.num_states, "{tag}");
            assert!(!ck_path.exists(), "{tag}: converged run must delete its checkpoint");

            // The stored reached set is canonically equal to a scratch
            // traversal: import it and compare handles in one manager.
            let reached_file = std::fs::read_dir(&cache)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "reached"))
                .unwrap_or_else(|| panic!("{tag}: no stored reached set"));
            let ck = BddCheckpoint::from_bytes(&std::fs::read(reached_file).unwrap()).unwrap();
            let mut fresh = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let stored = find_root(&fresh.import_checkpoint(&ck).unwrap(), "reached");
            let code = fresh.effective_initial_code().unwrap();
            let direct = fresh.traverse(code).reached;
            assert_eq!(stored, direct, "{tag}: resumed reached set diverges");
        }
    }
}

/// A budget trip late in an iteration checkpoints that iteration's
/// frontier. On master-read-12 (written as `.g`, so its code is
/// inferred) the per-transition sweep collects garbage in the middle of
/// an iteration, past the GC threshold; unless the frontier is a root of
/// that collection, the checkpoint holds freed nodes and the resume
/// either rejects it or runs on garbage. The resume runs under a
/// deadline, so a run on garbage fails instead of hanging.
#[test]
fn budget_checkpoint_after_a_mid_sweep_collection_resumes() {
    let stg = parse_g(&write_g(&gen::master_read(12))).unwrap();
    let ck_path = tmp("mid-sweep-gc").join("ck.bin");
    let mut opts = VerifyOptions::default();
    opts.budget.max_steps = 1_200_000;
    let exhaust = PersistOptions {
        checkpoint: Some(ck_path.clone()),
        checkpoint_every: 1000,
        ..PersistOptions::default()
    };
    let run1 = verify_persistent(&stg, opts, &exhaust).unwrap();
    assert!(matches!(run1.outcome, Outcome::Exhausted { .. }), "notes = {:?}", run1.notes);
    assert!(ck_path.exists(), "an exhausted run must leave a checkpoint");

    let mut opts = VerifyOptions::default();
    opts.budget.timeout = Some(Duration::from_secs(300));
    let resume = PersistOptions {
        checkpoint: Some(ck_path.clone()),
        resume: true,
        ..PersistOptions::default()
    };
    let run2 = verify_persistent(&stg, opts, &resume).unwrap();
    assert!(
        run2.notes.iter().any(|n| n.contains("resumed from checkpoint")),
        "notes = {:?}",
        run2.notes
    );
    let report = run2.into_report().expect("the resumed run completes");
    assert_eq!(report.num_states, 2 * 3u128.pow(12) + 2);
}

/// A warm hit returns the stored verdict without a fixpoint and agrees
/// with the cold run on every reported column; a different option set is
/// a different key.
#[test]
fn warm_cache_hits_reproduce_cold_results() {
    let dir = tmp("warm");
    let persist = PersistOptions { cache_dir: Some(dir.clone()), ..PersistOptions::default() };
    for stg in corpus() {
        let opts = VerifyOptions::default();
        let cold = verify_persistent(&stg, opts, &persist).unwrap();
        assert_eq!(cold.cache, CacheStatus::Cold, "{}", stg.name());
        let warm = verify_persistent(&stg, opts, &persist).unwrap();
        assert_eq!(warm.cache, CacheStatus::Warm, "{}", stg.name());
        let (c, w) = (cold.into_report().unwrap(), warm.into_report().unwrap());
        assert_eq!(c.verdict, w.verdict, "{}", stg.name());
        assert_eq!(c.num_states, w.num_states, "{}", stg.name());
        assert_eq!(c.initial_code, w.initial_code, "{}", stg.name());
        assert_eq!(c.safety.len(), w.safety.len(), "{}", stg.name());
        assert_eq!(c.consistency.len(), w.consistency.len(), "{}", stg.name());
        assert_eq!(c.persistency.len(), w.persistency.len(), "{}", stg.name());
        assert_eq!(c.deterministic, w.deterministic, "{}", stg.name());
        assert_eq!(c.csc_holds(), w.csc_holds(), "{}", stg.name());
        assert_eq!(c.irreducible_signals, w.irreducible_signals, "{}", stg.name());

        let mut other = opts;
        other.engine.kind = EngineKind::Saturation;
        let run = verify_persistent(&stg, other, &persist).unwrap();
        assert_eq!(run.cache, CacheStatus::Cold, "{}: distinct key per engine", stg.name());
        assert_eq!(run.into_report().unwrap().verdict, c.verdict, "{}", stg.name());
    }
}

/// The cache key is the *content* hash: reformatting the `.g` source
/// (comments, blank lines, trailing spaces) still hits warm.
#[test]
fn cache_key_survives_source_reformatting() {
    let dir = tmp("reformat");
    let persist = PersistOptions { cache_dir: Some(dir), ..PersistOptions::default() };
    let source = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmarks/celement.g"),
    )
    .unwrap();
    let stg = parse_g(&source).unwrap();
    let cold = verify_persistent(&stg, VerifyOptions::default(), &persist).unwrap();
    assert_eq!(cold.cache, CacheStatus::Cold);

    let noisy = format!("# reformatted\n\n{}", source.replace(".graph", ".graph\n# body  "));
    let reparsed = parse_g(&noisy).unwrap();
    assert_eq!(reparsed.content_hash(), stg.content_hash());
    let warm = verify_persistent(&reparsed, VerifyOptions::default(), &persist).unwrap();
    assert_eq!(warm.cache, CacheStatus::Warm);
    assert_eq!(warm.into_report().unwrap().verdict, cold.into_report().unwrap().verdict);
}

/// Version A: a plain four-phase handshake.
const INC_A: &str = "
.model incnet
.inputs r
.outputs a
.graph
r+ a+
a+ r-
r- a-
a- r+
.marking { <a-,r+> }
.end
";

/// Version B: A plus a concurrent dummy cycle — new transitions and new
/// places only, wired to nothing old: a monotone extension.
const INC_B: &str = "
.model incnet
.inputs r
.outputs a
.dummy d1 d2
.graph
r+ a+
a+ r-
r- a-
a- r+
d1 d2
d2 d1
.marking { <a-,r+> <d2,d1> }
.end
";

/// Version C: B with the dummy cycle *rewired* (an arc through a new
/// place from an old transition) — not monotone relative to B.
const INC_C: &str = "
.model incnet
.inputs r
.outputs a
.dummy d1 d2
.graph
r+ a+ d1
a+ r-
r- a-
a- r+
d1 d2
d2 d1
.marking { <a-,r+> <d2,d1> }
.end
";

/// Monotone edits seed the traversal from the predecessor's reached set
/// (`cache: incremental`) and still produce the scratch-identical
/// result; non-monotone edits fall back to scratch, never approximate.
#[test]
fn incremental_reverification_of_monotone_edits() {
    let dir = tmp("incremental");
    let persist =
        PersistOptions { cache_dir: Some(dir), incremental: true, ..PersistOptions::default() };
    let opts = VerifyOptions::default();

    let a = parse_g(INC_A).unwrap();
    let run_a = verify_persistent(&a, opts, &persist).unwrap();
    assert_eq!(run_a.cache, CacheStatus::Cold);

    let b = parse_g(INC_B).unwrap();
    let run_b = verify_persistent(&b, opts, &persist).unwrap();
    assert_eq!(run_b.cache, CacheStatus::Incremental, "notes: {:?}", run_b.notes);
    let scratch_b = verify(&b, opts).unwrap();
    let report_b = run_b.into_report().unwrap();
    assert_eq!(report_b.verdict, scratch_b.verdict);
    assert_eq!(report_b.num_states, scratch_b.num_states);
    // The dummy cycle doubles the marking space relative to A.
    assert_eq!(report_b.num_states, 2 * run_a.into_report().unwrap().num_states);

    // Unchanged B now hits warm, not incremental.
    assert_eq!(verify_persistent(&b, opts, &persist).unwrap().cache, CacheStatus::Warm);

    // C rewires an old transition: the monotone check must reject the
    // B→C edit and run from scratch.
    let c = parse_g(INC_C).unwrap();
    let run_c = verify_persistent(&c, opts, &persist).unwrap();
    assert_eq!(run_c.cache, CacheStatus::Cold, "notes: {:?}", run_c.notes);
    assert!(
        run_c.notes.iter().any(|n| n.contains("not a monotone restriction")),
        "notes: {:?}",
        run_c.notes
    );
    let scratch_c = verify(&c, opts).unwrap();
    assert_eq!(run_c.into_report().unwrap().num_states, scratch_c.num_states);
}
