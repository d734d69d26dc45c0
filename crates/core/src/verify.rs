//! The verification facade: run every symbolic check in the paper's phase
//! order and produce a report with the Table 1 columns.
//!
//! Phases (matching the CPU-time columns of Table 1):
//!
//! 1. **T+C** — symbolic traversal (Fig. 5) interleaved with the
//!    consistency check, plus safeness;
//! 2. **NI-p** — non-input (and input-by-non-input) persistency, Fig. 6;
//! 3. **Com** — commutativity via fake-freedom (Section 5.4) and the
//!    determinism set (Section 5.3);
//! 4. **CSC** — Complete State Coding per non-input signal and
//!    CSC-reducibility via the frozen-input traversal.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stgcheck_bdd::{BddCheckpoint, BddOps, Budget, FaultPlan, Literal, ResourceError};
use stgcheck_stg::{Code, FakeConflict, Implementability, PersistencyPolicy, SgError, Stg};

use crate::consistency::ConsistencyViolation;
use crate::csc::CscAnalysis;
use crate::encode::{SymbolicStg, VarOrder};
use crate::engine::{
    write_atomically, EngineKind, EngineOptions, FixpointCtl, FixpointStop, ReorderMode,
    ResumeState,
};
use crate::persistency::{SymSignalViolation, SymTransViolation};
use crate::safety::SafetyViolation;
use crate::store::{cache_key, monotone_extension, place_names, CacheStatus, ResultStore};
use crate::traverse::{format_states, Traversal, TraversalStats};

/// Resource limits for one verification run — the `--timeout`,
/// `--max-nodes`, `--max-steps` and `--fallback` family. The default
/// imposes nothing, and an unlimited budget costs one predicted branch
/// per BDD operation.
///
/// The limits are deliberately *not* part of the result-store cache key:
/// a completed verdict is the same verdict however generously it was
/// budgeted, so a warm hit may legally satisfy a tightly budgeted rerun.
#[derive(Copy, Clone, Debug, Default)]
pub struct BudgetSpec {
    /// Wall-clock deadline for the whole run (`--timeout`); `None` means
    /// unlimited. The deadline is absolute: a `--fallback` retry runs
    /// against the remainder, not a fresh allowance.
    pub timeout: Option<Duration>,
    /// Live-node ceiling across all managers sharing the budget
    /// (`--max-nodes`); `0` means unlimited.
    pub max_nodes: usize,
    /// Deterministic node-allocation-step ceiling (`--max-steps`); `0`
    /// means unlimited. Steps count *allocations*, a machine-independent
    /// progress clock, which is what makes the interrupt-anywhere tests
    /// reproducible.
    pub max_steps: u64,
    /// Degradation ladder: when the node budget or the arena is
    /// exhausted, checkpoint the partial traversal and retry the
    /// remaining fixpoint once under the thriftier saturation engine
    /// with forced sifting, re-armed against the same deadline.
    pub fallback: bool,
}

impl BudgetSpec {
    /// Builds the shared runtime budget, wiring in the caller's cancel
    /// flag when given.
    pub(crate) fn build(&self, cancel: Option<Arc<AtomicBool>>) -> Budget {
        Budget::new(self.timeout, self.max_nodes, self.max_steps, cancel)
    }

    /// Reads a timeout in seconds (`--timeout`, `timeout_s`): the one
    /// check the CLI, `table1` and `serve` share.
    ///
    /// # Errors
    ///
    /// `secs` is not positive or does not fit a [`Duration`]; the message
    /// is for the caller to prefix with its flag or field.
    pub fn timeout_from_secs(secs: f64) -> Result<Duration, String> {
        if secs.is_nan() || secs <= 0.0 {
            return Err("must be a positive number of seconds".to_string());
        }
        Duration::try_from_secs_f64(secs)
            .map_err(|_| format!("must be at most {} seconds", Duration::MAX.as_secs()))
    }

    /// Sets the limit of a valued budget flag — `--timeout <secs>`,
    /// `--max-nodes <n>` or `--max-steps <n>` — from its text: the one
    /// parser the CLI and `table1` share. `--fallback` takes no value and
    /// is the caller's to set.
    ///
    /// # Errors
    ///
    /// `text` is not a valid value for `flag`, or `flag` is none of the
    /// three; the message names the flag and the text, ready to print.
    pub fn set_flag(&mut self, flag: &str, text: &str) -> Result<(), String> {
        let number = |what: &str| format!("{flag} needs {what}, got `{text}`");
        match flag {
            "--timeout" => {
                let secs: f64 = text.parse().map_err(|_| number("a number of seconds"))?;
                let timeout = Self::timeout_from_secs(secs)
                    .map_err(|e| format!("{flag} {e}, got `{text}`"))?;
                self.timeout = Some(timeout);
            }
            "--max-nodes" => self.max_nodes = text.parse().map_err(|_| number("a number"))?,
            "--max-steps" => self.max_steps = text.parse().map_err(|_| number("a number"))?,
            _ => return Err(format!("`{flag}` is not a budget flag")),
        }
        Ok(())
    }
}

/// Options for [`verify`].
#[derive(Copy, Clone, Debug, Default)]
pub struct VerifyOptions {
    /// Variable-ordering strategy.
    pub order: VarOrder,
    /// Persistency interpretation (arbitration points).
    pub policy: PersistencyPolicy,
    /// Image engine driving every fixed-point loop.
    pub engine: EngineOptions,
    /// Dynamic variable reordering (in-place sifting) policy. When not
    /// [`ReorderMode::None`] it overrides [`EngineOptions::reorder`] for
    /// every loop [`verify`] runs; when left at `None`, an
    /// `engine.reorder` set directly still takes effect — setting either
    /// knob enables sifting.
    pub reorder: ReorderMode,
    /// Resource limits; defaults to unlimited. Excluded from the result
    /// cache key (see [`BudgetSpec`]).
    pub budget: BudgetSpec,
}

/// Wall-clock seconds per verification phase — the CPU columns of Table 1.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimes {
    /// Traversal + consistency (+ safeness).
    pub traversal_consistency: f64,
    /// Non-input persistency.
    pub persistency: f64,
    /// Commutativity via fake conflicts + determinism.
    pub commutativity: f64,
    /// CSC and CSC-reducibility.
    pub csc: f64,
    /// Total of the above.
    pub total: f64,
}

/// Aggregate result of the symbolic verification.
#[derive(Clone, Debug)]
pub struct SymbolicReport {
    /// Model name.
    pub name: String,
    /// Image engine that ran the traversal (Table 1 "engine" column).
    pub engine: String,
    /// Net and interface dimensions (Table 1 columns).
    pub places: usize,
    /// Number of signals.
    pub signals: usize,
    /// Reachable full states (Table 1 "# of states").
    pub num_states: u128,
    /// Peak live BDD nodes (Table 1 "BDD size peak").
    pub bdd_peak: usize,
    /// In-place sifting passes run across all phases (0 unless a
    /// [`ReorderMode`] other than `None` was selected).
    pub sift_passes: usize,
    /// Garbage collections run across all phases.
    pub gc_collections: usize,
    /// Total stop-the-world GC pause across all collections, in
    /// milliseconds.
    pub gc_pause_ms: f64,
    /// Final `Reached` BDD size (Table 1 "BDD size final").
    pub bdd_final: usize,
    /// Traversal details.
    pub traversal: TraversalStats,
    /// Initial code used (declared or inferred).
    pub initial_code: Code,
    /// A reachable deadlocked state, if any (informational: termination
    /// is not an implementability violation by itself).
    pub deadlock: Option<crate::encode::StateWitness>,
    /// Safeness violations (empty = safe).
    pub safety: Vec<SafetyViolation>,
    /// Consistency violations (empty = consistent).
    pub consistency: Vec<ConsistencyViolation>,
    /// Signal-persistency violations under the policy.
    pub persistency: Vec<SymSignalViolation>,
    /// Transition-persistency violations (informational).
    pub transition_persistency: Vec<SymTransViolation>,
    /// Fake-freedom violations (commutativity proxy).
    pub fake_violations: Vec<FakeConflict>,
    /// `true` when no two equally-labelled transitions are co-enabled.
    pub deterministic: bool,
    /// Per-signal CSC analyses (non-input signals).
    pub csc: Vec<CscAnalysis>,
    /// Signals whose CSC conflicts are irreducible.
    pub irreducible_signals: Vec<stgcheck_stg::SignalId>,
    /// Phase timings.
    pub times: PhaseTimes,
    /// Final classification per Def. 2.6 / Prop. 3.2.
    pub verdict: Implementability,
}

impl SymbolicReport {
    /// `true` when every reachable state fires safely.
    pub fn safe(&self) -> bool {
        self.safety.is_empty()
    }

    /// `true` when the state assignment is consistent.
    pub fn consistent(&self) -> bool {
        self.consistency.is_empty()
    }

    /// `true` when signal persistency holds under the chosen policy.
    pub fn persistent(&self) -> bool {
        self.persistency.is_empty()
    }

    /// `true` when the STG is fake-free (the commutativity proxy).
    pub fn fake_free(&self) -> bool {
        self.fake_violations.is_empty()
    }

    /// `true` when CSC holds for every non-input signal.
    pub fn csc_holds(&self) -> bool {
        self.csc.iter().all(|a| a.holds)
    }

    /// Renders the report as the row format of the paper's Table 1, plus
    /// the engine column. The state count saturates explicitly
    /// (`>2^128`) instead of silently printing `u128::MAX`, and the CPU
    /// columns carry microsecond resolution — the fast rows (sub-ms on
    /// modern hardware) must not all print as `0.000`.
    pub fn table1_row(&self) -> String {
        format!(
            "{:<16} {:>14} {:>6} {:>7} {:>12} {:>9} {:>8} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>10.6}",
            self.name,
            self.engine,
            self.places,
            self.signals,
            format_states(self.num_states),
            self.bdd_peak,
            self.bdd_final,
            self.times.traversal_consistency,
            self.times.persistency,
            self.times.commutativity,
            self.times.csc,
            self.times.total,
        )
    }

    /// The header matching [`SymbolicReport::table1_row`].
    pub fn table1_header() -> String {
        format!(
            "{:<16} {:>14} {:>6} {:>7} {:>12} {:>9} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "example",
            "engine",
            "places",
            "signals",
            "states",
            "bdd-peak",
            "bdd-fin",
            "T+C",
            "NI-p",
            "Com",
            "CSC",
            "Total"
        )
    }
}

/// Errors that abort verification before any check can run.
#[derive(Clone, Debug)]
pub enum VerifyError {
    /// No initial code and inference failed.
    InitialCode(SgError),
    /// The persistent result store could not be opened or written.
    Store(String),
    /// The net has weighted arcs — the safe-net boolean encoding does not
    /// apply (the paper's construction targets safe, hence ordinary,
    /// nets).
    NotOrdinary,
    /// The net needs more boolean variables than the manager supports.
    TooManyVariables {
        /// Places plus signals of the input net.
        required: usize,
        /// The manager's ceiling ([`stgcheck_bdd::MAX_VARS`]).
        max: usize,
    },
    /// A resource limit tripped before [`verify`] could finish, after the
    /// `--fallback` retry when [`BudgetSpec::fallback`] is set;
    /// [`ResourceError::Cancelled`] for a cooperative interrupt. The
    /// checkpoint-aware sibling [`verify_persistent`] reports this as
    /// [`Outcome::Exhausted`] or [`Outcome::Interrupted`] instead, with a
    /// resumable snapshot.
    Exhausted(ResourceError),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::InitialCode(e) => write!(f, "cannot determine initial code: {e}"),
            VerifyError::Store(e) => write!(f, "result store: {e}"),
            VerifyError::NotOrdinary => {
                write!(f, "the net has weighted arcs; the symbolic encoding requires an ordinary (unit-weight) net")
            }
            VerifyError::TooManyVariables { required, max } => {
                write!(f, "the net needs {required} boolean variables (places + signals); the BDD manager supports at most {max}")
            }
            VerifyError::Exhausted(e) => write!(f, "resource limit hit: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Input-dimension gates run before any BDD work: every condition here
/// would otherwise surface as a panic deep inside the encoder, and both
/// are reachable from CLI-supplied `.g` files.
fn check_dimensions(stg: &Stg) -> Result<(), VerifyError> {
    if !stg.net().is_ordinary() {
        return Err(VerifyError::NotOrdinary);
    }
    let required = stg.net().num_places() + stg.num_signals();
    if required > stgcheck_bdd::MAX_VARS {
        return Err(VerifyError::TooManyVariables { required, max: stgcheck_bdd::MAX_VARS });
    }
    Ok(())
}

/// Runs the full symbolic verification of `stg` and classifies it.
///
/// This is [`verify_persistent`] with [`PersistOptions::default`] (no
/// cache, no checkpoint), its [`Outcome`] turned into a `Result`. So
/// [`BudgetSpec::fallback`] works here too: a node or arena exhaustion
/// retries the remaining fixpoint with saturation and forced sifting
/// before the run reports [`VerifyError::Exhausted`].
///
/// # Errors
///
/// [`VerifyError::InitialCode`] when the STG carries no initial code and
/// the Section 5.1 inference is ambiguous (which already implies an
/// inconsistent specification): either the early-stopping inference sees
/// it at once, or the consistency check fails and the exhaustive re-run
/// finds it (see [`SymbolicStg::infer_initial_code`]), which a budget
/// trip can pre-empt;
/// [`VerifyError::NotOrdinary`] /
/// [`VerifyError::TooManyVariables`] when the net does not fit the
/// boolean encoding; [`VerifyError::Exhausted`] when a configured
/// [`BudgetSpec`] limit tripped, with [`ResourceError::Cancelled`] for a
/// cooperative interrupt (use [`verify_persistent`] to get a resumable
/// checkpoint instead of a bare error).
pub fn verify(stg: &Stg, opts: VerifyOptions) -> Result<SymbolicReport, VerifyError> {
    match verify_persistent(stg, opts, &PersistOptions::default())?.outcome {
        Outcome::Completed(report) => Ok(report),
        Outcome::Interrupted { .. } => Err(VerifyError::Exhausted(ResourceError::Cancelled)),
        Outcome::Exhausted { reason, .. } => Err(VerifyError::Exhausted(reason)),
    }
}

/// The certificate step of early-stopping inference, run when an STG
/// without a declared code fails the consistency check: the inferred code
/// is exact whenever the STG is consistent under it (see
/// [`SymbolicStg::infer_initial_code`]), so re-run the exhaustive Section
/// 5.1 loop, which reports [`SgError::AmbiguousInitialValue`] if the
/// stopped loops missed it. It runs on a manager of its own, leaving the
/// caller's manager and reached set untouched.
///
/// A tripped budget skips it and voids its answer: the caller reports
/// the trip, so under a budget or a cancel an ambiguous STG can end
/// exhausted or interrupted before its ambiguity is known.
fn recheck_inferred_code(
    stg: &Stg,
    opts: &VerifyOptions,
    budget: &Budget,
    inferred: Code,
) -> Result<(), SgError> {
    if budget.is_tripped() || stg.initial_code().is_some() {
        return Ok(());
    }
    let mut sym = SymbolicStg::new(stg, opts.order);
    sym.set_engine(effective_engine(opts));
    sym.manager_mut().set_budget(budget.clone());
    let code = sym.infer_code(false);
    if budget.is_tripped() {
        return Ok(());
    }
    debug_assert!(
        code.as_ref().map_or(true, |c| *c == inferred),
        "an unambiguous exhaustive loop agrees with the stopped one"
    );
    code.map(|_| ())
}

/// The engine options [`verify`] actually runs: [`VerifyOptions::reorder`]
/// overrides [`EngineOptions::reorder`] when set.
pub(crate) fn effective_engine(opts: &VerifyOptions) -> EngineOptions {
    let mut engine = opts.engine;
    if opts.reorder != ReorderMode::None {
        engine.reorder = opts.reorder;
    }
    engine
}

/// Everything after the main traversal: the rest of phase 1 (consistency,
/// safeness, deadlock), phases 2–4, the verdict and the report assembly.
/// Shared by [`verify`] and [`verify_persistent`] so an incremental or
/// resumed traversal feeds the identical checking pipeline.
///
/// # Errors
///
/// [`SgError::AmbiguousInitialValue`] from [`recheck_inferred_code`],
/// which runs right after a failed consistency check, so an ambiguous
/// STG skips phases 2–4.
fn finish_verification(
    sym: &mut SymbolicStg<'_>,
    opts: &VerifyOptions,
    engine: &EngineOptions,
    initial_code: Code,
    traversal: Traversal,
    total_start: Instant,
    phase1_start: Instant,
) -> Result<SymbolicReport, SgError> {
    let stg = sym.stg();
    let reached = traversal.reached;
    let consistency = sym.check_consistency(reached);
    if !consistency.is_empty() {
        recheck_inferred_code(stg, opts, sym.manager().budget(), initial_code)?;
    }
    let safety = sym.check_safeness(reached);
    let deadlock = sym.check_deadlock(reached);
    let t_tc = phase1_start.elapsed().as_secs_f64();

    // Phase 2: persistency. Fed the full reached set so violation
    // witnesses carry signal codes; the marking projection is still used
    // for the fake-conflict phase below.
    let t0 = Instant::now();
    let r_n = sym.project_markings(reached);
    let persistency = sym.check_signal_persistency(reached, opts.policy);
    let transition_persistency = sym.check_transition_persistency(reached);
    let t_pers = t0.elapsed().as_secs_f64();

    // Phase 3: commutativity via fake conflicts + determinism.
    let t0 = Instant::now();
    let fake_violations = sym.check_fake_freedom(r_n);
    let deterministic = sym.nondeterminism_set(reached).is_false();
    let t_com = t0.elapsed().as_secs_f64();

    // Phase 4: CSC + reducibility.
    let t0 = Instant::now();
    let csc = sym.check_csc(reached);
    let irreducible_signals: Vec<_> = csc
        .iter()
        .filter(|a| !a.holds)
        .map(|a| (a.signal, a.contradictory))
        .collect::<Vec<_>>()
        .into_iter()
        .filter(|&(s, cont)| sym.has_complementary_input_sequences(reached, s, cont))
        .map(|(s, _)| s)
        .collect();
    let t_csc = t0.elapsed().as_secs_f64();

    let csc_holds = csc.iter().all(|a| a.holds);
    let reducible = deterministic && fake_violations.is_empty() && irreducible_signals.is_empty();
    let verdict = if !safety.is_empty()
        || !consistency.is_empty()
        || !persistency.is_empty()
        || !fake_violations.is_empty()
    {
        Implementability::NotImplementable
    } else if csc_holds {
        Implementability::Gate
    } else if reducible {
        Implementability::InputOutput
    } else {
        Implementability::SpeedIndependent
    };

    let total = total_start.elapsed().as_secs_f64();
    let bdd_stats = sym.manager().stats();
    Ok(SymbolicReport {
        name: stg.name().to_string(),
        engine: engine.kind.to_string(),
        places: stg.net().num_places(),
        signals: stg.num_signals(),
        num_states: traversal.stats.num_states,
        bdd_peak: sym.manager().peak_live_nodes(),
        sift_passes: bdd_stats.sift_runs,
        gc_collections: bdd_stats.gc_runs,
        gc_pause_ms: bdd_stats.gc_pause_ns as f64 / 1e6,
        bdd_final: traversal.stats.final_nodes,
        traversal: traversal.stats,
        initial_code,
        deadlock,
        safety,
        consistency,
        persistency,
        transition_persistency,
        fake_violations,
        deterministic,
        csc,
        irreducible_signals,
        times: PhaseTimes {
            traversal_consistency: t_tc,
            persistency: t_pers,
            commutativity: t_com,
            csc: t_csc,
            total,
        },
        verdict,
    })
}

/// Persistence knobs for [`verify_persistent`]: the `--cache-dir`,
/// `--checkpoint`/`--checkpoint-every`/`--resume`, `--incremental` and
/// `--failpoints` family. The default disables everything: [`verify`] is
/// [`verify_persistent`] run with it.
#[derive(Clone, Debug, Default)]
pub struct PersistOptions {
    /// Content-addressed result cache directory (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
    /// Size cap for the cache directory in bytes (`--cache-max-mb`).
    /// After each store the oldest `latest-*` entries and their
    /// artifacts are evicted until the directory fits
    /// ([`crate::ResultStore::evict_to_cap`]); `None` means unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Traversal checkpoint file (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Snapshot cadence in outer iterations; `0` snapshots only when the
    /// run is aborted (`--checkpoint-every`).
    pub checkpoint_every: usize,
    /// Seed the traversal from the checkpoint file when it exists and
    /// matches this net's content hash (`--resume`).
    pub resume: bool,
    /// Seed the traversal from the cached reached set of a monotone
    /// predecessor net (`--incremental`). Falls back to scratch — never
    /// to an approximation — when the previous version is not a pure
    /// extension.
    pub incremental: bool,
    /// Interrupt the traversal (writing a final checkpoint) after this
    /// many outer iterations; `0` runs to convergence. Test hook behind
    /// `--abort-after`, routed through the budget's cancellation latch.
    pub abort_after: usize,
    /// External cancellation flag: raise it from any thread (a signal
    /// handler, a supervisor) and the run stops at its next poll point
    /// with [`Outcome::Interrupted`] and a final checkpoint.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Failpoints armed for this run (`--failpoints`; disarmed by
    /// default). Clones share hit counters, so one plan handed to
    /// several runs counts `name=N` across all of them.
    pub faults: FaultPlan,
}

/// How a [`verify_persistent`] run ended.
// One `Outcome` exists per run and lives on the stack briefly — the
// size gap between the report-carrying and checkpoint-path variants
// costs nothing, and boxing would tax every completed-run access.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Verification ran to completion; the verdict is authoritative.
    Completed(SymbolicReport),
    /// Stopped cooperatively (cancel flag or `--abort-after`). When
    /// `checkpoint` names a file, a `--resume` run continues from it.
    Interrupted {
        /// The configured checkpoint path, if any (notes flag write
        /// failures).
        checkpoint: Option<PathBuf>,
    },
    /// A resource limit tripped. The partial traversal is sound —
    /// everything committed before the trip — and `checkpoint` (when
    /// configured) lets a `--resume` run with a larger budget finish the
    /// job with a bit-identical verdict.
    Exhausted {
        /// The first limit that tripped.
        reason: ResourceError,
        /// The configured checkpoint path, if any.
        checkpoint: Option<PathBuf>,
    },
}

impl Outcome {
    /// The completed report, if the run finished.
    pub fn report(&self) -> Option<&SymbolicReport> {
        match self {
            Outcome::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the completed report if any.
    pub fn into_report(self) -> Option<SymbolicReport> {
        match self {
            Outcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// Outcome of [`verify_persistent`].
#[derive(Clone, Debug)]
pub struct VerifyRun {
    /// How the run ended: a completed report, a cooperative interrupt or
    /// a budget exhaustion (the latter two with a resumable checkpoint
    /// when one is configured).
    pub outcome: Outcome,
    /// Where the result came from.
    pub cache: CacheStatus,
    /// `true` when the `--fallback` degradation ladder re-ran the
    /// remaining fixpoint after an exhaustion (whatever the final
    /// outcome).
    pub fell_back: bool,
    /// Human-readable notes: resume/fallback decisions and non-fatal I/O
    /// problems.
    pub notes: Vec<String>,
}

impl VerifyRun {
    /// The completed report, if the run finished.
    pub fn report(&self) -> Option<&SymbolicReport> {
        self.outcome.report()
    }

    /// Consumes the run, yielding the completed report if any.
    pub fn into_report(self) -> Option<SymbolicReport> {
        self.outcome.into_report()
    }

    /// `true` when the run was stopped cooperatively (cancel flag or
    /// `--abort-after`).
    pub fn interrupted(&self) -> bool {
        matches!(self.outcome, Outcome::Interrupted { .. })
    }

    /// The tripped resource limit, when the run exhausted its budget.
    pub fn exhausted(&self) -> Option<ResourceError> {
        match &self.outcome {
            Outcome::Exhausted { reason, .. } => Some(*reason),
            _ => None,
        }
    }
}

/// Maps a latched trip reason to the outcome it represents: an external
/// cancellation is a cooperative interrupt, everything else a resource
/// exhaustion.
fn stop_outcome(reason: ResourceError, checkpoint: Option<PathBuf>) -> Outcome {
    match reason {
        ResourceError::Cancelled => Outcome::Interrupted { checkpoint },
        other => Outcome::Exhausted { reason: other, checkpoint },
    }
}

/// The verification pipeline behind [`verify`], with a persistence layer
/// around the traversal: a warm cache hit returns the stored report
/// without running any fixpoint; otherwise the traversal may be seeded
/// from an interrupted run's checkpoint (`resume`) or from a monotone
/// predecessor's reached set (`incremental`), and the completed result
/// is written back to the store.
///
/// # Errors
///
/// [`VerifyError::InitialCode`], [`VerifyError::NotOrdinary`] and
/// [`VerifyError::TooManyVariables`] as for [`verify`];
/// [`VerifyError::Store`] when the cache directory cannot be created.
/// Unusable checkpoints or non-monotone edits are *not* errors — they
/// degrade to a scratch run with a note in [`VerifyRun::notes`]. Budget
/// exhaustion is not an error either: it returns [`Outcome::Exhausted`]
/// with a resumable checkpoint.
pub fn verify_persistent(
    stg: &Stg,
    opts: VerifyOptions,
    persist: &PersistOptions,
) -> Result<VerifyRun, VerifyError> {
    let total_start = Instant::now();
    check_dimensions(stg)?;
    let store = match &persist.cache_dir {
        Some(dir) => Some(
            ResultStore::open(dir, persist.faults.clone())
                .map_err(|e| VerifyError::Store(format!("cannot open {}: {e}", dir.display())))?,
        ),
        None => None,
    };
    let hash = stg.content_hash();
    let key = cache_key(hash, &opts);
    let mut notes = Vec::new();
    if let Some(store) = &store {
        if let Some(mut report) = store.load_report(&key, stg) {
            // The content hash ignores the model name; report the name
            // the caller used, not the one cached under.
            report.name = stg.name().to_string();
            return Ok(VerifyRun {
                outcome: Outcome::Completed(report),
                cache: CacheStatus::Warm,
                fell_back: false,
                notes,
            });
        }
    }

    let mut sym = SymbolicStg::new(stg, opts.order);
    let mut engine = effective_engine(&opts);
    sym.set_engine(engine);
    let mut budget = opts.budget.build(persist.cancel.clone()).with_faults(persist.faults.clone());
    sym.manager_mut().set_budget(budget.clone());
    let phase1_start = Instant::now();
    let mut cache = if store.is_some() { CacheStatus::Cold } else { CacheStatus::Off };
    let initial_code = sym.effective_initial_code();
    // A trip during inference can masquerade as an inference failure (the
    // frozen traversals converge on garbage), and a code inferred from
    // garbage must not start the main traversal: report the trip.
    if let Some(reason) = budget.tripped() {
        return Ok(VerifyRun {
            outcome: stop_outcome(reason, None),
            cache,
            fell_back: false,
            notes,
        });
    }
    let initial_code = initial_code.map_err(VerifyError::InitialCode)?;
    let mut ctl = FixpointCtl {
        every: persist.checkpoint_every,
        path: persist.checkpoint.clone(),
        net_hash: hash,
        abort_after: persist.abort_after,
        budget: budget.clone(),
        ..FixpointCtl::default()
    };
    let mut fell_back = false;

    if persist.resume {
        if let Some(path) = &persist.checkpoint {
            match load_resume(path, hash, &mut sym) {
                Ok(Some(resume)) => {
                    notes.push(format!(
                        "resumed from checkpoint at iteration {}",
                        resume.iterations
                    ));
                    ctl.resume = Some(resume);
                }
                Ok(None) => notes.push("no checkpoint found; starting fresh".to_string()),
                Err(e) => notes.push(format!("checkpoint unusable ({e}); starting from scratch")),
            }
        }
    }
    if ctl.resume.is_none() && persist.incremental {
        if let Some(store) = &store {
            match incremental_seed(store, stg, &key, initial_code, &mut sym) {
                Ok(Some((resume, old_states))) => {
                    notes.push(format!("seeded from a monotone predecessor ({old_states} states)"));
                    ctl.resume = Some(resume);
                    cache = CacheStatus::Incremental;
                }
                Ok(None) => {
                    notes.push("no cached predecessor; running from scratch".to_string());
                }
                Err(e) => {
                    notes.push(format!("incremental seed unavailable ({e}); running from scratch"));
                }
            }
        }
    }

    let (mut traversal, mut stop) = sym.traverse_with_engine_ctl(initial_code, &engine, &mut ctl);
    if let Some(err) = ctl.io_error.take() {
        notes.push(format!("checkpoint write failed: {err}"));
    }

    // The --fallback degradation ladder: on node/arena exhaustion the
    // partial reached set is exported, a fresh manager is built, and the
    // *remaining* fixpoint reruns once under the thriftiest configuration
    // we have — saturation (cluster-local fixpoints keep the working set
    // small) with forced sifting — against a re-armed budget with the
    // same absolute deadline.
    if opts.budget.fallback {
        if let FixpointStop::Exhausted(reason) = &stop {
            if reason.fallback_eligible() {
                let partial = sym.export_checkpoint(
                    hash,
                    &[("reached", traversal.reached), ("frontier", traversal.reached)],
                    &[("iterations".to_string(), traversal.stats.iterations as u64)],
                );
                let fb_engine = EngineOptions {
                    kind: EngineKind::Saturation,
                    reorder: ReorderMode::Sift,
                    ..engine
                };
                let fb_budget = budget.rearm();
                let mut fresh = SymbolicStg::new(stg, opts.order);
                fresh.set_engine(fb_engine);
                fresh.manager_mut().set_budget(fb_budget.clone());
                match fresh.import_checkpoint(&partial) {
                    Ok(roots) => {
                        let reached = roots
                            .iter()
                            .find(|(n, _)| n == "reached")
                            .map(|(_, b)| *b)
                            .expect("the root exported two statements above");
                        notes.push(format!(
                            "{reason}; --fallback: retrying the remaining fixpoint with the \
                             saturation engine and forced sifting"
                        ));
                        let mut fb_ctl = FixpointCtl {
                            every: persist.checkpoint_every,
                            path: persist.checkpoint.clone(),
                            net_hash: hash,
                            budget: fb_budget.clone(),
                            resume: Some(ResumeState {
                                reached,
                                frontier: reached,
                                iterations: traversal.stats.iterations,
                            }),
                            ..FixpointCtl::default()
                        };
                        let (t2, s2) =
                            fresh.traverse_with_engine_ctl(initial_code, &fb_engine, &mut fb_ctl);
                        if let Some(err) = fb_ctl.io_error.take() {
                            notes.push(format!("checkpoint write failed: {err}"));
                        }
                        sym = fresh;
                        traversal = t2;
                        stop = s2;
                        budget = fb_budget;
                        engine = fb_engine;
                        fell_back = true;
                    }
                    Err(e) => notes.push(format!(
                        "--fallback could not seed the retry ({e}); keeping the exhausted outcome"
                    )),
                }
            }
        }
    }

    // Report the checkpoint path only when a file is really there: a
    // budget that trips before the loop commits anything leaves no
    // snapshot (and a snapshot write can fail), and claiming one would
    // mislead the "rerun with --resume" guidance.
    let written = || persist.checkpoint.clone().filter(|p| p.exists());
    match stop {
        FixpointStop::Converged | FixpointStop::Met => {}
        FixpointStop::Interrupted => {
            return Ok(VerifyRun {
                outcome: Outcome::Interrupted { checkpoint: written() },
                cache,
                fell_back,
                notes,
            });
        }
        FixpointStop::Exhausted(reason) => {
            return Ok(VerifyRun {
                outcome: Outcome::Exhausted { reason, checkpoint: written() },
                cache,
                fell_back,
                notes,
            });
        }
    }

    let reached = traversal.reached;
    let iterations = traversal.stats.iterations as u64;
    let report = finish_verification(
        &mut sym,
        &opts,
        &engine,
        initial_code,
        traversal,
        total_start,
        phase1_start,
    );
    // The post-traversal phases (consistency, the code re-check,
    // persistency, CSC) run fixpoints of their own on the same budget; a
    // trip there leaves inert garbage in the report. The traversal itself
    // completed, so checkpoint the full reached set — a --resume run with
    // a larger budget converges in one iteration and goes straight to the
    // checks.
    if let Some(reason) = budget.tripped() {
        let mut checkpoint = None;
        if let Some(path) = &persist.checkpoint {
            let ck = sym.export_checkpoint(
                hash,
                &[("reached", reached), ("frontier", reached)],
                &[("iterations".to_string(), iterations)],
            );
            match write_atomically(path, &ck.to_bytes(), &persist.faults) {
                Ok(()) => checkpoint = Some(path.clone()),
                Err(e) => {
                    notes.push(format!("checkpoint write to {}: {e}", path.display()));
                }
            }
        }
        return Ok(VerifyRun {
            outcome: stop_outcome(reason, checkpoint),
            cache,
            fell_back,
            notes,
        });
    }
    if let Some(path) = &persist.checkpoint {
        // The run converged: the mid-run checkpoint is obsolete (and
        // would otherwise short-circuit a future --resume of an edited
        // net into a stale-but-matching state).
        let _ = std::fs::remove_file(path);
    }
    let report = report.map_err(VerifyError::InitialCode)?;
    if let Some(store) = &store {
        let ck = sym.export_checkpoint(
            hash,
            &[("reached", reached)],
            &[("iterations".to_string(), iterations)],
        );
        if let Err(e) = store.store_result(&key, hash, stg, &report, &ck) {
            notes.push(format!("could not store result: {e}"));
        }
        if let Some(cap) = persist.cache_max_bytes {
            match store.evict_to_cap(cap) {
                Ok(evictions) => notes.extend(evictions),
                Err(e) => notes.push(format!("cache eviction failed: {e}")),
            }
        }
    }
    Ok(VerifyRun { outcome: Outcome::Completed(report), cache, fell_back, notes })
}

/// Loads a traversal checkpoint for `--resume`. A missing file is
/// `Ok(None)` (fresh start, not an anomaly); everything else that
/// prevents a resume is an `Err` message for the notes.
fn load_resume(
    path: &Path,
    hash: u128,
    sym: &mut SymbolicStg<'_>,
) -> Result<Option<ResumeState>, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let ck = BddCheckpoint::from_bytes(&bytes).map_err(|e| format!("corrupt checkpoint: {e}"))?;
    if ck.net_hash != hash {
        return Err("checkpoint belongs to a different net".to_string());
    }
    let roots = sym.import_checkpoint(&ck)?;
    let find = |name: &str| roots.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
    let reached = find("reached").ok_or("checkpoint has no `reached` root")?;
    let frontier = find("frontier").unwrap_or(reached);
    let iterations = ck.meta_value("iterations").unwrap_or(0) as usize;
    Ok(Some(ResumeState { reached, frontier, iterations }))
}

/// Builds the incremental-reverification seed: the predecessor's reached
/// set with every *new* place pinned to its initial marking. Only sound
/// when the edit is a monotone extension (see
/// [`monotone_extension`]) and the effective initial code is unchanged —
/// anything else is an `Err` and the caller runs from scratch.
fn incremental_seed(
    store: &ResultStore,
    stg: &Stg,
    key: &str,
    initial_code: Code,
    sym: &mut SymbolicStg<'_>,
) -> Result<Option<(ResumeState, u128)>, String> {
    let Some((old, old_hash)) = store.load_predecessor(stg.name(), key) else {
        return Ok(None);
    };
    if !monotone_extension(&old, stg) {
        return Err("the previous version is not a monotone restriction of this net".to_string());
    }
    let old_key = format!("{old_hash:032x}{}", &key[32..]);
    let old_report = store.load_report(&old_key, &old).ok_or("predecessor report missing")?;
    if old_report.initial_code != initial_code {
        return Err("the effective initial code changed".to_string());
    }
    let ck = store.load_reached(&old_key).ok_or("predecessor reached set missing")?;
    if ck.net_hash != old_hash {
        return Err("predecessor checkpoint carries a mismatched hash".to_string());
    }
    let roots = sym.import_checkpoint(&ck)?;
    let old_reached = roots
        .iter()
        .find(|(n, _)| n == "reached")
        .map(|(_, b)| *b)
        .ok_or("predecessor checkpoint has no `reached` root")?;
    let old_places = place_names(&old);
    let net = stg.net();
    let mut pins: Vec<Literal> = Vec::new();
    for p in net.places() {
        if !old_places.contains(net.place_name(p)) {
            pins.push(Literal::new(sym.place_var(p), net.initial_tokens(p) > 0));
        }
    }
    let mgr = sym.manager_mut();
    let pin_cube = mgr.cube(&pins);
    let seed = mgr.and(old_reached, pin_cube);
    Ok(Some((ResumeState { reached: seed, frontier: seed, iterations: 0 }, old_report.num_states)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgcheck_stg::gen;

    fn verify_default(stg: &Stg) -> SymbolicReport {
        verify(stg, VerifyOptions::default()).expect("initial code available")
    }

    #[test]
    fn muller_pipeline_report() {
        let report = verify_default(&gen::muller_pipeline(5));
        assert!(report.safe());
        assert!(report.consistent());
        assert!(report.persistent());
        assert!(report.fake_free());
        assert!(report.deterministic);
        assert!(report.csc_holds());
        assert_eq!(report.verdict, Implementability::Gate);
        assert!(report.num_states > 0);
        assert!(report.bdd_peak >= report.bdd_final);
        assert!(report.times.total > 0.0);
    }

    #[test]
    fn mutex_requires_arbitration_policy() {
        let stg = gen::mutex_element();
        let strict = verify_default(&stg);
        assert_eq!(strict.verdict, Implementability::NotImplementable);
        let relaxed = verify(
            &stg,
            VerifyOptions {
                policy: PersistencyPolicy { allow_arbitration: true },
                ..VerifyOptions::default()
            },
        )
        .unwrap();
        assert_eq!(relaxed.verdict, Implementability::Gate);
    }

    #[test]
    fn verdicts_match_fixtures() {
        assert_eq!(
            verify_default(&gen::inconsistent_stg()).verdict,
            Implementability::NotImplementable
        );
        assert_eq!(
            verify_default(&gen::nonpersistent_stg()).verdict,
            Implementability::NotImplementable
        );
        assert_eq!(
            verify_default(&gen::csc_violation_stg()).verdict,
            Implementability::InputOutput
        );
        assert_eq!(
            verify_default(&gen::irreducible_csc_stg()).verdict,
            Implementability::SpeedIndependent
        );
        assert_eq!(verify_default(&gen::vme_read()).verdict, Implementability::InputOutput);
        let unsafe_r = verify_default(&gen::unsafe_stg());
        assert!(!unsafe_r.safe());
        assert_eq!(unsafe_r.verdict, Implementability::NotImplementable);
    }

    #[test]
    fn fig3_d1_rejected_d2_accepted() {
        // The paper's well-formedness rule: D1 (symmetric fake conflict)
        // is rejected even though its SG equals D2's.
        let d1 = verify_default(&gen::fig3_d1());
        assert!(!d1.fake_free());
        assert_eq!(d1.verdict, Implementability::NotImplementable);
        let d2 = verify_default(&gen::fig3_d2());
        assert!(d2.fake_free());
        assert_ne!(d2.verdict, Implementability::NotImplementable);
    }

    #[test]
    fn table1_row_formats() {
        let report = verify_default(&gen::muller_pipeline(4));
        let header = SymbolicReport::table1_header();
        let row = report.table1_row();
        assert!(header.contains("T+C"));
        assert!(row.starts_with("muller-4"));
        // Header and row column counts line up.
        assert_eq!(header.split_whitespace().count(), row.split_whitespace().count());
    }

    #[test]
    fn verdicts_agree_with_explicit_checker_on_fake_free_inputs() {
        use stgcheck_stg::{check_explicit, SgOptions};
        for stg in [
            gen::muller_pipeline(4),
            gen::master_read(2),
            gen::par_handshakes(3),
            gen::vme_read(),
            gen::csc_violation_stg(),
            gen::irreducible_csc_stg(),
            gen::nonpersistent_stg(),
        ] {
            let explicit = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
            let symbolic = verify_default(&stg);
            assert_eq!(explicit.verdict, symbolic.verdict, "{}", stg.name());
            assert_eq!(explicit.states as u128, symbolic.num_states, "{}", stg.name());
        }
    }

    #[test]
    fn budget_flags_parse_their_values() {
        let mut budget = BudgetSpec::default();
        budget.set_flag("--timeout", "1.5").unwrap();
        budget.set_flag("--max-nodes", "800").unwrap();
        budget.set_flag("--max-steps", "300").unwrap();
        assert_eq!(budget.timeout, Some(Duration::from_millis(1500)));
        assert_eq!((budget.max_nodes, budget.max_steps), (800, 300));
        for (flag, text, message) in [
            ("--timeout", "soon", "--timeout needs a number of seconds, got `soon`"),
            ("--timeout", "0", "--timeout must be a positive number of seconds, got `0`"),
            ("--max-nodes", "-1", "--max-nodes needs a number, got `-1`"),
            ("--max-steps", "few", "--max-steps needs a number, got `few`"),
            ("--fallback", "1", "`--fallback` is not a budget flag"),
        ] {
            assert_eq!(budget.set_flag(flag, text), Err(message.to_string()));
        }
        // A refused value leaves the limit as it was.
        assert_eq!((budget.max_nodes, budget.max_steps), (800, 300));
    }
}
