//! The pluggable image-engine layer: one shared fixed-point loop, three
//! interchangeable ways to compute the per-iteration frontier step.
//!
//! The paper's Fig. 5 traversal, the frozen-marking traversal of Section
//! 5.1 and the frozen-input fixpoints of Section 5.3 are all instances of
//! the same loop: grow a set by (pre-)images until nothing new appears.
//! [`run_fixpoint`] is that loop, parametrised by a [`FixpointSpec`]
//! (direction, marking-only vs. full-state, optional confinement set,
//! optional reachability query) and an [`EngineOptions`] selecting *how*
//! the frontier step is computed:
//!
//! * [`EngineKind::PerTransition`] — one δ application per transition,
//!   chained, in declaration order;
//! * [`EngineKind::ParallelSharded`] — transitions sharded across
//!   `std::thread::scope` workers that all compute against **one**
//!   concurrent [`stgcheck_bdd::BddManager`] (see
//!   `docs/concurrent-table.md`): shard closures and frontier joins pass
//!   plain [`Bdd`] handles, and between iterations the workers are joined
//!   so GC and `--reorder` sifting run at a stop-the-world quiesce point;
//! * [`EngineKind::Saturation`] — Ciardo-style saturation: transitions
//!   are greedily grouped by support overlap, at most 8 per cluster
//!   (Burch/Clarke/Long-style partitioned relations), and every cluster
//!   gets a *home level* in the variable order (the topmost level its
//!   support touches, so the firing stays at or below it — see
//!   [`saturation_homes`]) and is fired to a *local fixpoint* there; the
//!   schedule works deepest homes first and re-saturates the deeper
//!   levels a growing cluster re-enables before moving up, so the reached
//!   set grows in a locality-coherent order instead of one global
//!   frontier per sweep.
//!
//! Every engine computes each image with the same kernel,
//! [`TransCubes::fire`] (one [`stgcheck_bdd::BddOps::flip_cube`] pass;
//! see `image.rs`); they differ only in the schedule. All three compute
//! the same least fixpoint, so they return the same canonical `Reached`
//! BDD — `tests/engines.rs` asserts this on every benchmark family and
//! on random STGs.
//!
//! A loop that only asks *whether* some set is reachable sets
//! [`FixpointSpec::until`]: it then stops with [`FixpointStop::Met`] as
//! soon as its committed reached set meets that set (the seed included).
//! The test sits at the end-of-iteration seam every engine crosses
//! (`FixpointCtl::tick`; after the iteration's GC and sifting, except
//! that saturation sifts after it), so a stopped set is a sound
//! under-approximation — and engine-dependent, unlike the fixpoint.

use std::collections::BTreeSet;

use stgcheck_bdd::{Bdd, BddManager, BddOps, Budget, FaultPlan, ResourceError, Var};
use stgcheck_petri::TransId;

use crate::encode::{SymbolicStg, TransCubes};

/// How many live nodes trigger a garbage collection between steps (shared
/// by every engine).
pub(crate) const GC_THRESHOLD: usize = 500_000;

/// Most transitions saturation puts in one support-overlap cluster.
const MAX_CLUSTER: usize = 8;

/// Selects the image engine that drives the fixed-point loops.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// One δ application per transition, in declaration order, each
    /// firing from the states the earlier ones produced in the same sweep
    /// — the paper's Fig. 5 schedule and the default.
    #[default]
    PerTransition,
    /// Transitions sharded across worker threads; partial frontier
    /// closures are OR-joined per iteration. Workers share the one
    /// concurrent manager.
    ParallelSharded,
    /// Ciardo-style saturation: transitions are grouped by support
    /// overlap, at most 8 per cluster, and each cluster is assigned a
    /// *home level* (the deepest level of the variable order from which
    /// its whole support is still at or below — i.e. the topmost level
    /// its support touches) and fired to a *local fixpoint* there,
    /// deepest homes first; a cluster that grows the reached set
    /// re-saturates the deeper levels its new states re-enable before the
    /// sweep moves up. Exploits event locality instead of a global
    /// frontier. `clustered` and `cluster` parse to this engine: they
    /// named the retired clustered engine, which ran the same clusters
    /// without the local fixpoints.
    Saturation,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::PerTransition => "per-transition",
            EngineKind::ParallelSharded => "parallel",
            EngineKind::Saturation => "saturation",
        })
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s {
            "per-transition" | "per-trans" | "baseline" => Ok(EngineKind::PerTransition),
            "parallel" | "sharded" | "parallel-sharded" => Ok(EngineKind::ParallelSharded),
            "saturation" | "saturate" | "sat" | "clustered" | "cluster" => {
                Ok(EngineKind::Saturation)
            }
            other => Err(format!(
                "unknown engine `{other}` (expected per-transition, parallel or saturation)"
            )),
        }
    }
}

/// When the fixed-point loops run in-place variable sifting
/// ([`stgcheck_bdd::BddManager::sift`]) on the manager.
///
/// Consulted by every engine between outer iterations; see
/// `docs/reordering.md` for the trigger semantics and when each mode
/// wins.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ReorderMode {
    /// Never reorder dynamically — the static [`crate::VarOrder`] stands.
    /// The default.
    #[default]
    None,
    /// Run a sifting pass between *every* outer fixed-point iteration.
    /// Maximal size reduction, highest reordering overhead.
    Sift,
    /// Sift only when the growth heuristic fires: live nodes exceeding
    /// twice the count measured right after the previous pass
    /// ([`stgcheck_bdd::BddManager::reorder_due`]).
    Auto,
}

impl std::fmt::Display for ReorderMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReorderMode::None => "none",
            ReorderMode::Sift => "sift",
            ReorderMode::Auto => "auto",
        })
    }
}

impl std::str::FromStr for ReorderMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ReorderMode, String> {
        match s {
            "none" | "off" => Ok(ReorderMode::None),
            "sift" => Ok(ReorderMode::Sift),
            "auto" => Ok(ReorderMode::Auto),
            other => Err(format!("unknown reorder mode `{other}` (expected none, sift or auto)")),
        }
    }
}

/// Engine configuration, [`stgcheck_stg::SgOptions`]-style: a plain
/// options struct with a sensible [`Default`], threaded through
/// [`crate::VerifyOptions`] and the CLI.
#[derive(Copy, Clone, Debug, Default)]
pub struct EngineOptions {
    /// Which engine computes the frontier step.
    pub kind: EngineKind,
    /// Worker threads for [`EngineKind::ParallelSharded`]; `0` (the
    /// default) means the machine's available parallelism, clamped by
    /// the work available (see `MIN_SHARD_TRANSITIONS`).
    pub jobs: usize,
    /// Dynamic variable reordering policy, consulted between outer
    /// fixed-point iterations by every engine.
    pub reorder: ReorderMode,
}

impl EngineOptions {
    /// The worker-thread count after resolving `jobs == 0` to the
    /// machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Which δ the loop applies.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum StepDirection {
    /// Successors: `δ(M, t)`.
    Forward,
    /// Predecessors: `δ⁻¹(M, t)`.
    Backward,
}

/// One fixed-point problem for [`run_fixpoint`].
#[derive(Copy, Clone, Debug)]
pub(crate) struct FixpointSpec {
    /// Marking-only δ (ignore signal variables) instead of the full-state
    /// δ — the Section 5.1 frozen traversal building block.
    pub marking_only: bool,
    /// Forward or backward images.
    pub direction: StepDirection,
    /// Confine every per-transition step to this set (the Section 5.3
    /// backward fixpoint is confined to `Reached`).
    pub within: Option<Bdd>,
    /// Stop with [`FixpointStop::Met`] once the committed reached set
    /// meets this set, the seed included: a reachability query ends at
    /// its first witness instead of at the fixpoint (initial-code
    /// inference, the CSC-reducibility forward closure).
    pub until: Option<Bdd>,
    /// Allow threshold-triggered garbage collection during this loop.
    /// Must be `false` whenever the caller holds BDD handles that are
    /// not reachable from the permanent roots, the loop's live sets or
    /// `within` — [`stgcheck_bdd::BddManager::gc`] dangles every
    /// unrooted handle.
    pub gc: bool,
}

impl FixpointSpec {
    /// The plain forward full-state traversal of Fig. 5.
    pub fn forward_full() -> FixpointSpec {
        FixpointSpec {
            marking_only: false,
            direction: StepDirection::Forward,
            within: None,
            until: None,
            gc: true,
        }
    }

    /// Forward traversal over marking variables only.
    pub fn forward_markings() -> FixpointSpec {
        FixpointSpec { marking_only: true, ..FixpointSpec::forward_full() }
    }
}

/// Why [`run_fixpoint`] stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FixpointStop {
    /// The least fixpoint was reached; `reached` is the full answer.
    Converged,
    /// The committed reached set met [`FixpointSpec::until`]; `reached`
    /// is that set, a subset of the fixpoint. No snapshot is written and
    /// the budget is left untouched.
    Met,
    /// Stopped cooperatively — [`FixpointCtl::abort_after`] or the
    /// budget's external cancel flag. `reached` is the last-committed
    /// sound under-approximation, captured in a final snapshot when a
    /// checkpoint path is configured.
    Interrupted,
    /// A resource limit tripped mid-flight ([`stgcheck_bdd::Budget`]).
    /// As for `Interrupted`, `reached` is the last-committed state and a
    /// final snapshot was written when a checkpoint path is configured.
    Exhausted(ResourceError),
}

/// Result of one [`run_fixpoint`] call.
pub(crate) struct FixpointOutcome {
    /// The least fixpoint: everything reachable from `init` under the
    /// spec's step — or, when the loop stopped early, the partial set
    /// reached so far (also captured in the final checkpoint snapshot).
    pub reached: Bdd,
    /// Outer iterations until convergence (engine-dependent; only the
    /// final set is engine-independent).
    pub iterations: usize,
    /// Whether the loop converged, was interrupted or ran out of budget.
    pub stop: FixpointStop,
}

/// State imported from a previous run's checkpoint, ready to seed a
/// fixpoint loop (the handles live in the *current* manager — the caller
/// has already bulk-imported the snapshot and validated its header).
pub(crate) struct ResumeState {
    /// The reached set at the time of the snapshot.
    pub reached: Bdd,
    /// The frontier at the time of the snapshot.
    pub frontier: Bdd,
    /// Outer iterations completed at the time of the snapshot.
    pub iterations: usize,
}

/// Mid-run checkpoint/resume control for [`run_fixpoint`]: the knobs
/// behind `--checkpoint`, `--checkpoint-every`, `--resume` and the
/// `--abort-after` test hook. [`FixpointCtl::default`] disables all of
/// it, which is what every auxiliary fixpoint (per-signal inference,
/// frozen traversals, CSC backward closures) passes.
#[derive(Default)]
pub(crate) struct FixpointCtl {
    /// Snapshot cadence in outer iterations; `0` disables periodic
    /// snapshots (an abort still writes a final snapshot).
    pub every: usize,
    /// Snapshot destination; `None` disables checkpointing entirely.
    pub path: Option<std::path::PathBuf>,
    /// The net's content hash, stamped into every snapshot header so a
    /// resume against a different net is rejected at load.
    pub net_hash: u128,
    /// Stop the loop (writing a final snapshot) once this many outer
    /// iterations have run; `0` means run to convergence. Drives the
    /// resume-equivalence tests and the CI interrupt smoke.
    pub abort_after: usize,
    /// Seed state from a previous snapshot; consumed by the engine.
    pub resume: Option<ResumeState>,
    /// The resource budget governing this loop. Must share its inner
    /// state with the budget installed on the manager
    /// ([`stgcheck_bdd::BddManager::set_budget`]) so the engine's commit
    /// points and the manager's allocation polls observe the same trip.
    /// Defaults to unlimited.
    pub budget: Budget,
    /// First I/O error hit while writing snapshots. Snapshot failures do
    /// not stop the fixpoint — the caller surfaces this as a warning.
    pub io_error: Option<String>,
    /// Iteration count at the last snapshot written.
    pub(crate) last_snapshot: usize,
}

impl FixpointCtl {
    /// Seeds a loop: the resumed `(reached ∪ init, frontier, iterations)`
    /// or the fresh `(init, init, 0)`. Union with `init` keeps the seed
    /// sound even for a snapshot taken before init was folded in.
    fn seed(&mut self, sym: &mut SymbolicStg<'_>, init: Bdd) -> (Bdd, Bdd, usize) {
        match self.resume.take() {
            Some(r) => {
                self.last_snapshot = r.iterations;
                (sym.manager_mut().or(r.reached, init), r.frontier, r.iterations)
            }
            None => (init, init, 0),
        }
    }

    /// End-of-iteration hook, run after the iteration's GC and (except in
    /// saturation) its sifting: stops with [`FixpointStop::Met`] when the
    /// committed `reached` set meets [`FixpointSpec::until`]; otherwise
    /// writes a periodic snapshot when due and stops with
    /// [`FixpointStop::Interrupted`] once `abort_after` is reached, after
    /// writing a final snapshot unconditionally.
    ///
    /// An abort is routed through the budget's cancellation latch so
    /// every layer sharing the budget — parallel workers, in-flight BDD
    /// recursions — stops cooperatively, exactly as an external cancel
    /// would.
    fn tick(
        &mut self,
        sym: &mut SymbolicStg<'_>,
        spec: &FixpointSpec,
        reached: Bdd,
        frontier: Bdd,
        iterations: usize,
    ) -> Option<FixpointStop> {
        if spec.until.is_some_and(|u| sym.manager_mut().intersects(reached, u)) {
            return Some(FixpointStop::Met);
        }
        let abort = self.abort_after > 0 && iterations >= self.abort_after;
        let due = self.every > 0 && iterations - self.last_snapshot >= self.every;
        if self.path.is_some() && (abort || due) {
            self.snapshot(sym, reached, frontier, iterations);
        }
        if abort {
            self.budget.trip(ResourceError::Cancelled);
        }
        abort.then_some(FixpointStop::Interrupted)
    }

    /// Pre-commit budget check, called by every engine after computing an
    /// iteration's frontier and its union with `reached` but *before*
    /// committing either: once the budget has tripped, every value
    /// computed since is inert garbage (tripped boolean operations
    /// return `FALSE` without publishing nodes — see
    /// [`stgcheck_bdd::Budget`]), so the engine abandons the in-flight
    /// sets and returns the last-committed state, which this hook
    /// captures in a final snapshot. Doubling as the
    /// iteration-boundary coarse poll, it also observes the deadline and
    /// the cancel flag on allocation-free stretches.
    fn budget_stop(
        &mut self,
        sym: &SymbolicStg<'_>,
        reached: Bdd,
        frontier: Bdd,
        iterations: usize,
    ) -> Option<FixpointStop> {
        if !self.budget.is_tripped() {
            self.budget.check_coarse();
        }
        let reason = self.budget.tripped()?;
        if self.path.is_some() {
            self.snapshot(sym, reached, frontier, iterations);
        }
        Some(match reason {
            ResourceError::Cancelled => FixpointStop::Interrupted,
            other => FixpointStop::Exhausted(other),
        })
    }

    fn snapshot(&mut self, sym: &SymbolicStg<'_>, reached: Bdd, frontier: Bdd, iterations: usize) {
        let Some(path) = self.path.clone() else { return };
        self.last_snapshot = iterations;
        let ck = sym.manager().export_checkpoint(
            self.net_hash,
            &[("reached", reached), ("frontier", frontier)],
            &[("iterations".to_string(), iterations as u64)],
        );
        if let Err(e) = write_atomically(&path, &ck.to_bytes(), self.budget.faults()) {
            self.io_error
                .get_or_insert_with(|| format!("checkpoint write to {}: {e}", path.display()));
        }
    }
}

/// tmp-then-rename write: a crash mid-write never leaves a torn artifact
/// at the destination (the v3 checksum catches everything else).
///
/// The `store-write` and `store-rename` failpoints of `faults` fault the
/// two I/O steps. The rename fault deliberately leaves the
/// already-written `.tmp` file behind — that is exactly the debris a
/// real crash between the two syscalls leaves, and the robustness suite
/// asserts no later run mistakes it for a valid artifact.
pub(crate) fn write_atomically(
    path: &std::path::Path,
    bytes: &[u8],
    faults: &FaultPlan,
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    if faults.hit("store-write") {
        return Err(std::io::Error::other("failpoint store-write armed"));
    }
    std::fs::write(&tmp, bytes)?;
    if faults.hit("store-rename") {
        return Err(std::io::Error::other("failpoint store-rename armed"));
    }
    std::fs::rename(&tmp, path)
}

/// Runs the shared fixed-point loop with the selected engine.
pub(crate) fn run_fixpoint(
    sym: &mut SymbolicStg<'_>,
    opts: &EngineOptions,
    spec: &FixpointSpec,
    transitions: &[TransId],
    init: Bdd,
    ctl: &mut FixpointCtl,
) -> FixpointOutcome {
    debug_assert!(
        ctl.resume.is_none() || spec.until.is_none(),
        "resume cannot re-test the seed against `until`"
    );
    // A trip that predates the loop (during encoding, inference, or
    // initial-state construction) means `init` is inert garbage — and so
    // would be anything seeded from it. Stop here, before the seed and
    // WITHOUT writing a snapshot: there is nothing sound to export, and
    // a garbage snapshot would clobber a valid checkpoint that a later
    // `--resume` still needs.
    if let Some(reason) = ctl.budget.tripped() {
        return FixpointOutcome {
            reached: init,
            iterations: ctl.resume.as_ref().map_or(0, |r| r.iterations),
            stop: match reason {
                ResourceError::Cancelled => FixpointStop::Interrupted,
                other => FixpointStop::Exhausted(other),
            },
        };
    }
    if spec.until.is_some_and(|u| sym.manager_mut().intersects(init, u)) {
        return FixpointOutcome { reached: init, iterations: 0, stop: FixpointStop::Met };
    }
    match opts.kind {
        EngineKind::PerTransition => run_per_transition(sym, opts, spec, transitions, init, ctl),
        EngineKind::ParallelSharded => run_parallel(sym, opts, spec, transitions, init, ctl),
        EngineKind::Saturation => run_saturation(sym, opts, spec, transitions, init, ctl),
    }
}

/// One δ application under the spec, confined to `within` when set.
///
/// Generic over the manager borrow: the parallel workers call it with
/// `&BddManager` from many threads at once, every other caller with
/// `&mut BddManager`.
fn apply_one<M: BddOps>(mgr: &mut M, spec: &FixpointSpec, cubes: &TransCubes, set: Bdd) -> Bdd {
    let img = cubes.fire(mgr, set, spec.direction, spec.marking_only);
    match spec.within {
        Some(w) => mgr.and(img, w),
        None => img,
    }
}

/// Collects between steps when the manager has grown past
/// [`GC_THRESHOLD`], protecting the permanent cubes, the loop's live
/// sets, the confinement set and the query set.
fn maybe_gc(sym: &mut SymbolicStg<'_>, spec: &FixpointSpec, live: &[Bdd]) {
    if !spec.gc || !sym.manager().gc_due(GC_THRESHOLD) {
        return;
    }
    let roots = loop_roots(sym, spec, live);
    sym.manager_mut().gc(&roots);
}

/// Everything a collection or a sift inside the loop must keep alive.
fn loop_roots(sym: &SymbolicStg<'_>, spec: &FixpointSpec, live: &[Bdd]) -> Vec<Bdd> {
    let mut roots = sym.permanent_roots();
    roots.extend_from_slice(live);
    roots.extend(spec.within);
    roots.extend(spec.until);
    roots
}

/// Runs an in-place sifting pass between fixed-point iterations when the
/// configured [`ReorderMode`] asks for one.
///
/// Root protection mirrors [`maybe_gc`] (sifting begins with a GC over
/// exactly these roots), and for the same reason it is gated on
/// `spec.gc`: a caller holding unrooted handles must not lose them to
/// the sift-internal collection. Every *protected* handle survives
/// unchanged — in-place swaps never move a function to another slot.
fn maybe_reorder(
    sym: &mut SymbolicStg<'_>,
    opts: &EngineOptions,
    spec: &FixpointSpec,
    live: &[Bdd],
) {
    if !spec.gc {
        return;
    }
    let due = match opts.reorder {
        ReorderMode::None => false,
        ReorderMode::Sift => true,
        ReorderMode::Auto => sym.manager().reorder_due(),
    };
    if !due {
        return;
    }
    let roots = loop_roots(sym, spec, live);
    sym.manager_mut().sift(&roots);
}

// ---------------------------------------------------------------------------
// Per-transition engine.
// ---------------------------------------------------------------------------

fn run_per_transition(
    sym: &mut SymbolicStg<'_>,
    opts: &EngineOptions,
    spec: &FixpointSpec,
    transitions: &[TransId],
    init: Bdd,
    ctl: &mut FixpointCtl,
) -> FixpointOutcome {
    let (mut reached, mut from, mut iterations) = ctl.seed(sym, init);
    loop {
        iterations += 1;
        let mut to = from;
        for &t in transitions {
            let cubes = *sym.cubes(t);
            let img = apply_one(sym.manager_mut(), spec, &cubes, to);
            to = sym.manager_mut().or(to, img);
            // Intermediate sets inside one chained sweep are the memory
            // peak on deep pipelines: collect eagerly, keeping only the
            // running accumulator — and the frontier, which a budget
            // trip later in this iteration snapshots.
            maybe_gc(sym, spec, &[reached, from, to]);
        }
        let new = sym.manager_mut().diff(to, reached);
        let grown = sym.manager_mut().or(reached, new);
        // Budget check *before* the convergence test and the commit: a
        // trip in the sweep, the diff or the union leaves inert garbage
        // (a tripped diff is spuriously FALSE, a tripped union TRUE) —
        // the loop must report exhaustion, never fake convergence or
        // commit garbage.
        if let Some(stop) = ctl.budget_stop(sym, reached, from, iterations - 1) {
            return FixpointOutcome { reached, iterations: iterations - 1, stop };
        }
        if new.is_false() {
            break;
        }
        reached = grown;
        from = new;
        maybe_gc(sym, spec, &[reached, from]);
        maybe_reorder(sym, opts, spec, &[reached, from]);
        if let Some(stop) = ctl.tick(sym, spec, reached, from, iterations) {
            return FixpointOutcome { reached, iterations, stop };
        }
    }
    FixpointOutcome { reached, iterations, stop: FixpointStop::Converged }
}

/// The variables each transition's step reads or writes: its places and,
/// for a full-state step, its signal — the supports saturation groups
/// transitions by.
fn transition_supports(
    sym: &SymbolicStg<'_>,
    marking_only: bool,
    transitions: &[TransId],
) -> Vec<BTreeSet<Var>> {
    let mgr = sym.manager();
    transitions
        .iter()
        .map(|&t| {
            let c = sym.cubes(t);
            let flip = if marking_only { c.flip_m } else { c.flip };
            mgr.support(flip).into_iter().chain(mgr.support(c.loops)).collect()
        })
        .collect()
}

/// Greedy support-overlap clustering: seed a cluster with the first
/// unassigned transition, then repeatedly absorb the unassigned
/// transition sharing the most variables with the cluster's accumulated
/// support, until the cap is hit or nothing overlaps. Deterministic.
fn cluster_by_support(supports: &[BTreeSet<Var>], max_cluster: usize) -> Vec<Vec<usize>> {
    let n = supports.len();
    let mut assigned = vec![false; n];
    let mut clusters = Vec::new();
    for seed in 0..n {
        if assigned[seed] {
            continue;
        }
        assigned[seed] = true;
        let mut cluster = vec![seed];
        let mut support = supports[seed].clone();
        while cluster.len() < max_cluster {
            let mut best: Option<(usize, usize)> = None;
            for (i, sup) in supports.iter().enumerate() {
                if assigned[i] {
                    continue;
                }
                let overlap = sup.intersection(&support).count();
                if overlap > 0 && best.is_none_or(|(b, _)| overlap > b) {
                    best = Some((overlap, i));
                }
            }
            let Some((_, i)) = best else { break };
            assigned[i] = true;
            support.extend(supports[i].iter().copied());
            cluster.push(i);
        }
        clusters.push(cluster);
    }
    clusters
}

// ---------------------------------------------------------------------------
// Saturation engine: cluster-local fixpoints, deepest homes first.
// ---------------------------------------------------------------------------

/// Cluster → home-level assignment for [`EngineKind::Saturation`]: a
/// cluster's *home* is the deepest level of the current variable order
/// from which its whole support union is still at or below — i.e. the
/// topmost (smallest-index; levels grow towards the terminals) level any
/// of its variables sits on. The cluster's support then lies entirely in
/// `[home, n)`, so its firings never build structure above the home:
/// the image kernel descends the state set structurally down to it.
///
/// The assignment is a pure, permutation-stable function of the variable
/// order and the support sets: permuting the order (via
/// `permute_levels` or a sifting pass) changes each home exactly to the
/// minimum of the *new* levels of the same variables — nothing else
/// about the schedule's derivation looks at the manager. The engine
/// re-derives homes after every actual sift; the unit tests below pin
/// the stability property.
///
/// A cluster with empty support (a δ that touches no variable) is
/// homed at the top so it fires once in the final sweep position.
pub(crate) fn saturation_homes(mgr: &BddManager, cluster_supports: &[BTreeSet<Var>]) -> Vec<usize> {
    cluster_supports
        .iter()
        .map(|sup| sup.iter().map(|&v| mgr.level_of(v)).min().unwrap_or(0))
        .collect()
}

/// The saturation firing order: cluster indices sorted deepest home
/// first (largest level index — furthest from the root), with the
/// cluster index as a deterministic tiebreak. Pure function of `homes`.
pub(crate) fn saturation_schedule(homes: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..homes.len()).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(homes[c]), c));
    order
}

/// Ciardo-style saturation over support-overlap clusters
/// ([`cluster_by_support`], at most [`MAX_CLUSTER`] transitions each).
///
/// The sweep walks the schedule (deepest homes first) and fires each
/// cluster to a *local fixpoint*: its transitions chain from the full
/// reached set until nothing new appears. When a cluster grows the
/// reached set, the new states may re-enable transitions that were
/// already saturated deeper down — but only in clusters whose support
/// overlaps this one: a disjoint-support cluster's enabling valuations
/// are untouched by the growth (its firings commute with this
/// cluster's), so it provably stays at its fixpoint. The sweep
/// therefore restarts at the deepest already-done *overlapping* cluster
/// and re-saturates upward from there.
///
/// Termination: every restart is caused by a strict growth of the
/// reached set (finite lattice), and between growths the schedule
/// position strictly advances. On convergence every cluster is at a
/// local fixpoint of the final set, which is exactly the global least
/// fixpoint the other engines compute — `tests/engines.rs` and
/// `tests/differential.rs` pin the handle-identical agreement.
///
/// Under `--reorder sift|auto` a sifting pass is only considered after
/// a cluster visit that actually grew the set (an unconditional call
/// would re-sift on every visit under `--reorder sift` and never let
/// the schedule drain). When a pass really ran, the levels moved, so
/// the homes are re-derived from the new order and the sweep restarts
/// on the fresh schedule.
fn run_saturation(
    sym: &mut SymbolicStg<'_>,
    opts: &EngineOptions,
    spec: &FixpointSpec,
    transitions: &[TransId],
    init: Bdd,
    ctl: &mut FixpointCtl,
) -> FixpointOutcome {
    let supports = transition_supports(sym, spec.marking_only, transitions);
    let clusters = cluster_by_support(&supports, MAX_CLUSTER);
    let cluster_supports: Vec<BTreeSet<Var>> = clusters
        .iter()
        .map(|c| c.iter().flat_map(|&i| supports[i].iter().copied()).collect())
        .collect();
    let mut homes = saturation_homes(sym.manager(), &cluster_supports);
    let mut schedule = saturation_schedule(&homes);
    // Saturation has no global frontier; a resumed snapshot seeds the
    // reached set and the sweep simply re-saturates every cluster against
    // it (already-saturated clusters converge in one pass).
    let (mut reached, _, mut iterations) = ctl.seed(sym, init);
    let mut pos = 0;
    while pos < schedule.len() {
        let c = schedule[pos];
        // Local fixpoint: the cluster's transitions chain from the full
        // reached set.
        let mut grew = false;
        loop {
            iterations += 1;
            let mut acc = reached;
            for &i in &clusters[c] {
                let cubes = *sym.cubes(transitions[i]);
                let mgr = sym.manager_mut();
                let img = apply_one(mgr, spec, &cubes, acc);
                acc = mgr.or(acc, img);
                maybe_gc(sym, spec, &[reached, acc]);
            }
            // A trip inside the sweep makes `acc` inert garbage (an OR of
            // tripped operands is TRUE, which `acc == reached` would
            // happily commit): abandon it before the comparison.
            if ctl.budget.is_tripped() {
                break;
            }
            if acc == reached {
                break;
            }
            grew = true;
            reached = acc;
        }
        if let Some(stop) = ctl.budget_stop(sym, reached, reached, iterations) {
            return FixpointOutcome { reached, iterations, stop };
        }
        // The snapshot's frontier *is* the reached set here — saturation
        // resumes by re-saturating, not by frontier replay.
        if let Some(stop) = ctl.tick(sym, spec, reached, reached, iterations) {
            return FixpointOutcome { reached, iterations, stop };
        }
        if !grew {
            pos += 1;
            continue;
        }
        // If a pass really ran, the home levels are stale: re-derive them
        // and restart the sweep on the new schedule (`reached` and the
        // transition cubes are protected and keep their handles across
        // the in-place sift; the cluster supports are variable sets,
        // untouched by any reorder).
        let sift_before = sym.manager().stats().sift_runs;
        maybe_reorder(sym, opts, spec, &[reached]);
        if sym.manager().stats().sift_runs != sift_before {
            homes = saturation_homes(sym.manager(), &cluster_supports);
            schedule = saturation_schedule(&homes);
            pos = 0;
            continue;
        }
        // Re-saturate the deepest already-done cluster the growth may
        // have re-enabled; with no overlapping earlier cluster the
        // fixpoints below are intact and the sweep moves up.
        match (0..pos).find(|&j| !cluster_supports[schedule[j]].is_disjoint(&cluster_supports[c])) {
            Some(j) => pos = j,
            None => pos += 1,
        }
    }
    FixpointOutcome { reached, iterations, stop: FixpointStop::Converged }
}

// ---------------------------------------------------------------------------
// Parallel sharded engine.
// ---------------------------------------------------------------------------

/// A worker's local closure: everything reachable from `from` using only
/// the shard's transitions (chained), computed through `&SymbolicStg`
/// against the shared concurrent manager — the handles it takes and
/// returns are directly meaningful to every other thread. No GC here:
/// collection is a quiesce-point operation that the coordinator runs
/// between outer iterations, once the scoped workers have been joined.
fn shard_closure(sym: &SymbolicStg<'_>, spec: &FixpointSpec, shard: &[TransId], from: Bdd) -> Bdd {
    let mut mgr = sym.manager();
    let mut reached = from;
    let mut front = from;
    loop {
        let mut acc = front;
        for &t in shard {
            let img = apply_one(&mut mgr, spec, sym.cubes(t), acc);
            acc = mgr.or(acc, img);
        }
        let new = mgr.diff(acc, reached);
        if new.is_false() {
            return reached;
        }
        reached = mgr.or(reached, new);
        front = new;
    }
}

/// A shard below this many transitions cannot amortise the per-iteration
/// thread spawn and join: run such fixpoints sequentially.
/// Keeps the auxiliary loops (per-signal inference, frozen-input CSC
/// checks, tiny nets) from paying thread setup for trivial work.
const MIN_SHARD_TRANSITIONS: usize = 4;

/// Splits `transitions` into `jobs` shards balanced by support size.
///
/// Contiguous chunking packs all the wide fork/join transitions of a net
/// into whichever shard their declaration order lands them in; that
/// shard then dominates every iteration's wall clock. Greedy bin packing
/// (heaviest transition first, always into the lightest shard) keeps the
/// per-shard total support — a proxy for image-computation cost — within
/// one transition of even. Deterministic: ties break on transition id.
fn balance_shards(
    sym: &SymbolicStg<'_>,
    transitions: &[TransId],
    jobs: usize,
) -> Vec<Vec<TransId>> {
    let net = sym.stg().net();
    let mut weighted: Vec<(usize, TransId)> = transitions
        .iter()
        .map(|&t| {
            let labelled = usize::from(sym.stg().label(t).is_some());
            (net.preset(t).len() + net.postset(t).len() + labelled, t)
        })
        .collect();
    weighted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut shards: Vec<Vec<TransId>> = vec![Vec::new(); jobs];
    let mut loads = vec![0usize; jobs];
    for (w, t) in weighted {
        let lightest = (0..jobs).min_by_key(|&i| (loads[i], i)).expect("jobs >= 1");
        loads[lightest] += w;
        shards[lightest].push(t);
    }
    shards.retain(|s| !s.is_empty());
    shards
}

/// The parallel engine: scoped workers share the one concurrent manager,
/// so the per-iteration exchange is a handful of `Copy` handles.
///
/// Iteration protocol:
///
/// 1. **Fan out** — spawn one scoped worker per shard; each closes its
///    shard over the current frontier through `&SymbolicStg`, racing
///    freely on the lock-sharded unique table and lossy-atomic caches.
/// 2. **Join** — OR the workers' closure handles into the next frontier
///    (plain handle arithmetic; canonicity makes the result identical to
///    what any sequential engine would produce).
/// 3. **Quiesce** — with every worker joined, the coordinator holds the
///    only reference, so `&mut` GC and `--reorder` sifting run exactly
///    as in the sequential engines. In-place sifting preserves handles,
///    so `reached`/`from` survive into the next fan-out unchanged.
fn run_parallel(
    sym: &mut SymbolicStg<'_>,
    opts: &EngineOptions,
    spec: &FixpointSpec,
    transitions: &[TransId],
    init: Bdd,
    ctl: &mut FixpointCtl,
) -> FixpointOutcome {
    let jobs = opts.effective_jobs().min(transitions.len() / MIN_SHARD_TRANSITIONS);
    if jobs < 2 {
        // Degenerate shard count: the sequential chained loop computes
        // the same fixpoint without thread overhead.
        return run_per_transition(sym, opts, spec, transitions, init, ctl);
    }
    let shards = balance_shards(sym, transitions, jobs);
    let (mut reached, mut from, mut iterations) = ctl.seed(sym, init);
    loop {
        iterations += 1;
        let shared: &SymbolicStg<'_> = sym;
        let parts: Vec<Bdd> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|shard| scope.spawn(move || shard_closure(shared, spec, shard, from)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
        });
        // Workers are joined: the coordinator holds `&mut` again, so the
        // join arithmetic runs the plain-store instantiation.
        let mgr = sym.manager_mut();
        let to = parts.into_iter().fold(from, |to, part| mgr.or(to, part));
        let new = mgr.diff(to, reached);
        let grown = mgr.or(reached, new);
        // Pre-commit budget check: a trip during the fan-out makes the
        // workers' closures inert garbage (the closures themselves exit
        // promptly — a tripped diff is FALSE, which reads as local
        // convergence), and so does one in the join. Abandon it all, keep
        // the committed state.
        if let Some(stop) = ctl.budget_stop(sym, reached, from, iterations - 1) {
            return FixpointOutcome { reached, iterations: iterations - 1, stop };
        }
        if new.is_false() {
            break;
        }
        reached = grown;
        from = new;
        // Stop-the-world quiesce point: workers are joined, the `&mut`
        // borrow is exclusive again.
        maybe_gc(sym, spec, &[reached, from]);
        maybe_reorder(sym, opts, spec, &[reached, from]);
        if let Some(stop) = ctl.tick(sym, spec, reached, from, iterations) {
            return FixpointOutcome { reached, iterations, stop };
        }
    }
    FixpointOutcome { reached, iterations, stop: FixpointStop::Converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::gen;

    #[test]
    fn clustering_is_a_partition_and_respects_cap() {
        let stg = gen::muller_pipeline(6);
        let sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let transitions: Vec<_> = stg.net().transitions().collect();
        let supports = transition_supports(&sym, false, &transitions);
        for cap in [1, 3, 8] {
            let clusters = cluster_by_support(&supports, cap);
            let mut seen = vec![false; transitions.len()];
            for cluster in &clusters {
                assert!(!cluster.is_empty() && cluster.len() <= cap);
                for &i in cluster {
                    assert!(!seen[i], "transition {i} assigned twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "cap {cap} left transitions unassigned");
        }
        // A pipeline's neighbouring transitions share support: with a
        // non-trivial cap, some cluster must hold more than one.
        let clusters = cluster_by_support(&supports, 8);
        assert!(clusters.iter().any(|c| c.len() > 1));
    }

    #[test]
    fn engine_kind_parses_and_displays() {
        for (s, k) in [
            ("per-transition", EngineKind::PerTransition),
            ("parallel", EngineKind::ParallelSharded),
            ("saturation", EngineKind::Saturation),
            ("sat", EngineKind::Saturation),
            ("clustered", EngineKind::Saturation),
            ("cluster", EngineKind::Saturation),
        ] {
            assert_eq!(s.parse::<EngineKind>().unwrap(), k);
            assert_eq!(k.to_string().parse::<EngineKind>().unwrap(), k);
        }
        assert_eq!(EngineKind::Saturation.to_string(), "saturation");
        assert!("banana".parse::<EngineKind>().is_err());
    }

    /// Derives the saturation clustering of an STG: the support union of
    /// each cluster, exactly as `run_saturation` does.
    fn saturation_cluster_supports(sym: &SymbolicStg<'_>) -> Vec<BTreeSet<Var>> {
        let transitions: Vec<_> = sym.stg().net().transitions().collect();
        let supports = transition_supports(sym, false, &transitions);
        cluster_by_support(&supports, MAX_CLUSTER)
            .iter()
            .map(|c| c.iter().flat_map(|&i| supports[i].iter().copied()).collect())
            .collect()
    }

    /// The home assignment is a pure function of the variable order: each
    /// home is the minimum level of the cluster's support, nothing else.
    /// Permuting the order — whether through `permute_levels` or an
    /// in-place sifting pass — must re-derive exactly the minimum of the
    /// *new* levels of the *same* variables, and an order-preserving
    /// permutation must leave every home (and the schedule) unchanged.
    #[test]
    fn saturation_homes_are_a_permutation_stable_function_of_the_order() {
        let stg = gen::master_read(3);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let cluster_supports = saturation_cluster_supports(&sym);

        let check = |sym: &SymbolicStg<'_>| {
            let homes = saturation_homes(sym.manager(), &cluster_supports);
            for (c, sup) in cluster_supports.iter().enumerate() {
                let min = sup.iter().map(|&v| sym.manager().level_of(v)).min().unwrap();
                assert_eq!(homes[c], min, "cluster {c}: home is not the support's top level");
                assert!(
                    sup.iter().all(|&v| sym.manager().level_of(v) >= homes[c]),
                    "cluster {c}: support reaches above its home"
                );
            }
            homes
        };

        let before = check(&sym);
        let schedule_before = saturation_schedule(&before);

        // Identity permutation: homes and schedule must be bit-identical.
        let identity = sym.manager().order();
        sym.manager_mut().permute_levels(&identity);
        assert_eq!(check(&sym), before);
        assert_eq!(saturation_schedule(&before), schedule_before);

        // Reversal: every home moves, but stays the support's minimum
        // level under the new order.
        let reversed: Vec<Var> = sym.manager().order().into_iter().rev().collect();
        sym.manager_mut().permute_levels(&reversed);
        let after = check(&sym);
        assert_ne!(after, before, "reversing the order must move some home");

        // An in-place sifting pass is just another permutation.
        let roots = sym.permanent_roots();
        sym.manager_mut().sift(&roots);
        check(&sym);
    }

    /// Deepest homes first, cluster index as tiebreak — and the schedule
    /// is a permutation of the cluster indices.
    #[test]
    fn saturation_schedule_is_deepest_first_and_deterministic() {
        let homes = vec![2, 5, 5, 0, 7];
        let schedule = saturation_schedule(&homes);
        assert_eq!(schedule, vec![4, 1, 2, 0, 3]);
        let mut sorted = schedule.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..homes.len()).collect::<Vec<_>>());
        assert_eq!(schedule, saturation_schedule(&homes), "must be deterministic");
    }

    #[test]
    fn all_engines_reach_the_same_fixpoint() {
        let stg = gen::master_read(3);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let init = sym.initial_state(code);
        let transitions: Vec<_> = stg.net().transitions().collect();
        let spec = FixpointSpec::forward_full();
        let base = run_fixpoint(
            &mut sym,
            &EngineOptions::default(),
            &spec,
            &transitions,
            init,
            &mut FixpointCtl::default(),
        );
        for opts in [
            EngineOptions {
                kind: EngineKind::ParallelSharded,
                jobs: 1,
                ..EngineOptions::default()
            },
            EngineOptions {
                kind: EngineKind::ParallelSharded,
                jobs: 3,
                ..EngineOptions::default()
            },
            EngineOptions { kind: EngineKind::Saturation, ..EngineOptions::default() },
        ] {
            let out = run_fixpoint(
                &mut sym,
                &opts,
                &spec,
                &transitions,
                init,
                &mut FixpointCtl::default(),
            );
            assert_eq!(out.reached, base.reached, "{opts:?}");
            assert_eq!(out.stop, FixpointStop::Converged);
        }
    }

    /// `until` ends every engine at a committed subset of the fixpoint that
    /// meets it, the seed included; a query set the fixpoint never meets
    /// changes nothing.
    #[test]
    fn until_stops_every_engine_at_a_subset_that_meets_it() {
        let stg = gen::master_read(3);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let code = sym.effective_initial_code().unwrap();
        let init = sym.initial_state(code);
        let transitions: Vec<_> = stg.net().transitions().collect();
        let run = |sym: &mut SymbolicStg<'_>, opts: &EngineOptions, until: Option<Bdd>| {
            let spec = FixpointSpec { until, ..FixpointSpec::forward_full() };
            run_fixpoint(sym, opts, &spec, &transitions, init, &mut FixpointCtl::default())
        };
        let full = run(&mut sym, &EngineOptions::default(), None).reached;
        // Falling acknowledge: enabled only deep into the handshake.
        let ack = stg.signal_by_name("ack").unwrap();
        let deep = sym.edge_enabled(ack, stgcheck_stg::Polarity::Fall);
        let deep = sym.manager_mut().and(deep, full);
        assert!(!sym.manager_mut().intersects(init, deep));
        for opts in [
            EngineOptions::default(),
            EngineOptions {
                kind: EngineKind::ParallelSharded,
                jobs: 2,
                ..EngineOptions::default()
            },
            EngineOptions { kind: EngineKind::Saturation, ..EngineOptions::default() },
        ] {
            let out = run(&mut sym, &opts, Some(deep));
            assert_eq!(out.stop, FixpointStop::Met, "{opts:?}");
            assert!(out.iterations > 0, "{opts:?}");
            assert!(sym.manager_mut().intersects(out.reached, deep), "{opts:?}");
            assert!(sym.manager_mut().is_subset(out.reached, full), "{opts:?}");

            let out = run(&mut sym, &opts, Some(init));
            assert_eq!((out.stop, out.iterations, out.reached), (FixpointStop::Met, 0, init));

            let out = run(&mut sym, &opts, Some(Bdd::FALSE));
            assert_eq!(out.stop, FixpointStop::Converged, "{opts:?}");
            assert_eq!(out.reached, full, "{opts:?}");
        }
    }
}
