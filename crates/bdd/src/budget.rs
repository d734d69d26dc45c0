//! Cooperative resource budgets for long-running BDD computations.
//!
//! A [`Budget`] bundles every limit a caller may want to impose on a
//! symbolic computation — a wall-clock deadline, a live-node ceiling, a
//! deterministic allocation-step ceiling and an externally settable cancel
//! flag — behind one cheaply pollable *trip flag*. The design follows the
//! CUDD termination-callback school rather than `Result`-izing every
//! operation:
//!
//! * the budget is installed on a [`crate::BddManager`]
//!   ([`crate::BddManager::set_budget`]) and shared by `Arc`, so the
//!   clone the engine loop polls at its commit points observes the same
//!   trip;
//! * hot paths poll with a bounded stride (`note_alloc` checks the cheap
//!   counters on every node allocation and the expensive clock only every
//!   [`POLL_STRIDE`] allocations), so even a single giant `flip_cube`
//!   terminates promptly after a limit is hit;
//! * once tripped, boolean operations go *inert*: they return
//!   [`crate::Bdd::FALSE`] — a valid canonical handle — without publishing
//!   new nodes or memoising results, so the shared arena is never
//!   poisoned and every previously built BDD stays intact. Callers detect
//!   the trip at their next commit point via [`Budget::tripped`] and
//!   abandon the in-flight (garbage but well-formed) intermediate values.
//!
//! The first limit to trip wins and is latched; later polls keep
//! reporting the same [`ResourceError`] so the outermost layer can report
//! a single cause.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::failpoint::FaultPlan;

/// Check the wall clock only every this many node allocations: an
/// `Instant::now()` per allocation would dominate the apply loop.
const POLL_STRIDE: u64 = 1024;

/// Reason a [`Budget`] tripped. Every variant is a *resource* outcome —
/// the computation was abandoned mid-flight and its partial results
/// discarded; none of them indicates a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceError {
    /// The node arena ran out of packed-cell slots (2^27 nodes).
    ArenaExhausted,
    /// The live-node count crossed the configured ceiling.
    NodeBudget {
        /// The configured live-node ceiling.
        limit: usize,
    },
    /// The allocation-step count crossed the configured ceiling.
    StepBudget {
        /// The configured allocation-step ceiling.
        limit: u64,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured timeout.
        limit: Duration,
    },
    /// The external cancel flag was raised.
    Cancelled,
}

impl ResourceError {
    /// Stable machine-readable tag (used in checkpoint metadata and the
    /// bench JSON).
    pub fn tag(self) -> &'static str {
        match self {
            ResourceError::ArenaExhausted => "arena",
            ResourceError::NodeBudget { .. } => "nodes",
            ResourceError::StepBudget { .. } => "steps",
            ResourceError::Deadline { .. } => "deadline",
            ResourceError::Cancelled => "cancelled",
        }
    }

    /// Whether retrying with a thriftier configuration (smaller working
    /// set, forced reordering) could plausibly fit under the same limits
    /// — the gate for the `--fallback` degradation ladder.
    pub fn fallback_eligible(self) -> bool {
        matches!(self, ResourceError::ArenaExhausted | ResourceError::NodeBudget { .. })
    }
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::ArenaExhausted => {
                write!(f, "node arena exhausted (2^27 packed-cell slots)")
            }
            ResourceError::NodeBudget { limit } => {
                write!(f, "live-node budget exhausted (--max-nodes {limit})")
            }
            ResourceError::StepBudget { limit } => {
                write!(f, "allocation-step budget exhausted (--max-steps {limit})")
            }
            ResourceError::Deadline { limit } => {
                write!(f, "wall-clock deadline passed (--timeout {:.3}s)", limit.as_secs_f64())
            }
            ResourceError::Cancelled => write!(f, "cancelled by caller"),
        }
    }
}

impl std::error::Error for ResourceError {}

// Latched trip reasons, packed into one atomic byte. 0 = not tripped.
const TRIP_NONE: u8 = 0;
const TRIP_ARENA: u8 = 1;
const TRIP_NODES: u8 = 2;
const TRIP_STEPS: u8 = 3;
const TRIP_DEADLINE: u8 = 4;
const TRIP_CANCELLED: u8 = 5;

struct BudgetInner {
    /// Absolute deadline (not a duration): a fallback retry after a trip
    /// re-arms against the *same* instant, so `--timeout` bounds the whole
    /// process, not each attempt.
    deadline: Option<Instant>,
    /// The original timeout, kept for error reporting.
    timeout: Duration,
    /// Live-node ceiling; 0 = unlimited.
    max_nodes: usize,
    /// Allocation-step ceiling; 0 = unlimited.
    max_steps: u64,
    /// Monotone allocation counter (never decremented by GC) — the
    /// deterministic "progress clock" the step budget measures.
    steps: AtomicU64,
    /// External cancel flag, shared with the embedding application.
    cancel: Arc<AtomicBool>,
    /// First-trip-wins latched reason.
    tripped: AtomicU8,
}

/// A shared, cheaply pollable resource budget. See the module docs for the
/// trip-flag protocol. `Clone` shares the underlying state: a clone
/// installed on a worker manager trips together with the original.
#[derive(Clone)]
pub struct Budget {
    inner: Arc<BudgetInner>,
    /// The run's failpoints; disarmed unless [`Budget::with_faults`].
    faults: FaultPlan,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("max_nodes", &self.inner.max_nodes)
            .field("max_steps", &self.inner.max_steps)
            .field("deadline", &self.inner.deadline.is_some())
            .field("tripped", &self.tripped())
            .finish()
    }
}

impl Budget {
    /// A budget with no limits at all — the default on every manager. All
    /// polls reduce to one relaxed load of the (never-set) trip byte.
    pub fn unlimited() -> Self {
        Budget::new(None, 0, 0, None)
    }

    /// Builds a budget. `timeout`/`max_nodes`/`max_steps` of
    /// `None`/`0`/`0` mean unlimited; `cancel` installs an external
    /// cancellation flag (raise it from any thread to trip the budget at
    /// the next poll).
    pub fn new(
        timeout: Option<Duration>,
        max_nodes: usize,
        max_steps: u64,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Self {
        Budget {
            inner: Arc::new(BudgetInner {
                // A deadline past the clock's range never arrives.
                deadline: timeout.and_then(|d| Instant::now().checked_add(d)),
                timeout: timeout.unwrap_or_default(),
                max_nodes,
                max_steps,
                steps: AtomicU64::new(0),
                cancel: cancel.unwrap_or_default(),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
            faults: FaultPlan::default(),
        }
    }

    /// This budget with `faults` as the run's fault plan: every manager
    /// it is installed on, and its [`Budget::rearm`], hit the same plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The run's fault plan (disarmed unless [`Budget::with_faults`]).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// A fresh untripped budget with the same limits, the same *absolute*
    /// deadline, the same cancel flag and the same fault plan — used by
    /// the `--fallback` degradation ladder to retry under the original
    /// contract. The step counter restarts (the retry is a new
    /// computation); failpoint hits keep counting.
    pub fn rearm(&self) -> Self {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline: self.inner.deadline,
                timeout: self.inner.timeout,
                max_nodes: self.inner.max_nodes,
                max_steps: self.inner.max_steps,
                steps: AtomicU64::new(0),
                cancel: Arc::clone(&self.inner.cancel),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
            faults: self.faults.clone(),
        }
    }

    /// True when any limit is actually configured. An unlimited budget
    /// lets hot paths skip even the stride bookkeeping.
    pub fn is_limited(&self) -> bool {
        self.inner.deadline.is_some()
            || self.inner.max_nodes != 0
            || self.inner.max_steps != 0
            || self.inner.cancel.load(Ordering::Relaxed)
            || Arc::strong_count(&self.inner.cancel) > 1
    }

    /// One relaxed load: has any limit tripped?
    #[inline]
    pub fn is_tripped(&self) -> bool {
        self.inner.tripped.load(Ordering::Relaxed) != TRIP_NONE
    }

    /// The latched trip reason, if any.
    pub fn tripped(&self) -> Option<ResourceError> {
        match self.inner.tripped.load(Ordering::Relaxed) {
            TRIP_ARENA => Some(ResourceError::ArenaExhausted),
            TRIP_NODES => Some(ResourceError::NodeBudget { limit: self.inner.max_nodes }),
            TRIP_STEPS => Some(ResourceError::StepBudget { limit: self.inner.max_steps }),
            TRIP_DEADLINE => Some(ResourceError::Deadline { limit: self.inner.timeout }),
            TRIP_CANCELLED => Some(ResourceError::Cancelled),
            _ => None,
        }
    }

    /// Monotone allocation-step count so far (the step budget's clock).
    pub fn steps(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// The external cancel flag; raise it to cancel at the next poll.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.inner.cancel)
    }

    /// Latch a trip reason (first one wins).
    pub fn trip(&self, reason: ResourceError) {
        let code = match reason {
            ResourceError::ArenaExhausted => TRIP_ARENA,
            ResourceError::NodeBudget { .. } => TRIP_NODES,
            ResourceError::StepBudget { .. } => TRIP_STEPS,
            ResourceError::Deadline { .. } => TRIP_DEADLINE,
            ResourceError::Cancelled => TRIP_CANCELLED,
        };
        let _ = self.inner.tripped.compare_exchange(
            TRIP_NONE,
            code,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Per-allocation poll, called by the manager every time a node is
    /// created. Counts a step, checks the step budget and the live-node
    /// ceiling, and every [`POLL_STRIDE`] allocations also checks the
    /// clock and the cancel flag. Returns `true` when the budget is (now)
    /// tripped.
    #[inline]
    pub(crate) fn note_alloc(&self, live_nodes: usize) -> bool {
        let i = &*self.inner;
        let step = i.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if i.max_steps != 0 && step >= i.max_steps {
            self.trip(ResourceError::StepBudget { limit: i.max_steps });
            return true;
        }
        if i.max_nodes != 0 && live_nodes > i.max_nodes {
            self.trip(ResourceError::NodeBudget { limit: i.max_nodes });
            return true;
        }
        if step.is_multiple_of(POLL_STRIDE) && self.check_coarse() {
            return true;
        }
        self.is_tripped()
    }

    /// Coarse poll: clock + cancel flag, unconditionally. Engines call
    /// this at iteration boundaries so even allocation-free stretches
    /// observe a deadline or cancellation promptly. Returns `true` when
    /// the budget is (now) tripped.
    pub fn check_coarse(&self) -> bool {
        let i = &*self.inner;
        if i.cancel.load(Ordering::Relaxed) {
            self.trip(ResourceError::Cancelled);
            return true;
        }
        if let Some(deadline) = i.deadline {
            if Instant::now() >= deadline {
                self.trip(ResourceError::Deadline { limit: i.timeout });
                return true;
            }
        }
        self.is_tripped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        for _ in 0..10_000 {
            assert!(!b.note_alloc(usize::MAX - 1));
        }
        assert!(!b.check_coarse());
        assert_eq!(b.tripped(), None);
    }

    #[test]
    fn step_budget_trips_deterministically() {
        let b = Budget::new(None, 0, 100, None);
        let mut tripped_at = None;
        for i in 1..=200u64 {
            if b.note_alloc(0) && tripped_at.is_none() {
                tripped_at = Some(i);
            }
        }
        assert_eq!(tripped_at, Some(100));
        assert_eq!(b.tripped(), Some(ResourceError::StepBudget { limit: 100 }));
    }

    #[test]
    fn node_budget_trips() {
        let b = Budget::new(None, 50, 0, None);
        assert!(!b.note_alloc(50));
        assert!(b.note_alloc(51));
        assert_eq!(b.tripped(), Some(ResourceError::NodeBudget { limit: 50 }));
    }

    #[test]
    fn cancel_flag_trips_on_coarse_poll() {
        let b = Budget::new(None, 0, 0, None);
        assert!(!b.check_coarse());
        b.cancel_flag().store(true, Ordering::Relaxed);
        assert!(b.check_coarse());
        assert_eq!(b.tripped(), Some(ResourceError::Cancelled));
    }

    #[test]
    fn first_trip_wins() {
        let b = Budget::new(None, 10, 0, None);
        b.trip(ResourceError::Cancelled);
        assert!(b.note_alloc(1000));
        assert_eq!(b.tripped(), Some(ResourceError::Cancelled));
    }

    #[test]
    fn rearm_clears_the_trip_but_shares_the_cancel_flag() {
        let faults = FaultPlan::parse("arena-alloc=2").unwrap();
        let b = Budget::new(None, 10, 0, None).with_faults(faults);
        b.trip(ResourceError::NodeBudget { limit: 10 });
        let r = b.rearm();
        assert!(!r.is_tripped());
        assert_eq!(r.steps(), 0);
        b.cancel_flag().store(true, Ordering::Relaxed);
        assert!(r.check_coarse());
        assert_eq!(r.tripped(), Some(ResourceError::Cancelled));
        // The retry counts failpoint hits against the same plan.
        assert!(!b.faults().hit("arena-alloc"));
        assert!(r.faults().hit("arena-alloc"));
    }

    #[test]
    fn deadline_trips() {
        let b = Budget::new(Some(Duration::from_nanos(1)), 0, 0, None);
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.check_coarse());
        assert!(matches!(b.tripped(), Some(ResourceError::Deadline { .. })));
    }

    #[test]
    fn deadline_past_the_clock_range_never_trips() {
        let b = Budget::new(Some(Duration::MAX), 0, 0, None);
        assert!(!b.check_coarse());
        assert!(!b.is_tripped());
    }
}
