//! Deterministic fault injection for robustness testing.
//!
//! A *failpoint* is a named hook compiled into a failure-prone code path
//! (arena allocation, cache-dir writes, checkpoint renames). Which hooks
//! fire is decided by a [`FaultPlan`] value that the caller hands to the
//! run: through [`crate::Budget::with_faults`] for the BDD layer, and
//! through the persistence and serve options above it. Nothing is read
//! from process state, so two runs in one process — one armed, one
//! not — never see each other's faults.
//!
//! The disarmed plan ([`FaultPlan::default`]) is the production state:
//! every hook costs one `Option` test, except the arena hook on the
//! node-allocation hot path, which tests a flag the manager snapshots
//! when a budget is installed. An armed hook reports an injected
//! failure deterministically; the host code must turn it into a typed
//! error or a clean cold-path recompute — never a panic, a wrong
//! verdict, or a partial artifact.
//!
//! Spec grammar (`;`-separated):
//!
//! ```text
//! arena-alloc            fail every hit of `arena-alloc`
//! store-rename=3         fail only the 3rd hit (1-based) of `store-rename`
//! ```
//!
//! Hits are counted per plan: every clone of a plan shares its counters,
//! so `name=N` fires exactly once across all threads and layers the plan
//! was handed to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every failpoint compiled into the codebase. [`FaultPlan::parse`]
/// validates specs against this list so a typo'd `--failpoints` flag
/// fails loudly instead of silently injecting nothing.
///
/// The `journal-*`/`serve-*`/`worker-panic` names fault the `stgcheck
/// serve` daemon seams: journal record writes and recovery reads, the
/// admission path, the net parse on the admission thread and the worker
/// job body (the last two inject a panic that the daemon must isolate
/// to one `internal_error` response).
pub const KNOWN: &[&str] = &[
    "arena-alloc",
    "store-write",
    "store-rename",
    "store-read",
    "journal-write",
    "journal-read",
    "serve-accept",
    "serve-parse",
    "worker-panic",
];

/// One armed failpoint and its hit counter. It fails every hit, or
/// only the `nth` one (1-based).
#[derive(Debug)]
struct Point {
    name: String,
    nth: Option<u64>,
    hits: AtomicU64,
}

/// The set of armed failpoints for one run (see the module docs).
/// `Clone` shares the hit counters.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The armed points; `None` is the disarmed plan.
    points: Option<Arc<[Point]>>,
}

impl FaultPlan {
    /// Builds a plan from a spec string (see the module docs for the
    /// grammar). Names are validated against [`KNOWN`]; a typo'd spec is
    /// an error, not a silent no-op. A name given twice keeps its last
    /// hit count; an empty spec is the disarmed plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut points: Vec<Point> = Vec::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, nth) = match part.split_once('=') {
                None => (part, None),
                Some((name, n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("failpoint `{name}`: bad hit count `{n}`"))?;
                    if n == 0 {
                        return Err(format!("failpoint `{name}`: hit counts are 1-based"));
                    }
                    (name, Some(n))
                }
            };
            if !KNOWN.contains(&name) {
                return Err(format!("unknown failpoint `{name}` (known: {})", KNOWN.join(", ")));
            }
            points.retain(|p| p.name != name);
            points.push(Point { name: name.to_string(), nth, hits: AtomicU64::new(0) });
        }
        Ok(FaultPlan { points: (!points.is_empty()).then(|| points.into()) })
    }

    /// Whether any failpoint is armed.
    pub fn is_armed(&self) -> bool {
        self.points.is_some()
    }

    /// The hook: counts a hit of `name` and returns `true` when an
    /// injected failure should fire at this site. Disarmed cost is one
    /// `Option` test.
    #[inline]
    pub fn hit(&self, name: &str) -> bool {
        match &self.points {
            None => false,
            Some(points) => {
                debug_assert!(KNOWN.contains(&name), "hook `{name}` is not in KNOWN");
                points.iter().find(|p| p.name == name).is_some_and(|p| {
                    let hits = p.hits.fetch_add(1, Ordering::Relaxed) + 1;
                    p.nth.is_none_or(|n| hits == n)
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_inert_and_specs_parse() {
        let disarmed = FaultPlan::default();
        assert!(!disarmed.is_armed());
        assert!(!disarmed.hit("arena-alloc"));
        assert!(!FaultPlan::parse(" ; ").unwrap().is_armed());

        let always = FaultPlan::parse("arena-alloc").unwrap();
        assert!(always.is_armed());
        assert!(always.hit("arena-alloc"));
        assert!(always.hit("arena-alloc"));
        assert!(!always.hit("store-write"));

        let plan = FaultPlan::parse("store-rename=2; store-write").unwrap();
        let shared = plan.clone();
        assert!(!plan.hit("store-rename"));
        assert!(shared.hit("store-rename"), "clones share the hit counter");
        assert!(!plan.hit("store-rename"));
        assert!(plan.hit("store-write"));

        // A repeated name keeps its last hit count.
        let last = FaultPlan::parse("store-read=1;store-read=2").unwrap();
        assert!(!last.hit("store-read"));
        assert!(last.hit("store-read"));

        assert!(FaultPlan::parse("store-read=notanumber").is_err());
        assert!(FaultPlan::parse("store-read=0").is_err());
        assert!(FaultPlan::parse("no-such-point").is_err(), "typos must fail loudly");
    }

    #[test]
    fn nth_hit_fires_exactly_once_across_threads() {
        let plan = FaultPlan::parse("store-rename=3").unwrap();
        let fired: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..100).filter(|_| plan.hit("store-rename")).count()))
                .collect();
            workers.into_iter().map(|w| w.join().expect("hit loop cannot panic")).sum()
        });
        assert_eq!(fired, 1);
    }
}
