//! Symbolic BDD-traversal verification of STG implementability — the core
//! of the `stgcheck` workspace and the primary contribution of the paper
//! *"Checking Signal Transition Graph Implementability by Symbolic BDD
//! Traversal"* (Kondratyev, Cortadella, Kishinevsky, Pastor, Roig,
//! Yakovlev — ED&TC 1995).
//!
//! Everything here operates on characteristic functions represented as
//! BDDs; the explicit state graph is never built:
//!
//! * [`SymbolicStg`] encodes an STG over one boolean variable per place
//!   and per signal, with selectable [`VarOrder`] strategies (Section 4);
//! * the transition function and its inverse are the paper's
//!   cofactor/product formula, computed as one literal flip per image
//!   — no next-state variables (Section 4);
//! * [`SymbolicStg::traverse`] is the fixed-point traversal of Fig. 5,
//!   with peak/final BDD statistics, and
//!   [`SymbolicStg::extract_trace`] turns any engine's reachable set into
//!   a shortest firing sequence to a target set;
//! * a pluggable image-engine layer ([`EngineKind`], [`EngineOptions`])
//!   behind one shared fixed-point loop and one image kernel: the
//!   per-transition schedule, a parallel sharded engine that splits
//!   transitions across worker threads sharing one concurrent BDD
//!   manager, and a Ciardo-style saturation engine over
//!   support-clustered partitioned relations (see
//!   `docs/traversal-engines.md`);
//! * the checks of Section 5: safeness, consistency, transition and
//!   signal persistency (Fig. 6), CSC via excitation/quiescent regions,
//!   CSC-reducibility via frozen-input traversal, determinism, and fake
//!   conflicts as the commutativity proxy;
//! * [`verify`] runs all phases in the paper's order and returns a
//!   [`SymbolicReport`] whose fields are exactly the columns of the
//!   paper's Table 1 (plus witnesses and the Def. 2.6 classification).
//!
//! # Quick example
//!
//! ```
//! use stgcheck_core::{verify, VerifyOptions};
//! use stgcheck_stg::gen;
//!
//! let stg = gen::muller_pipeline(6);
//! let report = verify(&stg, VerifyOptions::default())?;
//! assert!(report.consistent() && report.persistent() && report.csc_holds());
//! println!("{}", report.table1_row());
//! # Ok::<(), stgcheck_core::VerifyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod consistency;
mod csc;
mod deadlock;
mod encode;
mod engine;
mod exit;
mod fake;
mod image;
pub mod journal;
mod persistency;
pub mod protocol;
mod safety;
pub mod serve;
mod store;
mod trace;
mod traverse;
mod verify;

pub use consistency::ConsistencyViolation;
pub use csc::CscAnalysis;
pub use encode::{StateWitness, SymbolicStg, TransCubes, VarOrder};
pub use engine::{EngineKind, EngineOptions, ReorderMode};
pub use exit::ProcessExit;
pub use persistency::{SymSignalViolation, SymTransViolation};
pub use safety::SafetyViolation;
pub use serve::{
    outcome_exit, run_daemon, JobError, JobResult, JobSpec, Scheduler, ServeOptions, Shed,
};
pub use store::{CacheStatus, ResultStore};
pub use traverse::{cross_check_reachability, format_states, Traversal, TraversalStats};
pub use verify::{
    verify, verify_persistent, BudgetSpec, Outcome, PersistOptions, PhaseTimes, SymbolicReport,
    VerifyError, VerifyOptions, VerifyRun,
};

// Budget/cancellation and fault-injection primitives live in the BDD
// crate (the layer that polls them); re-export the types callers need to
// configure a run or interpret an exhaustion.
pub use stgcheck_bdd::{Budget, FaultPlan, ResourceError};
