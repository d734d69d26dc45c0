//! Signal Transition Graphs: model, explicit state-graph analysis and
//! benchmark generators.
//!
//! This crate is the STG layer of the `stgcheck` workspace, a reproduction
//! of *"Checking Signal Transition Graph Implementability by Symbolic BDD
//! Traversal"* (Kondratyev, Cortadella, Kishinevsky, Pastor, Roig,
//! Yakovlev — ED&TC 1995). It provides:
//!
//! * the [`Stg`] model (Def. 2.1): a Petri net with signal-edge labels and
//!   an input/output/internal signal partition, built with [`StgBuilder`]
//!   or parsed from the `.g` interchange format ([`parse_g`]/[`write_g`]);
//! * explicit *full state graph* construction ([`build_state_graph`]) —
//!   `(marking, code)` pairs, Section 3 of the paper;
//! * explicit implementations of every implementability check
//!   (consistency, persistency, determinism, commutativity, CSC and
//!   CSC-reducibility, fake conflicts) with violation witnesses — the
//!   "traditional explicit state-enumeration" baseline the paper compares
//!   against, and the oracle for differential-testing the symbolic
//!   algorithms in `stgcheck-core`;
//! * the scalable benchmark generators behind the paper's Table 1
//!   ([`gen::muller_pipeline`], [`gen::master_read`], [`gen::mutex`], …)
//!   plus fixtures that violate each condition in isolation.
//!
//! # Quick example
//!
//! ```
//! use stgcheck_stg::{check_explicit, PersistencyPolicy, SgOptions, StgBuilder};
//!
//! let mut b = StgBuilder::new("handshake");
//! b.input("r");
//! b.output("a");
//! b.cycle(&["r+", "a+", "r-", "a-"]);
//! b.initial_code_str("00");
//! let stg = b.build()?;
//!
//! let report = check_explicit(&stg, SgOptions::default(), PersistencyPolicy::default());
//! assert!(report.consistent() && report.persistent() && report.csc_holds());
//! # Ok::<(), stgcheck_stg::StgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod fake;
pub mod gen;
mod liveness;
mod parser;
mod signal;
mod state_graph;
mod stg;

pub use checks::{
    check_explicit, commutativity_violations, contradictory_codes, csc_holds_for_signal,
    csc_reducible, csc_violations, determinism_violations, has_complementary_input_sequences,
    signal_persistency_violations, signal_regions, transition_persistency_violations,
    CommutativityViolation, CscViolation, DeterminismViolation, ExplicitReport, Implementability,
    PersistencyPolicy, PersistencyViolation, SignalRegions, TransPersistencyViolation,
};
pub use fake::{fake_conflicts, fake_freedom_violations, is_fake_free, FakeConflict};
pub use liveness::dead_transitions;
pub use parser::{parse_g, write_g, ParseGError};
pub use signal::{Polarity, SignalId, SignalKind, TransLabel};
pub use state_graph::{
    build_state_graph, infer_initial_code, FullState, SgError, SgOptions, StateGraph,
};
pub use stg::{Code, Stg, StgBuilder, StgError, MAX_SIGNALS};
