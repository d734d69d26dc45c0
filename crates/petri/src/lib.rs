//! Petri-net modelling and explicit analysis for the `stgcheck` workspace.
//!
//! This crate provides the net-theoretic substrate of the paper *"Checking
//! Signal Transition Graph Implementability by Symbolic BDD Traversal"*
//! (ED&TC 1995): place/transition nets with weighted arcs, the token game,
//! explicit reachability with boundedness/safeness analysis, and the
//! structural queries the checks use (conflict places, direct-conflict
//! pairs, the marked-graph test).
//!
//! Signal Transition Graphs — Petri nets with signal-labelled transitions —
//! live one layer up in `stgcheck-stg`; the symbolic (BDD) counterparts of
//! the algorithms here live in `stgcheck-core`.
//!
//! # Quick example
//!
//! ```
//! use stgcheck_petri::{PetriNet, ReachOptions};
//!
//! // A producer/consumer handshake.
//! let mut net = PetriNet::new();
//! let idle = net.add_place("idle", 1);
//! let busy = net.add_place("busy", 0);
//! let req = net.add_transition("req");
//! let ack = net.add_transition("ack");
//! net.connect(&[idle], req, &[busy]);
//! net.connect(&[busy], ack, &[idle]);
//!
//! let graph = net.reachability_graph(ReachOptions::default())?;
//! assert_eq!(graph.len(), 2);
//! assert!(net.is_marked_graph());
//! # Ok::<(), stgcheck_petri::ReachError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net;
mod reach;
mod structure;

pub use net::{Marking, PetriNet, PlaceId, TransId};
pub use reach::{ReachError, ReachOptions, ReachabilityGraph};
