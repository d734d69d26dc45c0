//! Reduced Ordered Binary Decision Diagrams for symbolic Petri-net and STG
//! analysis.
//!
//! This crate is the boolean-manipulation substrate of the `stgcheck`
//! workspace, a reproduction of *"Checking Signal Transition Graph
//! Implementability by Symbolic BDD Traversal"* (Kondratyev, Cortadella,
//! Kishinevsky, Pastor, Roig, Yakovlev — ED&TC 1995). It implements the
//! classic Brace–Rudell–Bryant-style ROBDD package the paper builds on:
//!
//! * a hash-consed node arena with a **concurrent unique table** (see
//!   `docs/concurrent-table.md`): the arena is append-only with atomic
//!   publication, the unique table is lock-sharded by level and the
//!   operation caches are lossy-atomic, so every boolean operation
//!   ([`BddOps`]) may run through `&BddManager` from many threads against
//!   one manager, while the same operation through `&mut BddManager` runs
//!   a plain-store instantiation of the same body; mark-and-sweep garbage
//!   collection and peak-size statistics (the "BDD size" columns of the
//!   paper's Table 1) are `&mut self` quiesce-point operations;
//! * **complement edges** (see `docs/bdd-internals.md`): [`Bdd`] handles
//!   carry a tag bit, so [`BddManager::not`] is O(1), a function and its
//!   negation share every node, and `∨`/`∀`/`→`/`−` resolve through the
//!   `∧`/`∃` caches by De Morgan duality;
//! * memoised boolean operations (`and`, `or`, `xor`, …) backed by a
//!   fixed-size direct-mapped lossy cache with complement-normalized
//!   keys and cheap multiplicative hashing — no allocation on the apply
//!   path;
//! * *cube cofactors* and existential/universal abstraction — the
//!   primitives by which the paper defines the Petri-net transition
//!   function (Section 4) — and the one-pass image kernel
//!   [`BddOps::flip_cube`] that computes it;
//! * satisfying-assignment counting (the "# of states" column of
//!   Table 1);
//! * variable-ordering support: any static order at creation time and
//!   **in-place dynamic reordering** — the handle-preserving
//!   [`BddManager::swap_levels`] primitive, [`BddManager::permute_levels`]
//!   that lines a manager up with a checkpoint's order before an import,
//!   Rudell-style grouped sifting ([`BddManager::sift`],
//!   [`BddManager::set_var_groups`]) and the automatic growth trigger
//!   [`BddManager::reorder_due`] (see `docs/reordering.md`);
//! * a durable, checksummed multi-root serialized form
//!   ([`BddCheckpoint`]) with an O(n) bulk loader — the artifact behind
//!   `stgcheck-core`'s result cache and fixpoint checkpoints;
//! * a boolean-expression AST ([`BoolExpr`]) that serves as reference
//!   semantics for the property tests.
//!
//! # Quick example
//!
//! ```
//! use stgcheck_bdd::{BddManager, BddOps};
//!
//! let mut m = BddManager::new();
//! let x = m.new_var("x");
//! let y = m.new_var("y");
//! let (vx, vy) = (m.var(x), m.var(y));
//! let f = m.xor(vx, vy);
//!
//! assert_eq!(m.sat_count(f), 2);
//! let cube = m.vars_cube(&[x]);
//! let g = m.exists(f, cube); // ∃x. x⊕y  =  true
//! assert!(g.is_true());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod arena;
mod budget;
mod cache;
mod expr;
pub mod failpoint;
mod manager;
mod node;
mod ops;
mod quant;
mod serialize;
mod sift;

pub use arena::{MAX_SLOTS, MAX_VARS};
pub use budget::{Budget, ResourceError};
pub use expr::BoolExpr;
pub use failpoint::FaultPlan;
pub use manager::{BddManager, ManagerStats};
pub use node::{Bdd, Literal, Var};
pub use ops::BddOps;
pub use serialize::{fnv64, BddCheckpoint, SerializeError};
pub use sift::SiftStats;
