//! # scioto-uts — the Unbalanced Tree Search benchmark
//!
//! UTS (Olivier et al., LCPC 2006) performs an exhaustive parallel
//! traversal of a deterministic, highly unbalanced tree. Each node's
//! children are derived by applying SHA-1 to the node's 20-byte state, so
//! the tree's shape is fixed by its parameters yet statistically
//! unpredictable — the canonical stress test for dynamic load balancing
//! (§6.2 of the Scioto paper).
//!
//! This crate provides:
//!
//! * a from-scratch [`sha1`] implementation (validated against the FIPS
//!   180-1 test vectors) whose compression function runs on the CPU's
//!   SHA extensions where it has them (x86_64, detected at run time) and
//!   as portable scalar code everywhere else, with the same bits;
//! * geometric and binomial tree generators per the UTS specification
//!   ([`TreeParams`]);
//! * a **sequential** traversal ([`sequential::count_tree`]) used as the
//!   ground truth;
//! * a **Scioto** driver ([`scioto_driver::run_scioto_uts`]) — one task per
//!   tree node, statistics gathered in common local objects;
//! * an **MPI work-stealing** driver ([`mpi_ws::run_mpi_uts`]) mirroring
//!   the paper's baseline: explicit polling for steal requests over
//!   two-sided messages and Dijkstra ring-token termination.
//!
//! The three drivers must agree on the node count for any parameters —
//! the test suites use this as a cross-validation oracle.

pub mod mpi_ws;
pub mod node;
pub mod presets;
pub mod scioto_driver;
pub mod sequential;
pub mod sha1;

pub use node::{Node, TreeKind, TreeParams, TreeStats};

/// Per-node processing cost measured by the paper on its reference CPU
/// (2.8 GHz Opteron 254): 0.3158 µs. Heterogeneity is applied on top of
/// this via the machine's `SpeedModel`.
pub const NODE_COST_NS: u64 = 316;
