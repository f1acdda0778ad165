//! Trace-analysis engine for scioto simulator traces.
//!
//! Consumes a [`scioto_sim::Trace`] — taken in-memory from a
//! [`scioto_sim::Report`] or re-parsed from a JSONL file via
//! [`jsonl::parse`] — and computes:
//!
//! - **blame decomposition** ([`blame`]): every virtual nanosecond of
//!   every rank's elapsed time attributed to exactly one of
//!   {exec, steal, lock, td, barrier, idle}, summing exactly to the
//!   rank's elapsed time;
//! - **steal provenance** ([`provenance`]): victim→thief edges, ring
//!   distances, chain depths, and task-migration counts;
//! - **critical path** ([`critpath`]): a time-continuous backward walk
//!   through task/steal/lock/barrier causality edges yielding the
//!   makespan's composition, a T∞-vs-T1 parallelism estimate, and the
//!   top-k longest segments.
//!
//! Below them sits [`sync`]: the index of a trace's synchronization
//! producers and the one legal-order walk over it, shared by [`replay`]'s
//! lowering (the index) and the race checker's vector-clock passes (the
//! walk).
//!
//! [`AnalysisReport::from_trace`] bundles all three plus data-quality
//! warnings, rendering as human text or versioned machine JSON
//! (`scioto-analysis-v1`).

pub mod blame;
pub mod critpath;
pub mod jsonl;
pub mod provenance;
pub mod replay;
pub mod report;
pub mod sync;
pub mod timeline;
pub mod tune;
pub mod whatif;

pub use blame::{decompose, Blame};
pub use critpath::{CritPath, PathSegment};
pub use provenance::{Provenance, StealEdge};
pub use replay::{lower, ReplayError};
pub use tune::{candidates, Candidate, Score, TuneRow};
pub use whatif::{reprice, Knobs};
pub use report::{AnalysisReport, ANALYSIS_SCHEMA};
pub use timeline::{spans_for_rank, Category, Span, CATEGORIES};

use scioto_sim::Trace;

/// Analyze `trace`, producing the full report.
pub fn analyze(trace: &Trace) -> AnalysisReport {
    AnalysisReport::from_trace(trace)
}
