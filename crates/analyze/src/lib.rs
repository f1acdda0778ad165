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
//! Blame and the critical path read one span model ([`timeline`]): each
//! rank's spans are extracted and indexed once per report, and both
//! charge an instant to the innermost covering span by the same rule.
//!
//! Below them sits [`sync`]: the index of a trace's synchronization
//! producers, whose building is the one shape check a trace gets, and the
//! one legal-order walk over it, shared by [`replay`]'s lowering (the
//! index) and the race checker's vector-clock fold (the walk).
//!
//! [`AnalysisReport::from_trace`] bundles all three plus data-quality
//! warnings and the trace's [`census`] (events per rank and per kind,
//! duration digests, gauges), rendering as human text — the one human
//! report of a trace, opening with the census — or versioned machine
//! JSON (`scioto-analysis-v1`).

pub mod blame;
pub mod census;
pub mod critpath;
pub mod jsonl;
pub mod provenance;
pub mod replay;
pub mod report;
pub mod sync;
pub mod timeline;

pub use blame::{decompose, Blame};
pub use critpath::{CritPath, PathSegment};
pub use provenance::{Provenance, StealEdge};
pub use replay::{lower, ReplayError};
pub use report::AnalysisReport;
pub use timeline::{spans_for_rank, Category, Span, CATEGORIES};

use scioto_sim::Trace;

/// Analyze `trace`, producing the full report.
pub fn analyze(trace: &Trace) -> AnalysisReport {
    AnalysisReport::from_trace(trace)
}
