//! `scioto-race`: offline happens-before race checking for the Scioto
//! reproduction.
//!
//! Three tools live here. The first two are folds over the one legal-order
//! replay of a trace's synchronization, [`scioto_analyze::sync::walk`];
//! the third needs only per-rank program order:
//!
//! * [`hb::check_trace`] joins vector clocks along every explicit
//!   synchronization edge a deterministic [`Trace`] carries (lock
//!   generations, message sequence numbers, barrier epochs,
//!   termination-detection waves) and reports every pair of conflicting,
//!   happens-before-unordered accesses to simulated global memory.
//! * [`predict::predict`] carries a second, weaker clock through the same
//!   replay — lock edges between non-conflicting critical sections
//!   dropped — and reports the races the observed schedule masked, plus
//!   every protocol-atomic word whose access pattern matches no declared
//!   ordering protocol.
//! * [`deadlock::check_deadlocks`] builds the cross-rank lock-order graph
//!   from each rank's lock nesting and reports the cycles that survive
//!   the gate-lock filter.
//!
//! `scioto` runs all three on every trace it checks — a figure's traced
//! run under `--check`, or a JSONL dump under `scioto check` — and
//! [`render_report`] writes their `scioto-race-v1` line.
//!
//! [`Trace`]: scioto_sim::Trace

pub mod deadlock;
mod fold;
pub mod hb;
pub mod predict;
pub mod report;

pub use deadlock::{check_deadlocks, Cycle, DeadlockReport, Resource};
pub use hb::{check_trace, AccessInfo, Race, RaceReport};
pub use predict::{predict, AtomicityViolation, PredictReport, PredictedRace};
pub use report::render as render_report;

#[cfg(test)]
mod fixtures;
#[cfg(test)]
mod verdicts;
