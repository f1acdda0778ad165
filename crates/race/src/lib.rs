//! `scioto-race`: offline happens-before race checking and source-level
//! invariant linting for the Scioto reproduction.
//!
//! Four tools live here. The first two are folds over the one legal-order
//! replay of a trace's synchronization, [`scioto_analyze::sync::walk`];
//! the third needs only per-rank program order; the fourth reads source:
//!
//! * [`hb::check_trace`] joins vector clocks along every explicit
//!   synchronization edge a deterministic [`Trace`] carries (lock
//!   generations, message sequence numbers, barrier epochs,
//!   termination-detection waves) and reports every pair of conflicting,
//!   happens-before-unordered accesses to simulated global memory —
//!   in memory (`--race-check` on `scioto`'s figure subcommands) or from
//!   an exported JSONL trace (`scioto race_check`).
//! * [`predict::predict`] carries a second, weaker clock through the same
//!   replay — lock edges between non-conflicting critical sections
//!   dropped — and reports the races the observed schedule masked, plus
//!   every protocol-atomic word whose access pattern matches no declared
//!   ordering protocol ([`predict::check_protocols`]).
//! * [`deadlock::check_deadlocks`] builds the cross-rank lock-order graph
//!   from each rank's lock nesting and reports the cycles that survive
//!   the gate-lock filter.
//! * [`lint`] is a zero-dependency source scanner enforcing the repo's
//!   hermeticity and determinism invariants (no ambient `std::sync`
//!   primitives outside `crates/det`, no wall-clock or ambient
//!   randomness, trace emission only through the deferred-closure
//!   pattern, no `unwrap()` on lock results). The `scioto-lint` binary
//!   wires it into `scripts/verify.sh` as a hard gate.
//!
//! [`Trace`]: scioto_sim::Trace

pub mod deadlock;
mod fold;
pub mod hb;
pub mod lexer;
pub mod lint;
pub mod predict;
pub mod report;

pub use deadlock::{check_deadlocks, Cycle, DeadlockReport, Resource};
pub use hb::{check_trace, AccessInfo, Race, RaceReport};
pub use lint::{lint_tree, waiver_stats, Finding};
pub use predict::{check_protocols, predict, AtomicityViolation, PredictReport, PredictedRace};
pub use report::render as render_report;

#[cfg(test)]
mod fixtures;
