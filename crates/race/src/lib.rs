//! `scioto-race`: offline happens-before race checking and source-level
//! invariant linting for the Scioto reproduction.
//!
//! Two independent tools live here:
//!
//! * [`hb::check_trace`] replays a deterministic virtual-time [`Trace`]
//!   (from [`scioto_sim`]) with vector clocks, pairing every explicit
//!   synchronization edge the runtime emits (lock generations, message
//!   sequence numbers, barrier epochs, termination-detection waves) and
//!   reporting every pair of conflicting, happens-before-unordered
//!   accesses to simulated global memory. It runs on in-memory traces
//!   (`--race-check` on the bench bins) or on exported JSONL traces (the
//!   `race_check` binary, via `scioto_analyze::jsonl::parse`).
//! * [`lint`] is a zero-dependency source scanner enforcing the repo's
//!   hermeticity and determinism invariants (no ambient `std::sync`
//!   primitives outside `crates/det`, no wall-clock or ambient
//!   randomness, trace emission only through the deferred-closure
//!   pattern, no `unwrap()` on lock results). The `scioto-lint` binary
//!   wires it into `scripts/verify.sh` as a hard gate.
//!
//! [`Trace`]: scioto_sim::Trace

pub mod deadlock;
pub mod hb;
pub mod lexer;
pub mod lint;
pub mod predict;
pub mod report;
mod sync;

pub use deadlock::{check_deadlocks, Cycle, DeadlockReport, Resource};
pub use hb::{check_trace, AccessInfo, Race, RaceReport};
pub use lint::{lint_tree, waiver_stats, Finding};
pub use predict::{check_protocols, predict, AtomicityViolation, PredictReport, PredictedRace};
pub use report::render as render_report;
