//! Two-clock benchmark harness for scioto-rs.
//!
//! Five workloads, each reporting what a user sees (work per host
//! second, virtual-time makespan, peak memory, set-up time) from timed,
//! untraced reps, and — in a separate traced run — what each layer
//! (crate) contributes: exact virtual-time counts, blame shares from the
//! program's own recorder, host ns per primitive from tight-loop probes,
//! and the trace tool chain's stage rates. Everything is measured from
//! outside, through public functions. See `perf/README.md`.

pub mod bench;
pub mod cli;
pub mod hostref;
pub mod inputs;
pub mod json;
pub mod pipeline;
pub mod probes;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
