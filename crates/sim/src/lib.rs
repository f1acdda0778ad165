//! # scioto-sim — a deterministic virtual-time distributed-machine simulator
//!
//! The Scioto paper (Dinan et al., ICPP 2008) evaluates its runtime on a
//! 64-node heterogeneous InfiniBand cluster and a Cray XT4. This crate is the
//! substitute substrate: it executes SPMD rank programs under a
//! **conservative discrete-event scheduler** that always resumes the
//! runnable rank with the smallest virtual clock. Ranks are resumable
//! fibers on one OS thread wherever the target has a context switch
//! ([`fibers_supported`] — this is what makes 1024-rank machines practical
//! on one core) and one parked OS thread per rank elsewhere. The substrate
//! is not a setting: the scheduler is the same and same-seed runs produce
//! byte-identical [`Report`]s and traces on both.
//!
//! Rules of the model:
//!
//! * Purely **rank-private** work advances the local virtual clock via
//!   [`Ctx::compute`] / [`Ctx::charge_cpu`] without a scheduling point.
//! * Any operation that touches **shared state** (locks, mailboxes,
//!   barriers, remotely accessible memory) passes through a *yield point*
//!   ([`Ctx::yield_point`]), so shared operations execute in global
//!   virtual-time order and runs are bit-for-bit deterministic.
//! * Communication costs come from a [`LatencyModel`]; per-rank CPU speed
//!   differences (the paper's Opteron/Xeon mix) come from a [`SpeedModel`].
//!
//! The same API also runs in [`ExecMode::Concurrent`] — free-running threads,
//! real locks, wall-clock time — which the test suites use to stress the
//! identical runtime code under genuine preemption.
//!
//! ```
//! use scioto_sim::{Machine, MachineConfig};
//!
//! let cfg = MachineConfig::virtual_time(4);
//! let out = Machine::run(cfg, |ctx| {
//!     ctx.compute(1_000); // 1 µs of local work
//!     ctx.barrier();
//!     ctx.rank()
//! });
//! assert_eq!(out.results, vec![0, 1, 2, 3]);
//! assert!(out.report.makespan_ns >= 1_000);
//! ```

mod barrier;
mod config;
mod ctx;
mod fiber;
mod kernel;
mod machine;
mod mailbox;
mod replay;
mod report;
mod trace;
mod vlock;

pub use barrier::SimBarrier;
pub use config::{
    ring_distance, BarrierKind, ExecMode, LatencyModel, LatencyTiers, MachineConfig, SpeedModel,
};
pub use ctx::Ctx;
pub use machine::{Machine, RunOutput};
pub use mailbox::{MailboxRouter, Msg, MsgFilter};
pub use replay::{event_dur, run_replay, ReplayOp, ReplayProgram, ReplaySync};
pub use report::{EventCounters, Report};
pub use trace::{
    validate_json, Gauge, RemoteOpKind, StampedEvent, Trace, TraceConfig, TraceEvent, TraceSink,
    VtHistogram, WaveDir, DEFAULT_TRACE_BATCH, HIST_BUCKETS,
};
pub use vlock::VLock;

/// True where virtual-time ranks run as fibers (x86_64 and aarch64 unix);
/// elsewhere each rank is a parked OS thread and machines of a thousand
/// ranks and more may not fit the host. A read-only fact about the target,
/// for tests that need that scale.
pub fn fibers_supported() -> bool {
    fiber::SUPPORTED
}
