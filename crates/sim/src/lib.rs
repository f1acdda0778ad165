//! # scioto-sim — a deterministic virtual-time distributed-machine simulator
//!
//! The Scioto paper (Dinan et al., ICPP 2008) evaluates its runtime on a
//! 64-node heterogeneous InfiniBand cluster and a Cray XT4. This crate is the
//! substitute substrate: it executes SPMD rank programs under a
//! **conservative discrete-event scheduler** that always resumes the
//! runnable rank with the smallest virtual clock. Ranks are resumable
//! fibers on one OS thread — this is what makes 1024-rank machines
//! practical on one core. The fiber switch is written for unix x86_64 and
//! aarch64; the crate does not compile for other targets.
//!
//! Rules of the model:
//!
//! * Purely **rank-private** work advances the local virtual clock via
//!   [`Ctx::compute`] without a scheduling point.
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
    ring_distance, tree_children, tree_parent, BarrierKind, ExecMode, LatencyModel, LatencyTiers,
    MachineConfig, SpeedModel,
};
pub use ctx::{CpuCost, Ctx};
pub use machine::{Machine, RunOutput};
pub use mailbox::{MailboxRouter, Msg, MsgFilter};
pub use replay::{run_replay, ReplayOp, ReplayProgram, ReplaySync};
pub use report::{EventCounters, Report};
pub use trace::{
    coalesce, validate_json, Gauge, LocalRecord, RemoteOpKind, StampedEvent, Trace, TraceConfig,
    TraceEvent, TraceSink, WaveDir, MERGED_GAUGE,
};
pub use vlock::VLock;
