//! # scioto-mpi — a two-sided (MPI-style) messaging layer
//!
//! The Scioto paper compares its one-sided work stealing against an MPI
//! work-stealing implementation that must *poll* for steal requests between
//! units of work (§6.2, Figures 7 and 8), and measures its termination
//! detector against `MPI_Barrier` (Figure 4). This crate provides the
//! two-sided substrate for those baselines: tagged `send` / `recv` /
//! `iprobe` plus tree-based collectives (barrier, allreduce, gather,
//! scatter), built on the virtual-time mailboxes of `scioto-sim`.
//!
//! Message visibility respects network latency: an `iprobe` cannot observe
//! a message that is still in flight, exactly the property that makes
//! polling-based stealing pay an overhead that Scioto's one-sided queues
//! avoid.
//!
//! ```
//! use scioto_sim::{Machine, MachineConfig};
//! use scioto_mpi::Comm;
//!
//! let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
//!     let comm = Comm::world(ctx);
//!     let total = comm.allreduce_u64(ctx, &[ctx.rank() as u64], scioto_mpi::ReduceOp::Sum);
//!     total[0]
//! });
//! assert_eq!(out.results, vec![6, 6, 6, 6]);
//! ```

mod collectives;
mod comm;

pub use collectives::ReduceOp;
pub use comm::Comm;
pub use scioto_sim::{Msg, MsgFilter};
