//! # scioto-armci — a one-sided (RMA) communication layer
//!
//! Reimplements the subset of ARMCI (Nieplocha & Carpenter) that the Scioto
//! runtime and the Global Arrays layer use, on top of the `scioto-sim`
//! virtual-time machine:
//!
//! * collective allocation of remotely accessible memory segments
//!   ([`Armci::malloc`] → [`Gmem`] handles addressed as `(rank, offset)`);
//! * contiguous one-sided `put` / `get` and atomic `acc` (accumulate);
//! * remote read-modify-write: fetch-and-add, swap, compare-and-swap;
//! * collectively created mutex sets with per-rank locks
//!   ([`Armci::create_mutexes`]);
//! * `fence` / `all_fence` and an ARMCI-style barrier;
//! * the owner's lock-free word view of its own portion ([`Armci::local`],
//!   or [`SegmentRef::local`] on a segment resolved once).
//!
//! Every rank's portion of a segment is a store of `AtomicU64` words that
//! never move, so no one-sided operation takes a host lock except an
//! accumulate or RMW (a per-rank read-modify-write lock) and the
//! virtual-time locks that *are* the model (`VLock`).
//!
//! As in real ARMCI, one-sided operations complete without any action from
//! the target process; unlike real ARMCI the cost of each operation comes
//! from the machine's [`scioto_sim::LatencyModel`], which prices a target
//! that is the issuer itself at `local_get` and scales a remote price by
//! the pair's latency tier. The issuer's clock advances by:
//!
//! * `put` / `get` / `acc` (contiguous or strided): one
//!   [`xfer_to`](scioto_sim::LatencyModel::xfer_to) of the total payload;
//! * a read-modify-write: its wait in the target word's service queue,
//!   `rmw_service`, then one
//!   [`remote_op_to`](scioto_sim::LatencyModel::remote_op_to);
//! * `lock`, `try_lock`, `unlock`: one
//!   [`lock_to`](scioto_sim::LatencyModel::lock_to) each, plus any wait
//!   for the holder;
//! * `fence`: one `remote_op_to`; `all_fence`: `remote_op`;
//! * `barrier`: `remote_op` plus the barrier's
//!   [`barrier_cost`](scioto_sim::LatencyModel::barrier_cost), released
//!   after the last arrival.
//!
//! ```
//! use scioto_sim::{Machine, MachineConfig};
//! use scioto_armci::Armci;
//!
//! let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
//!     let armci = Armci::init(ctx);
//!     let g = armci.malloc(ctx, 8);
//!     if ctx.rank() == 0 {
//!         armci.put(ctx, g, 1, 0, &42i64.to_le_bytes());
//!     }
//!     armci.barrier(ctx);
//!     armci.read_i64(ctx, g, 1, 0)
//! });
//! assert_eq!(out.results, vec![42, 42]);
//! ```

mod gmem;
mod locks;
mod rmw;
mod store;
mod strided;
mod world;

pub use gmem::{Gmem, Local, SegmentRef};
pub use locks::MutexSet;
pub use strided::Strided;
pub use world::Armci;
