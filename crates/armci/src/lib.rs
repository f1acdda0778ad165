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
//! * the owner's lock-free word view of its own portion ([`Armci::local`]).
//!
//! Every rank's portion of a segment is a store of `AtomicU64` words that
//! never move, so no one-sided operation takes a host lock except an
//! accumulate or RMW (a per-rank read-modify-write lock) and the
//! virtual-time locks that *are* the model (`VLock`).
//!
//! As in real ARMCI, one-sided operations complete without any action from
//! the target process; unlike real ARMCI the cost of each operation comes
//! from the machine's [`scioto_sim::LatencyModel`].
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

pub use gmem::{Gmem, Local};
pub use locks::MutexSet;
pub use strided::Strided;
pub use world::Armci;
