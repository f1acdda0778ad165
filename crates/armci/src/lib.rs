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
//! * `fence` / `all_fence` and an ARMCI-style barrier.
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
mod strided;
mod typed;
mod world;

pub use gmem::Gmem;
pub use locks::MutexSet;
pub use strided::Strided;
pub use typed::{bytes_to_f64s, bytes_to_i64s, f64s_to_bytes, i64s_to_bytes};
pub use world::Armci;
