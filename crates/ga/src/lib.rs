//! # scioto-ga — Global Arrays over the ARMCI layer
//!
//! A reimplementation of the Global Arrays subset used by the Scioto paper's
//! applications (SCF, the TCE tensor-contraction kernel, and the §4
//! matrix-multiplication example):
//!
//! * 2-D block-distributed `f64` arrays with portable integer handles
//!   ([`GaHandle`]) that can be stored inside Scioto task bodies;
//! * rectangular patch `get` / `put` / `acc` built on ARMCI strided
//!   transfers;
//! * distribution queries ([`Ga::locate`], [`Ga::distribution`]);
//! * `read_inc` shared counters — the load-balancing mechanism of the
//!   *original* SCF and TCE implementations that Scioto is compared
//!   against (Figures 5 and 6);
//! * `sync`.
//!
//! ```
//! use scioto_sim::{Machine, MachineConfig};
//! use scioto_ga::{Ga, Patch};
//!
//! let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
//!     let ga = Ga::init(ctx);
//!     let a = ga.create(ctx, "a", 8, 8);
//!     ga.fill(ctx, a, 1.0);
//!     ga.sync(ctx);
//!     let patch = ga.get(ctx, a, Patch::new(0, 8, 0, 8));
//!     patch.iter().sum::<f64>()
//! });
//! assert_eq!(out.results, vec![64.0; 4]);
//! ```

mod array;
mod counter;
mod dist;

pub use array::{Ga, GaHandle};
pub use counter::GaCounter;
pub use dist::{BlockDist, Patch};
