//! # scioto-scf — closed-shell Self-Consistent Field over Global Arrays
//!
//! A compact but real reproduction of the SCF application of §6.2: the
//! closed-shell (restricted) Hartree–Fock method over s-type Gaussian
//! basis functions, with
//!
//! * analytic one- and two-electron integrals (`(ss|ss)` ERIs via the Boys
//!   function, [`integrals`]). A Gaussian product is formed in one place,
//!   [`integrals::Pair`]; a Fock build reads an [`integrals::PairTable`]
//!   (all n² pairs + the Schwarz factors) rather than re-deriving two
//!   products per ERI. Factors multiply in one
//!   fixed left-to-right order, so a table ERI is the same bits as the
//!   closed form from four primitives (a bitwise test holds this) and
//!   screening, task lists and virtual time cannot drift with the kernel;
//! * Cauchy–Schwarz screening, which makes per-task cost irregular — the
//!   property that motivates dynamic load balancing;
//! * a Jacobi symmetric eigensolver ([`linalg`]) for the Roothaan step;
//! * Fock and density matrices distributed with Global Arrays, Fock
//!   contributions accumulated with `ga.acc`;
//! * the work the paper replicates on every process — the one-electron
//!   setup, each Roothaan step — and the integrals every iteration
//!   re-reads, computed once per *machine*: the P virtual ranks share one
//!   host, so [`parallel`] routes each through `Ctx::replicated` and one
//!   lazily filled ERI block store (built once per run, `n⁴ · 8` bytes at
//!   most) while every rank still charges the modelled cost;
//! * two parallel Fock-build drivers ([`parallel`]): the **original**
//!   scheme — a replicated task list drawn from a `read_inc` global
//!   counter — and the **Scioto** scheme — a task collection seeded at the
//!   owner of each Fock block with locality-aware work stealing
//!   (Figures 5 and 6 of the paper).
//!
//! The sequential reference ([`scf::scf_sequential`]) and both parallel
//! drivers must agree on the converged energy to 1e-8 hartree; the test
//! suites enforce this.

pub mod basis;
pub mod integrals;
pub mod linalg;
pub mod parallel;
pub mod scf;
mod store;

pub use basis::{BasisSet, Molecule};
pub use parallel::{run_scf_parallel, LoadBalance, ParallelScfConfig, ScfRunReport};
pub use scf::{scf_sequential, ScfConfig, ScfResult};

/// Virtual CPU cost charged per computed primitive ERI (ns). Chosen so a
/// block task lands in the tens of microseconds — the granularity regime
/// of the paper's SCF tasks. It models the paper's machine, not this
/// host, where a table ERI costs ≈ 16 ns and is evaluated once per run.
pub const ERI_COST_NS: u64 = 150;
