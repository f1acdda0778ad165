//! Deterministic, dependency-free primitives shared by every Scioto crate.
//!
//! The reproduction's claims are only checkable if every run is
//! bit-reproducible from a single seed (see EXPERIMENTS.md), and only
//! buildable if a clean checkout compiles with **no registry access**.
//! This crate supplies the two things the workspace previously pulled from
//! crates.io:
//!
//! * [`rng`] — a SplitMix64-seeded xoshiro256** generator with the small
//!   surface the codebase actually uses (`gen_range`, `gen_f64`,
//!   `shuffle`, per-stream derivation), replacing `rand`;
//! * [`sync`] — thin `Mutex` / `Condvar` wrappers over
//!   `std::sync` with the poison-free, guard-returning API the code was
//!   written against, replacing `parking_lot`.
//!
//! Per-rank streams are derived by hashing `(seed, stream_id)` through
//! SplitMix64 ([`Rng::stream`]) so that distinct seeds can never collide
//! across ranks — unlike the earlier `seed ^ rank * CONST` XOR-mix, which
//! mapped `(seed = CONST, rank = 0)` and `(seed = 0, rank = 1)` to the
//! same state.
//!
//! A third module, [`clock`], exists for the one place determinism ends:
//! the concurrent (real-thread) execution mode needs real timestamps,
//! and [`clock::MonoClock`] is the single sanctioned wall-clock source —
//! see the `wallclock` lint in `scioto-race`.
//!
//! Two layout primitives keep the host access path free of contention:
//! [`table::AppendTable`], the append-only handle table whose reads take
//! no lock, and [`sync::CachePadded`], which gives each rank's slot of a
//! shared array its own cache line.

pub mod clock;
pub mod rng;
pub mod sync;
pub mod table;

pub use clock::MonoClock;
pub use rng::{Rng, SplitMix64};
pub use sync::CachePadded;
pub use table::AppendTable;
