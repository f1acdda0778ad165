//! # scioto — Shared Collections of Task Objects
//!
//! A Rust reproduction of the Scioto framework (Dinan, Krishnamoorthy,
//! Larkins, Nieplocha, Sadayappan — *Scioto: A Framework for Global-View
//! Task Parallelism*, ICPP 2008): lightweight task management with
//! locality-aware dynamic load balancing for one-sided and global-address-
//! space programming models.
//!
//! The programming model mirrors the paper's C API:
//!
//! * a [`TaskCollection`] is created collectively
//!   ([`TaskCollection::create`] ≙ `tc_create`), seeded with tasks
//!   ([`TaskCollection::add`] ≙ `tc_add`), and processed in a MIMD parallel
//!   region ([`TaskCollection::process`] ≙ `tc_process`);
//! * tasks are contiguous descriptors — a standard header plus an opaque,
//!   user-defined body ([`Task`], Figure 1 of the paper) — dispatched
//!   through collectively registered callback handles
//!   ([`TaskCollection::register`]);
//! * per-process **common local objects** ([`TaskCollection::register_clo`],
//!   §2.3) give tasks a place to accumulate local results, and are the
//!   interoperability mechanism for models without a global address space;
//! * each process's patch of the collection is a circular **split queue**
//!   in ARMCI shared space (§5): a lock-free owner-private portion and a
//!   lock-protected shared portion from which other processes steal;
//! * idle processes perform locality-aware **work stealing** (§5.1) —
//!   random victim, up to `chunk` tasks per steal, taken from the tail
//!   (low-affinity end) with a single one-sided transfer;
//! * global quiescence is detected with the paper's **wave-based
//!   termination algorithm** (§5.2) — a binary spanning tree, white/black
//!   token coloring, one-sided dirty marking of steal victims, and the §5.3
//!   *votes-before* optimization that elides unnecessary markings.
//!
//! ```
//! use scioto_sim::{Machine, MachineConfig};
//! use scioto_armci::Armci;
//! use scioto::{TaskCollection, TcConfig, Task, AFFINITY_HIGH};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
//!     let armci = Armci::init(ctx);
//!     let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 64));
//!     let counter = Arc::new(AtomicU64::new(0));
//!     let clo = tc.register_clo(ctx, counter.clone());
//!     let hello = tc.register(ctx, Arc::new(move |t| {
//!         let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
//!         c.fetch_add(1, Ordering::Relaxed);
//!     }));
//!     // Seed 10 tasks on rank 0; stealing spreads them.
//!     if ctx.rank() == 0 {
//!         for _ in 0..10 {
//!             tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(hello, vec![]));
//!         }
//!     }
//!     tc.process(ctx);
//!     counter.load(Ordering::Relaxed)
//! });
//! assert_eq!(out.results.iter().sum::<u64>(), 10);
//! ```

mod clo;
mod collection;
mod config;
mod queue;
mod registry;
mod stats;
mod task;
pub mod termination;
pub mod trace;
pub mod victim;
pub mod wire;

pub use clo::CloHandle;
pub use collection::{TaskCollection, TaskCtx};
pub use config::{LbKind, QueueKind, TcConfig, VictimPolicy, AFFINITY_HIGH, AFFINITY_LOW};
pub use registry::TaskHandle;
pub use stats::{ProcessStats, StatsSummary};
pub use task::{Task, TaskFn};
