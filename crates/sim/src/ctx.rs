//! `Ctx` — the per-rank handle passed to every SPMD rank program.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

use scioto_det::Rng;

use crate::config::{ExecMode, LatencyModel};
use crate::kernel::Kernel;
use crate::machine::{ReplicatedEntry, Shared};
use crate::trace::{LocalRecord, TraceEvent};

/// A CPU charge already scaled by one rank's speed factor, made by that
/// rank's [`Ctx::cpu_cost`] and added by its [`Ctx::charge`]. A hot path
/// that charges the same amount over and over pays the float rounding of
/// the scaling once per rank instead of once per charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCost(u64);

impl CpuCost {
    /// `k` back-to-back charges of this cost, as one charge.
    pub fn times(self, k: u64) -> CpuCost {
        CpuCost(self.0 * k)
    }
}

/// The per-rank execution context.
///
/// A `Ctx` is created by [`crate::Machine::run`] for each simulated process
/// and passed by reference to the rank program. It provides rank identity,
/// virtual-time accounting, scheduling points, collectives and a
/// deterministic per-rank RNG. Communication layers (`scioto-armci`,
/// `scioto-mpi`, ...) are built on top of these primitives.
pub struct Ctx {
    rank: usize,
    nranks: usize,
    kernel: Arc<Kernel>,
    shared: Arc<Shared>,
    rng: RefCell<Rng>,
    /// Ordinal of this rank's next collective call: its index into the
    /// collective log, named by the divergence diagnostic.
    coll_ordinal: Cell<usize>,
    /// Nesting depth of [`Ctx::collective_epoch`]; the commit barrier runs
    /// when the outermost epoch closes.
    epoch_depth: Cell<u32>,
    /// Ordinal of this rank's next [`Ctx::replicated`] call.
    repl_ordinal: Cell<usize>,
    /// Set while this rank runs a [`Ctx::replicated`] `make`; every
    /// scheduling point asserts it is clear.
    in_replicated: Cell<bool>,
    /// The latency model's per-operation queue charges, scaled for this
    /// rank once.
    local_insert: CpuCost,
    local_get: CpuCost,
}

impl Ctx {
    pub(crate) fn new(rank: usize, kernel: Arc<Kernel>, shared: Arc<Shared>, seed: u64) -> Self {
        let nranks = kernel.nranks();
        let scaled = |ns| CpuCost(kernel.scale_cpu(rank, ns));
        let local_insert = scaled(shared.latency.local_insert);
        let local_get = scaled(shared.latency.local_get);
        Ctx {
            rank,
            nranks,
            kernel,
            shared,
            // Per-rank stream derived by hashing (seed, rank) through
            // SplitMix64. The earlier `seed ^ rank * CONST` XOR-mix was
            // linear: e.g. (seed = CONST, rank = 0) and (seed = 0,
            // rank = 1) produced identical streams.
            rng: RefCell::new(Rng::stream(seed, rank as u64)),
            coll_ordinal: Cell::new(0),
            epoch_depth: Cell::new(0),
            repl_ordinal: Cell::new(0),
            in_replicated: Cell::new(false),
            local_insert,
            local_get,
        }
    }

    /// A [`Ctx::replicated`] `make` is host-only work: it may not hand the
    /// baton on (another rank could then re-enter the slot it is filling)
    /// and may not leave a mark on the simulated machine.
    #[inline]
    fn assert_schedulable(&self, what: &str) {
        assert!(
            !self.in_replicated.get(),
            "Ctx::replicated: rank {}'s `make` reached a scheduling point ({what}); \
             it must be a pure host computation",
            self.rank
        );
    }

    /// This process's rank, `0 <= rank < nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the machine.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Execution mode of the machine.
    pub fn mode(&self) -> ExecMode {
        self.kernel.mode()
    }

    /// Latency model of the machine, consulted by communication layers.
    pub fn latency(&self) -> &LatencyModel {
        &self.shared.latency
    }

    /// Current time in nanoseconds: the rank's virtual clock in
    /// [`ExecMode::VirtualTime`], wall time since machine start otherwise.
    pub fn now(&self) -> u64 {
        self.kernel.now(self.rank)
    }

    /// Charge `ns` nanoseconds of local CPU work, scaled by this rank's
    /// speed factor. Rank-private: no scheduling point.
    pub fn compute(&self, ns: u64) {
        self.charge(self.cpu_cost(ns));
    }

    /// `ns` nanoseconds of CPU work scaled by this rank's speed factor,
    /// to be charged later, possibly many times, with [`Ctx::charge`].
    /// Charging it is exactly [`Ctx::compute`]`(ns)`.
    pub fn cpu_cost(&self, ns: u64) -> CpuCost {
        CpuCost(self.kernel.scale_cpu(self.rank, ns))
    }

    /// Charge a CPU cost this rank scaled with [`Ctx::cpu_cost`].
    /// Rank-private: no scheduling point.
    #[inline]
    pub fn charge(&self, cost: CpuCost) {
        self.kernel.charge(self.rank, cost.0);
    }

    /// [`LatencyModel::local_insert`], scaled for this rank.
    #[inline]
    pub fn local_insert_cost(&self) -> CpuCost {
        self.local_insert
    }

    /// [`LatencyModel::local_get`], scaled for this rank.
    #[inline]
    pub fn local_get_cost(&self) -> CpuCost {
        self.local_get
    }

    /// Charge `ns` nanoseconds of network time (not scaled by CPU speed).
    pub fn charge_net(&self, ns: u64) {
        self.kernel.charge(self.rank, ns);
    }

    /// Advance this rank's clock to at least `t` nanoseconds.
    pub fn advance_to(&self, t: u64) {
        self.kernel.advance_to(self.rank, t);
    }

    /// A scheduling point: in virtual-time mode, suspends until this rank is
    /// the minimum-clock runnable rank. Must precede every operation that
    /// reads or writes state shared with other ranks.
    pub fn yield_point(&self) {
        self.assert_schedulable("yield_point");
        self.kernel.yield_point(self.rank);
    }

    /// Park until some other rank wakes this one (used by blocking
    /// primitives in this crate; exposed for building new ones). Always use
    /// inside a re-check loop: wakeups may be spurious.
    pub fn block(&self) {
        self.assert_schedulable("block");
        self.kernel.block(self.rank, "ctx.block");
    }

    /// Like [`Ctx::block`], tagging the park with `site` — the name the
    /// sim-deadlock diagnostic prints for a rank stuck waiting here.
    pub fn block_at(&self, site: &'static str) {
        self.assert_schedulable(site);
        self.kernel.block(self.rank, site);
    }

    /// Wake `target`, resuming it (in virtual time) no earlier than
    /// `resume_at`.
    pub fn unblock(&self, target: usize, resume_at: u64) {
        self.trace(|| TraceEvent::Unblock {
            target: target as u32,
        });
        self.kernel.unblock(target, resume_at);
    }

    /// Deterministic per-rank random number generator.
    pub fn rng(&self) -> std::cell::RefMut<'_, Rng> {
        self.rng.borrow_mut()
    }

    /// Machine-wide barrier with the latency model's default cost
    /// (`2·log2(n)` tree hops).
    pub fn barrier(&self) {
        let cost = self.shared.latency.barrier_cost(self.nranks);
        self.barrier_with_cost(cost);
    }

    /// Machine-wide barrier charging `cost` ns between the last arrival and
    /// the collective release. All ranks of one episode must pass the same
    /// cost.
    pub fn barrier_with_cost(&self, cost: u64) {
        self.assert_schedulable("barrier");
        self.shared.barrier.wait(&self.kernel, self.rank, cost);
    }

    /// Collectively create one shared object: rank 0 runs `make`, every rank
    /// receives an `Arc` to the same instance. All ranks must call
    /// `collective` in the same order with the same `T`.
    ///
    /// Barrier-free: rank 0 appends the object to a shared publication log
    /// and wakes any rank parked on that ordinal. Every rank's resulting
    /// clock is `max(own arrival, rank 0's publish time)` — a rank that
    /// arrives after publication pays nothing, one that arrives early
    /// parks at `collective.wait` and resumes at the publish stamp — so
    /// the outcome is schedule-independent and the virtual-time
    /// determinism guarantee holds without any barrier. Callers that batch
    /// several collectives plus rank-local initialization wrap the group
    /// in [`Ctx::collective_epoch`] for its single commit barrier.
    pub fn collective<T: Send + Sync + 'static>(&self, make: impl FnOnce() -> T) -> Arc<T> {
        let ord = self.coll_ordinal.get();
        self.coll_ordinal.set(ord + 1);
        if self.rank == 0 {
            let obj: Arc<dyn Any + Send + Sync> = Arc::new(make());
            let now = self.now();
            let woken = {
                let mut log = self.shared.coll.lock();
                debug_assert_eq!(log.entries.len(), ord, "rank 0 collective log out of step");
                log.entries.push((Arc::clone(&obj), std::any::type_name::<T>(), now));
                let published = log.entries.len();
                let mut woken = Vec::new();
                log.waiters.retain(|&(o, r)| {
                    if o < published {
                        woken.push(r);
                        false
                    } else {
                        true
                    }
                });
                woken
            };
            for r in woken {
                self.unblock(r, now);
            }
            return obj
                .downcast::<T>()
                .expect("unreachable: rank 0 published this object itself");
        }
        loop {
            {
                let mut log = self.shared.coll.lock();
                if let Some((obj, stored, published_at)) = log.entries.get(ord) {
                    let (obj, stored, published_at) = (Arc::clone(obj), *stored, *published_at);
                    drop(log);
                    // Causality: the reader's clock lands at
                    // max(own arrival, publish stamp) regardless of the
                    // order the scheduler ran the ranks in.
                    self.kernel.advance_to(self.rank, published_at);
                    return obj.downcast::<T>().unwrap_or_else(|_| {
                        panic!(
                            "collective divergence: rank {} reached collective #{ord} \
                             expecting a {}, but rank 0 published a {stored} (ranks \
                             disagree on the collective call sequence)",
                            self.rank,
                            std::any::type_name::<T>()
                        )
                    });
                }
                // Not yet published: register (once) and park. Wakeups can
                // be spurious, so the loop re-checks from the top.
                if !log.waiters.contains(&(ord, self.rank)) {
                    log.waiters.push((ord, self.rank));
                }
            }
            self.block_at("collective.wait");
        }
    }

    /// Compute one *replicated* value once per machine: the host-only
    /// sibling of [`Ctx::collective`]. Every rank of an SPMD program that
    /// would compute the same pure function of the same rank-independent
    /// inputs calls `replicated` instead; calls are matched by a per-rank
    /// ordinal, the first rank to reach an ordinal runs `make` (exactly
    /// once, in either [`ExecMode`]) and every rank receives an `Arc` to
    /// that one instance.
    ///
    /// This is a memo for the *host*, not an operation of the simulated
    /// machine: it moves no clock, is no scheduling point, bumps no event
    /// counter and writes no trace record, so a program's virtual-time
    /// figures are the same bits with or without it. The caller still
    /// charges the modelled cost ([`Ctx::compute`]) on every rank, exactly
    /// as if each had done the work.
    ///
    /// `fingerprint` is a hash of the inputs `make` reads. A later arrival
    /// whose fingerprint or `T` differs from the maker's panics — ranks
    /// that would have computed different values must not silently share
    /// one. `make` must not reach a scheduling point (asserted) and must
    /// not call `replicated` itself.
    pub fn replicated<T: Send + Sync + 'static>(
        &self,
        fingerprint: u64,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        let ord = self.repl_ordinal.get();
        assert!(
            !self.in_replicated.get(),
            "Ctx::replicated: rank {}'s `make` called `replicated` (#{ord})",
            self.rank
        );
        self.repl_ordinal.set(ord + 1);
        let slot = {
            let mut slots = self.shared.replicated.lock();
            if slots.len() <= ord {
                slots.resize_with(ord + 1, Default::default);
            }
            Arc::clone(&slots[ord])
        };
        let entry = slot.get_or_init(|| {
            self.in_replicated.set(true);
            // Cleared on unwind too: destructors may pass scheduling points.
            struct Clear<'a>(&'a Cell<bool>);
            impl Drop for Clear<'_> {
                fn drop(&mut self) {
                    self.0.set(false);
                }
            }
            let _clear = Clear(&self.in_replicated);
            ReplicatedEntry {
                obj: Arc::new(make()),
                type_name: std::any::type_name::<T>(),
                fingerprint,
                rank: self.rank,
            }
        });
        let wanted = std::any::type_name::<T>();
        match Arc::clone(&entry.obj).downcast::<T>() {
            Ok(obj) if entry.fingerprint == fingerprint => obj,
            _ => panic!(
                "replicated divergence: rank {} reached replicated #{ord} expecting a \
                 {wanted} of inputs {fingerprint:#018x}, but rank {} made a {} of inputs \
                 {:#018x} (ranks disagree on a value they claim to replicate)",
                self.rank, entry.rank, entry.type_name, entry.fingerprint
            ),
        }
    }

    /// Group a batch of [`Ctx::collective`] calls, plus any rank-local
    /// initialization the others must not race, into one startup epoch.
    ///
    /// Closing the outermost epoch runs a single commit barrier — all
    /// ranks have registered every object and finished their local fills
    /// before anyone proceeds. Epochs nest; only the outermost close
    /// commits.
    pub fn collective_epoch<R>(&self, f: impl FnOnce() -> R) -> R {
        self.epoch_depth.set(self.epoch_depth.get() + 1);
        let r = f();
        self.epoch_depth.set(self.epoch_depth.get() - 1);
        if self.epoch_depth.get() == 0 {
            self.barrier();
        }
        r
    }

    /// Is event tracing enabled for this machine? Use to skip measurement
    /// work (e.g. reading the clock twice) on untraced runs.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.kernel.trace_on()
    }

    /// Record a trace event, stamped with this rank's virtual clock.
    /// `make` only runs when tracing is enabled, so emission sites cost
    /// one branch on untraced runs.
    ///
    /// Every emission API takes the closure, so an event built up front
    /// does not compile:
    ///
    /// ```compile_fail,E0277
    /// use scioto_sim::{Machine, MachineConfig, TraceEvent};
    /// Machine::run(MachineConfig::virtual_time(1), |ctx| ctx.trace(TraceEvent::Block));
    /// ```
    ///
    /// ```
    /// use scioto_sim::{Machine, MachineConfig, TraceEvent};
    /// Machine::run(MachineConfig::virtual_time(1), |ctx| ctx.trace(|| TraceEvent::Block));
    /// ```
    #[inline]
    pub fn trace(&self, make: impl FnOnce() -> TraceEvent) {
        self.kernel.emit(self.rank, make);
    }

    /// Record a trace event stamped at `t_ns`, a clock value the caller
    /// already read ([`Ctx::now`]). Lets span sites that emit several
    /// events at one completion point reuse a single clock read — in
    /// concurrent mode each [`Ctx::trace`] costs a monotonic clock read.
    #[inline]
    pub fn trace_at(&self, t_ns: u64, make: impl FnOnce() -> TraceEvent) {
        self.kernel.emit_at(self.rank, t_ns, make);
    }

    /// Record an *order-only* instant event: one whose stamp is never
    /// turned into a duration, only into a position in this rank's
    /// timeline (access records for the race checker, say). Identical to
    /// [`Ctx::trace`] in virtual time; in concurrent mode the stamp is
    /// this rank's most recent clock read rather than a fresh query, so
    /// hot per-word instrumentation stays off the monotonic clock.
    #[inline]
    pub fn trace_instant(&self, make: impl FnOnce() -> TraceEvent) {
        self.kernel.emit_instant(self.rank, make);
    }

    /// Record the owner-side accesses of the fixed set `set` to segment
    /// `seg`, and `one` (segment, access) if given, as order-only instants
    /// ([`Ctx::trace_instant`]), one `LocalAccess` each, in one step: the
    /// recorder merges a set it has seen since this rank's last flushing
    /// event by its address alone.
    #[inline]
    pub fn trace_local_set(
        &self,
        seg: u32,
        set: &'static [LocalRecord],
        one: Option<(u32, LocalRecord)>,
    ) {
        self.kernel.emit_set_instant(self.rank, seg, set, one);
    }

    /// Record a gauge sample under `name`.
    #[inline]
    pub fn trace_gauge(&self, name: &'static str, v: u64) {
        self.kernel.trace_gauge(self.rank, name, v);
    }

    pub(crate) fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("rank", &self.rank)
            .field("nranks", &self.nranks)
            .field("mode", &self.kernel.mode())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, SpeedModel};
    use crate::trace::TraceConfig;
    use crate::{Machine, VLock};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A cost scaled once charges what `compute` charges each time, on
    /// every speed factor the shipped models use, and `k` back-to-back
    /// charges of it are one charge of `times(k)`.
    #[test]
    fn a_cpu_cost_charges_what_compute_charges() {
        let cfg = MachineConfig::virtual_time(2).with_speed(SpeedModel::hetero_cluster(2));
        let out = Machine::run(cfg, |ctx| {
            let mut clocks = Vec::new();
            for ns in [100, 200, 316, 1_000_003] {
                let t0 = ctx.now();
                ctx.compute(ns);
                ctx.compute(ns);
                ctx.compute(ns);
                let t1 = ctx.now();
                ctx.charge(ctx.cpu_cost(ns).times(3));
                clocks.push((t1 - t0, ctx.now() - t1));
            }
            let queue_ops = (ctx.local_insert_cost(), ctx.local_get_cost());
            let scaled = (ctx.cpu_cost(ctx.latency().local_insert), ctx.cpu_cost(ctx.latency().local_get));
            assert_eq!(queue_ops, scaled);
            clocks
        });
        for clocks in &out.results {
            assert!(clocks.iter().all(|(a, b)| a == b), "{clocks:?}");
        }
        assert_ne!(out.results[0], out.results[1], "the two ranks run at different speeds");
    }

    /// A pure stand-in for "the same dense algebra on every rank".
    fn table(seed: u64) -> Vec<u64> {
        (0..64).map(|i| (seed + i) * (seed + i)).collect()
    }

    type Table = Arc<Vec<u64>>;

    /// A program with shared-state traffic around two replicated values;
    /// with `shared` off each rank computes its own copy instead.
    fn program(ctx: &Ctx, shared: bool, makes: &AtomicUsize) -> (Table, Table, u64) {
        let value = |seed: u64| {
            let make = || {
                makes.fetch_add(1, Ordering::Relaxed);
                table(seed)
            };
            if shared {
                ctx.replicated(seed, make)
            } else {
                Arc::new(make())
            }
        };
        let lock = ctx.collective(VLock::new);
        ctx.compute(300 * (ctx.rank() as u64 % 3 + 1));
        let a = value(3);
        ctx.compute(a[5]);
        lock.acquire(ctx, 120);
        ctx.compute(70);
        lock.release(ctx, 120);
        ctx.barrier();
        let b = value(11);
        ctx.compute(b[2] + 10 * ctx.rank() as u64);
        ctx.yield_point();
        (a, b, ctx.now())
    }

    #[test]
    fn replicated_runs_make_once_and_leaves_the_machine_untouched() {
        let run = |shared: bool| {
            let makes = AtomicUsize::new(0);
            let cfg = MachineConfig::virtual_time(8)
                .with_speed(SpeedModel::hetero_cluster(8))
                .with_latency(LatencyModel::cluster())
                .with_trace(TraceConfig::enabled());
            let out = Machine::run(cfg, |ctx| program(ctx, shared, &makes));
            (out, makes.into_inner())
        };
        let (memo, memo_makes) = run(true);
        let (local, local_makes) = run(false);
        assert_eq!(memo_makes, 2, "one make per replicated call site");
        assert_eq!(local_makes, 16);
        for (a, b, _) in &memo.results {
            assert!(Arc::ptr_eq(a, &memo.results[0].0));
            assert!(Arc::ptr_eq(b, &memo.results[0].1));
        }
        for (m, l) in memo.results.iter().zip(&local.results) {
            assert_eq!((&*m.0, &*m.1, m.2), (&*l.0, &*l.1, l.2));
        }
        assert!(memo.report.rank_clock_ns.windows(2).any(|w| w[0] != w[1]));
        assert_eq!(memo.report.makespan_ns, local.report.makespan_ns);
        assert_eq!(memo.report.rank_clock_ns, local.report.rank_clock_ns);
        assert_eq!(memo.report.events, local.report.events);
        let jsonl = |r: &crate::Report| r.trace.as_ref().expect("tracing enabled").to_jsonl();
        assert_eq!(jsonl(&memo.report), jsonl(&local.report));
    }

    #[test]
    fn replicated_runs_make_once_on_real_threads() {
        let makes = AtomicUsize::new(0);
        let out = Machine::run(MachineConfig::concurrent(2), |ctx| {
            ctx.barrier_with_cost(0);
            (0..50u64)
                .map(|i| {
                    ctx.replicated(i, || {
                        makes.fetch_add(1, Ordering::Relaxed);
                        table(i)
                    })
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(makes.into_inner(), 50);
        for (a, b) in out.results[0].iter().zip(&out.results[1]) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    #[should_panic(expected = "replicated divergence: rank 1 reached replicated #1 expecting a \
                               u64 of inputs 0x0000000000000008, but rank 0 made a u64 of \
                               inputs 0x0000000000000007")]
    fn replicated_names_a_fingerprint_divergence() {
        Machine::run(MachineConfig::virtual_time(2), |ctx| {
            ctx.replicated(1, || 0u8);
            *ctx.replicated(7 + ctx.rank() as u64, || 5u64)
        });
    }

    #[test]
    #[should_panic(expected = "replicated divergence: rank 1 reached replicated #0 expecting a \
                               alloc::string::String of inputs 0x0000000000000001, but rank 0 \
                               made a u32")]
    fn replicated_names_a_type_divergence() {
        Machine::run(MachineConfig::virtual_time(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.replicated(1, || 7u32);
            } else {
                ctx.replicated(1, String::new);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 0's `make` reached a scheduling point (yield_point)")]
    fn replicated_make_may_not_yield() {
        Machine::run(MachineConfig::virtual_time(2), |ctx| {
            ctx.replicated(0, || ctx.yield_point());
        });
    }
}
