//! The scheduling kernel: conservative min-clock dispatch in virtual-time
//! mode, token-based blocking in concurrent mode, poison propagation on
//! rank panics, and deadlock detection.
//!
//! The mode decides what carries a rank: virtual-time ranks are fibers on
//! the machine's thread and every hand-off is a fiber switch; concurrent
//! ranks are free-running threads, and the condvars serve only them.
//! Virtual-time dispatch is a single min-clock priority queue: a rank
//! becomes an event `(clock, rank)` when it turns runnable and is popped
//! in lexicographic order, which reproduces the historical "lowest rank
//! among minimum clocks" scan exactly. Heap keys are never stale — a rank's
//! clock only moves while it is `Running` (self-charges) or on the
//! `Blocked -> Runnable` transition, which pushes the fresh key. A yield
//! costs at most one heap operation ([`Kernel::yield_point`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use scioto_det::clock::MonoClock;
use scioto_det::par::host_cores;
use scioto_det::sync::{CachePadded, Condvar, Mutex};

use crate::config::{scale_ns, ExecMode, SpeedModel};
use crate::fiber;
use crate::report::EventCounters;
use crate::trace::{LocalRecord, TraceEvent, TraceSink};

/// Scheduling state of one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    /// Currently executing (in virtual-time mode at most one rank is
    /// `Running` at any instant).
    Running,
    /// Eligible to be dispatched (present in the dispatch heap).
    Runnable,
    /// Parked on some shared-state condition; resumed by `unblock`.
    Blocked,
    /// Rank program returned (or panicked).
    Done,
}

struct Sched {
    status: Vec<Status>,
    /// Wake hints: an `unblock` that raced ahead of the corresponding
    /// `block` (possible in concurrent mode, and when a rank is notified
    /// while runnable) is stored here and consumed by the next `block`.
    wake_token: Vec<bool>,
    /// Earliest virtual time at which a pending wake may resume the rank.
    pending_resume: Vec<u64>,
    /// Min-heap of `(clock, rank)` dispatch events. Invariant (virtual
    /// time only): contains exactly the `Runnable` ranks, keyed by their
    /// frozen clocks. Unused in concurrent mode.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Static tag of each rank's most recent park site — what a `Blocked`
    /// rank is waiting on, for the deadlock diagnostic.
    last_block_site: Vec<Option<&'static str>>,
    done: usize,
}

/// The shared scheduling kernel of one simulated machine.
pub(crate) struct Kernel {
    n: usize,
    mode: ExecMode,
    /// Concurrent mode only: more rank threads than [`host_cores`], so a
    /// rank at a scheduling point has a peer waiting for its core.
    oversubscribed: bool,
    sched: Mutex<Sched>,
    /// Concurrent mode only: where a blocked rank thread parks.
    cvs: Vec<Condvar>,
    clocks: Vec<AtomicU64>,
    /// Wall-clock finish stamp of each rank (concurrent mode only):
    /// written once by the rank's own thread when its program returns,
    /// read by `Machine::run` after all threads have joined. This is the
    /// rank's measured thread span, the concurrent analogue of its final
    /// virtual clock.
    final_ns: Vec<AtomicU64>,
    /// Concurrent mode only: each rank's most recent wall stamp read
    /// through [`Kernel::now`], the cheap stamp source for order-only
    /// instant events ([`Kernel::emit_instant`]). Written and read only
    /// by the owning rank's thread; padded so neighbouring ranks never
    /// share a cache line. Stays zero in virtual-time mode.
    stamp_cache: Vec<CachePadded<AtomicU64>>,
    speed: Vec<f64>,
    start: MonoClock,
    poisoned: AtomicBool,
    pub(crate) events: EventCounters,
    pub(crate) trace: TraceSink,
}

impl Kernel {
    pub(crate) fn new(n: usize, mode: ExecMode, speed: &SpeedModel, trace: TraceSink) -> Self {
        assert!(n >= 1, "a machine needs at least one rank");
        assert_eq!(speed.len(), n, "speed model must cover all ranks");
        let mut status = vec![Status::Runnable; n];
        let mut heap = BinaryHeap::with_capacity(n);
        if mode == ExecMode::VirtualTime {
            // Rank 0 holds the baton initially; every other rank starts as
            // a time-zero dispatch event. In concurrent mode every rank
            // free-runs from the start and the heap stays empty.
            status[0] = Status::Running;
            for r in 1..n {
                heap.push(Reverse((0, r)));
            }
        } else {
            status.iter_mut().for_each(|s| *s = Status::Running);
        }
        Kernel {
            n,
            mode,
            oversubscribed: mode == ExecMode::Concurrent && n > host_cores(),
            sched: Mutex::new(Sched {
                status,
                wake_token: vec![false; n],
                pending_resume: vec![0; n],
                heap,
                last_block_site: vec![None; n],
                done: 0,
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            final_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            stamp_cache: (0..n).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            speed: (0..n).map(|r| speed.factor(r)).collect(),
            start: MonoClock::new(),
            poisoned: AtomicBool::new(false),
            events: EventCounters::default(),
            trace,
        }
    }

    /// Is event tracing enabled for this machine?
    #[inline]
    pub(crate) fn trace_on(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Record a trace event for `rank`, stamped with its current time:
    /// the virtual clock in `VirtualTime` mode, real wall nanoseconds
    /// since machine start in `Concurrent` mode. `make` only runs when
    /// tracing is enabled.
    #[inline]
    pub(crate) fn emit(&self, rank: usize, make: impl FnOnce() -> TraceEvent) {
        if self.trace.is_enabled() {
            self.trace.emit(rank, self.now(rank), make);
        }
    }

    /// Record a trace event for `rank` at an explicit stamp `t_ns` the
    /// caller already holds. Span-measuring sites use this to stamp an
    /// event with the clock value they just read instead of paying a
    /// second clock read inside [`Kernel::emit`] — on the concurrent
    /// (wall-clock) path each avoided read is a real monotonic-clock
    /// query.
    #[inline]
    pub(crate) fn emit_at(&self, rank: usize, t_ns: u64, make: impl FnOnce() -> TraceEvent) {
        if self.trace.is_enabled() {
            self.trace.emit(rank, t_ns, make);
        }
    }

    /// Record an *order-only* instant event for `rank`: one whose stamp
    /// never feeds a duration or blame span, only the event's position in
    /// the rank's timeline. In virtual-time mode the stamp is the virtual
    /// clock, identical to [`Kernel::emit`]. In concurrent mode the stamp
    /// is the rank's most recent cached wall read — hot instant sites
    /// (per-word queue-protocol accesses) skip the monotonic-clock query
    /// that dominates their traced cost. Stamps stay non-decreasing per
    /// rank: the cache only moves forward, refreshed by every real read.
    #[inline]
    pub(crate) fn emit_instant(&self, rank: usize, make: impl FnOnce() -> TraceEvent) {
        if self.trace.is_enabled() {
            self.trace.emit(rank, self.instant_stamp(rank), make);
        }
    }

    /// Record the fixed set of owner-side accesses `set` on segment `seg`,
    /// and `one` if given, for `rank`, each an order-only instant stamped
    /// as [`Kernel::emit_instant`] stamps one.
    #[inline]
    pub(crate) fn emit_set_instant(
        &self,
        rank: usize,
        seg: u32,
        set: &'static [LocalRecord],
        one: Option<(u32, LocalRecord)>,
    ) {
        if self.trace.is_enabled() {
            self.trace.emit_set(rank, self.instant_stamp(rank), seg, set, one);
        }
    }

    /// An order-only instant's stamp for `rank`.
    #[inline]
    fn instant_stamp(&self, rank: usize) -> u64 {
        match self.mode {
            ExecMode::VirtualTime => self.clocks[rank].load(Ordering::Relaxed),
            ExecMode::Concurrent => {
                let c = self.stamp_cache[rank].load(Ordering::Relaxed);
                if c == 0 {
                    // No read yet on this rank: pay one real query.
                    self.now(rank)
                } else {
                    c
                }
            }
        }
    }

    /// Record a gauge sample for `rank` under `name`.
    #[inline]
    pub(crate) fn trace_gauge(&self, rank: usize, name: &'static str, v: u64) {
        self.trace.gauge(rank, name, v);
    }

    pub(crate) fn nranks(&self) -> usize {
        self.n
    }

    pub(crate) fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Current time of `rank` in nanoseconds: virtual clock in
    /// `VirtualTime` mode, wall time since machine start otherwise.
    pub(crate) fn now(&self, rank: usize) -> u64 {
        match self.mode {
            ExecMode::VirtualTime => self.clocks[rank].load(Ordering::Relaxed),
            ExecMode::Concurrent => {
                let t = self.start.now_ns();
                // Refresh the rank's instant-event stamp cache: every real
                // read keeps subsequent `emit_instant` stamps current.
                self.stamp_cache[rank].store(t, Ordering::Relaxed);
                t
            }
        }
    }

    /// Final (or current) virtual clock of `rank`, regardless of mode.
    #[cfg(test)]
    pub(crate) fn clock(&self, rank: usize) -> u64 {
        self.clocks[rank].load(Ordering::Relaxed)
    }

    /// Each rank's measured elapsed time: its final virtual clock in
    /// `VirtualTime` mode, its thread's wall-clock span (machine start →
    /// program return, stamped by [`Kernel::finish`]) in `Concurrent`
    /// mode. Meaningful once the rank is `Done`.
    pub(crate) fn rank_elapsed_ns(&self, rank: usize) -> u64 {
        match self.mode {
            ExecMode::VirtualTime => self.clocks[rank].load(Ordering::Relaxed),
            ExecMode::Concurrent => self.final_ns[rank].load(Ordering::Relaxed),
        }
    }

    /// `ns` of *CPU* time on `rank`, scaled by its speed factor.
    pub(crate) fn scale_cpu(&self, rank: usize, ns: u64) -> u64 {
        scale_ns(ns, self.speed[rank])
    }

    /// Advance `rank`'s clock by `ns`: network time as it is, CPU time
    /// once [`Kernel::scale_cpu`] has scaled it. No scheduling point, and
    /// nothing in concurrent mode, where ranks have no virtual clock.
    ///
    /// A rank charges only itself and only while it holds the baton, and
    /// the other writers of its clock (`unblock`, `advance_to`) run while
    /// it does not, on the same thread, ordered against it by the fiber
    /// switch that passed the baton. A virtual clock therefore never has two
    /// writers at once, and a plain load + store is a complete update — no
    /// locked read-modify-write on the path every simulated operation takes.
    #[inline]
    pub(crate) fn charge(&self, rank: usize, ns: u64) {
        if self.mode == ExecMode::VirtualTime {
            let clock = &self.clocks[rank];
            clock.store(clock.load(Ordering::Relaxed) + ns, Ordering::Relaxed);
        }
    }

    /// A scheduling point before a shared-state operation. In virtual-time
    /// mode the caller is suspended until it is the minimum-clock runnable
    /// rank; on return it holds the baton and may manipulate shared state.
    pub(crate) fn yield_point(&self, rank: usize) {
        if self.mode == ExecMode::Concurrent {
            // A rank that only polls (an idle `process` loop) never blocks,
            // so this is where it learns that a peer panicked.
            self.check_poison();
            // With more rank threads than cores, give the others a chance
            // to make progress between shared-state operations. With a core
            // per rank there is no peer to yield to: `sched_yield` would be
            // a bare syscall on every one-sided operation — a busy rank
            // polls its detector every 16 tasks — and would hand the core,
            // for a whole timeslice, to any unrelated thread the host has
            // runnable, so that one such thread halves a two-rank run.
            if self.oversubscribed {
                std::thread::yield_now();
            }
            return;
        }
        self.events.yields.fetch_add(1, Ordering::Relaxed);
        let key = (self.clocks[rank].load(Ordering::Relaxed), rank);
        let mut s = self.sched.lock();
        debug_assert_eq!(s.status[rank], Status::Running);
        // One heap operation: the yielding rank's event replaces the
        // minimum in place when that minimum is earlier, and when the
        // yielding rank is itself the minimum `(clock, rank)` it keeps the
        // baton without touching the heap. Either way the dispatch is the
        // one a push followed by a pop would make.
        let next = match s.heap.peek_mut() {
            Some(mut top) if top.0 < key => std::mem::replace(&mut *top, Reverse(key)).0 .1,
            _ => return,
        };
        debug_assert_eq!(s.status[next], Status::Runnable);
        s.status[rank] = Status::Runnable;
        s.status[next] = Status::Running;
        drop(s);
        self.switch_and_check(next);
    }

    /// Park until another rank calls [`Kernel::unblock`] for us (or a wake
    /// token is already pending). Callers use this inside a
    /// check-condition/block loop, so spurious wakeups are harmless.
    /// `site` is a static tag naming the waiting primitive (for the
    /// deadlock diagnostic).
    pub(crate) fn block(&self, rank: usize, site: &'static str) {
        let mut s = self.sched.lock();
        if s.wake_token[rank] {
            // Wake-token fast path: the wake raced ahead of this block, so
            // the rank never parks — neither the park counter nor the
            // trace records an event that did not happen.
            s.wake_token[rank] = false;
            let resume = std::mem::take(&mut s.pending_resume[rank]);
            drop(s);
            self.advance_to(rank, resume);
            return;
        }
        self.events.blocks.fetch_add(1, Ordering::Relaxed);
        self.emit(rank, || TraceEvent::Block);
        s.last_block_site[rank] = Some(site);
        match self.mode {
            ExecMode::VirtualTime => {
                debug_assert_eq!(s.status[rank], Status::Running);
                s.status[rank] = Status::Blocked;
                match self.pop_next(&mut s) {
                    Some(next) => {
                        s.status[next] = Status::Running;
                        drop(s);
                        self.switch_and_check(next);
                    }
                    None => self.declare_deadlock(&mut s, rank),
                }
            }
            ExecMode::Concurrent => {
                s.status[rank] = Status::Blocked;
                while !s.wake_token[rank] {
                    self.check_poison();
                    self.cvs[rank].wait(&mut s);
                }
                s.wake_token[rank] = false;
                s.status[rank] = Status::Running;
            }
        }
    }

    /// Make `target` eligible to run again, no earlier (in virtual time)
    /// than `resume_at`. Safe to call for a rank that is not currently
    /// blocked: the wake is remembered as a token. A wake for a `Done`
    /// rank is dropped undelivered (and not counted).
    pub(crate) fn unblock(&self, target: usize, resume_at: u64) {
        let mut s = self.sched.lock();
        match s.status[target] {
            Status::Blocked => {
                self.events.unblocks.fetch_add(1, Ordering::Relaxed);
                if self.mode == ExecMode::VirtualTime {
                    let c = self.clocks[target].load(Ordering::Relaxed);
                    if resume_at > c {
                        self.clocks[target].store(resume_at, Ordering::Relaxed);
                    }
                    s.status[target] = Status::Runnable;
                    let clock = self.clocks[target].load(Ordering::Relaxed);
                    s.heap.push(Reverse((clock, target)));
                    // The current runner keeps the baton; the wakee will be
                    // dispatched at the next scheduling point.
                } else {
                    s.wake_token[target] = true;
                    self.cvs[target].notify_one();
                }
            }
            Status::Done => {}
            _ => {
                self.events.unblocks.fetch_add(1, Ordering::Relaxed);
                s.wake_token[target] = true;
                s.pending_resume[target] = s.pending_resume[target].max(resume_at);
                if self.mode == ExecMode::Concurrent {
                    self.cvs[target].notify_one();
                }
            }
        }
    }

    /// Called when a rank's program returns. In virtual time this hands
    /// the baton onward and never returns (the caller's stack is
    /// abandoned): to the next runnable fiber, or to the machine's main
    /// context once every rank is done or the machine is poisoned.
    pub(crate) fn finish(&self, rank: usize) {
        if self.mode == ExecMode::Concurrent {
            // The rank's own thread stamps its span end before anything
            // else; every event it emitted carries a stamp ≤ this one, so
            // blame decomposition against the span stays exact.
            self.final_ns[rank].store(self.start.now_ns(), Ordering::Relaxed);
        }
        let mut s = self.sched.lock();
        s.status[rank] = Status::Done;
        s.done += 1;
        if self.mode == ExecMode::Concurrent {
            return;
        }
        // Unwinding ranks must not trip the deadlock detector.
        if s.done < self.n && !self.is_poisoned() {
            match self.pop_next(&mut s) {
                Some(next) => {
                    s.status[next] = Status::Running;
                    drop(s);
                    fiber::with_active(|fs| fs.switch_to_fiber(next));
                    return;
                }
                None => self.declare_deadlock(&mut s, rank),
            }
        }
        // Main collects the results, or resumes the suspended fibers so
        // they observe the poison and unwind.
        drop(s);
        fiber::with_active(|fs| fs.switch_to_main());
    }

    /// Wall-clock nanoseconds since the machine was constructed.
    pub(crate) fn wall_ns(&self) -> u64 {
        self.start.now_ns()
    }

    /// Mark the machine poisoned (a rank panicked) and wake every parked
    /// rank thread so they can observe the poison and unwind. Suspended
    /// fibers observe it when the machine's main context resumes them.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        let _s = self.sched.lock();
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    pub(crate) fn check_poison(&self) {
        if self.is_poisoned() {
            panic!("sim machine poisoned: another rank panicked or deadlocked");
        }
    }

    /// Fiber handoff: switch to `next`'s fiber and, once this rank is
    /// switched back in, observe any poison before touching shared state.
    fn switch_and_check(&self, next: usize) {
        fiber::with_active(|fs| fs.switch_to_fiber(next));
        self.check_poison();
    }

    /// Move `rank`'s clock forward to at least `t`.
    pub(crate) fn advance_to(&self, rank: usize, t: u64) {
        if self.mode == ExecMode::VirtualTime {
            let c = self.clocks[rank].load(Ordering::Relaxed);
            if t > c {
                self.clocks[rank].store(t, Ordering::Relaxed);
            }
        }
    }

    /// Pop the minimum-clock runnable rank, ties broken by rank id — the
    /// same order the historical linear scan produced.
    fn pop_next(&self, s: &mut Sched) -> Option<usize> {
        match s.heap.pop() {
            Some(Reverse((clock, r))) => {
                debug_assert_eq!(s.status[r], Status::Runnable);
                debug_assert_eq!(clock, self.clocks[r].load(Ordering::Relaxed));
                Some(r)
            }
            None => None,
        }
    }

    /// No runnable rank and not everyone is done: poison the machine and
    /// panic with per-rank state.
    fn declare_deadlock(&self, s: &mut Sched, from: usize) -> ! {
        let diag = self.deadlock_diagnostics(s);
        self.poisoned.store(true, Ordering::SeqCst);
        panic!(
            "sim deadlock: no runnable rank (detected by rank {from}); \
             per-rank state:\n{diag}"
        );
    }

    fn deadlock_diagnostics(&self, s: &Sched) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in 0..self.n {
            let site = match (s.status[r], s.last_block_site[r]) {
                (Status::Blocked, Some(site)) => format!(" waiting at {site}"),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  rank {:4}: {:?} @ {} ns{}",
                r,
                s.status[r],
                self.clocks[r].load(Ordering::Relaxed),
                site
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};

    fn vt_kernel(n: usize) -> Kernel {
        Kernel::new(
            n,
            ExecMode::VirtualTime,
            &SpeedModel::uniform(n),
            TraceSink::Disabled,
        )
    }

    #[test]
    fn cpu_charge_is_scaled_by_speed_factor() {
        let k = Kernel::new(
            2,
            ExecMode::VirtualTime,
            &SpeedModel::from_factors(vec![1.0, 2.0]),
            TraceSink::Disabled,
        );
        k.charge(0, k.scale_cpu(0, 100));
        k.charge(1, k.scale_cpu(1, 100));
        assert_eq!(k.clock(0), 100);
        assert_eq!(k.clock(1), 200);
    }

    /// `scale_ns` is `f64::round` of the product for every charge the
    /// shipped speed models can produce (uniform 1.0, the hetero cluster's
    /// Xeon ratio), for the near/far latency tier factors, and for factors
    /// that land on exact halves, where round-half-away and round-half-even
    /// differ.
    #[test]
    fn scale_ns_equals_f64_round() {
        let tiers = crate::LatencyTiers::nearfar();
        let mut factors = vec![0.5, 1.5, 0.4753 / 0.3158, tiers.near_scale, tiers.far_scale];
        for model in [SpeedModel::uniform(2), SpeedModel::hetero_cluster(2)] {
            factors.extend((0..model.len()).map(|r| model.factor(r)));
        }
        let mut halves = 0;
        for ns in (1..=4096u64).chain([1_000_000, 1 << 40]) {
            for &f in &factors {
                let x = ns as f64 * f;
                halves += u32::from(x.fract() == 0.5);
                assert_eq!(scale_ns(ns, f), x.round() as u64, "ns={ns} factor={f}");
            }
        }
        assert!(halves >= 4096, "exact-half products were exercised ({halves})");
        assert_eq!(scale_ns(3, 0.5), 2, "half rounds away from zero, not to even");
        assert_eq!(scale_ns(1, 0.5), 1);
    }

    #[test]
    fn k_charges_sum_to_k_times_one_charge() {
        let k = Kernel::new(
            2,
            ExecMode::VirtualTime,
            &SpeedModel::hetero_cluster(2),
            TraceSink::Disabled,
        );
        k.charge(1, k.scale_cpu(1, 316));
        let one = k.clock(1);
        assert_eq!(one, (316.0 * (0.4753 / 0.3158f64)).round() as u64);
        for _ in 1..1000 {
            k.charge(1, k.scale_cpu(1, 316));
        }
        assert_eq!(k.clock(1), 1000 * one);
    }

    /// Free-running threads have no virtual clock to charge — which is
    /// also why `charge`'s plain store never meets a second writer there.
    #[test]
    fn concurrent_mode_does_not_charge() {
        let conc = Kernel::new(
            1,
            ExecMode::Concurrent,
            &SpeedModel::uniform(1),
            TraceSink::Disabled,
        );
        conc.charge(0, 316);
        assert_eq!(conc.clock(0), 0);
    }

    /// `yield_point` hands the core on only when a peer rank is waiting
    /// for one; virtual time has its own dispatch and never asks.
    #[test]
    fn only_a_concurrent_machine_with_more_ranks_than_cores_is_oversubscribed() {
        let kernel = |n: usize, mode| {
            Kernel::new(
                n,
                mode,
                &SpeedModel::uniform(n),
                TraceSink::Disabled,
            )
        };
        let cores = host_cores();
        assert!(cores >= 1);
        assert!(!kernel(cores, ExecMode::Concurrent).oversubscribed);
        assert!(kernel(cores + 1, ExecMode::Concurrent).oversubscribed);
        assert!(!kernel(cores + 1, ExecMode::VirtualTime).oversubscribed);
    }

    #[test]
    fn net_charge_is_unscaled() {
        let k = Kernel::new(
            1,
            ExecMode::VirtualTime,
            &SpeedModel::from_factors(vec![3.0]),
            TraceSink::Disabled,
        );
        k.charge(0, 100);
        assert_eq!(k.clock(0), 100);
    }

    #[test]
    fn wake_token_survives_early_unblock() {
        // A single-rank machine: unblock before block must not deadlock.
        let k = vt_kernel(1);
        k.unblock(0, 42);
        k.block(0, "test"); // consumes the token instead of parking
        assert_eq!(k.clock(0), 42);
    }

    #[test]
    fn wake_token_fast_path_is_not_a_park() {
        // The token fast path never parks the rank, so it must count as
        // one delivered unblock and zero blocks (regression: both used to
        // be over-counted).
        let k = vt_kernel(1);
        k.unblock(0, 42);
        k.block(0, "test");
        let snap = k.events.snapshot();
        assert_eq!(snap.blocks, 0, "token fast path must not count a park");
        assert_eq!(snap.unblocks, 1);
    }

    #[test]
    fn unblock_of_done_rank_is_dropped_and_uncounted() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            if ctx.rank() == 0 {
                return; // finish(0) hands the baton to rank 1
            }
            let k = ctx.kernel();
            k.unblock(0, 100); // no recipient: dropped, not a delivered wake
            assert_eq!(k.events.snapshot().unblocks, 0);
            let s = k.sched.lock();
            assert!(!s.wake_token[0]);
            assert_eq!(s.status[0], Status::Done);
            // Rank 1 was dispatched by finish and is unaffected.
            assert_eq!(s.status[1], Status::Running);
        });
        assert_eq!(out.report.events.unblocks, 0);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let k = vt_kernel(1);
        k.advance_to(0, 100);
        k.advance_to(0, 50);
        assert_eq!(k.clock(0), 100);
    }

    #[test]
    fn two_ranks_alternate_by_clock() {
        // Exercise baton passing: rank 0 runs work in slices, yielding each
        // time; rank 1 does the same with bigger slices. After both finish,
        // both clocks hold their total work.
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let (slices, ns) = if ctx.rank() == 0 { (10, 10) } else { (5, 30) };
            for _ in 0..slices {
                ctx.compute(ns);
                ctx.yield_point();
            }
            ctx.kernel().clock(ctx.rank())
        });
        assert_eq!(out.results, vec![100, 150]);
        assert_eq!(out.report.rank_clock_ns, vec![100, 150]);
    }

    /// Ranks yielding at equal clocks are dispatched lowest rank first,
    /// and a yield by the rank that is still the minimum `(clock, rank)`
    /// keeps the baton — no switch — while counting as a yield like any
    /// other.
    #[test]
    fn equal_clocks_dispatch_lowest_rank_first_and_the_minimum_keeps_the_baton() {
        use std::sync::Arc;
        let log = Arc::new(Mutex::new(Vec::new()));
        let ranks_log = Arc::clone(&log);
        let out = Machine::run(MachineConfig::virtual_time(4), move |ctx| {
            let me = ctx.rank();
            for _ in 0..3 {
                ranks_log.lock().push(me);
                ctx.compute(100);
                ctx.yield_point();
            }
            // Every clock is now 300 and rank 0 holds the baton: as the
            // minimum it keeps running through its own yields.
            if me == 0 {
                for _ in 0..5 {
                    ranks_log.lock().push(me);
                    ctx.yield_point();
                }
            }
            ranks_log.lock().push(me);
        });
        let round = [0, 1, 2, 3];
        let mut want: Vec<usize> = round.repeat(3);
        want.extend([0; 6]);
        want.extend([1, 2, 3]);
        assert_eq!(*log.lock(), want);
        assert_eq!(out.report.events.yields, 4 * 3 + 5);
        assert_eq!(out.report.rank_clock_ns, vec![300; 4]);
    }

    #[test]
    fn a_yield_by_the_minimum_leaves_the_heap_alone() {
        let k = vt_kernel(3);
        k.yield_point(0);
        k.yield_point(0);
        let s = k.sched.lock();
        assert_eq!(s.status, vec![Status::Running, Status::Runnable, Status::Runnable]);
        let heap: Vec<_> = s.heap.clone().into_sorted_vec();
        assert_eq!(heap, vec![Reverse((0, 2)), Reverse((0, 1))]);
        assert_eq!(k.events.snapshot().yields, 2);
    }

    #[test]
    fn deadlock_diagnostics_name_block_sites() {
        let k = vt_kernel(3);
        {
            let mut s = k.sched.lock();
            s.status[1] = Status::Blocked;
            s.last_block_site[1] = Some("mailbox.recv");
            s.status[2] = Status::Blocked;
            s.last_block_site[2] = Some("vlock.acquire");
            let diag = k.deadlock_diagnostics(&s);
            assert!(diag.contains("rank    1: Blocked @ 0 ns waiting at mailbox.recv"));
            assert!(diag.contains("rank    2: Blocked @ 0 ns waiting at vlock.acquire"));
            // Non-blocked ranks carry no site annotation.
            assert!(diag.contains("rank    0: Running @ 0 ns\n"));
        }
    }
}
