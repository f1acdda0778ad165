//! The task collection: `tc_create` / `tc_add` / `tc_process` / `tc_reset`.

use std::any::Any;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use scioto_armci::Armci;
use scioto_det::CachePadded;
use scioto_sim::{Ctx, TraceEvent};

use crate::clo::{CloHandle, CloRegistry};
use crate::config::{LbKind, QueueKind, TcConfig};
use crate::queue::PatchQueue;
use crate::registry::{Registry, TaskHandle};
use crate::stats::{ProcessStats, RankCounters};
use crate::task::{Task, TaskFn, TaskHeader, TaskRecord};
use crate::termination::{Poll, WaveDetector};
use crate::config::VictimPolicy;
use crate::victim::VictimSelector;

/// A global-view collection of task objects, distributed as one queue per
/// process in ARMCI shared space.
///
/// Created collectively with [`TaskCollection::create`]; seeded with
/// [`TaskCollection::add`]; processed to global quiescence with the
/// collective [`TaskCollection::process`]; reusable after
/// [`TaskCollection::reset`].
pub struct TaskCollection {
    armci: Arc<Armci>,
    cfg: TcConfig,
    queue: PatchQueue,
    detector: WaveDetector,
    registry: Registry,
    clos: CloRegistry,
    counters: Vec<CachePadded<RankCounters>>,
}

/// Execution context handed to every task callback: the simulated process
/// context, the collection (for spawning subtasks and CLO lookup), and the
/// task's descriptor fields.
pub struct TaskCtx<'a> {
    /// The executing rank's machine context.
    pub ctx: &'a Ctx,
    /// The collection the task is executing on.
    pub tc: &'a TaskCollection,
    header: TaskHeader,
    body: &'a [u8],
}

impl<'a> TaskCtx<'a> {
    /// The opaque task body (a private copy, valid for this execution; the
    /// queue slot is already released).
    pub fn body(&self) -> &[u8] {
        self.body
    }

    /// Affinity the task was added with.
    pub fn affinity(&self) -> i32 {
        self.header.affinity
    }

    /// Rank that created this task.
    pub fn creator(&self) -> usize {
        self.header.creator as usize
    }
}

impl TaskCollection {
    /// Collectively create a task collection (`tc_create`).
    ///
    /// # Panics
    /// Panics with a descriptive message if `cfg` violates its invariants
    /// (`max_tasks < 2`, `chunk == 0`, bad `release_fraction`) — checked
    /// here so misconfiguration fails at construction, not deep inside
    /// slot encoding on the first add.
    pub fn create(ctx: &Ctx, armci: &Arc<Armci>, cfg: TcConfig) -> Arc<TaskCollection> {
        if let Err(e) = cfg.validate() {
            panic!("invalid TcConfig: {e}");
        }
        // One startup epoch covers the whole creation: the queue's and
        // detector's collective allocations, the collection object itself,
        // and each rank's local fills. Its single commit barrier is the
        // only one `create` runs.
        ctx.collective_epoch(|| {
            let n = ctx.nranks();
            let queue = PatchQueue::new(ctx, armci, &cfg);
            let detector = WaveDetector::new(ctx, armci, cfg.td_votes_before_opt, cfg.td_batch);
            let armci2 = Arc::clone(armci);
            let tc = ctx.collective(move || TaskCollection {
                armci: armci2,
                cfg,
                queue,
                detector,
                registry: Registry::new(n),
                clos: CloRegistry::new(n),
                counters: (0..n).map(|_| CachePadded::default()).collect(),
            });
            tc.queue.reset_local(ctx, &tc.armci);
            tc.detector.reset_local(ctx, &tc.armci);
            tc
        })
    }

    /// The configuration the collection was created with.
    pub fn config(&self) -> &TcConfig {
        &self.cfg
    }

    /// The ARMCI world backing the collection.
    pub fn armci(&self) -> &Arc<Armci> {
        &self.armci
    }

    /// Collectively register a task callback (`tc_register_callback`).
    /// Every rank must register its instance of the same logical function
    /// in the same order; the returned handle is identical everywhere.
    pub fn register(&self, ctx: &Ctx, f: TaskFn) -> TaskHandle {
        self.registry.register(ctx.rank(), f)
    }

    /// Collectively register a common local object (§2.3). Each rank
    /// passes its own local instance; the handle is identical everywhere.
    pub fn register_clo<T: Send + Sync + 'static>(&self, ctx: &Ctx, obj: Arc<T>) -> CloHandle {
        self.clos.register(ctx.rank(), obj)
    }

    /// Look up the executing rank's instance of a common local object.
    ///
    /// # Panics
    /// Panics if the handle was not registered on this rank or the type
    /// does not match the registration.
    pub fn clo<T: Send + Sync + 'static>(&self, ctx: &Ctx, h: CloHandle) -> Arc<T> {
        // The one clone is the `Arc<T>` this signature hands out — of the
        // rank's own instance, so no other rank touches its count.
        let any: Arc<dyn Any + Send + Sync> = Arc::clone(self.clos.lookup(ctx.rank(), h));
        any.downcast::<T>()
            .expect("common local object type mismatch")
    }

    /// Add a task to `proc`'s patch of the collection with the given
    /// affinity (`tc_add`). Copy-in semantics: `task` is reusable on
    /// return.
    ///
    /// High-affinity local adds are lock-free; low-affinity and remote
    /// adds insert at the stealable tail of the target queue.
    pub fn add(&self, ctx: &Ctx, proc: usize, affinity: i32, task: &Task) {
        let me = ctx.rank();
        self.counters[me].tasks_spawned.fetch_add(1, Ordering::Relaxed);
        let header = self.header_for(ctx, affinity, task);
        if proc == me {
            self.queue
                .push_local(ctx, &self.armci, &header, task.body(), &self.counters[me]);
        } else {
            self.queue
                .insert_tail(ctx, &self.armci, proc, &header, task.body());
            // A remote add transfers work: fold it into the termination
            // detector exactly like a steal (§5.3).
            let marked = self.detector.note_transfer(ctx, &self.armci, proc);
            self.count_mark(me, marked);
        }
    }

    fn count_mark(&self, me: usize, marked: bool) {
        if marked {
            self.counters[me]
                .dirty_marks_sent
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters[me]
                .dirty_marks_elided
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Collectively process the collection to global quiescence
    /// (`tc_process`): a MIMD region in which every rank executes local
    /// tasks, releases/reclaims shared work, steals when idle, and
    /// participates in termination detection. Returns this rank's
    /// statistics for the phase.
    pub fn process(&self, ctx: &Ctx) -> ProcessStats {
        let me = ctx.rank();
        let n = ctx.nranks();
        // Statistics accumulate from `create` (or the last `reset`), so the
        // seeding phase's spawn counts are part of the report.
        self.armci.barrier(ctx);
        // Everything up to here — world init, collective creations, entry
        // barrier — is startup. Recorded once (first phase only) so the
        // blame report and bench JSON can split it out per rank.
        let t_up = ctx.now().max(1);
        if self.counters[me].record_startup(t_up) {
            ctx.trace_gauge(crate::trace::GAUGE_STARTUP, t_up);
        }
        let stealing = self.cfg.ldbal == LbKind::WorkStealing && n > 1;
        let mut since_td = 0u32;
        // Exponential backoff on consecutive failed steals: when the
        // machine is running dry, detector polls (cheap, local) dominate
        // the idle loop instead of lock round-trips to empty victims.
        let mut failed_steals = 0u32;
        let mut backoff = 0u32;
        let mut idle_iter = 0u32;
        let mut victims = VictimSelector::with_probs(
            self.cfg.victim,
            self.cfg.victim_cont,
            self.cfg.victim_escape,
        );
        // The one buffer every task this rank pops in the phase is copied
        // into: a task may add (and so overwrite its own slot) while it
        // runs, so it executes from a copy, but not from a fresh one each.
        let mut body = Vec::with_capacity(self.cfg.max_body);
        // Set by a pure nap tick — backoff pending, detector poll deferred
        // — which contains no scheduling point: in virtual time no other
        // rank has run since this rank last found its queue empty, so the
        // next pop and reclaim pre-check could only read the same indices
        // again. Split queue only: the locked queue's pop takes the queue
        // lock, itself a scheduling point with a cost (what the no-split
        // ablation measures). On real threads the skip delays noticing a
        // remote add until after the next poll, < 1 us of spinning.
        let mut queue_unchanged = false;
        loop {
            if !queue_unchanged {
                // Drain local (private) work.
                while let Some(header) = self.pop_into(ctx, &mut body) {
                    self.execute(ctx, header, &body);
                    since_td += 1;
                    if since_td >= 16 {
                        since_td = 0;
                        // Keep waves and TERM announcements flowing while busy.
                        self.detector.progress(ctx, &self.armci, false);
                        self.trace_queue_depth(ctx);
                    }
                }
                // Private portion empty: reclaim shared work if any.
                if self
                    .queue
                    .reclaim(ctx, &self.armci, &self.counters[me])
                {
                    continue;
                }
            }
            // Passive: detect termination, then hunt for work. Under
            // batched TD the detector poll (whose snapshot read is the
            // dominant idle-loop cost at scale) runs on every 4th
            // idle-loop iteration while actively hunting, and only on
            // every 16th while napping in backoff — a napping rank has
            // published nothing new, so its polls exist purely to observe
            // TERM/wave progress and can be sparse. Every iteration still
            // advances the clock (a steal attempt, a nap tick, or the
            // no-lb spin below), so the deferral is bounded and a TERM
            // announcement is never missed for more than 15 iterations.
            idle_iter = idle_iter.wrapping_add(1);
            let poll_mask = if backoff > 0 { 15 } else { 3 };
            let defer_poll = self.cfg.td_batch && idle_iter & poll_mask != 0;
            if !defer_poll && self.detector.progress(ctx, &self.armci, true) == Poll::Terminated {
                break;
            }
            // Every idle iteration costs at least a poll's worth of CPU,
            // even under a zero-cost latency model — otherwise idle ranks
            // would starve working ranks of virtual time.
            ctx.compute(100);
            if stealing {
                if backoff > 0 {
                    backoff -= 1;
                    ctx.compute(200);
                    queue_unchanged = defer_poll && self.cfg.queue == QueueKind::Split;
                    continue;
                }
                queue_unchanged = false;
                let victim = {
                    let mut rng = ctx.rng();
                    victims.next(&mut rng, me, n)
                };
                self.counters[me]
                    .steals_attempted
                    .fetch_add(1, Ordering::Relaxed);
                let traced = ctx.trace_enabled();
                let steal_start = if traced { ctx.now() } else { 0 };
                // Locality policy probes availability lock-free before
                // paying the locked steal's two lock round-trips — most
                // hunt attempts land on empty victims, so the probe is
                // the common-case cost of a failed attempt.
                let stolen = if self.cfg.victim == VictimPolicy::Locality
                    && !self.queue.steal_peek(ctx, &self.armci, victim)
                {
                    Vec::new()
                } else {
                    self.queue.steal(ctx, &self.armci, victim)
                };
                if traced {
                    // One completion read stamps the event and the hist.
                    let t1 = ctx.now();
                    let rtt = t1.saturating_sub(steal_start);
                    ctx.trace_at(t1, || TraceEvent::StealAttempt {
                        victim: victim as u32,
                        got: stolen.len() as u32,
                        dur_ns: rtt,
                    });
                    ctx.trace_hist(crate::trace::HIST_STEAL_RTT, rtt);
                }
                victims.note_result(victim, !stolen.is_empty());
                if !stolen.is_empty() {
                    self.counters[me]
                        .steals_succeeded
                        .fetch_add(1, Ordering::Relaxed);
                    self.counters[me]
                        .tasks_stolen
                        .fetch_add(stolen.len() as u64, Ordering::Relaxed);
                    let marked = self.detector.note_transfer(ctx, &self.armci, victim);
                    self.count_mark(me, marked);
                    if self.cfg.victim == VictimPolicy::Locality {
                        // Progress guarantee for the retry cache: two thieves
                        // caching each other can otherwise phase-lock into a
                        // steal-back cycle where the same task bounces
                        // between their queues forever without executing
                        // (each success re-arms both caches, so neither ever
                        // draws a different victim). Executing one stolen
                        // task before the rest become re-stealable retires
                        // at least one task per successful steal, which
                        // bounds total steals and makes the cycle impossible.
                        let (first, rest) = stolen.split_first().expect("steal was non-empty");
                        for rec in rest {
                            self.push_stolen(ctx, rec);
                        }
                        self.execute(ctx, first.header, &first.body);
                        since_td += 1;
                    } else {
                        for rec in &stolen {
                            self.push_stolen(ctx, rec);
                        }
                    }
                    failed_steals = 0;
                } else {
                    failed_steals += 1;
                    // Cap the nap at ~16 detector polls (~10 µs): long
                    // enough to keep failed-steal lock traffic off the
                    // critical path, short enough to react when a busy
                    // owner releases a burst of work mid-phase. Under the
                    // locality policy the probe made each failed attempt
                    // ~3x cheaper, which lets the loop fire ~3x more
                    // probes against a machine that is simply dry — the
                    // waiting is set by the workload, not the probe cost.
                    // A deeper cap (~38 µs) spends that waiting napping
                    // instead of re-probing, cutting steal-loop network
                    // traffic without delaying reaction to a refill more
                    // than a few task granularities.
                    let cap = if self.cfg.victim == VictimPolicy::Locality { 5 } else { 3 };
                    backoff = 4 << failed_steals.min(cap);
                }
            } else {
                // No load balancing: just poll the detector.
                ctx.compute(200);
            }
        }
        // Safety invariant: termination may only be declared when this
        // rank's queue is completely empty.
        assert!(
            self.queue.is_empty_local(ctx, &self.armci),
            "termination detected with tasks remaining on rank {me}"
        );
        self.counters[me]
            .td_waves
            .store(self.detector.waves(me), Ordering::Relaxed);
        // No exit barrier: the TERM announcement propagating down the
        // spanning tree is already a collective exit signal, and no rank
        // can initiate further operations on this collection's queues
        // after observing it.
        self.counters[me].snapshot()
    }

    /// Pop this rank's next private task, copying its body into `body`.
    fn pop_into(&self, ctx: &Ctx, body: &mut Vec<u8>) -> Option<TaskHeader> {
        let counters = &self.counters[ctx.rank()];
        self.queue.pop_local(ctx, &self.armci, counters, |header, bytes| {
            body.clear();
            body.extend_from_slice(bytes);
            header
        })
    }

    fn push_stolen(&self, ctx: &Ctx, rec: &TaskRecord) {
        self.queue.push_local(
            ctx,
            &self.armci,
            &rec.header,
            &rec.body,
            &self.counters[ctx.rank()],
        );
    }

    fn execute(&self, ctx: &Ctx, header: TaskHeader, body: &[u8]) {
        let me = ctx.rank();
        let f = self.registry.lookup(me, TaskHandle(header.callback));
        let tctx = TaskCtx {
            ctx,
            tc: self,
            header,
            body,
        };
        let traced = ctx.trace_enabled();
        let start = if traced { ctx.now() } else { 0 };
        if traced {
            ctx.trace_at(start, || TraceEvent::TaskExecBegin {
                callback: header.callback,
                creator: header.creator,
            });
        }
        f(&tctx);
        if traced {
            // One completion read stamps the end event and the hist.
            let end = ctx.now();
            ctx.trace_at(end, || TraceEvent::TaskExecEnd {
                callback: header.callback,
            });
            ctx.trace_hist(crate::trace::HIST_TASK_EXEC, end.saturating_sub(start));
        }
        self.counters[me]
            .tasks_executed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Sample queue occupancy into the trace (event + gauges). Reads only
    /// owner-local metadata, so it has no scheduling point and does not
    /// perturb virtual time.
    fn trace_queue_depth(&self, ctx: &Ctx) {
        if !ctx.trace_enabled() {
            return;
        }
        let (head, split, tail) = self.queue.indices_local(ctx, &self.armci);
        let local = (head - split).max(0) as u64;
        let shared = (split - tail).max(0) as u64;
        ctx.trace(|| TraceEvent::QueueDepth {
            local: local as u32,
            shared: shared as u32,
        });
        ctx.trace_gauge(crate::trace::GAUGE_QUEUE_LOCAL, local);
        ctx.trace_gauge(crate::trace::GAUGE_QUEUE_SHARED, shared);
    }

    /// Collectively reset the collection for reuse (`tc_reset`): empties
    /// every queue and re-arms termination detection. Registered callbacks
    /// and CLOs are kept.
    pub fn reset(&self, ctx: &Ctx) {
        self.armci.barrier(ctx);
        self.queue.reset_local(ctx, &self.armci);
        self.detector.reset_local(ctx, &self.armci);
        self.counters[ctx.rank()].reset();
        self.armci.barrier(ctx);
    }

    /// This rank's statistics from the most recent processing phase.
    pub fn stats(&self, rank: usize) -> ProcessStats {
        self.counters[rank].snapshot()
    }

    /// `(head, split, tail)` indices of this rank's queue — exposed for
    /// tests and diagnostics.
    pub fn queue_indices(&self, ctx: &Ctx) -> (i64, i64, i64) {
        self.queue.indices_local(ctx, &self.armci)
    }

    /// Size in bytes of one serialized task slot.
    pub fn slot_bytes(&self) -> usize {
        self.queue.slot_sz()
    }

    /// Number of callbacks registered on `rank` (diagnostics).
    pub fn registered_callbacks(&self, rank: usize) -> usize {
        self.registry.len(rank)
    }

    // ---- raw queue operations for the Table 1 microbenchmarks ----

    /// Push one task onto the local queue (the paper's "local insert").
    #[doc(hidden)]
    pub fn bench_push_local(&self, ctx: &Ctx, task: &Task) {
        let header = self.header_for(ctx, 1, task);
        self.queue
            .push_local(ctx, &self.armci, &header, task.body(), &self.counters[ctx.rank()]);
    }

    /// Pop one task from the local queue (the paper's "local get").
    /// Returns whether a task was available.
    #[doc(hidden)]
    pub fn bench_pop_local(&self, ctx: &Ctx) -> bool {
        let me = ctx.rank();
        let pop = || {
            self.queue
                .pop_local(ctx, &self.armci, &self.counters[me], |_, _| ())
                .is_some()
        };
        pop() || (self.queue.reclaim(ctx, &self.armci, &self.counters[me]) && pop())
    }

    /// Insert one task at the tail of `target`'s queue (the paper's
    /// "remote insert").
    #[doc(hidden)]
    pub fn bench_insert_remote(&self, ctx: &Ctx, target: usize, task: &Task) {
        let header = self.header_for(ctx, 1, task);
        self.queue
            .insert_tail(ctx, &self.armci, target, &header, task.body());
    }

    /// One steal operation against `victim` (the paper's "remote steal").
    /// Returns the number of tasks transferred.
    #[doc(hidden)]
    pub fn bench_steal(&self, ctx: &Ctx, victim: usize) -> usize {
        self.queue.steal(ctx, &self.armci, victim).len()
    }

    fn header_for(&self, ctx: &Ctx, affinity: i32, task: &Task) -> TaskHeader {
        // Reject oversized bodies here — the one place every add path
        // (including the bench entry points) builds its header — so the
        // failure is a clear message, not a slice panic in slot encoding.
        assert!(
            task.body().len() <= self.cfg.max_body,
            "task body of {} bytes exceeds max_body = {}",
            task.body().len(),
            self.cfg.max_body
        );
        TaskHeader {
            callback: task.handle().0,
            affinity,
            creator: ctx.rank() as u32,
            body_len: task.body().len() as u32,
        }
    }
}
