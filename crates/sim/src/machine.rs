//! Machine construction and the SPMD run loop.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use scioto_det::sync::Mutex;

use crate::barrier::SimBarrier;
use crate::config::{ExecMode, LatencyModel, MachineConfig};
use crate::ctx::Ctx;
use crate::fiber;
use crate::kernel::{Kernel, Substrate};
use crate::report::Report;
use crate::trace::TraceSink;

/// State shared by all ranks of one machine (beyond the kernel).
pub(crate) struct Shared {
    pub(crate) latency: LatencyModel,
    pub(crate) barrier: SimBarrier,
    /// The collective log (barrier-free publication).
    pub(crate) coll: Mutex<CollectiveLog>,
    /// The host-only memo of [`Ctx::replicated`], indexed by call ordinal.
    /// The mutex covers only growing the vector; a slot is filled (once)
    /// and read outside it.
    pub(crate) replicated: Mutex<Vec<Arc<OnceLock<ReplicatedEntry>>>>,
}

/// One memoised [`Ctx::replicated`] value: what the first rank to reach
/// the ordinal made, plus what later arrivals are checked against.
pub(crate) struct ReplicatedEntry {
    pub(crate) obj: Arc<dyn Any + Send + Sync>,
    pub(crate) type_name: &'static str,
    pub(crate) fingerprint: u64,
    /// The rank that ran `make`.
    pub(crate) rank: usize,
}

/// Append-only publication log for [`Ctx::collective`]: rank 0 pushes
/// each `(object, type name, publish clock)` entry at its ordinal; ranks
/// that arrive before publication park under `waiters` and are woken by
/// the publish. The stored clock is the causal stamp every
/// reader's virtual clock is advanced to — a rank cannot observe the
/// object before it existed, whatever order the scheduler dispatched the
/// ranks in. The stored type name feeds the divergence diagnostic.
/// Entries are never reused, so no read-fence barrier is needed — the
/// one-way wake (or the mutex, in concurrent mode) is the sync edge.
#[derive(Default)]
pub(crate) struct CollectiveLog {
    pub(crate) entries: Vec<(Arc<dyn Any + Send + Sync>, &'static str, u64)>,
    /// `(ordinal, rank)` pairs parked until that ordinal publishes.
    pub(crate) waiters: Vec<(usize, usize)>,
}

/// Result of a completed SPMD run.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Timing and event summary.
    pub report: Report,
}

/// The simulated machine. Stateless: [`Machine::run`] builds everything,
/// executes the rank program on every rank, and tears it down.
pub struct Machine;

impl Machine {
    /// Run `f` as an SPMD program on `cfg.ranks` simulated processes and
    /// collect each rank's return value.
    ///
    /// If any rank panics, the machine is poisoned (all other ranks unwind)
    /// and the first panic is propagated to the caller.
    pub fn run<R, F>(cfg: MachineConfig, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&Ctx) -> R + Send + Sync,
    {
        // Virtual-time ranks are fibers wherever the target has a context
        // switch; real concurrency is free-running threads by definition.
        let substrate = if cfg.mode == ExecMode::VirtualTime && fiber::SUPPORTED {
            Substrate::Fibers
        } else {
            Substrate::Threads
        };
        run_on(substrate, cfg, f)
    }
}

/// [`Machine::run`] on an explicit substrate. Crate-private: the choice
/// never changes a result, so it is not a setting — only the
/// two-substrate identity test below names one.
pub(crate) fn run_on<R, F>(substrate: Substrate, cfg: MachineConfig, f: F) -> RunOutput<R>
where
    R: Send,
    F: Fn(&Ctx) -> R + Send + Sync,
{
    let n = cfg.ranks;
    assert!(n >= 1, "a machine needs at least one rank");
    let kernel = Arc::new(Kernel::new(
        n,
        cfg.mode,
        substrate,
        &cfg.speed,
        TraceSink::new(&cfg.trace, n),
    ));
    let shared = Arc::new(Shared {
        latency: cfg.latency,
        barrier: SimBarrier::new(cfg.barrier),
        coll: Mutex::new(CollectiveLog::default()),
        replicated: Mutex::new(Vec::new()),
    });
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panic_payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    match substrate {
        Substrate::Threads => run_threads(&cfg, &kernel, &shared, &f, &results, &panic_payload),
        Substrate::Fibers => run_fibers(&cfg, &kernel, &shared, &f, &results, &panic_payload),
    }

    if let Some(p) = panic_payload.lock().take() {
        resume_unwind(p);
    }

    // Per-rank elapsed time: the final virtual clock in virtual-time
    // mode, each thread's measured wall-clock span (stamped by the
    // rank's own thread at program return) in concurrent mode.
    let rank_clock_ns: Vec<u64> = (0..n).map(|r| kernel.rank_elapsed_ns(r)).collect();
    let makespan_ns = match cfg.mode {
        ExecMode::VirtualTime => rank_clock_ns.iter().copied().max().unwrap_or(0),
        ExecMode::Concurrent => kernel.wall_ns(),
    };
    let trace = kernel.trace.finish().map(|mut t| {
        // Stamp per-rank elapsed time into the trace so analysis (and
        // re-analysis from an exported JSONL file) can decompose each
        // rank's full clock, including any trailing idle time after its
        // last event.
        t.final_clock_ns = rank_clock_ns.clone();
        t.wall_clock = cfg.mode == ExecMode::Concurrent;
        t
    });
    let report = Report {
        mode: cfg.mode,
        makespan_ns,
        rank_clock_ns,
        events: kernel.events.snapshot(),
        trace,
    };
    let results = results
        .into_iter()
        .map(|m| m.into_inner().expect("rank produced no result"))
        .collect();
    RunOutput { results, report }
}

/// The thread substrate: one parked OS thread per rank, handoff by condvar.
fn run_threads<R, F>(
    cfg: &MachineConfig,
    kernel: &Arc<Kernel>,
    shared: &Arc<Shared>,
    f: &F,
    results: &[Mutex<Option<R>>],
    panic_payload: &Mutex<Option<Box<dyn Any + Send>>>,
) where
    R: Send,
    F: Fn(&Ctx) -> R + Send + Sync,
{
    std::thread::scope(|scope| {
        for rank in 0..cfg.ranks {
            let kernel = Arc::clone(kernel);
            let shared = Arc::clone(shared);
            let seed = cfg.seed;
            std::thread::Builder::new()
                .name(format!("rank{rank}"))
                .stack_size(cfg.stack_size)
                .spawn_scoped(scope, move || {
                    let ctx = Ctx::new(rank, Arc::clone(&kernel), shared, seed);
                    match catch_unwind(AssertUnwindSafe(|| {
                        kernel.wait_for_start(rank);
                        f(&ctx)
                    })) {
                        Ok(v) => {
                            *results[rank].lock() = Some(v);
                            kernel.finish(rank);
                        }
                        Err(payload) => {
                            store_payload(panic_payload, payload);
                            kernel.poison();
                            kernel.finish(rank);
                        }
                    }
                })
                .expect("failed to spawn rank thread");
        }
    });
}

/// The fiber substrate: one fiber per rank on this thread, dispatched from
/// the kernel's min-clock heap. Scheduling-point semantics are identical
/// to the thread substrate (same transitions, same dispatch order), so
/// same-seed runs produce byte-identical reports and traces.
fn run_fibers<R, F>(
    cfg: &MachineConfig,
    kernel: &Arc<Kernel>,
    shared: &Arc<Shared>,
    f: &F,
    results: &[Mutex<Option<R>>],
    panic_payload: &Mutex<Option<Box<dyn Any + Send>>>,
) where
    R: Send,
    F: Fn(&Ctx) -> R + Send + Sync,
{
    let n = cfg.ranks;
    let mut fs = fiber::FiberSet::new(n, cfg.stack_size);
    for rank in 0..n {
        let kernel = Arc::clone(kernel);
        let shared = Arc::clone(shared);
        let seed = cfg.seed;
        let task = Box::new(move || {
            let ctx = Ctx::new(rank, Arc::clone(&kernel), shared, seed);
            match catch_unwind(AssertUnwindSafe(|| {
                kernel.wait_for_start(rank);
                f(&ctx)
            })) {
                Ok(v) => *results[rank].lock() = Some(v),
                Err(payload) => {
                    store_payload(panic_payload, payload);
                    kernel.poison();
                }
            }
            // `ctx` (with its kernel/shared Arcs) drops on return, before
            // the exit hook abandons this stack for good.
        });
        // SAFETY: every started fiber runs to completion inside `enter`
        // below (the cleanup loop resumes stragglers until they unwind),
        // so the erased borrows of `f`/`results`/`panic_payload` die here.
        unsafe { fs.set_task(rank, task) };
    }
    {
        let kernel = Arc::clone(kernel);
        let exit = Box::new(move |rank: usize| {
            // `finish` hands the baton onward and normally never returns.
            // Its deadlock detector can panic, though, and that unwind
            // must stop here rather than reach the fiber's assembly frame.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| kernel.finish(rank))) {
                store_payload(panic_payload, payload);
            }
        });
        // SAFETY: same contract as set_task above.
        unsafe { fs.set_exit(exit) };
    }
    fiber::enter(&fs, || {
        // Rank 0 holds the baton at construction — the same initial
        // dispatch the thread substrate performs.
        fs.switch_to_fiber(0);
        // Back in the main context: every rank finished, or the machine
        // was poisoned mid-run. Resume any suspended fibers so they
        // observe the poison, unwind, and release everything they own.
        while let Some(r) = fs.first_suspended() {
            fs.switch_to_fiber(r);
        }
    });
}

/// Keep the most informative panic: a first "real" panic wins over the
/// poison-propagation panics it triggers in other ranks.
fn store_payload(slot: &Mutex<Option<Box<dyn Any + Send>>>, payload: Box<dyn Any + Send>) {
    let mut guard = slot.lock();
    let is_propagation = payload_text(&payload)
        .map(|t| t.contains("sim machine poisoned"))
        .unwrap_or(false);
    match &*guard {
        None => *guard = Some(payload),
        Some(existing) => {
            let existing_propagation = payload_text(existing)
                .map(|t| t.contains("sim machine poisoned"))
                .unwrap_or(false);
            if existing_propagation && !is_propagation {
                *guard = Some(payload);
            }
        }
    }
}

fn payload_text(payload: &Box<dyn Any + Send>) -> Option<&str> {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpeedModel;

    #[test]
    fn ranks_see_their_identity() {
        let out = Machine::run(MachineConfig::virtual_time(8), |ctx| {
            (ctx.rank(), ctx.nranks())
        });
        for (r, (rank, n)) in out.results.iter().enumerate() {
            assert_eq!(*rank, r);
            assert_eq!(*n, 8);
        }
    }

    #[test]
    fn virtual_makespan_is_max_rank_clock() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            ctx.compute(100 * (ctx.rank() as u64 + 1));
        });
        assert_eq!(out.report.makespan_ns, 400);
        assert_eq!(out.report.rank_clock_ns, vec![100, 200, 300, 400]);
    }

    #[test]
    fn speed_factors_slow_down_compute() {
        let cfg = MachineConfig::virtual_time(2)
            .with_speed(SpeedModel::from_factors(vec![1.0, 2.0]));
        let out = Machine::run(cfg, |ctx| {
            ctx.compute(1_000);
            ctx.now()
        });
        assert_eq!(out.results, vec![1_000, 2_000]);
    }

    #[test]
    fn collective_shares_one_instance() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let v = ctx.collective(|| vec![1, 2, 3]);
            Arc::as_ptr(&v) as usize
        });
        assert!(out.results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sequential_collectives_do_not_collide() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let a = ctx.collective(|| 1u32);
            let b = ctx.collective(|| 2u64);
            (*a, *b)
        });
        assert!(out.results.iter().all(|&(a, b)| a == 1 && b == 2));
    }

    #[test]
    fn rank_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            Machine::run(MachineConfig::virtual_time(3), |ctx| {
                if ctx.rank() == 1 {
                    panic!("boom from rank 1");
                }
                // Other ranks wait at a barrier the panicking rank never
                // reaches; poison must wake them.
                ctx.barrier_with_cost(0);
            });
        });
        let err = r.expect_err("machine must propagate the panic");
        let text = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(text.contains("boom from rank 1"), "got: {text}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            Machine::run(MachineConfig::virtual_time(6), |ctx| {
                let mut acc = 0u64;
                for _ in 0..100 {
                    let x: u64 = ctx.rng().gen_range(0..1_000u64);
                    ctx.compute(x);
                    ctx.yield_point();
                    acc = acc.wrapping_mul(31).wrapping_add(ctx.now());
                }
                acc
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.report.makespan_ns, b.report.makespan_ns);
    }

    #[test]
    fn concurrent_mode_runs_all_ranks() {
        let out = Machine::run(MachineConfig::concurrent(8), |ctx| {
            ctx.barrier_with_cost(0);
            ctx.rank()
        });
        assert_eq!(out.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_report_fills_wall_clocks() {
        // Regression: rank_clock_ns used to stay all-zero in concurrent
        // mode (the virtual clocks never advance there). Each entry must
        // now be the rank thread's measured wall span, bounded by the
        // machine's makespan.
        let out = Machine::run(MachineConfig::concurrent(4), |ctx| {
            ctx.barrier_with_cost(0);
            ctx.rank()
        });
        assert_eq!(out.report.rank_clock_ns.len(), 4);
        for (r, &ns) in out.report.rank_clock_ns.iter().enumerate() {
            assert!(ns > 0, "rank {r} elapsed must be a real wall span, got 0");
            assert!(
                ns <= out.report.makespan_ns,
                "rank {r} span {ns} exceeds makespan {}",
                out.report.makespan_ns
            );
        }
        assert!(out.report.imbalance() >= 1.0);
    }

    #[test]
    fn concurrent_traced_run_stamps_wall_clocks() {
        use crate::trace::{TraceConfig, TraceEvent};
        let cfg = MachineConfig::concurrent(2).with_trace(TraceConfig::enabled());
        let out = Machine::run(cfg, |ctx| {
            ctx.trace(|| TraceEvent::QueueDepth {
                local: ctx.rank() as u32,
                shared: 0,
            });
            ctx.barrier_with_cost(0);
            ctx.trace(|| TraceEvent::QueueDepth {
                local: ctx.rank() as u32,
                shared: 1,
            });
        });
        let trace = out.report.trace.expect("traced run must attach a trace");
        assert!(trace.wall_clock, "concurrent traces must carry the wall marker");
        assert_eq!(trace.final_clock_ns, out.report.rank_clock_ns);
        for r in 0..2 {
            let evs = trace.events_for(r);
            // Stamps are real time: monotone non-decreasing per rank, and
            // never past the rank's recorded span end.
            assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
            assert!(evs.iter().all(|e| e.t_ns <= trace.final_clock_ns[r]));
            // The post-barrier event must carry a nonzero stamp — the old
            // bug stamped every concurrent event at t=0.
            assert!(
                evs.iter()
                    .any(|e| e.t_ns > 0
                        && e.event == TraceEvent::QueueDepth { local: r as u32, shared: 1 }),
                "rank {r} events all stamped zero"
            );
        }
    }

    #[test]
    fn untraced_runs_carry_no_trace() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| ctx.rank());
        assert!(out.report.trace.is_none());
    }

    #[test]
    fn traced_run_stamps_events_with_virtual_clocks() {
        use crate::trace::{TraceConfig, TraceEvent};
        let cfg = MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled());
        let out = Machine::run(cfg, |ctx| {
            ctx.compute(100);
            ctx.trace(|| TraceEvent::QueueDepth {
                local: ctx.rank() as u32,
                shared: 0,
            });
            // Rank 1 genuinely parks; rank 0 wakes it (Block + Unblock
            // events). Rank 0 yields first so rank 1 reaches its block
            // before the unblock — a wake arriving early would take the
            // token fast path, which never parks and emits nothing.
            if ctx.rank() == 1 {
                ctx.block();
            } else {
                ctx.yield_point();
                ctx.compute(500);
                ctx.unblock(1, 0);
            }
        });
        let trace = out.report.trace.expect("traced run must attach a trace");
        assert_eq!(trace.nranks(), 2);
        assert!(trace
            .events_for(0)
            .iter()
            .any(|e| e.event == TraceEvent::QueueDepth { local: 0, shared: 0 } && e.t_ns == 100));
        assert!(trace
            .events_for(1)
            .iter()
            .any(|e| e.event == TraceEvent::Block));
        assert!(trace
            .events_for(0)
            .iter()
            .any(|e| e.event == TraceEvent::Unblock { target: 1 }));
        assert_eq!(trace.dropped, vec![0, 0]);
        assert_eq!(trace.final_clock_ns, out.report.rank_clock_ns);
    }

    /// One traced 4-rank program touching every kind of scheduling point:
    /// collectives inside and outside an epoch, a contended lock, ring
    /// messages, a barrier, and a block/unblock pair.
    fn every_scheduling_point(ctx: &Ctx) -> (u64, u64) {
        use crate::{MailboxRouter, MsgFilter, VLock};
        let n = ctx.nranks();
        let me = ctx.rank();
        ctx.compute(700 * (me as u64 % 3 + 1));
        let (lock, mail) = ctx.collective_epoch(|| {
            let lock = ctx.collective(VLock::new);
            ctx.compute(40 * me as u64);
            (lock, ctx.collective(|| MailboxRouter::new(n)))
        });
        let mut acc = 0u64;
        for round in 0..3u64 {
            acc += lock.acquire(ctx, 120);
            ctx.compute(90 + 10 * me as u64);
            lock.release(ctx, 120);
            mail.send(ctx, (me + 1) % n, round, vec![me as u8; 16], 50, 400);
            let m = mail.recv(ctx, MsgFilter::src_tag((me + n - 1) % n, round));
            acc = acc * 31 + m.data[0] as u64 + ctx.rng().gen_range(0..100u64);
        }
        ctx.barrier();
        // Rank 1 parks for good; rank 0 wakes it after yielding, so the
        // wake finds it parked instead of leaving a token.
        if me == 1 {
            ctx.block();
        } else if me == 0 {
            ctx.yield_point();
            ctx.compute(500);
            ctx.unblock(1, ctx.now() + 250);
        }
        let late = ctx.collective(|| 7u64);
        (acc + *late, ctx.now())
    }

    #[test]
    fn fibers_match_the_thread_substrate_byte_for_byte() {
        // The substrate is an implementation detail: the same scheduler
        // must produce the same Report and the same trace bytes whether
        // ranks are parked OS threads (the reference, available on every
        // target) or fibers. On a target without fibers `Machine::run`
        // already is the thread substrate and there is nothing to compare.
        use crate::trace::TraceConfig;
        let run = |substrate| {
            let cfg = MachineConfig::virtual_time(4)
                .with_latency(LatencyModel::cluster())
                .with_barrier(crate::BarrierKind::Tree)
                .with_trace(TraceConfig::enabled());
            run_on(substrate, cfg, every_scheduling_point)
        };
        let t = run(Substrate::Threads);
        let trace = t.report.trace.as_ref().expect("tracing enabled");
        assert!(t.report.events.blocks > 0 && t.report.events.messages == 12);
        assert!(trace.events_for(1).iter().any(|e| e.event == crate::TraceEvent::Block));
        if !fiber::SUPPORTED {
            return;
        }
        let f = run(Substrate::Fibers);
        assert_eq!(t.results, f.results);
        assert_eq!(t.report.mode, f.report.mode);
        assert_eq!(t.report.makespan_ns, f.report.makespan_ns);
        assert_eq!(t.report.rank_clock_ns, f.report.rank_clock_ns);
        assert_eq!(t.report.events, f.report.events, "kernel event counters must match");
        assert_eq!(trace.to_jsonl(), f.report.trace.expect("tracing enabled").to_jsonl());
    }

    #[test]
    fn both_substrates_surface_a_rank_panic_and_a_deadlock() {
        let message = |substrate, deadlock: bool| {
            let err = std::panic::catch_unwind(|| {
                run_on(substrate, MachineConfig::virtual_time(3), |ctx| {
                    if deadlock {
                        // Nobody ever wakes anybody.
                        ctx.block_at("test.park");
                    } else if ctx.rank() == 2 {
                        panic!("boom from rank 2");
                    } else {
                        ctx.barrier_with_cost(0);
                    }
                })
            })
            .expect_err("machine must propagate the panic");
            payload_text(&err).unwrap_or_default().to_string()
        };
        let mut substrates = vec![Substrate::Threads];
        if fiber::SUPPORTED {
            substrates.push(Substrate::Fibers);
        }
        for s in substrates {
            assert!(message(s, false).contains("boom from rank 2"), "{s:?}");
            let text = message(s, true);
            assert!(text.contains("sim deadlock: no runnable rank"), "{s:?}: {text}");
            assert!(text.contains("waiting at test.park"), "{s:?}: {text}");
        }
    }

    #[test]
    fn rng_differs_across_ranks_but_is_seed_stable() {
        let draw = |seed| {
            Machine::run(MachineConfig::virtual_time(4).with_seed(seed), |ctx| {
                ctx.rng().next_u64()
            })
            .results
        };
        let a = draw(1);
        let b = draw(1);
        let c = draw(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] != w[1]));
    }
}
