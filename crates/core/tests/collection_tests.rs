//! End-to-end tests of the task-collection semantics: seeding, stealing,
//! subtask spawning, termination safety, CLOs, reuse, and both queue
//! implementations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scioto_det::sync::Mutex;

use scioto::{
    LbKind, QueueKind, Task, TaskCollection, TcConfig, AFFINITY_HIGH, AFFINITY_LOW,
};
use scioto_armci::Armci;
use scioto_sim::{ExecMode, LatencyModel, Machine, MachineConfig, TraceConfig, TraceEvent};

/// Run a machine in which rank 0 seeds `n_tasks` no-op tasks and everyone
/// processes; returns per-rank executed counts.
fn run_seeded(
    ranks: usize,
    n_tasks: u64,
    cfg: TcConfig,
    latency: LatencyModel,
    mode: ExecMode,
) -> Vec<u64> {
    let mc = MachineConfig {
        mode,
        ..MachineConfig::virtual_time(ranks).with_latency(latency)
    };
    let out = Machine::run(mc, move |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, cfg);
        let executed = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, executed.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let c: Arc<AtomicU64> = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
                t.ctx.compute(1_000);
            }),
        );
        if ctx.rank() == 0 {
            let task = Task::new(h, vec![]);
            for _ in 0..n_tasks {
                tc.add(ctx, 0, AFFINITY_HIGH, &task);
            }
        }
        tc.process(ctx);
        executed.load(Ordering::Relaxed)
    });
    out.results
}

#[test]
fn every_seeded_task_executes_exactly_once() {
    for ranks in [1, 2, 4, 7] {
        let counts = run_seeded(
            ranks,
            100,
            TcConfig::new(8, 2, 256),
            LatencyModel::zero(),
            ExecMode::VirtualTime,
        );
        assert_eq!(counts.iter().sum::<u64>(), 100, "ranks={ranks}");
    }
}

#[test]
fn stealing_spreads_work_across_ranks() {
    let counts = run_seeded(
        8,
        400,
        TcConfig::new(8, 4, 1024),
        LatencyModel::cluster(),
        ExecMode::VirtualTime,
    );
    assert_eq!(counts.iter().sum::<u64>(), 400);
    let busy = counts.iter().filter(|&&c| c > 0).count();
    assert!(
        busy >= 6,
        "with 400 coarse tasks, most of 8 ranks should execute some: {counts:?}"
    );
}

#[test]
fn locked_queue_processes_everything_too() {
    let counts = run_seeded(
        4,
        120,
        TcConfig::new(8, 2, 512).with_queue(QueueKind::Locked),
        LatencyModel::cluster(),
        ExecMode::VirtualTime,
    );
    assert_eq!(counts.iter().sum::<u64>(), 120);
}

#[test]
fn disabled_load_balancing_keeps_tasks_local() {
    let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
        let armci = Armci::init(ctx);
        let cfg = TcConfig::new(8, 2, 128).with_ldbal(LbKind::Disabled);
        let tc = TaskCollection::create(ctx, &armci, cfg);
        let executed = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, executed.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let c: Arc<AtomicU64> = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        // Every rank seeds 5 tasks for itself.
        for _ in 0..5 {
            tc.add(ctx, ctx.rank(), AFFINITY_HIGH, &Task::new(h, vec![]));
        }
        tc.process(ctx);
        executed.load(Ordering::Relaxed)
    });
    assert_eq!(out.results, vec![5, 5, 5, 5]);
}

#[test]
fn subtasks_spawned_during_execution_are_processed() {
    // A binary fan-out: each task with depth d spawns two tasks of depth
    // d-1; total = 2^(d+1) - 1 tasks.
    let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 4096));
        let executed = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, executed.clone());
        let h_cell = Arc::new(Mutex::new(None::<scioto::TaskHandle>));
        let h_cell2 = h_cell.clone();
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let c: Arc<AtomicU64> = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
                let depth = scioto::wire::get_u64(t.body(), 0);
                if depth > 0 {
                    let h = (*h_cell2.lock()).expect("handle registered");
                    let mut body = Vec::new();
                    scioto::wire::put_u64(&mut body, depth - 1);
                    let child = Task::new(h, body);
                    t.tc.add(t.ctx, t.ctx.rank(), AFFINITY_HIGH, &child);
                    t.tc.add(t.ctx, t.ctx.rank(), AFFINITY_HIGH, &child);
                }
            }),
        );
        *h_cell.lock() = Some(h);
        if ctx.rank() == 0 {
            let mut body = Vec::new();
            scioto::wire::put_u64(&mut body, 6);
            tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, body));
        }
        tc.process(ctx);
        executed.load(Ordering::Relaxed)
    });
    assert_eq!(out.results.iter().sum::<u64>(), (1 << 7) - 1);
}

#[test]
fn remote_adds_reach_their_target_and_terminate() {
    let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
        let armci = Armci::init(ctx);
        let cfg = TcConfig::new(8, 2, 128).with_ldbal(LbKind::Disabled);
        let tc = TaskCollection::create(ctx, &armci, cfg);
        let executed = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, executed.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let c: Arc<AtomicU64> = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        // Everybody seeds 3 tasks onto rank 2 (remote for most).
        for _ in 0..3 {
            tc.add(ctx, 2, AFFINITY_HIGH, &Task::new(h, vec![]));
        }
        tc.process(ctx);
        executed.load(Ordering::Relaxed)
    });
    assert_eq!(out.results, vec![0, 0, 12, 0]);
}

#[test]
fn collection_is_reusable_after_reset() {
    let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 64));
        let executed = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, executed.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let c: Arc<AtomicU64> = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        let mut totals = Vec::new();
        for phase in 0..3 {
            if ctx.rank() == 0 {
                for _ in 0..(10 * (phase + 1)) {
                    tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
                }
            }
            tc.process(ctx);
            totals.push(executed.swap(0, Ordering::Relaxed));
            tc.reset(ctx);
        }
        totals
    });
    for phase in 0..3 {
        let total: u64 = out.results.iter().map(|v| v[phase]).sum();
        assert_eq!(total, 10 * (phase as u64 + 1), "phase {phase}");
    }
}

#[test]
fn task_bodies_travel_intact_through_steals() {
    // Each task carries a unique payload; a per-rank CLO set collects what
    // was seen. The union must be exactly the seeded payloads.
    let out = Machine::run(
        MachineConfig::virtual_time(6).with_latency(LatencyModel::cluster()),
        |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(16, 3, 512));
            let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
            let clo = tc.register_clo(ctx, seen.clone());
            let h = tc.register(
                ctx,
                Arc::new(move |t| {
                    let s: Arc<Mutex<Vec<u64>>> = t.tc.clo(t.ctx, clo);
                    s.lock().push(scioto::wire::get_u64(t.body(), 0));
                    t.ctx.compute(5_000);
                }),
            );
            if ctx.rank() == 0 {
                for i in 0..200u64 {
                    let mut body = Vec::new();
                    scioto::wire::put_u64(&mut body, i);
                    tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, body));
                }
            }
            tc.process(ctx);
            let seen_tasks = seen.lock().clone();
            seen_tasks
        },
    );
    let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all, (0..200).collect::<Vec<u64>>());
}

#[test]
fn affinity_low_tasks_are_stolen_before_affinity_high() {
    // Rank 0 seeds interleaved high/low tasks and never executes (it
    // sleeps in a long task); rank 1 steals. The first stolen tasks must
    // be predominantly low-affinity ones.
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_latency(LatencyModel::zero()),
        |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(16, 1, 512));
            let seen = Arc::new(Mutex::new(Vec::<(u64, i32)>::new()));
            let clo = tc.register_clo(ctx, seen.clone());
            let h = tc.register(
                ctx,
                Arc::new(move |t| {
                    let s: Arc<Mutex<Vec<(u64, i32)>>> = t.tc.clo(t.ctx, clo);
                    s.lock().push((scioto::wire::get_u64(t.body(), 0), t.affinity()));
                    t.ctx.compute(2_000);
                }),
            );
            if ctx.rank() == 0 {
                for i in 0..20u64 {
                    let mut body = Vec::new();
                    scioto::wire::put_u64(&mut body, i);
                    let aff = if i % 2 == 0 { AFFINITY_HIGH } else { AFFINITY_LOW };
                    tc.add(ctx, 0, aff, &Task::new(h, body));
                }
            }
            tc.process(ctx);
            let stats = tc.stats(ctx.rank());
            let seen_tasks = seen.lock().clone();
            (seen_tasks, stats.tasks_stolen)
        },
    );
    let (rank1_seen, rank1_stolen) = &out.results[1];
    assert_eq!(*rank1_stolen as usize, rank1_seen.len());
    if !rank1_seen.is_empty() {
        // The very first steal must take a low-affinity task: they sit at
        // the tail of rank 0's queue.
        assert_eq!(rank1_seen[0].1, AFFINITY_LOW, "{rank1_seen:?}");
    }
    let total: usize = out.results.iter().map(|(v, _)| v.len()).sum();
    assert_eq!(total, 20);
}

#[test]
fn stats_account_for_all_tasks() {
    let out = Machine::run(
        MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
        |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 256));
            let h = tc.register(ctx, Arc::new(|t| t.ctx.compute(500)));
            if ctx.rank() == 0 {
                for _ in 0..50 {
                    tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
                }
            }
            tc.process(ctx)
        },
    );
    let summary = scioto::StatsSummary::from_ranks(&out.results);
    assert_eq!(summary.totals.tasks_executed, 50);
    assert_eq!(summary.totals.tasks_spawned, 50);
    assert!(summary.totals.tasks_stolen as i64 >= 0);
    assert!(summary.totals.steals_succeeded <= summary.totals.steals_attempted);
}

#[test]
fn concurrent_mode_executes_all_tasks() {
    // Real threads, real locks: the same runtime code must stay correct
    // under genuine preemption.
    for _ in 0..3 {
        let counts = run_seeded(
            4,
            200,
            TcConfig::new(8, 2, 1024),
            LatencyModel::zero(),
            ExecMode::Concurrent,
        );
        assert_eq!(counts.iter().sum::<u64>(), 200);
    }
}

#[test]
fn virtual_time_runs_are_deterministic() {
    let run = || {
        let mc = MachineConfig::virtual_time(5).with_latency(LatencyModel::cluster());
        Machine::run(mc, |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 512));
            let h = tc.register(ctx, Arc::new(|t| t.ctx.compute(777)));
            if ctx.rank() == 0 {
                for _ in 0..100 {
                    tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
                }
            }
            let stats = tc.process(ctx);
            (stats.tasks_executed, ctx.now())
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.report.makespan_ns, b.report.makespan_ns);
}

#[test]
fn chunked_steals_respect_chunk_size() {
    let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 5, 512));
        let h = tc.register(ctx, Arc::new(|t| t.ctx.compute(10_000)));
        if ctx.rank() == 0 {
            for _ in 0..100 {
                tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
            }
        }
        tc.process(ctx)
    });
    let thief = out.results[1];
    if thief.steals_succeeded > 0 {
        assert!(thief.tasks_stolen <= thief.steals_succeeded * 5);
    }
}

/// Per-rank event streams of a traced virtual-time run in which rank 0
/// holds all the work — 30 coarse tasks handed out one per steal — so the
/// other three spend most of the phase failing steals and napping.
fn traced_starved_run(queue: QueueKind) -> Vec<Vec<TraceEvent>> {
    let mc = MachineConfig::virtual_time(4)
        .with_latency(LatencyModel::cluster())
        .with_trace(TraceConfig::enabled().with_capacity(1 << 20));
    let out = Machine::run(mc, move |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 1, 64).with_queue(queue));
        let h = tc.register(ctx, Arc::new(|t| t.ctx.compute(40_000)));
        if ctx.rank() == 0 {
            for _ in 0..30 {
                tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
            }
        }
        tc.process(ctx).tasks_executed
    });
    assert_eq!(out.results.iter().sum::<u64>(), 30);
    let trace = out.report.trace.expect("traced run");
    assert!(trace.dropped.iter().all(|&d| d == 0), "ring too small");
    (0..4)
        .map(|r| trace.events_for(r).iter().map(|e| e.event).collect())
        .collect()
}

/// The owner's read of its queue indices: `(head, split)` as one plain
/// 16-byte read at offset 0 — a shape no other access in the runtime has.
fn is_index_read(e: &TraceEvent) -> bool {
    matches!(
        e,
        TraceEvent::LocalAccess { offset: 0, bytes: 16, write: false, atomic: false, .. }
    )
}

/// A napping split-queue owner looks at its queue again only after a
/// scheduling point: an empty-handed pop + reclaim pre-check is two index
/// reads (each followed by its atomic `tail` read), and no rank ever
/// records a third without some other event — a poll, a steal, a task —
/// in between. Before the idle loop carried `queue_unchanged`, a nap of n
/// ticks recorded 2n of them back to back.
#[test]
fn napping_split_owner_rechecks_only_after_a_scheduling_point() {
    let ranks = traced_starved_run(QueueKind::Split);
    let mut failed_steals = 0;
    for (rank, events) in ranks.iter().enumerate() {
        let mut run = 0;
        for (i, e) in events.iter().enumerate() {
            match e {
                _ if is_index_read(e) => run += 1,
                // The `tail` read that completes an index read.
                TraceEvent::LocalAccess { offset: 16, bytes: 8, write: false, atomic: true, .. } => {}
                _ => run = 0,
            }
            assert!(run <= 2, "rank {rank}: {run} index reads in a row at event {i}");
            if let TraceEvent::StealAttempt { got: 0, .. } = e {
                failed_steals += 1;
            }
        }
    }
    assert!(failed_steals >= 20, "the run backed off ({failed_steals} failed steals)");
}

/// The locked queue's pop takes the queue lock — a scheduling point with a
/// cost, the one the paper's no-split ablation measures — so its owner
/// still pays it on every idle tick: between a failed steal and the next
/// attempt lie at least 8 nap ticks and the attempt's own iteration.
#[test]
fn napping_locked_owner_takes_its_queue_lock_every_tick() {
    let ranks = traced_starved_run(QueueKind::Locked);
    let mut naps = 0;
    for (rank, events) in ranks.iter().enumerate() {
        // Own-lock acquisitions since the last failed steal, if no task
        // has run since.
        let mut since_failure: Option<u32> = None;
        for e in events {
            match *e {
                TraceEvent::LockAcq { target, .. } if target as usize == rank => {
                    if let Some(n) = since_failure.as_mut() {
                        *n += 1;
                    }
                }
                TraceEvent::TaskExecBegin { .. } => since_failure = None,
                TraceEvent::StealAttempt { got, .. } => {
                    if let Some(n) = since_failure {
                        assert!(n >= 9, "rank {rank}: {n} own-lock pops across a nap");
                        naps += 1;
                    }
                    since_failure = (got == 0).then_some(0);
                }
                _ => {}
            }
        }
    }
    assert!(naps >= 10, "the run napped ({naps} naps between steal attempts)");
}

/// Liveness on real threads: a rank that has failed enough steals to be at
/// its deepest backoff still notices, reclaims and runs tasks another rank
/// adds to its queue — each exactly once — although it now looks at its
/// own queue only on the iteration after a detector poll.
#[test]
fn concurrent_rank_deep_in_backoff_still_runs_remote_adds() {
    const ADDS: u64 = 40;
    /// Spin until `done()`; a lost task must fail the test, not hang it.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        for _ in 0..200_000_000u64 {
            if done() {
                return;
            }
            std::thread::yield_now();
        }
        panic!("gave up waiting for {what}");
    }
    let ran = Arc::new(Mutex::new(Vec::<(usize, u64)>::new()));
    let out = Machine::run(MachineConfig::concurrent(2), {
        let ran = Arc::clone(&ran);
        move |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 64));
            let leaf = tc.register(ctx, {
                let ran = Arc::clone(&ran);
                Arc::new(move |t| {
                    ran.lock().push((t.ctx.rank(), scioto::wire::get_u64(t.body(), 0)));
                })
            });
            // Rank 0's only task: while it runs, rank 0's queue is empty,
            // so every steal rank 1 tries fails.
            let feeder = tc.register(ctx, {
                let ran = Arc::clone(&ran);
                Arc::new(move |t| {
                    for i in 0..ADDS {
                        let before = t.tc.stats(1).steals_attempted;
                        // Six more failures put rank 1 at its backoff cap.
                        wait_for("rank 1 to back off", || {
                            t.tc.stats(1).steals_attempted >= before + 6
                        });
                        let mut body = Vec::new();
                        scioto::wire::put_u64(&mut body, i);
                        t.tc.add(t.ctx, 1, AFFINITY_HIGH, &Task::new(leaf, body));
                        wait_for("rank 1 to run the task", || ran.lock().len() as u64 > i);
                    }
                })
            });
            if ctx.rank() == 0 {
                tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(feeder, vec![]));
            }
            tc.process(ctx).tasks_executed
        }
    });
    assert_eq!(out.results, vec![1, ADDS]);
    let want: Vec<(usize, u64)> = (0..ADDS).map(|i| (1, i)).collect();
    assert_eq!(*ran.lock(), want);
}

/// `add` copies a borrowed body straight into the slot and a pop copies it
/// into the phase's one buffer: bodies of 0, 1 and `max_body` bytes from
/// one reused `Task`, interleaved so a short body lands in a slot and a
/// buffer a long one just left, come back byte for byte — popped locally
/// (1 rank) and through stolen chunks (4 ranks). Each task also adds a
/// child before re-reading its own body: the child takes the slot the
/// task was popped from, which must not reach the running task's copy.
#[test]
fn bodies_of_every_size_round_trip_through_add_pop_and_steal() {
    const MAX: usize = 48;
    const ROUNDS: u64 = 60;
    fn body_for(id: u64, len: usize) -> Vec<u8> {
        (0..len).map(|k| (id as usize * 31 + k * 7 + len) as u8).collect()
    }
    for ranks in [1usize, 4] {
        let mc = MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster());
        let out = Machine::run(mc, |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(MAX, 3, 1024));
            let seen = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));
            let clo = tc.register_clo(ctx, seen.clone());
            let child = tc.register(
                ctx,
                Arc::new(move |t| {
                    let s: Arc<Mutex<Vec<Vec<u8>>>> = t.tc.clo(t.ctx, clo);
                    s.lock().push(t.body().to_vec());
                }),
            );
            let parent = tc.register(
                ctx,
                Arc::new(move |t| {
                    let mine = t.body().to_vec();
                    let flipped: Vec<u8> = mine.iter().map(|b| !b).collect();
                    t.tc.add(t.ctx, t.ctx.rank(), AFFINITY_HIGH, &Task::new(child, flipped));
                    assert_eq!(t.body(), mine, "a task's body changed under it");
                    let s: Arc<Mutex<Vec<Vec<u8>>>> = t.tc.clo(t.ctx, clo);
                    s.lock().push(mine);
                    t.ctx.compute(3_000);
                }),
            );
            if ctx.rank() == 0 {
                let mut task = Task::new(parent, Vec::new());
                for id in 0..ROUNDS {
                    for len in [MAX, 0, 1] {
                        task.body_mut().clear();
                        task.body_mut().extend_from_slice(&body_for(id, len));
                        tc.add(ctx, 0, AFFINITY_HIGH, &task);
                    }
                }
            }
            let stats = tc.process(ctx);
            let bodies = seen.lock().clone();
            (bodies, stats.tasks_stolen)
        });
        let stolen: u64 = out.results.iter().map(|r| r.1).sum();
        assert_eq!(stolen > 0, ranks > 1, "ranks={ranks}: {stolen} tasks stolen");
        let mut got: Vec<Vec<u8>> = out.results.into_iter().flat_map(|r| r.0).collect();
        let mut want = Vec::new();
        for id in 0..ROUNDS {
            for len in [MAX, 0, 1] {
                let b = body_for(id, len);
                want.push(b.iter().map(|x| !x).collect());
                want.push(b);
            }
        }
        got.sort();
        want.sort();
        assert_eq!(got, want, "ranks={ranks}");
    }
}
