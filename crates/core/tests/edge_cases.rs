//! Edge cases of the task-collection lifecycle: empty phases, capacity
//! boundaries, degenerate machine sizes, body-size limits, and stats
//! accessors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use scioto::{
    LbKind, QueueKind, Task, TaskCollection, TcConfig, AFFINITY_HIGH, AFFINITY_LOW,
};
use scioto_armci::Armci;
use scioto_det::MonoClock;
use scioto_sim::{ExecMode, LatencyModel, Machine, MachineConfig};

#[test]
fn empty_phase_terminates_promptly() {
    // No tasks at all: processing must still detect termination.
    for ranks in [1, 2, 9] {
        let out = Machine::run(
            MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
            |ctx| {
                let armci = Armci::init(ctx);
                let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 16));
                let _h = tc.register(ctx, Arc::new(|_| {}));
                let stats = tc.process(ctx);
                stats.tasks_executed
            },
        );
        assert_eq!(out.results.iter().sum::<u64>(), 0, "ranks={ranks}");
    }
}

#[test]
fn single_rank_with_stealing_config_works() {
    let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 64));
        let n = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, n.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        for _ in 0..30 {
            tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
        }
        tc.process(ctx);
        n.load(Ordering::Relaxed)
    });
    assert_eq!(out.results[0], 30);
}

#[test]
fn body_at_exact_max_size_is_accepted() {
    let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(32, 2, 16));
        let seen = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, seen.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                assert_eq!(t.body().len(), 32);
                assert!(t.body().iter().all(|&b| b == 0xAB));
                let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        if ctx.rank() == 0 {
            tc.add(ctx, 1, AFFINITY_HIGH, &Task::new(h, vec![0xAB; 32]));
        }
        tc.process(ctx);
        seen.load(Ordering::Relaxed)
    });
    assert_eq!(out.results.iter().sum::<u64>(), 1);
}

#[test]
fn oversized_body_is_rejected() {
    let r = std::panic::catch_unwind(|| {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 16));
            let h = tc.register(ctx, Arc::new(|_| {}));
            tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![0; 9]));
        });
    });
    assert!(r.is_err(), "oversized body must panic");
}

#[test]
fn queue_filled_to_capacity_processes_fully() {
    // max_tasks tasks seeded into a queue of exactly that capacity.
    let out = Machine::run(MachineConfig::virtual_time(1), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 64));
        let n = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, n.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        for _ in 0..63 {
            tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
        }
        tc.process(ctx);
        n.load(Ordering::Relaxed)
    });
    assert_eq!(out.results[0], 63);
}

#[test]
fn mixed_affinity_low_remote_seeding() {
    // All-low-affinity tasks seeded remotely still execute exactly once.
    let out = Machine::run(
        MachineConfig::virtual_time(3).with_latency(LatencyModel::cluster()),
        |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 1, 128));
            let n = Arc::new(AtomicU64::new(0));
            let clo = tc.register_clo(ctx, n.clone());
            let h = tc.register(
                ctx,
                Arc::new(move |t| {
                    let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
                    c.fetch_add(1, Ordering::Relaxed);
                    t.ctx.compute(2_000);
                }),
            );
            if ctx.rank() == 0 {
                for i in 0..24 {
                    tc.add(ctx, i % 3, AFFINITY_LOW, &Task::new(h, vec![]));
                }
            }
            tc.process(ctx);
            n.load(Ordering::Relaxed)
        },
    );
    assert_eq!(out.results.iter().sum::<u64>(), 24);
}

#[test]
fn disabled_ldbal_locked_queue_combination() {
    let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
        let armci = Armci::init(ctx);
        let cfg = TcConfig::new(8, 2, 64)
            .with_queue(QueueKind::Locked)
            .with_ldbal(LbKind::Disabled);
        let tc = TaskCollection::create(ctx, &armci, cfg);
        let n = Arc::new(AtomicU64::new(0));
        let clo = tc.register_clo(ctx, n.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
            }),
        );
        for _ in 0..7 {
            tc.add(ctx, ctx.rank(), AFFINITY_HIGH, &Task::new(h, vec![]));
        }
        tc.process(ctx);
        n.load(Ordering::Relaxed)
    });
    assert_eq!(out.results, vec![7, 7]);
}

#[test]
fn accessors_report_configuration() {
    Machine::run(MachineConfig::virtual_time(2), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(24, 3, 32));
        assert_eq!(tc.config().chunk, 3);
        assert_eq!(tc.config().max_tasks, 32);
        // Header (16) + body (24) rounded to 8.
        assert_eq!(tc.slot_bytes(), 40);
        let _ = tc.register(ctx, Arc::new(|_| {}));
        let _ = tc.register(ctx, Arc::new(|_| {}));
        assert_eq!(tc.registered_callbacks(ctx.rank()), 2);
        let (h, s, t) = tc.queue_indices(ctx);
        assert_eq!((h, s, t), (0, 0, 0));
    });
}

#[test]
fn creator_and_affinity_visible_to_tasks() {
    let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 16));
        let seen = Arc::new(scioto_det::sync::Mutex::new(Vec::<(usize, i32)>::new()));
        let clo = tc.register_clo(ctx, seen.clone());
        let h = tc.register(
            ctx,
            Arc::new(move |t| {
                let s: &scioto_det::sync::Mutex<Vec<(usize, i32)>> = t.tc.clo(t.ctx, clo);
                s.lock().push((t.creator(), t.affinity()));
            }),
        );
        if ctx.rank() == 1 {
            tc.add(ctx, 0, 5, &Task::new(h, vec![]));
        }
        tc.process(ctx);
        let v = seen.lock().clone();
        v
    });
    let all: Vec<(usize, i32)> = out.results.into_iter().flatten().collect();
    assert_eq!(all, vec![(1, 5)]);
}

#[test]
fn concurrent_mode_locked_queue_soak() {
    for _ in 0..2 {
        let cfg = MachineConfig {
            mode: ExecMode::Concurrent,
            ..MachineConfig::virtual_time(4)
        };
        let out = Machine::run(cfg, |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(
                ctx,
                &armci,
                TcConfig::new(8, 3, 2048).with_queue(QueueKind::Locked),
            );
            let n = Arc::new(AtomicU64::new(0));
            let clo = tc.register_clo(ctx, n.clone());
            let h = tc.register(
                ctx,
                Arc::new(move |t| {
                    let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
            for _ in 0..100 {
                tc.add(ctx, ctx.rank(), AFFINITY_HIGH, &Task::new(h, vec![]));
            }
            tc.process(ctx);
            n.load(Ordering::Relaxed)
        });
        assert_eq!(out.results.iter().sum::<u64>(), 400);
    }
}

/// Waits up to `secs` wall seconds for `rx`, timed by the sanctioned
/// `MonoClock` (`std::time` stays out of the tree); `None` on expiry.
fn recv_within<T>(rx: &mpsc::Receiver<T>, secs: u64) -> Option<T> {
    let clock = MonoClock::new();
    while clock.now_ns() < secs * 1_000_000_000 {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(mpsc::TryRecvError::Empty) => std::thread::yield_now(),
            Err(mpsc::TryRecvError::Disconnected) => panic!("machine thread died unreported"),
        }
    }
    None
}

#[test]
fn a_panicking_task_body_surfaces_in_both_modes() {
    // Once one rank's body panics, the others only poll their dry queues
    // and the termination detector — a concurrent rank never blocks
    // there — so the poison has to reach them at a scheduling point or
    // the machine spins forever. Each machine runs on its own thread
    // under a watchdog, so a regression fails here instead of hanging.
    const BUDGET_S: u64 = 30;
    for mode in [ExecMode::VirtualTime, ExecMode::Concurrent] {
        for lb in [LbKind::WorkStealing, LbKind::Disabled] {
            let (tx, rx) = mpsc::channel();
            let machine = std::thread::spawn(move || {
                let cfg = MachineConfig {
                    mode,
                    ..MachineConfig::virtual_time(4)
                };
                let err = std::panic::catch_unwind(|| {
                    Machine::run(cfg, |ctx| {
                        let armci = Armci::init(ctx);
                        let tc = TaskCollection::create(
                            ctx,
                            &armci,
                            TcConfig::new(8, 2, 64).with_ldbal(lb),
                        );
                        let h = tc.register(
                            ctx,
                            Arc::new(|t| {
                                if t.body()[0] == 37 {
                                    panic!("boom from a task body");
                                }
                            }),
                        );
                        for i in 0..16 {
                            let id = 16 * ctx.rank() as u8 + i;
                            tc.add(ctx, ctx.rank(), AFFINITY_HIGH, &Task::new(h, vec![id]));
                        }
                        tc.process(ctx);
                    })
                })
                .err()
                .map(|e| {
                    e.downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_default()
                });
                let _ = tx.send(err);
            });
            // On expiry the spinning machine thread cannot be joined; the
            // test fails and the process takes it down.
            let text = recv_within(&rx, BUDGET_S)
                .unwrap_or_else(|| {
                    panic!("{mode:?} / {lb:?}: machine still running after {BUDGET_S} s (hang?)")
                })
                .unwrap_or_else(|| panic!("{mode:?} / {lb:?}: the body's panic was swallowed"));
            machine
                .join()
                .expect("the machine thread reported, then panicked");
            assert!(
                text.contains("boom from a task body"),
                "{mode:?} / {lb:?}: surfaced {text:?}, not the body's own panic"
            );
        }
    }
}

#[test]
#[should_panic(expected = "invalid TcConfig: max_tasks = 0")]
fn create_rejects_zero_capacity_config() {
    // Struct-literal configs bypass `TcConfig::new`'s checks; `create`
    // must reject them before any slot arithmetic runs.
    Machine::run(MachineConfig::virtual_time(1), |ctx| {
        let armci = Armci::init(ctx);
        let cfg = TcConfig {
            max_tasks: 0,
            ..TcConfig::new(8, 2, 16)
        };
        TaskCollection::create(ctx, &armci, cfg);
    });
}

#[test]
#[should_panic(expected = "invalid TcConfig: chunk size")]
fn create_rejects_zero_chunk_config() {
    Machine::run(MachineConfig::virtual_time(1), |ctx| {
        let armci = Armci::init(ctx);
        let cfg = TcConfig {
            chunk: 0,
            ..TcConfig::new(8, 2, 16)
        };
        TaskCollection::create(ctx, &armci, cfg);
    });
}

#[test]
#[should_panic(expected = "exceeds max_body")]
fn bench_push_rejects_oversized_body() {
    // The bench entry points share the descriptive body-size check with
    // `add` — an oversized body must not reach slot encoding.
    Machine::run(MachineConfig::virtual_time(1), |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 16));
        let h = tc.register(ctx, Arc::new(|_| {}));
        tc.bench_push_local(ctx, &Task::new(h, vec![0u8; 9]));
    });
}
