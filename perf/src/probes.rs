//! Host-time probes: one public primitive per probe, called in a tight
//! loop and priced in host ns (or µs) per call — each layer as overhead
//! over the layer beneath it. They replace the print-only `tinybench`
//! targets of `crates/bench/benches/` (queue ops, termination, SHA-1)
//! with recorded numbers, and add the real-thread variants those never
//! had.
//!
//! Unless the name carries a `_pN` suffix a probe runs on a 2-rank,
//! zero-latency virtual-time machine; `conc_` probes run on 2 real
//! threads that both target rank 0's memory. Every probe is calibrated to
//! a fixed sample length, then all probes are sampled five times in
//! alternating order and the median sample is reported.

use std::hint::black_box;
use std::sync::Arc;

use scioto::{Task, TaskCollection, TcConfig, AFFINITY_HIGH};
use scioto_armci::{Armci, Gmem, MutexSet};
use scioto_det::sync::Mutex;
use scioto_det::MonoClock;
use scioto_ga::{Ga, GaHandle, Patch};
use scioto_scf::{scf_sequential, BasisSet, ScfConfig};
use scioto_sim::{Ctx, LatencyModel, Machine, MachineConfig, TraceConfig};
use scioto_uts::node::NODE_BYTES;
use scioto_uts::sequential::count_tree;
use scioto_uts::TreeParams;

use crate::stats::median;
use crate::workloads::run_uts;

const SAMPLES: usize = 5;
const MAX_ITERS: u64 = 1 << 22;

/// One probe: `run(iters)` performs about `iters` operations and returns
/// the host ns they took and how many it really did.
struct Probe {
    name: &'static str,
    run: Box<dyn FnMut(u64) -> (u64, u64)>,
}

impl Probe {
    /// The reported value for a sample of `ns_per_op`: the unit is the
    /// one the metric's name ends in.
    fn value(&self, ns_per_op: f64) -> f64 {
        match self.name {
            n if n.contains("_per_s") => 1e9 / ns_per_op,
            n if n.contains("_us") => ns_per_op / 1e3,
            n if n.ends_with("_s") => ns_per_op / 1e9,
            _ => ns_per_op,
        }
    }
}

fn probe(name: &'static str, run: impl FnMut(u64) -> (u64, u64) + 'static) -> Probe {
    Probe {
        name,
        run: Box::new(run),
    }
}

/// A probe whose whole measured region is `iters` calls of `op`.
fn looped(name: &'static str, mut op: impl FnMut() + 'static) -> Probe {
    probe(name, move |iters| {
        let clock = MonoClock::new();
        for _ in 0..iters {
            op();
        }
        (clock.now_ns(), iters)
    })
}

/// Run `body` on every rank of `cfg` between two barriers, after
/// `prepare` built each rank's state outside the bracket, and return the
/// host ns rank 0 saw across the bracket. Rank 0 leaves the first barrier
/// first and the second one last, so its bracket covers every rank's
/// body.
fn bracket<S>(
    cfg: MachineConfig,
    prepare: impl Fn(&Ctx) -> S + Send + Sync,
    body: impl Fn(&Ctx, &S) + Send + Sync,
) -> u64 {
    let clock = MonoClock::new();
    let out = Machine::run(cfg, |ctx| {
        let state = prepare(ctx);
        ctx.barrier();
        let t0 = clock.now_ns();
        body(ctx, &state);
        ctx.barrier();
        clock.now_ns() - t0
    });
    out.results[0]
}

fn vt2() -> MachineConfig {
    MachineConfig::virtual_time(2)
}

fn conc2() -> MachineConfig {
    MachineConfig::concurrent(2)
}

/// A probe of one-sided ops against an 8-word segment: `who` says which
/// ranks issue them, all at `target`.
fn armci_probe(
    name: &'static str,
    cfg: fn() -> MachineConfig,
    target: usize,
    who: fn(usize) -> bool,
    op: fn(&Ctx, &Armci, Gmem, MutexSet, usize),
) -> Probe {
    probe(name, move |iters| {
        let ns = bracket(
            cfg(),
            |ctx| {
                let armci = Armci::init(ctx);
                let g = armci.malloc(ctx, 64);
                let locks = armci.create_mutexes(ctx, 1);
                (armci, g, locks)
            },
            |ctx, (armci, g, locks)| {
                if who(ctx.rank()) {
                    for _ in 0..iters {
                        op(ctx, armci, *g, *locks, target);
                    }
                }
            },
        );
        (ns, iters)
    })
}

fn put(ctx: &Ctx, a: &Armci, g: Gmem, _: MutexSet, t: usize) {
    a.put(ctx, g, t, 0, &[7u8; 8]);
}
fn get(ctx: &Ctx, a: &Armci, g: Gmem, _: MutexSet, t: usize) {
    let mut buf = [0u8; 8];
    a.get(ctx, g, t, 0, &mut buf);
    black_box(buf);
}
fn acc(ctx: &Ctx, a: &Armci, g: Gmem, _: MutexSet, t: usize) {
    a.acc_f64(ctx, g, t, 8, 1.0, &[1.0]);
}
fn fetch_add(ctx: &Ctx, a: &Armci, g: Gmem, _: MutexSet, t: usize) {
    black_box(a.fetch_add_i64(ctx, g, t, 16, 1));
}
fn lock_unlock(ctx: &Ctx, a: &Armci, _: Gmem, l: MutexSet, t: usize) {
    a.lock(ctx, l, 0, t);
    a.unlock(ctx, l, 0, t);
}

/// UTS's queue configuration (one node per task, chunk 10), sized to
/// hold `tasks`.
fn queue_config(tasks: u64) -> TcConfig {
    TcConfig::new(NODE_BYTES, 10, (tasks as usize + 64).next_power_of_two())
}

fn noop_collection(ctx: &Ctx, cfg: TcConfig) -> (Arc<TaskCollection>, Task) {
    let armci = Armci::init(ctx);
    let tc = TaskCollection::create(ctx, &armci, cfg);
    let h = tc.register(ctx, Arc::new(|_| {}));
    (tc, Task::with_body_size(h, NODE_BYTES))
}

/// Local push + pop pairs on rank 0 of `cfg`, as many ranks as it has.
fn push_pop(name: &'static str, cfg: fn() -> MachineConfig, who: fn(usize) -> bool) -> Probe {
    probe(name, move |iters| {
        let ns = bracket(
            cfg(),
            |ctx| noop_collection(ctx, queue_config(64)),
            |ctx, (tc, task)| {
                if who(ctx.rank()) {
                    for _ in 0..iters {
                        tc.bench_push_local(ctx, task);
                        black_box(tc.bench_pop_local(ctx));
                    }
                }
            },
        );
        (ns, iters)
    })
}

/// Full `process` phases over one no-op task on `ranks` ranks with the
/// cluster latency model: the cost of entering, detecting termination of
/// and leaving a phase.
fn td_noop_phase(name: &'static str, ranks: usize) -> Probe {
    probe(name, move |iters| {
        let ns = bracket(
            MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
            |ctx| noop_collection(ctx, TcConfig::new(NODE_BYTES, 10, 64)),
            |ctx, (tc, task)| {
                for _ in 0..iters {
                    if ctx.rank() == 0 {
                        tc.add(ctx, 0, AFFINITY_HIGH, task);
                    }
                    tc.process(ctx);
                    tc.reset(ctx);
                }
            },
        );
        (ns, iters)
    })
}

fn all(_: usize) -> bool {
    true
}
fn rank0(rank: usize) -> bool {
    rank == 0
}

fn probes(tree: TreeParams, basis: BasisSet) -> Vec<Probe> {
    let clock = MonoClock::new();
    let mutex = Mutex::new(0u64);
    let root = tree.root();
    vec![
        looped("det.monoclock_ns", move || {
            black_box(clock.now_ns());
        }),
        looped("det.mutex_uncontended_ns", move || {
            *mutex.lock() += 1;
        }),
        probe("sim.yield_switch_ns_p2", |iters| yield_switch(2, iters)),
        probe("sim.yield_switch_ns_p256", |iters| yield_switch(256, iters)),
        probe("sim.barrier_ns_p64", |iters| {
            let ns = bracket(
                MachineConfig::virtual_time(64),
                |_| (),
                |ctx, _| {
                    for _ in 0..iters {
                        ctx.barrier();
                    }
                },
            );
            (ns, iters)
        }),
        looped("sim.conc_spawn_teardown_us_p2", || {
            Machine::run(conc2(), |_| ());
        }),
        armci_probe("armci.put_ns", vt2, 1, rank0, put),
        armci_probe("armci.get_ns", vt2, 1, rank0, get),
        armci_probe("armci.acc_f64_ns", vt2, 1, rank0, acc),
        armci_probe("armci.fetch_add_ns", vt2, 1, rank0, fetch_add),
        armci_probe("armci.lock_unlock_ns", vt2, 1, rank0, lock_unlock),
        probe("armci.malloc_us_p64", |iters| {
            let ns = bracket(
                MachineConfig::virtual_time(64),
                Armci::init,
                |ctx, armci| {
                    for _ in 0..iters {
                        black_box(armci.malloc(ctx, 64));
                    }
                },
            );
            (ns, iters)
        }),
        ga_probe("ga.get_patch_ns", |ctx, ga, h, p| {
            black_box(ga.get(ctx, h, p));
        }),
        ga_probe("ga.acc_patch_ns", |ctx, ga, h, p| {
            ga.acc(ctx, h, p, 1.0, &[1.0; 16]);
        }),
        armci_probe("armci.conc_put_ns", conc2, 0, all, put),
        armci_probe("armci.conc_fetch_add_ns", conc2, 0, all, fetch_add),
        armci_probe("armci.conc_lock_unlock_ns", conc2, 0, all, lock_unlock),
        push_pop("core.conc_push_pop_ns", conc2, all),
        push_pop("core.push_pop_ns", vt2, rank0),
        push_pop(
            "core.push_pop_traced_ns",
            || vt2().with_trace(TraceConfig::enabled()),
            rank0,
        ),
        probe("core.steal_chunk_ns", |iters| {
            // Rank 0 holds ten tasks per steal and releases eagerly, so
            // they sit in the shared portion; rank 1 takes a chunk a time.
            let cfg = TcConfig {
                release_threshold: 1 << 20,
                ..queue_config(iters * 10)
            };
            let ns = bracket(
                vt2(),
                |ctx| {
                    let (tc, task) = noop_collection(ctx, cfg);
                    if ctx.rank() == 0 {
                        for _ in 0..iters * 10 {
                            tc.bench_push_local(ctx, &task);
                        }
                    }
                    tc
                },
                |ctx, tc| {
                    if ctx.rank() == 1 {
                        for _ in 0..iters {
                            black_box(tc.bench_steal(ctx, 0));
                        }
                    }
                },
            );
            (ns, iters)
        }),
        probe("core.insert_remote_ns", |iters| {
            let ns = bracket(
                vt2(),
                |ctx| noop_collection(ctx, queue_config(iters)),
                |ctx, (tc, task)| {
                    if ctx.rank() == 0 {
                        for _ in 0..iters {
                            tc.bench_insert_remote(ctx, 1, task);
                        }
                    }
                },
            );
            (ns, iters)
        }),
        td_noop_phase("core.td_noop_phase_us_p8", 8),
        td_noop_phase("core.td_noop_phase_us_p64", 64),
        probe("core.create_us_p64", |iters| {
            // The collection UTS creates: 2^17 slots of one node each.
            let ns = bracket(
                MachineConfig::virtual_time(64),
                Armci::init,
                |ctx, armci| {
                    for _ in 0..iters {
                        black_box(TaskCollection::create(
                            ctx,
                            armci,
                            TcConfig::new(NODE_BYTES, 10, 1 << 17),
                        ));
                    }
                },
            );
            (ns, iters)
        }),
        looped("uts.child_sha1_ns", move || {
            black_box(black_box(&root).child(3));
        }),
        probe("uts.seq_nodes_per_s", move |_| {
            let clock = MonoClock::new();
            let nodes = count_tree(&tree).nodes;
            (clock.now_ns(), nodes)
        }),
        conc_uts("uts.conc_tasks_per_s_p1", 1, tree),
        conc_uts("uts.conc_tasks_per_s_p2", 2, tree),
        probe("scf.seq_fock_s", move |_| {
            let one = ScfConfig {
                max_iters: 1,
                tol: 0.0,
                ..Default::default()
            };
            let clock = MonoClock::new();
            black_box(scf_sequential(&basis, &one));
            (clock.now_ns(), 1)
        }),
    ]
}

/// One whole real-thread UTS traversal of `tree` per sample: the pair of
/// these says what the second thread buys.
fn conc_uts(name: &'static str, threads: usize, tree: TreeParams) -> Probe {
    probe(name, move |_| {
        let run = run_uts(MachineConfig::concurrent(threads), tree, None, None);
        (run.wall_ns, run.tasks)
    })
}

/// Every rank of a `ranks`-rank machine yields in a loop: with equal
/// clocks the kernel round-robins, so each yield is one heap pop/push and
/// one fiber switch.
fn yield_switch(ranks: usize, iters: u64) -> (u64, u64) {
    let per_rank = iters.div_ceil(ranks as u64);
    let ns = bracket(
        MachineConfig::virtual_time(ranks),
        |_| (),
        |ctx, _| {
            for _ in 0..per_rank {
                ctx.yield_point();
            }
        },
    );
    (ns, per_rank * ranks as u64)
}

/// Rank 0 works on a 4 × 4 patch (SCF's block size) owned by rank 1.
fn ga_probe(name: &'static str, op: fn(&Ctx, &Ga, GaHandle, Patch)) -> Probe {
    probe(name, move |iters| {
        let ns = bracket(
            vt2(),
            |ctx| {
                let ga = Ga::init(ctx);
                let h = ga.create(ctx, "probe", 32, 32);
                let far = ga.distribution(h, 1);
                (
                    ga,
                    h,
                    Patch::new(far.rlo, far.rlo + 4, far.clo, far.clo + 4),
                )
            },
            |ctx, (ga, h, patch)| {
                if ctx.rank() == 0 {
                    for _ in 0..iters {
                        op(ctx, ga, *h, *patch);
                    }
                }
            },
        );
        (ns, iters)
    })
}

/// Host µs of an empty-closure `Machine::run` on `ranks` virtual ranks:
/// `(first call, fifth call)`. Run this before anything else has sized
/// the allocator's pools, or "first" means nothing.
pub fn spawn_teardown_us(ranks: usize) -> (f64, f64) {
    let clock = MonoClock::new();
    let mut calls = [0.0f64; 5];
    for c in &mut calls {
        let t0 = clock.now_ns();
        Machine::run(MachineConfig::virtual_time(ranks), |_| ());
        *c = (clock.now_ns() - t0) as f64 / 1e3;
    }
    (calls[0], calls[4])
}

/// Calibrate and sample every probe; returns `(metric name, value)`.
pub fn run_all(tree: TreeParams, basis: BasisSet, sample_ns: u64) -> Vec<(&'static str, f64)> {
    let mut probes = probes(tree, basis);
    let iters: Vec<u64> = probes
        .iter_mut()
        .map(|p| {
            let mut iters = 1u64;
            loop {
                let (ns, _) = (p.run)(iters);
                if ns >= sample_ns || iters >= MAX_ITERS {
                    break iters;
                }
                // Jump close to the target when the sample is informative.
                let factor = if ns > 50_000 {
                    (sample_ns / ns).clamp(2, 1024)
                } else {
                    8
                };
                iters = (iters * factor).min(MAX_ITERS);
            }
        })
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); probes.len()];
    for round in 0..SAMPLES {
        let mut order: Vec<usize> = (0..probes.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let (ns, ops) = (probes[i].run)(iters[i]);
            samples[i].push(ns as f64 / ops.max(1) as f64);
        }
    }
    probes
        .iter()
        .zip(&samples)
        .map(|(p, s)| (p.name, p.value(median(s))))
        .collect()
}
