//! Randomized tests of the task-collection invariants: conservation (no
//! task lost or duplicated) and termination safety under randomized
//! workloads, queue kinds, chunk sizes, and spawn topologies.
//!
//! Ported from `proptest` to seeded loops over the in-tree deterministic
//! RNG so the default workspace carries zero external dependencies; every
//! case is reproducible from the printed case seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scioto_det::sync::Mutex;
use scioto_det::Rng;

use scioto::{QueueKind, Task, TaskCollection, TcConfig, AFFINITY_HIGH, AFFINITY_LOW};
use scioto_armci::Armci;
use scioto_sim::{LatencyModel, Machine, MachineConfig};

/// Every seeded task executes exactly once, for any rank count, chunk,
/// queue kind, affinity mix, and seeding pattern.
#[test]
fn tasks_execute_exactly_once() {
    for case in 0..16u64 {
        let mut rng = Rng::stream(0x7A5C_0001, case);
        let ranks = rng.gen_range(1..6usize);
        let chunk = rng.gen_range(1..8usize);
        let locked = rng.gen_bool(0.5);
        let nseeds = rng.gen_range(1..80usize);
        let seeds: Vec<(usize, bool)> = (0..nseeds)
            .map(|_| (rng.gen_range(0..6usize), rng.gen_bool(0.5)))
            .collect();
        let machine_seed = rng.gen_range(0..1_000u64);

        let seeds2 = seeds.clone();
        let cfg = MachineConfig::virtual_time(ranks)
            .with_latency(LatencyModel::cluster())
            .with_seed(machine_seed);
        let out = Machine::run(cfg, move |ctx| {
            let armci = Armci::init(ctx);
            let kind = if locked { QueueKind::Locked } else { QueueKind::Split };
            let tc = TaskCollection::create(
                ctx,
                &armci,
                TcConfig::new(16, chunk, 4096).with_queue(kind),
            );
            let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
            let clo = tc.register_clo(ctx, seen.clone());
            let h = tc.register(ctx, Arc::new(move |t| {
                let s: &Mutex<Vec<u64>> = t.tc.clo(t.ctx, clo);
                s.lock().push(scioto::wire::get_u64(t.body(), 0));
                t.ctx.compute(700);
            }));
            // Rank 0 seeds tasks onto (possibly remote) target ranks with
            // mixed affinities.
            if ctx.rank() == 0 {
                let mut task = Task::with_body_size(h, 8);
                for (id, (target, low)) in seeds2.iter().enumerate() {
                    scioto::wire::set_u64(task.body_mut(), 0, id as u64);
                    let aff = if *low { AFFINITY_LOW } else { AFFINITY_HIGH };
                    tc.add(ctx, target % ctx.nranks(), aff, &task);
                }
            }
            tc.process(ctx);
            let ids = seen.lock().clone();
            ids
        });
        let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..seeds.len() as u64).collect();
        assert_eq!(all, expect, "case {case}: lost or duplicated tasks");
    }
}

/// Random recursive spawn trees: the number of executed tasks matches
/// the algebraic tree size, wherever tasks migrate.
#[test]
fn recursive_spawns_all_execute() {
    for case in 0..16u64 {
        let mut rng = Rng::stream(0x7A5C_0002, case);
        let ranks = rng.gen_range(2..5usize);
        let fanout = rng.gen_range(1..4u64);
        let depth = rng.gen_range(1..5u64);
        let machine_seed = rng.gen_range(0..1_000u64);

        let cfg = MachineConfig::virtual_time(ranks)
            .with_latency(LatencyModel::cluster())
            .with_seed(machine_seed);
        let out = Machine::run(cfg, move |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(16, 2, 1 << 14));
            let executed = Arc::new(AtomicU64::new(0));
            let clo = tc.register_clo(ctx, executed.clone());
            let handle_cell = Arc::new(std::sync::OnceLock::new());
            let hc = handle_cell.clone();
            let h = tc.register(ctx, Arc::new(move |t| {
                let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
                let d = scioto::wire::get_u64(t.body(), 0);
                t.ctx.compute(300);
                if d > 0 {
                    let h = *hc.get().expect("registered");
                    let mut child = Task::with_body_size(h, 8);
                    scioto::wire::set_u64(child.body_mut(), 0, d - 1);
                    for _ in 0..fanout {
                        t.tc.add(t.ctx, t.ctx.rank(), AFFINITY_HIGH, &child);
                    }
                }
            }));
            handle_cell.set(h).expect("once");
            if ctx.rank() == 0 {
                let mut root = Task::with_body_size(h, 8);
                scioto::wire::set_u64(root.body_mut(), 0, depth);
                tc.add(ctx, 0, AFFINITY_HIGH, &root);
            }
            tc.process(ctx);
            executed.load(Ordering::Relaxed)
        });
        // Tree size = 1 + f + f^2 + ... + f^depth.
        let mut expect = 0u64;
        let mut level = 1u64;
        for _ in 0..=depth {
            expect += level;
            level *= fanout;
        }
        assert_eq!(
            out.results.iter().sum::<u64>(),
            expect,
            "case {case}: fanout={fanout} depth={depth}"
        );
    }
}

/// Phase reuse: random per-phase seed counts all process correctly
/// through reset cycles.
#[test]
fn reset_cycles_preserve_counts() {
    for case in 0..16u64 {
        let mut rng = Rng::stream(0x7A5C_0003, case);
        let nphases = rng.gen_range(1..4usize);
        let phases: Vec<u64> = (0..nphases).map(|_| rng.gen_range(0..30u64)).collect();
        let ranks = rng.gen_range(1..4usize);

        let phases2 = phases.clone();
        let out = Machine::run(MachineConfig::virtual_time(ranks), move |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 256));
            let executed = Arc::new(AtomicU64::new(0));
            let clo = tc.register_clo(ctx, executed.clone());
            let h = tc.register(ctx, Arc::new(move |t| {
                let c: &AtomicU64 = t.tc.clo(t.ctx, clo);
                c.fetch_add(1, Ordering::Relaxed);
            }));
            let mut per_phase = Vec::new();
            for &count in &phases2 {
                if ctx.rank() == 0 {
                    for _ in 0..count {
                        tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
                    }
                }
                tc.process(ctx);
                per_phase.push(executed.swap(0, Ordering::Relaxed));
                tc.reset(ctx);
            }
            per_phase
        });
        for (i, &count) in phases.iter().enumerate() {
            let total: u64 = out.results.iter().map(|v| v[i]).sum();
            assert_eq!(total, count, "case {case}: phase {i}");
        }
    }
}
