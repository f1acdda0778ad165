//! Quickstart: create a task collection, seed it, process it.
//!
//! A 4-process virtual machine runs 100 tasks seeded on rank 0; work
//! stealing spreads them across the machine and the wave-based detector
//! ends the phase. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scioto::{Task, TaskCollection, TcConfig, AFFINITY_HIGH};
use scioto_armci::Armci;
use scioto_sim::{LatencyModel, Machine, MachineConfig};

fn main() {
    let cfg = MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster());
    let out = Machine::run(cfg, |ctx| {
        // Initialize the one-sided communication layer and create the
        // shared collection of task objects (tc_create).
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, TcConfig::new(16, 2, 1024));

        // A common local object: each rank's private result accumulator.
        let done = Arc::new(AtomicU64::new(0));
        let done_clo = tc.register_clo(ctx, done.clone());

        // Collectively register the task callback; the returned handle is
        // a portable integer reference.
        let hello = tc.register(
            ctx,
            Arc::new(move |t| {
                let my_counter: &AtomicU64 = t.tc.clo(t.ctx, done_clo);
                let payload = scioto::wire::get_u64(t.body(), 0);
                my_counter.fetch_add(payload, Ordering::Relaxed);
                t.ctx.compute(10_000); // 10 µs of "work"
            }),
        );

        // Rank 0 seeds the collection; tasks carry opaque byte bodies.
        if ctx.rank() == 0 {
            let mut task = Task::with_body_size(hello, 8);
            for i in 1..=100u64 {
                scioto::wire::set_u64(task.body_mut(), 0, i);
                tc.add(ctx, 0, AFFINITY_HIGH, &task);
            }
        }

        // Collectively process to global quiescence (tc_process).
        let stats = tc.process(ctx);
        (done.load(Ordering::Relaxed), stats.tasks_executed)
    });

    let total: u64 = out.results.iter().map(|(sum, _)| sum).sum();
    println!("sum of payloads: {total} (expected {})", (1..=100u64).sum::<u64>());
    for (rank, (_, executed)) in out.results.iter().enumerate() {
        println!("rank {rank}: executed {executed} tasks");
    }
    println!(
        "virtual makespan: {:.1} µs",
        out.report.makespan_ns as f64 / 1e3
    );
}
