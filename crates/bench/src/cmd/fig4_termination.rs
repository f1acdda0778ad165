//! `scioto fig4_termination` — Figure 4, termination detection vs. ARMCI and MPI barriers.
//!
//! Methodology per §5.2: detect termination after executing a single
//! no-op task, and compare against barrier costs, for 1..64 processes.
//! The paper's finding: the wave algorithm detects termination in roughly
//! twice the time of a barrier, with log(p) scaling.
//!
//! Options: `--max-ranks N`, `--only-ranks N` (single sweep point), plus
//! the latency, policy and trace/check flags of [`RunSpec`].

use std::sync::Arc;

use scioto::{Task, TaskCollection, TcConfig, AFFINITY_HIGH};
use scioto_armci::Armci;
use scioto_mpi::Comm;
use scioto_sim::{Ctx, LatencyModel, Machine, MachineConfig, Report, SpeedModel, TraceConfig};

use crate::front::Outcome;
use crate::{render_table, us, Args, BenchOut, RunSpec};

fn machine(p: usize, spec: &RunSpec) -> MachineConfig {
    spec.machine(p, LatencyModel::cluster(), SpeedModel::uniform(p))
}

/// Max over ranks of a per-rank duration measurement.
fn max_ns(results: Vec<u64>) -> u64 {
    results.into_iter().max().unwrap_or(0)
}

fn termination_time(p: usize, trace: TraceConfig, spec: &RunSpec) -> (u64, Report) {
    let policy = spec.policy;
    let out = Machine::run(machine(p, spec).with_trace(trace), move |ctx| {
        let armci = Armci::init(ctx);
        let tc = TaskCollection::create(ctx, &armci, policy.tc(TcConfig::new(8, 10, 64)));
        let h = tc.register(ctx, Arc::new(|_| {}));
        armci.barrier(ctx);
        let t0 = ctx.now();
        if ctx.rank() == 0 {
            tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
        }
        tc.process(ctx);
        ctx.now() - t0
    });
    (max_ns(out.results), out.report)
}

/// Mean time of 20 back-to-back `barrier`s, after one to line the ranks
/// up.
fn mean_barrier_ns(ctx: &Ctx, barrier: impl Fn()) -> u64 {
    const REPS: u64 = 20;
    barrier();
    let t0 = ctx.now();
    (0..REPS).for_each(|_| barrier());
    (ctx.now() - t0) / REPS
}

fn armci_barrier_time(p: usize, spec: &RunSpec) -> u64 {
    let out = Machine::run(machine(p, spec), |ctx| {
        let armci = Armci::init(ctx);
        mean_barrier_ns(ctx, || armci.barrier(ctx))
    });
    max_ns(out.results)
}

fn mpi_barrier_time(p: usize, spec: &RunSpec) -> u64 {
    let out = Machine::run(machine(p, spec), |ctx| {
        let comm = Comm::world(ctx);
        mean_barrier_ns(ctx, || comm.barrier(ctx))
    });
    max_ns(out.results)
}

pub fn run(args: &Args) -> Outcome {
    let spec = RunSpec::from_args(args);
    let max_p: usize = args.get("max-ranks", 64);
    if spec.obs_requested() {
        // Dedicated traced detection run (`--trace-ranks N`, default 8);
        // the sweep stays untraced so the published table is unaffected.
        let (_, report) = termination_time(args.get("trace-ranks", 8), spec.trace_config(), &spec);
        spec.observe(&report)?;
    }
    let mut bench = BenchOut::new("fig4_termination");
    bench.param("max_ranks", max_p);
    spec.record(&mut bench);
    let mut rows = Vec::new();
    let mut p = 1;
    while p <= max_p {
        if !spec.runs(p) {
            p *= 2;
            continue;
        }
        let (td, _) = termination_time(p, TraceConfig::disabled(), &spec);
        let ab = armci_barrier_time(p, &spec);
        let mb = mpi_barrier_time(p, &spec);
        let ratio = td as f64 / ab.max(1) as f64;
        bench.metric(&format!("td_ns_p{p:03}"), td as f64);
        bench.metric(&format!("armci_barrier_ns_p{p:03}"), ab as f64);
        bench.metric(&format!("mpi_barrier_ns_p{p:03}"), mb as f64);
        rows.push(vec![
            p.to_string(),
            us(td),
            us(ab),
            us(mb),
            format!("{ratio:.2}"),
        ]);
        p *= 2;
    }
    bench.write_if_requested(args)?;
    print!(
        "{}",
        render_table(
            "Figure 4: termination detection vs. barriers (µs, cluster model)",
            &["P", "Scioto TD", "ARMCI barrier", "MPI barrier", "TD/ARMCI"],
            &rows,
        )
    );
    println!("\npaper: TD detects termination in roughly 2x the barrier time, log(p) growth.");
    Ok(())
}
