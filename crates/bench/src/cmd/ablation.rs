//! `scioto ablation` — ablation studies of Scioto's design choices (§5, §5.1, §5.3):
//!
//! * **steal chunk size** — tasks moved per steal operation vs. UTS
//!   throughput (the `chunk_sz` parameter of `tc_create`);
//! * **split release policy** — how much private work the owner exposes
//!   for stealing;
//! * **votes-before optimization** — dirty-mark messages elided by the
//!   §5.3 rule, and its effect on termination cost.
//!
//! Takes the latency, policy and trace/check flags of [`RunSpec`].

use std::sync::Arc;

use scioto::{ProcessStats, StatsSummary, Task, TaskCollection, TcConfig, AFFINITY_HIGH};
use scioto_armci::Armci;
use scioto_sim::{Ctx, LatencyModel, Machine, MachineConfig, SpeedModel};
use scioto_uts::presets;
use scioto_uts::scioto_driver::run_scioto_uts;

use crate::front::Outcome;
use crate::{mnodes_per_s, render_table, us, Args, BenchOut, PolicyFlags, RunSpec};

/// The cluster network: with uniform CPUs for the votes-before runs,
/// heterogeneous for the UTS ones.
fn machine(p: usize, speed: fn(usize) -> SpeedModel, spec: &RunSpec) -> MachineConfig {
    spec.machine(p, LatencyModel::cluster(), speed(p))
}

fn uts_rate(p: usize, chunk: usize, spec: &RunSpec) -> (f64, u64) {
    let policy = spec.policy;
    let out = Machine::run(machine(p, SpeedModel::hetero_cluster, spec), move |ctx| {
        let mut cfg = policy.uts(presets::small());
        cfg.tc.chunk = chunk;
        run_scioto_uts(ctx, &cfg)
    });
    let nodes = out.results.iter().map(|(t, _)| t.nodes).sum();
    let steals = out.results.iter().map(|(_, s)| s.steals_succeeded).sum();
    (mnodes_per_s(nodes, out.report.makespan_ns), steals)
}

fn chunk_sweep(bench: &mut BenchOut, spec: &RunSpec) {
    let mut rows = Vec::new();
    for chunk in [1usize, 2, 5, 10, 20, 50] {
        let (rate, steals) = uts_rate(16, chunk, spec);
        bench.metric(&format!("chunk{chunk:02}_mnodes"), rate);
        bench.metric(&format!("chunk{chunk:02}_steals"), steals as f64);
        rows.push(vec![
            chunk.to_string(),
            format!("{rate:.2}"),
            steals.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Ablation: steal chunk size (UTS, 16 ranks, heterogeneous cluster)",
            &["chunk", "Mnodes/s", "successful steals"],
            &rows,
        )
    );
}

fn release_sweep(bench: &mut BenchOut, spec: &RunSpec) {
    let policy = spec.policy;
    let mut rows = Vec::new();
    for (threshold, fraction) in [(1usize, 0.25f64), (10, 0.5), (10, 0.9), (64, 0.5)] {
        let out = Machine::run(machine(16, SpeedModel::hetero_cluster, spec), move |ctx| {
            let mut cfg = policy.uts(presets::small());
            cfg.tc.release_threshold = threshold;
            cfg.tc.release_fraction = fraction;
            run_scioto_uts(ctx, &cfg).0
        });
        let nodes = out.results.iter().map(|t| t.nodes).sum();
        let rate = mnodes_per_s(nodes, out.report.makespan_ns);
        bench.metric(&format!("release_t{threshold:02}_f{fraction}_mnodes"), rate);
        rows.push(vec![format!("{threshold}/{fraction}"), format!("{rate:.2}")]);
    }
    print!(
        "{}",
        render_table(
            "Ablation: split release threshold/fraction (UTS, 16 ranks)",
            &["threshold/fraction", "Mnodes/s"],
            &rows,
        )
    );
}

/// The votes-before workload: rank 0 seeds `tasks` 5 µs tasks and the
/// phase runs to termination. Returns each rank's stats and phase time.
fn votes_phase(ctx: &Ctx, policy: PolicyFlags, opt: bool, tasks: usize) -> (ProcessStats, u64) {
    let armci = Armci::init(ctx);
    let cfg = policy.tc(TcConfig::new(8, 2, 4096).with_votes_before_opt(opt));
    let tc = TaskCollection::create(ctx, &armci, cfg);
    let h = tc.register(ctx, Arc::new(|t| t.ctx.compute(5_000)));
    if ctx.rank() == 0 {
        for _ in 0..tasks {
            tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
        }
    }
    let t0 = ctx.now();
    let stats = tc.process(ctx);
    (stats, ctx.now() - t0)
}

fn votes_before(bench: &mut BenchOut, spec: &RunSpec) {
    let policy = spec.policy;
    let mut rows = Vec::new();
    for opt in [true, false] {
        let out = Machine::run(machine(16, SpeedModel::uniform, spec), move |ctx| {
            votes_phase(ctx, policy, opt, 500)
        });
        let summary = StatsSummary::from_ranks(
            &out.results.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        );
        let makespan = out.results.iter().map(|(_, t)| *t).max().unwrap();
        let tag = if opt { "on" } else { "off" };
        bench.metric(
            &format!("votes_{tag}_marks_sent"),
            summary.totals.dirty_marks_sent as f64,
        );
        bench.metric(
            &format!("votes_{tag}_marks_elided"),
            summary.totals.dirty_marks_elided as f64,
        );
        bench.metric(&format!("votes_{tag}_phase_ns"), makespan as f64);
        rows.push(vec![
            if opt { "on (§5.3)" } else { "off" }.to_string(),
            summary.totals.dirty_marks_sent.to_string(),
            summary.totals.dirty_marks_elided.to_string(),
            us(makespan),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Ablation: votes-before dirty-mark elision (500 tasks, 16 ranks)",
            &["optimization", "marks sent", "marks elided", "phase µs"],
            &rows,
        )
    );
}

pub fn run(args: &Args) -> Outcome {
    let spec = RunSpec::from_args(args);
    let policy = spec.policy;
    if spec.obs_requested() {
        // Dedicated traced votes-before run at 8 ranks; the ablation
        // tables below stay untraced.
        let out = Machine::run(
            machine(8, SpeedModel::uniform, &spec).with_trace(spec.trace_config()),
            move |ctx| votes_phase(ctx, policy, true, 100),
        );
        spec.observe(&out.report)?;
    }
    let mut bench = BenchOut::new("ablation");
    bench.param("ranks", 16);
    spec.record(&mut bench);
    chunk_sweep(&mut bench, &spec);
    release_sweep(&mut bench, &spec);
    votes_before(&mut bench, &spec);
    bench.write_if_requested(args)?;
    Ok(())
}
