//! Figure 7 — UTS on the heterogeneous cluster: Scioto split queues vs.
//! the MPI work-stealing implementation vs. the locked ("No Split")
//! queue ablation.
//!
//! Performance is reported in millions of tree nodes processed per second
//! of virtual time. The paper's findings: split queues beat both the MPI
//! implementation (which pays explicit polling) and the locked queue
//! (which loses concurrency to lock contention), and heterogeneity is
//! absorbed transparently.
//!
//! Run: `cargo run --release -p scioto-bench --bin fig7_uts_cluster`
//! Options: `--max-ranks N` (default 64; sweeps to 1024 and beyond),
//! `--only-ranks N` (single sweep point), `--tree
//! tiny|small|medium|large`, `--latency flat|nearfar` (near/far distance
//! tiers), the hot-path policy knobs `--victim uniform|locality`,
//! `--barrier flat|tree`, `--td-batch on|off`, and the trace/check
//! requests every figure bin takes (`scioto_bench::RunSpec`). Each sweep
//! point also records the split run's aggregate startup cost as
//! `split_startup_ns_pNNN`.
//!
//! `--steal-dist` additionally runs the dedicated traced configuration
//! and records the per-steal ring-distance histogram from the analyzer's
//! provenance pass as first-class bench metrics (`steal_dist_dNNNN`
//! buckets plus mean distance and near-steal share), so steal locality
//! can be pinned and diffed like any throughput figure.

use scioto_bench::{cluster_rank_sweep, render_table, tree_arg, Args, BenchOut, RunSpec};
use scioto_sim::{LatencyModel, Machine, MachineConfig, SpeedModel};
use scioto_uts::mpi_ws::{run_mpi_uts, MpiUtsConfig};
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::{TreeParams, TreeStats};

fn machine(p: usize, spec: &RunSpec) -> MachineConfig {
    spec.machine(p, LatencyModel::cluster(), SpeedModel::hetero_cluster(p))
}

/// (total nodes, makespan ns) → Mnodes/s.
fn rate(nodes: u64, ns: u64) -> f64 {
    nodes as f64 / (ns as f64 / 1e9) / 1e6
}

/// Returns (Mnodes/s, aggregate per-rank startup ns) for one run.
fn scioto_rate(
    p: usize,
    params: TreeParams,
    queue: scioto::QueueKind,
    spec: &RunSpec,
) -> (f64, u64) {
    let policy = spec.policy;
    let out = Machine::run(machine(p, spec), move |ctx| {
        let cfg = SciotoUtsConfig {
            queue,
            ..policy.uts(params)
        };
        run_scioto_uts(ctx, &cfg)
    });
    let mut total = TreeStats::default();
    let mut startup_ns = 0u64;
    for (tree, stats) in &out.results {
        total.merge(tree);
        startup_ns += stats.startup_ns;
    }
    (rate(total.nodes, out.report.makespan_ns), startup_ns)
}

fn mpi_rate(p: usize, params: TreeParams, spec: &RunSpec) -> f64 {
    let out = Machine::run(machine(p, spec), move |ctx| {
        run_mpi_uts(ctx, &MpiUtsConfig::new(params)).0
    });
    let mut total = TreeStats::default();
    for s in &out.results {
        total.merge(s);
    }
    rate(total.nodes, out.report.makespan_ns)
}

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let spec = RunSpec::from_args(&args);
    let policy = spec.policy;
    let max_p: usize = args.get("max-ranks", 64);
    let (tree, params) = tree_arg(&args, "tree", "medium");
    let steal_dist = args.has("steal-dist");
    let mut bench = BenchOut::new("fig7_uts_cluster");
    bench.param("max_ranks", max_p);
    bench.param("tree", &tree);
    spec.record(&mut bench);
    if spec.obs_requested() || steal_dist {
        // Dedicated traced UTS run (`--trace-ranks N`, default 8, on the
        // tiny tree unless `--trace-tree` picks another preset); the
        // throughput sweep below stays untraced.
        let trace_ranks: usize = args.get("trace-ranks", 8);
        let (trace_tree, trace_params) = tree_arg(&args, "trace-tree", "tiny");
        let out = Machine::run(
            machine(trace_ranks, &spec).with_trace(spec.trace_config()),
            move |ctx| run_scioto_uts(ctx, &policy.uts(trace_params)).0,
        );
        spec.observe(&out.report);
        if steal_dist {
            // Steal-locality metrics from the analyzer's provenance pass.
            // The traced configuration is part of the metric identity, so
            // it rides in the params; only occupied histogram buckets are
            // recorded — an empty bucket turning hot (or vice versa)
            // surfaces as a metric appearing/vanishing, which bench_diff
            // reports as drift.
            bench.param("steal_dist", "on");
            bench.param("trace_ranks", trace_ranks);
            bench.param("trace_tree", &trace_tree);
            let trace = out.report.trace.as_ref().expect("traced run carries a trace");
            let analysis = scioto_analyze::analyze(trace);
            for w in &analysis.warnings {
                eprintln!("steal-dist WARNING: {w}");
            }
            let prov = analysis.provenance;
            for (d, &c) in prov.distance_hist.iter().enumerate() {
                if c > 0 {
                    bench.metric(&format!("steal_dist_d{d:04}"), c as f64);
                }
            }
            bench.metric("steal_dist_mean", prov.mean_ring_distance());
            bench.metric(
                "steal_dist_near_share",
                prov.near_share(scioto_analyze::provenance::NEAR_RADIUS),
            );
        }
    }
    let mut rows = Vec::new();
    for p in cluster_rank_sweep(max_p) {
        if !spec.runs(p) {
            continue;
        }
        eprintln!("running P = {p} ...");
        let (split, startup_ns) = scioto_rate(p, params, scioto::QueueKind::Split, &spec);
        let mpi = mpi_rate(p, params, &spec);
        let (nosplit, _) = scioto_rate(p, params, scioto::QueueKind::Locked, &spec);
        bench.metric(&format!("split_mnodes_p{p:03}"), split);
        bench.metric(&format!("mpi_ws_mnodes_p{p:03}"), mpi);
        bench.metric(&format!("nosplit_mnodes_p{p:03}"), nosplit);
        // Aggregate rank-ns of startup for the split run.
        eprintln!("  split startup: {startup_ns} rank-ns aggregate");
        bench.metric(&format!("split_startup_ns_p{p:03}"), startup_ns as f64);
        rows.push(vec![
            p.to_string(),
            format!("{split:.2}"),
            format!("{mpi:.2}"),
            format!("{nosplit:.2}"),
        ]);
    }
    bench.write_if_requested(&args);
    print!(
        "{}",
        render_table(
            &format!(
                "Figure 7: UTS throughput on the heterogeneous cluster \
                 (Mnodes/s, {tree} tree)"
            ),
            &["P", "Split-Queues", "MPI-WS", "No Split"],
            &rows,
        )
    );
    println!(
        "\npaper (64 procs): Split-Queues ~72, MPI-WS ~62, No Split ~49 Mnodes/s; \
         split > MPI > no-split at every scale."
    );
}
