//! `scioto fig7_uts_cluster` and `scioto fig8_uts_xt4` — UTS throughput
//! in millions of tree nodes processed per second of virtual time, one
//! sweep over two machines.
//!
//! **Figure 7**, the heterogeneous cluster: Scioto split queues vs. the
//! MPI work-stealing implementation vs. the locked ("No Split") queue
//! ablation. The paper's findings: split queues beat both the MPI
//! implementation (which pays explicit polling) and the locked queue
//! (which loses concurrency to lock contention), and heterogeneity is
//! absorbed transparently. Each sweep point also records the split run's
//! aggregate startup cost as `split_startup_ns_pNNN`.
//!
//! **Figure 8**, the Cray XT4 model: Scioto vs. MPI work stealing up to
//! 512 processes. The XT4's CPUs are uniform (dual-core Opteron 285,
//! 0.5681 µs per UTS node — factor 1.799 of the cluster-Opteron
//! reference) and its network uses the `xt4()` latency preset. The
//! paper's finding: both scale to 512 processes with Scioto at or above
//! the MPI implementation throughout.
//!
//! Any trace or check request runs a dedicated traced configuration
//! (`--trace-ranks N`, default 8, on the tiny tree unless figure 7's
//! `--trace-tree` picks another preset); the throughput sweep stays
//! untraced. Figure 7's `--steal-dist` runs it too and records the
//! per-steal ring-distance histogram from the analyzer's provenance pass
//! as first-class bench metrics (`steal_dist_dNNNN` buckets plus mean
//! distance and near-steal share), so steal locality can be pinned and
//! diffed like any throughput figure.

use scioto::QueueKind;
use scioto_sim::{LatencyModel, Machine, SpeedModel};
use scioto_uts::mpi_ws::{run_mpi_uts, MpiUtsConfig};
use scioto_uts::scioto_driver::run_scioto_uts;

use crate::front::Outcome;
use crate::{cluster_rank_sweep, mnodes_per_s, render_table, tree_arg, Args, BenchOut, RunSpec};

/// The UTS implementation behind one column of a figure.
#[derive(Clone, Copy)]
enum Driver {
    Scioto(QueueKind),
    MpiWs,
}

/// What tells the two figures apart.
struct Figure {
    name: &'static str,
    title: &'static str,
    paper: &'static str,
    latency: fn() -> LatencyModel,
    speed: fn(usize) -> SpeedModel,
    /// The sweep is the powers of two from `min_ranks` to `--max-ranks`.
    min_ranks: usize,
    max_ranks: usize,
    /// `(table header, metric prefix, implementation)`.
    columns: &'static [(&'static str, &'static str, Driver)],
    /// Record the first column's aggregate startup rank-ns.
    startup_metric: bool,
}

pub fn fig7(args: &Args) -> Outcome {
    sweep(
        args,
        &Figure {
            name: "fig7_uts_cluster",
            title: "Figure 7: UTS throughput on the heterogeneous cluster",
            paper: "paper (64 procs): Split-Queues ~72, MPI-WS ~62, No Split ~49 Mnodes/s; \
                    split > MPI > no-split at every scale.",
            latency: LatencyModel::cluster,
            speed: SpeedModel::hetero_cluster,
            min_ranks: 2,
            max_ranks: 64,
            columns: &[
                ("Split-Queues", "split", Driver::Scioto(QueueKind::Split)),
                ("MPI-WS", "mpi_ws", Driver::MpiWs),
                ("No Split", "nosplit", Driver::Scioto(QueueKind::Locked)),
            ],
            startup_metric: true,
        },
    )
}

pub fn fig8(args: &Args) -> Outcome {
    /// XT4 Opteron 285: 0.5681 µs per node vs. the 0.3158 µs reference.
    const XT4_FACTOR: f64 = 0.5681 / 0.3158;
    sweep(
        args,
        &Figure {
            name: "fig8_uts_xt4",
            title: "Figure 8: UTS throughput on the Cray XT4",
            paper: "paper (512 procs): UTS-Scioto ~760, UTS-MPI ~700 Mnodes/s; Scioto at or \
                    above MPI throughout, both scaling to 512.",
            latency: LatencyModel::xt4,
            speed: |p| SpeedModel::from_factors(vec![XT4_FACTOR; p]),
            min_ranks: 8,
            max_ranks: 512,
            columns: &[
                ("UTS-Scioto", "scioto", Driver::Scioto(QueueKind::Split)),
                ("UTS-MPI", "mpi", Driver::MpiWs),
            ],
            startup_metric: false,
        },
    )
}

fn sweep(args: &Args, fig: &Figure) -> Outcome {
    let spec = RunSpec::from_args(args);
    let policy = spec.policy;
    let machine = |p: usize| spec.machine(p, (fig.latency)(), (fig.speed)(p));
    let max_p: usize = args.get("max-ranks", fig.max_ranks);
    let (tree, params) = tree_arg(args, "tree", "medium");
    let steal_dist = args.has("steal-dist");
    let mut bench = BenchOut::new(fig.name);
    bench.param("max_ranks", max_p);
    bench.param("tree", &tree);
    spec.record(&mut bench);
    if spec.obs_requested() || steal_dist {
        let trace_ranks: usize = args.get("trace-ranks", 8);
        let (trace_tree, trace_params) = tree_arg(args, "trace-tree", "tiny");
        let out = Machine::run(machine(trace_ranks).with_trace(spec.trace_config()), move |ctx| {
            run_scioto_uts(ctx, &policy.uts(trace_params)).0
        });
        spec.observe(&out.report)?;
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
        if p < fig.min_ranks || !spec.runs(p) {
            continue;
        }
        eprintln!("running P = {p} ...");
        let mut row = vec![p.to_string()];
        for (i, &(_, metric, driver)) in fig.columns.iter().enumerate() {
            // Each rank reports (tree nodes it visited, its startup ns).
            let out = match driver {
                Driver::Scioto(queue) => Machine::run(machine(p), move |ctx| {
                    let mut cfg = policy.uts(params);
                    cfg.tc.queue = queue;
                    let (tree, stats) = run_scioto_uts(ctx, &cfg);
                    (tree.nodes, stats.startup_ns)
                }),
                Driver::MpiWs => Machine::run(machine(p), move |ctx| {
                    (run_mpi_uts(ctx, &MpiUtsConfig::new(params)).0.nodes, 0)
                }),
            };
            let nodes = out.results.iter().map(|r| r.0).sum();
            let startup_ns: u64 = out.results.iter().map(|r| r.1).sum();
            let rate = mnodes_per_s(nodes, out.report.makespan_ns);
            bench.metric(&format!("{metric}_mnodes_p{p:03}"), rate);
            if fig.startup_metric && i == 0 {
                eprintln!("  {metric} startup: {startup_ns} rank-ns aggregate");
                bench.metric(&format!("{metric}_startup_ns_p{p:03}"), startup_ns as f64);
            }
            row.push(format!("{rate:.2}"));
        }
        rows.push(row);
    }
    bench.write_if_requested(args)?;
    let mut headers = vec!["P"];
    headers.extend(fig.columns.iter().map(|(header, ..)| *header));
    print!("{}", render_table(&format!("{} (Mnodes/s, {tree} tree)", fig.title), &headers, &rows));
    println!("\n{}", fig.paper);
    Ok(())
}
