//! Figure 8 — UTS on the Cray XT4 model: Scioto vs. MPI work stealing,
//! up to 512 processes.
//!
//! The XT4's CPUs are uniform (dual-core Opteron 285, 0.5681 µs per UTS
//! node — factor 1.799 of the cluster-Opteron reference) and its network
//! uses the `xt4()` latency preset. The paper's finding: both scale to
//! 512 processes with Scioto at or above the MPI implementation
//! throughout.
//!
//! Run: `cargo run --release -p scioto-bench --bin fig8_uts_xt4`
//! Options: `--max-ranks N` (default 512), `--only-ranks N` (single sweep
//! point), `--tree tiny|small|medium|large`, plus the latency, policy and
//! trace/check flags every figure bin takes (`scioto_bench::RunSpec`).

use scioto_bench::{render_table, tree_arg, Args, BenchOut, RunSpec};
use scioto_sim::{LatencyModel, Machine, MachineConfig, SpeedModel};
use scioto_uts::mpi_ws::{run_mpi_uts, MpiUtsConfig};
use scioto_uts::scioto_driver::run_scioto_uts;
use scioto_uts::{presets, TreeParams, TreeStats};

/// XT4 Opteron 285: 0.5681 µs per node vs. the 0.3158 µs reference.
const XT4_FACTOR: f64 = 0.5681 / 0.3158;

fn machine(p: usize, spec: &RunSpec) -> MachineConfig {
    spec.machine(p, LatencyModel::xt4(), SpeedModel::from_factors(vec![XT4_FACTOR; p]))
}

fn rate(nodes: u64, ns: u64) -> f64 {
    nodes as f64 / (ns as f64 / 1e9) / 1e6
}

fn scioto_rate(p: usize, params: TreeParams, spec: &RunSpec) -> f64 {
    let policy = spec.policy;
    let out = Machine::run(machine(p, spec), move |ctx| {
        run_scioto_uts(ctx, &policy.uts(params)).0
    });
    let mut total = TreeStats::default();
    for s in &out.results {
        total.merge(s);
    }
    rate(total.nodes, out.report.makespan_ns)
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
    let max_p: usize = args.get("max-ranks", 512);
    let (tree, params) = tree_arg(&args, "tree", "medium");
    if spec.obs_requested() {
        // Dedicated traced XT4 UTS run on a tiny tree (`--trace-ranks N`,
        // default 8); the sweep below stays untraced.
        let trace_ranks: usize = args.get("trace-ranks", 8);
        let out = Machine::run(
            machine(trace_ranks, &spec).with_trace(spec.trace_config()),
            move |ctx| run_scioto_uts(ctx, &policy.uts(presets::tiny())).0,
        );
        spec.observe(&out.report);
    }
    let mut bench = BenchOut::new("fig8_uts_xt4");
    bench.param("max_ranks", max_p);
    bench.param("tree", &tree);
    spec.record(&mut bench);
    let mut rows = Vec::new();
    let mut sweep = vec![8usize, 16, 32, 64, 128, 256, 512];
    let mut next = 1024usize;
    while next <= max_p {
        sweep.push(next);
        next *= 2;
    }
    for p in sweep {
        if p > max_p {
            break;
        }
        if !spec.runs(p) {
            continue;
        }
        eprintln!("running P = {p} ...");
        let scioto = scioto_rate(p, params, &spec);
        let mpi = mpi_rate(p, params, &spec);
        bench.metric(&format!("scioto_mnodes_p{p:03}"), scioto);
        bench.metric(&format!("mpi_mnodes_p{p:03}"), mpi);
        rows.push(vec![
            p.to_string(),
            format!("{scioto:.2}"),
            format!("{mpi:.2}"),
        ]);
    }
    bench.write_if_requested(&args);
    print!(
        "{}",
        render_table(
            &format!("Figure 8: UTS throughput on the Cray XT4 (Mnodes/s, {tree} tree)"),
            &["P", "UTS-Scioto", "UTS-MPI"],
            &rows,
        )
    );
    println!(
        "\npaper (512 procs): UTS-Scioto ~760, UTS-MPI ~700 Mnodes/s; Scioto at or \
         above MPI throughout, both scaling to 512."
    );
}
