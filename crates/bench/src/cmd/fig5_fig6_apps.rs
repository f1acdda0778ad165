//! `scioto fig5_fig6_apps` — Figures 5 and 6, SCF and TCE: Scioto vs. the original global-counter
//! implementations on the heterogeneous cluster.
//!
//! Figure 5 plots parallel speedup (relative to each implementation's own
//! single-process run) and Figure 6 the raw runtimes, for 2..64
//! processes, half Opteron / half Xeon. The paper's findings: the
//! counter-based originals stop scaling (TCE severely, SCF beyond ~32
//! processes) while the Scioto versions keep scaling.
//!
//! Options: `--max-ranks N` (default 64), `--only-ranks N` (single sweep
//! point), `--atoms N` (default 16), `--tiles N` (default 48), plus the
//! latency, policy and trace/check flags of [`RunSpec`].

use scioto_scf::{run_scf_parallel, BasisSet, LoadBalance, Molecule};
use scioto_sim::{LatencyModel, Machine, MachineConfig, SpeedModel};
use scioto_tce::{run_contraction, ContractionConfig, SparsityPattern, TceLoadBalance};

use crate::front::Outcome;
use crate::{cluster_rank_sweep, render_table, secs, Args, BenchOut, RunSpec};

fn machine(p: usize, spec: &RunSpec) -> MachineConfig {
    spec.machine(p, LatencyModel::cluster(), SpeedModel::hetero_cluster(p))
}

fn scf_run(p: usize, atoms: usize, lb: LoadBalance, spec: &RunSpec) -> u64 {
    let policy = spec.policy;
    let basis = BasisSet::even_tempered(Molecule::h_chain(atoms), 2, 0.4, 3.5);
    let out = Machine::run(machine(p, spec), move |ctx| {
        run_scf_parallel(ctx, &basis, &policy.scf(lb, 8)).energy
    });
    out.report.makespan_ns
}

fn tce_run(p: usize, tiles: usize, lb: TceLoadBalance, spec: &RunSpec) -> u64 {
    let policy = spec.policy;
    let out = Machine::run(machine(p, spec), move |ctx| {
        let cfg = ContractionConfig {
            nbr: tiles,
            nbk: tiles,
            nbc: tiles,
            bs: 16,
            pattern_a: SparsityPattern::standard(11),
            pattern_b: SparsityPattern::standard(23),
            lb,
            chunk: 2,
            iterations: 1,
            victim: Some(policy.victim),
            td_batch: Some(policy.td_batch),
        };
        run_contraction(ctx, &cfg).0.contract_ns
    });
    // Contraction-phase makespan: the slowest rank's span (tensor
    // creation/fill is excluded, as the paper measures the kernel).
    out.results.into_iter().max().unwrap_or(0)
}

pub fn run(args: &Args) -> Outcome {
    let spec = RunSpec::from_args(args);
    let policy = spec.policy;
    let max_p: usize = args.get("max-ranks", 64);
    let atoms: usize = args.get("atoms", 16);
    let tiles: usize = args.get("tiles", 48);

    if spec.obs_requested() {
        // Dedicated traced 4-rank SCF run (2 Roothaan iterations, small
        // basis); the figure sweep below stays untraced.
        let basis = BasisSet::even_tempered(Molecule::h_chain(6), 2, 0.4, 3.5);
        let traced = machine(4, &spec).with_trace(spec.trace_config());
        let out = Machine::run(traced, move |ctx| {
            run_scf_parallel(ctx, &basis, &policy.scf(LoadBalance::Scioto, 2)).energy
        });
        spec.observe(&out.report)?;
    }

    let mut ps = vec![1usize];
    ps.extend(cluster_rank_sweep(max_p));

    let mut bench = BenchOut::new("fig5_fig6_apps");
    bench.param("max_ranks", max_p);
    bench.param("atoms", atoms);
    bench.param("tiles", tiles);
    spec.record(&mut bench);
    let mut results: Vec<(usize, [u64; 4])> = Vec::new();
    for &p in &ps {
        if !spec.runs(p) {
            continue;
        }
        eprintln!("running P = {p} ...");
        let row = [
            scf_run(p, atoms, LoadBalance::Scioto, &spec),
            scf_run(p, atoms, LoadBalance::GlobalCounter, &spec),
            tce_run(p, tiles, TceLoadBalance::Scioto, &spec),
            tce_run(p, tiles, TceLoadBalance::GlobalCounter, &spec),
        ];
        for (name, ns) in ["scf", "scf_orig", "tce", "tce_orig"].iter().zip(row) {
            bench.metric(&format!("{name}_ns_p{p:03}"), ns as f64);
        }
        results.push((p, row));
    }
    bench.write_if_requested(args)?;

    // Both figures are the same rows under a different cell: the runtime,
    // or the speedup over the implementation's own first (P = 1) row.
    let base = results[0].1;
    let table = |title: &str, cell: &dyn Fn(usize, u64) -> String| {
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(p, t)| {
                let cells = (0..4).map(|i| cell(i, t[i]));
                std::iter::once(p.to_string()).chain(cells).collect()
            })
            .collect();
        let headers = ["P", "SCF", "SCF-Original", "TCE", "TCE-Original"];
        print!("{}", render_table(title, &headers, &rows));
    };
    table("Figure 6: raw runtime (virtual seconds, heterogeneous cluster)", &|_, ns| secs(ns));
    table(
        "Figure 5: parallel speedup (vs. each implementation's P = 1 run)",
        &|i, ns| format!("{:.2}", base[i] as f64 / ns as f64),
    );
    println!(
        "\npaper: Scioto versions keep scaling; the global-counter originals flatten \
         (TCE early, SCF past ~32 processes)."
    );
    Ok(())
}
