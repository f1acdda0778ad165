//! Figures 5 and 6 — SCF and TCE: Scioto vs. the original global-counter
//! implementations on the heterogeneous cluster.
//!
//! Figure 5 plots parallel speedup (relative to each implementation's own
//! single-process run) and Figure 6 the raw runtimes, for 2..64
//! processes, half Opteron / half Xeon. The paper's findings: the
//! counter-based originals stop scaling (TCE severely, SCF beyond ~32
//! processes) while the Scioto versions keep scaling.
//!
//! Run: `cargo run --release -p scioto-bench --bin fig5_fig6_apps`
//! Options: `--max-ranks N` (default 64), `--only-ranks N` (single sweep
//! point), `--atoms N` (default 16), `--tiles N` (default 48), plus the
//! latency, policy and trace/check flags every figure bin takes
//! (`scioto_bench::RunSpec`).

use scioto_bench::{cluster_rank_sweep, render_table, secs, Args, BenchOut, RunSpec};
use scioto_scf::{run_scf_parallel, BasisSet, LoadBalance, Molecule, ParallelScfConfig};
use scioto_sim::{LatencyModel, Machine, MachineConfig, SpeedModel};
use scioto_tce::{run_contraction, ContractionConfig, SparsityPattern, TceLoadBalance};

fn machine(p: usize, spec: &RunSpec) -> MachineConfig {
    spec.machine(p, LatencyModel::cluster(), SpeedModel::hetero_cluster(p))
}

fn scf_run(p: usize, atoms: usize, lb: LoadBalance, spec: &RunSpec) -> u64 {
    let policy = spec.policy;
    let basis = BasisSet::even_tempered(Molecule::h_chain(atoms), 2, 0.4, 3.5);
    let out = Machine::run(machine(p, spec), move |ctx| {
        let mut cfg = ParallelScfConfig {
            lb,
            block: 4,
            chunk: 4,
            victim: Some(policy.victim),
            td_batch: Some(policy.td_batch),
            ..Default::default()
        };
        // Fixed-work benchmark: 8 Roothaan iterations (the figure compares
        // load balancers, not convergence paths).
        cfg.scf.max_iters = 8;
        cfg.scf.tol = 0.0;
        run_scf_parallel(ctx, &basis, &cfg).energy
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

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let spec = RunSpec::from_args(&args);
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
            let mut cfg = ParallelScfConfig {
                lb: LoadBalance::Scioto,
                block: 4,
                chunk: 4,
                victim: Some(policy.victim),
                td_batch: Some(policy.td_batch),
                ..Default::default()
            };
            cfg.scf.max_iters = 2;
            cfg.scf.tol = 0.0;
            run_scf_parallel(ctx, &basis, &cfg).energy
        });
        spec.observe(&out.report);
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
    bench.write_if_requested(&args);

    let base = results[0].1;
    let runtime_rows: Vec<Vec<String>> = results
        .iter()
        .map(|(p, t)| {
            vec![
                p.to_string(),
                secs(t[0]),
                secs(t[1]),
                secs(t[2]),
                secs(t[3]),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Figure 6: raw runtime (virtual seconds, heterogeneous cluster)",
            &["P", "SCF", "SCF-Original", "TCE", "TCE-Original"],
            &runtime_rows,
        )
    );

    let speedup_rows: Vec<Vec<String>> = results
        .iter()
        .map(|(p, t)| {
            let s = |i: usize| format!("{:.2}", base[i] as f64 / t[i] as f64);
            vec![p.to_string(), s(0), s(1), s(2), s(3)]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Figure 5: parallel speedup (vs. each implementation's P = 1 run)",
            &["P", "SCF", "SCF-Original", "TCE", "TCE-Original"],
            &speedup_rows,
        )
    );
    println!(
        "\npaper: Scioto versions keep scaling; the global-counter originals flatten \
         (TCE early, SCF past ~32 processes)."
    );
}
