//! `scioto concurrent_obs` — wall-clock observability gate for the
//! concurrent backend: run the seeded UTS workload under
//! `ExecMode::Concurrent` (real free-running threads), measure the tracing overhead, and export/verify the full
//! observability surface — timestamped JSONL/Chrome traces, blame
//! decomposition, and the happens-before race check.
//!
//! The overhead measurement alternates untraced and traced runs for
//! `--reps` repetitions and compares the *minimum* wall time of each
//! (the minimum is the standard low-noise estimator for "how fast can
//! this go"). What is gated is the part tracing controls: the wall time
//! tracing added, per event offered to the recorder — `(traced_min −
//! untraced_min) / events` in ns, where `events` counts the events kept,
//! dropped, and merged into `LocalAccess` window summaries — asserted to
//! stay within `--max-event-ns` so a tracing hot-path regression fails CI
//! loudly. The traced ÷ untraced ratio is
//! printed too but not gated: it rises whenever the *untraced* run gets
//! faster, which is no fault of the tracer.
//!
//! Options: `--ranks N` (default 4), `--app uts|scf` (default uts: the
//! seeded unbalanced tree; scf runs the fig5-style Hartree-Fock task
//! pool, sized by `--atoms N`, default 6), `--tree
//! tiny|small|medium|large` (default tiny), `--seed S` (workload seed,
//! default 42), `--reps N` (default 5), `--max-event-ns X` (default 150;
//! wall timing on shared CI machines is noisy, so the band is
//! deliberately generous — the gate exists to catch order-of-magnitude
//! perturbation, not 5% drift), plus the policy and trace/check flags of
//! [`RunSpec`] (`--trace-out <path>.json` writes the Chrome export).
//!
//! Exit 1 when the overhead band or a blame/report invariant is violated
//! (check failures leave through [`RunSpec::observe`] with its usual
//! codes).

use scioto_det::MonoClock;
use scioto_scf::{run_scf_parallel, BasisSet, LoadBalance, Molecule};
use scioto_sim::{Machine, MachineConfig, Report, TraceConfig, MERGED_GAUGE};
use scioto_uts::scioto_driver::run_scioto_uts;
use scioto_uts::TreeParams;

use crate::front::{Exit, Outcome};
use crate::{tree_arg, Args, PolicyFlags, RunSpec};

/// Which workload drives the concurrent machine.
#[derive(Clone, Copy)]
enum App {
    /// Seeded unbalanced tree search (`--tree` selects the preset).
    Uts(TreeParams),
    /// Fig5-style Hartree-Fock Fock-build task pool (`--atoms` atoms).
    Scf { atoms: usize },
}

/// One concurrent UTS run; returns the report and the measured wall time
/// of the whole `Machine::run` (thread spawn through trace collection).
fn run_once(
    ranks: usize,
    seed: u64,
    app: App,
    policy: PolicyFlags,
    trace: Option<TraceConfig>,
) -> (Report, u64) {
    let mut cfg = MachineConfig::concurrent(ranks)
        .with_seed(seed)
        .with_barrier(policy.barrier);
    if let Some(t) = trace {
        cfg = cfg.with_trace(t);
    }
    let clock = MonoClock::new();
    let out = match app {
        App::Uts(params) => {
            Machine::run(cfg, move |ctx| run_scioto_uts(ctx, &policy.uts(params)).0).report
        }
        App::Scf { atoms } => {
            let basis = BasisSet::even_tempered(Molecule::h_chain(atoms), 2, 0.4, 3.5);
            Machine::run(cfg, move |ctx| {
                run_scf_parallel(ctx, &basis, &policy.scf(LoadBalance::Scioto, 4)).energy
            })
            .report
        }
    };
    (out, clock.now_ns())
}

pub fn run(args: &Args) -> Outcome {
    let spec = RunSpec::from_args(args);
    let policy = spec.policy;
    let ranks = args.count("ranks", 4);
    let seed: u64 = args.get("seed", 42);
    let reps = args.count("reps", 5);
    let max_event_ns: f64 = args.get("max-event-ns", 150.0);
    let (tree, params) = tree_arg(args, "tree", "tiny");
    let scf = App::Scf { atoms: args.count("atoms", 6) };
    let apps = [("uts", App::Uts(params)), ("scf", scf)];
    let app = args.choice("app", &apps).unwrap_or(App::Uts(params));
    let trace_cfg = spec.trace_config();

    // Overhead measurement: alternate untraced/traced so slow machine
    // drift (thermal, noisy neighbors) hits both arms equally.
    let mut untraced_ns = Vec::with_capacity(reps);
    // (wall ns, events emitted) of each traced run: the event count of a
    // free-running machine differs a little from rep to rep.
    let mut traced_ns = Vec::with_capacity(reps);
    let mut traced_report = None;
    for rep in 0..reps {
        let (_, ns) = run_once(ranks, seed, app, policy, None);
        untraced_ns.push(ns);
        let (report, ns) = run_once(ranks, seed, app, policy, Some(trace_cfg));
        let trace = report.trace.as_ref().expect("traced run carries a trace");
        // Records offered to the recorder: those kept, those a full ring
        // dropped and those merged into `LocalAccess` window summaries.
        let merged = trace.gauges.iter().filter_map(|g| g.get(MERGED_GAUGE)).map(|g| g.sum);
        let events = trace.total_events() as u64 + trace.dropped.iter().sum::<u64>() + merged.sum::<u64>();
        traced_ns.push((ns, events));
        eprintln!(
            "rep {}/{reps}: untraced {:.3} ms, traced {:.3} ms",
            rep + 1,
            untraced_ns[rep] as f64 / 1e6,
            ns as f64 / 1e6
        );
        traced_report = Some(report);
    }
    let untraced_min = *untraced_ns.iter().min().unwrap();
    let (traced_min, events) = *traced_ns.iter().min().unwrap();
    let overhead = traced_min as f64 / untraced_min.max(1) as f64;
    let event_ns = traced_min.saturating_sub(untraced_min) as f64 / events.max(1) as f64;
    let workload = match app {
        App::Uts(_) => format!("uts/{tree}"),
        App::Scf { atoms } => format!("scf/{atoms} atoms"),
    };
    println!(
        "concurrent tracing overhead: traced {:.3} ms vs untraced {:.3} ms \
         (min of {reps} reps, {ranks} ranks, {workload}) -> {overhead:.2}x, \
         {event_ns:.1} ns/event over {events} offered events (budget {max_event_ns:.1} ns/event)",
        traced_min as f64 / 1e6,
        untraced_min as f64 / 1e6,
    );
    if event_ns > max_event_ns {
        return Err(Exit::failed(format!(
            "tracing added {event_ns:.1} ns per event, over the --max-event-ns budget \
             {max_event_ns:.1}"
        )));
    }

    // Verify the observability surface on the last traced run.
    let report = traced_report.expect("--reps is at least 1");
    let trace = report
        .trace
        .as_ref()
        .expect("traced concurrent run carries a trace");
    if !trace.wall_clock {
        return Err(Exit::failed("concurrent trace is not wall-clock marked"));
    }
    if let Some(r) = report.rank_clock_ns.iter().position(|&ns| ns == 0) {
        return Err(Exit::failed(format!(
            "rank {r} reports a zero wall-clock span (Report::rank_clock_ns not filled)"
        )));
    }
    let analysis = scioto_analyze::analyze(trace);
    for w in &analysis.warnings {
        if w.contains("blame invariant") {
            return Err(Exit::failed(w.clone()));
        }
        eprintln!("analysis WARNING: {w}");
    }
    println!(
        "blame decomposition exact on all {} ranks (each rank's categories sum to \
         its measured thread span; makespan {:.3} ms wall)",
        analysis.ranks,
        analysis.makespan_ns as f64 / 1e6
    );

    spec.observe(&report)
}
