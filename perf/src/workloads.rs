//! The five workloads: what each one's set-up, one rep and output check
//! are. Everything here calls the crates' public functions with the
//! shipping defaults (split queue, locality victims, batched termination
//! detection, coalesced startup, `Engine::Auto`; virtual-time machines add
//! the `cluster_nearfar` latency tiers, `hetero_cluster` speeds and the
//! tree barrier, as the figure binaries do).

use scioto::{ProcessStats, StatsSummary};
use scioto_det::MonoClock;
use scioto_scf::{run_scf_parallel, scf_sequential, BasisSet, ParallelScfConfig, ScfConfig};
use scioto_sim::{
    BarrierKind, LatencyModel, Machine, MachineConfig, Report, SpeedModel, Trace, TraceConfig,
};
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::sequential::count_tree;
use scioto_uts::{TreeParams, TreeStats};

use crate::inputs::{jittered_h_chain_basis, sized_geometric_tree};
use crate::pipeline;
use crate::spans::{SpanId, Spans};

/// Which program a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `run_scioto_uts` on a virtual-time machine.
    UtsVt,
    /// `run_scioto_uts` on real threads.
    UtsConc,
    /// `run_scf_parallel` on a virtual-time machine.
    ScfVt,
    /// Traced UTS, then the whole trace tool chain over the recording.
    Pipeline,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Program.
    pub kind: Kind,
    /// Virtual ranks, or real threads for [`Kind::UtsConc`].
    pub ranks: usize,
}

/// All workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "uts_vt_p64",
        kind: Kind::UtsVt,
        ranks: 64,
    },
    Workload {
        name: "uts_vt_p256",
        kind: Kind::UtsVt,
        ranks: 256,
    },
    Workload {
        name: "scf_vt_p16",
        kind: Kind::ScfVt,
        ranks: 16,
    },
    Workload {
        name: "uts_conc_p2",
        kind: Kind::UtsConc,
        ranks: 2,
    },
    Workload {
        name: "trace_pipeline_p16",
        kind: Kind::Pipeline,
        ranks: 16,
    },
];

/// Input sizes and repetition floors. `FULL` is the benchmark; `QUICK` is
/// the same code on toy inputs, for the smoke test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Node count of the UTS tree (the `medium` preset's 374 566).
    pub uts_nodes: u64,
    /// Its depth cutoff.
    pub uts_depth: u32,
    /// Node count of the pipeline's traced tree (the `small` preset's).
    pub pipe_nodes: u64,
    /// Its depth cutoff.
    pub pipe_depth: u32,
    /// Hydrogen atoms in the SCF chain (two basis functions each).
    pub scf_atoms: usize,
    /// Fixed Roothaan iterations (one `process` phase each).
    pub scf_iters: usize,
    /// Set-ups per run, each of its own input; `setup_s` is the median.
    pub setups: usize,
    /// Machine seeds each input is run under. Reps cycle over
    /// `setups × machine_seeds` slots, and one full cycle is the fewest
    /// reps a run makes, whatever `--seconds` says.
    pub machine_seeds: usize,
    /// Host time one calibrated probe sample should take.
    pub probe_sample_ns: u64,
}

/// The benchmark's sizes.
pub const FULL: Scale = Scale {
    uts_nodes: 374_566,
    uts_depth: 11,
    pipe_nodes: 47_490,
    pipe_depth: 10,
    scf_atoms: 16,
    scf_iters: 4,
    setups: 3,
    machine_seeds: 3,
    probe_sample_ns: 20_000_000,
};

/// Toy sizes for `--quick`.
pub const QUICK: Scale = Scale {
    uts_nodes: 4_000,
    uts_depth: 8,
    pipe_nodes: 2_000,
    pipe_depth: 7,
    scf_atoms: 6,
    scf_iters: 2,
    setups: 1,
    machine_seeds: 2,
    probe_sample_ns: 500_000,
};

/// Tally of output checks; feeds `attempted` / `failed` / `correct`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
}

impl Checks {
    /// Record one check; a failure is reported on stderr at once.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// What a program computed, compared against the sequential reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Answer {
    /// Merged UTS traversal statistics.
    Tree(TreeStats),
    /// SCF total energy after the fixed iteration count.
    Energy(f64),
}

/// A generated input.
#[derive(Clone, Debug)]
pub enum Input {
    /// UTS tree.
    Tree(TreeParams),
    /// SCF basis set (molecule included).
    Basis(BasisSet),
}

/// One completed run of a workload's program.
#[derive(Debug)]
pub struct Run {
    /// Host time of the rep.
    pub wall_ns: u64,
    /// Work units done: tasks executed, or trace events for the pipeline.
    pub units: u64,
    /// `Report.makespan_ns`.
    pub makespan_ns: u64,
    /// Tasks executed, summed over ranks.
    pub tasks: u64,
    /// What the program computed.
    pub answer: Answer,
    /// Named kernel and runtime counts; byte-identical between reps of a
    /// virtual-time workload.
    pub counts: Vec<(&'static str, f64)>,
    /// The program's own recording, when it ran with tracing on.
    pub trace: Option<Trace>,
    /// Pipeline only: host ns and work per stage.
    pub stages: Vec<pipeline::Stage>,
}

/// Where bench-side spans of a rep go, if anywhere.
#[derive(Clone, Copy)]
pub struct Rec<'a> {
    /// The recorder.
    pub spans: &'a Spans,
    /// Rep id stamped on every span.
    pub rep: u32,
}

/// Result of set-up: the input, its reference answer, the baselines.
#[derive(Debug)]
pub struct Prepared {
    /// Generated from the seed.
    pub input: Input,
    /// Sequential reference result.
    pub expect: Answer,
    /// Makespan of the same input on one virtual rank.
    pub base_makespan_ns: u64,
    /// `UtsConc` only: makespan of the same input on a virtual machine
    /// with as many ranks as the run has threads — the model's prediction
    /// for the real-thread run. Equals `base_makespan_ns` otherwise.
    pub model_makespan_ns: u64,
}

/// Seed of the `index`-th input that `--seed seed` stands for. One run
/// sets up `Scale::setups` independent inputs of the same size and cycles
/// its reps over them: what a rep costs depends on the tree's shape by up
/// to ±10 %, and a figure taken over several trees depends on it less.
pub fn input_seed(seed: u64, index: usize) -> u64 {
    seed * 100 + index as u64
}

/// Machine seed (it drives steal-victim choice) of rep slot `slot`. The
/// virtual makespan at 256 ranks moves ±10 % with this seed alone, so a
/// run cycles over several and reports their mean.
pub fn machine_seed(seed: u64, slot: usize) -> u64 {
    42 + seed * 100 + slot as u64
}

/// The machine every virtual-time rep runs on.
pub fn vt_machine(ranks: usize, machine_seed: u64) -> MachineConfig {
    MachineConfig::virtual_time(ranks)
        .with_latency(LatencyModel::cluster_nearfar())
        .with_speed(SpeedModel::hetero_cluster(ranks))
        .with_barrier(BarrierKind::Tree)
        .with_seed(machine_seed)
}

/// The machine a workload's reps run on.
pub fn machine(w: &Workload, machine_seed: u64) -> MachineConfig {
    match w.kind {
        Kind::UtsConc => MachineConfig::concurrent(w.ranks).with_seed(machine_seed),
        _ => vt_machine(w.ranks, machine_seed),
    }
}

/// Tracing on, with rings large enough that no workload drops an event
/// (rings grow on demand, so the bound costs nothing until used).
pub fn trace_on() -> TraceConfig {
    TraceConfig::enabled().with_capacity(1 << 26)
}

/// The trace setting of a workload's *timed* reps: off, except that the
/// pipeline's program is a traced run by definition.
pub fn timed_trace(w: &Workload) -> TraceConfig {
    match w.kind {
        Kind::Pipeline => trace_on(),
        _ => TraceConfig::disabled(),
    }
}

fn sim_counts(report: &Report) -> Vec<(&'static str, f64)> {
    let e = report.events;
    vec![
        ("sim.yields", e.yields as f64),
        ("sim.blocks", e.blocks as f64),
        ("sim.unblocks", e.unblocks as f64),
        ("sim.messages", e.messages as f64),
    ]
}

/// The runtime's own per-phase counters as named counts.
pub fn core_counts(s: &StatsSummary) -> Vec<(&'static str, f64)> {
    let t = s.totals;
    vec![
        ("core.tasks_executed", t.tasks_executed as f64),
        ("core.steals_attempted", t.steals_attempted as f64),
        ("core.steals_succeeded", t.steals_succeeded as f64),
        ("core.tasks_stolen", t.tasks_stolen as f64),
        ("core.td_waves_max", s.td_waves_max as f64),
        ("core.dirty_marks_sent", t.dirty_marks_sent as f64),
        ("core.dirty_marks_elided", t.dirty_marks_elided as f64),
        ("core.splits_released", t.splits_released as f64),
        ("core.splits_reclaimed", t.splits_reclaimed as f64),
        ("core.startup_rank_ns", t.startup_ns as f64),
    ]
}

/// Time `Machine::run` of `program` on `cfg`, with a span around the run
/// and one around each rank's call into the application.
fn timed_run<R: Send>(
    cfg: MachineConfig,
    rec: Option<Rec>,
    parent: Option<SpanId>,
    entry: &str,
    program: impl Fn(&scioto_sim::Ctx) -> R + Send + Sync,
) -> (u64, scioto_sim::RunOutput<R>) {
    let run_span = rec.map(|r| r.spans.begin("sim.Machine::run", parent, r.rep));
    let clock = MonoClock::new();
    let out = Machine::run(cfg, |ctx| match rec {
        Some(r) => r.spans.within(entry, run_span, r.rep, |_| program(ctx)),
        None => program(ctx),
    });
    let wall_ns = clock.now_ns();
    if let (Some(r), Some(id)) = (rec, run_span) {
        r.spans.end(id);
    }
    (wall_ns, out)
}

/// One UTS traversal of `tree` on `cfg`.
pub fn run_uts(
    cfg: MachineConfig,
    tree: TreeParams,
    rec: Option<Rec>,
    parent: Option<SpanId>,
) -> Run {
    let (wall_ns, out) = timed_run(cfg, rec, parent, "uts.run_scioto_uts", move |ctx| {
        run_scioto_uts(ctx, &SciotoUtsConfig::new(tree))
    });
    let mut total = TreeStats::default();
    let mut per_rank: Vec<ProcessStats> = Vec::with_capacity(out.results.len());
    for (t, s) in &out.results {
        total.merge(t);
        per_rank.push(*s);
    }
    let summary = StatsSummary::from_ranks(&per_rank);
    let mut counts = sim_counts(&out.report);
    counts.extend(core_counts(&summary));
    Run {
        wall_ns,
        units: summary.totals.tasks_executed,
        makespan_ns: out.report.makespan_ns,
        tasks: summary.totals.tasks_executed,
        answer: Answer::Tree(total),
        counts,
        trace: out.report.trace,
        stages: Vec::new(),
    }
}

fn scf_config(scale: &Scale) -> ParallelScfConfig {
    ParallelScfConfig {
        block: 4,
        chunk: 4,
        scf: fixed_iterations(scale),
        ..Default::default()
    }
}

/// `scf_iters` Roothaan iterations, never stopping early: the workload is
/// a fixed amount of Fock-build work, not a convergence path.
fn fixed_iterations(scale: &Scale) -> ScfConfig {
    ScfConfig {
        max_iters: scale.scf_iters,
        tol: 0.0,
        ..Default::default()
    }
}

/// One fixed-iteration SCF of `basis` on `cfg`.
pub fn run_scf(
    cfg: MachineConfig,
    basis: &BasisSet,
    scale: &Scale,
    rec: Option<Rec>,
    checks: &mut Checks,
) -> Run {
    let scf = scf_config(scale);
    let (wall_ns, out) = timed_run(cfg, rec, None, "scf.run_scf_parallel", |ctx| {
        run_scf_parallel(ctx, basis, &scf)
    });
    let tasks: u64 = out.results.iter().map(|r| r.tasks_executed).sum();
    let first = &out.results[0];
    checks.check(
        tasks == (first.iterations * first.tasks_per_iteration) as u64,
        || {
            format!(
                "scf executed {tasks} tasks, expected {} iterations x {} tasks",
                first.iterations, first.tasks_per_iteration
            )
        },
    );
    checks.check(out.results.iter().all(|r| r.energy == first.energy), || {
        "scf ranks disagree on the energy".into()
    });
    let mut counts = sim_counts(&out.report);
    counts.push(("core.tasks_executed", tasks as f64));
    Run {
        wall_ns,
        units: tasks,
        makespan_ns: out.report.makespan_ns,
        tasks,
        answer: Answer::Energy(first.energy),
        counts,
        trace: out.report.trace,
        stages: Vec::new(),
    }
}

/// Generate one input of `w` from `seed` (an [`input_seed`]).
pub fn generate(w: &Workload, scale: &Scale, seed: u64) -> Input {
    match w.kind {
        Kind::UtsVt | Kind::UtsConc => {
            Input::Tree(sized_geometric_tree(seed, scale.uts_depth, scale.uts_nodes))
        }
        Kind::Pipeline => Input::Tree(sized_geometric_tree(
            seed,
            scale.pipe_depth,
            scale.pipe_nodes,
        )),
        Kind::ScfVt => Input::Basis(jittered_h_chain_basis(seed, scale.scf_atoms)),
    }
}

/// Run `w`'s program once on `input` on the machine seeded
/// `machine_seed`, with the program's recorder set by `trace`.
pub fn rep(
    w: &Workload,
    scale: &Scale,
    machine_seed: u64,
    input: &Input,
    trace: TraceConfig,
    rec: Option<Rec>,
    checks: &mut Checks,
) -> Run {
    let cfg = machine(w, machine_seed).with_trace(trace);
    match (w.kind, input) {
        (Kind::UtsVt | Kind::UtsConc, Input::Tree(tree)) => run_uts(cfg, *tree, rec, None),
        (Kind::ScfVt, Input::Basis(basis)) => run_scf(cfg, basis, scale, rec, checks),
        // The pipeline's program is the traced run plus the tool chain;
        // with the recorder off only the bare run is left, which is what
        // its tracing overhead is measured against.
        (Kind::Pipeline, Input::Tree(tree)) if trace.enabled => {
            pipeline::pass(cfg, *tree, rec, checks)
        }
        (Kind::Pipeline, Input::Tree(tree)) => run_uts(cfg, *tree, rec, None),
        _ => unreachable!("generate() pairs every kind with its input type"),
    }
}

/// Check one rep's output against the reference.
pub fn check_answer(run: &Run, prepared: &Prepared, checks: &mut Checks) {
    match (run.answer, prepared.expect) {
        (Answer::Tree(got), Answer::Tree(want)) => {
            checks.check(got.nodes == want.nodes, || {
                format!("uts counted {} nodes, reference {}", got.nodes, want.nodes)
            });
            checks.check(got.leaves == want.leaves, || {
                format!(
                    "uts counted {} leaves, reference {}",
                    got.leaves, want.leaves
                )
            });
            checks.check(got.max_depth == want.max_depth, || {
                format!(
                    "uts max depth {}, reference {}",
                    got.max_depth, want.max_depth
                )
            });
            checks.check(run.tasks == want.nodes, || {
                format!("uts executed {} tasks for {} nodes", run.tasks, want.nodes)
            });
        }
        (Answer::Energy(got), Answer::Energy(want)) => {
            checks.check((got - want).abs() < 1e-8, || {
                format!("scf energy {got} differs from the sequential {want}")
            });
        }
        _ => unreachable!("a workload's reps and reference share one answer type"),
    }
}

/// Set up the `index`-th input of `w` for `seed`: generate it, compute
/// the sequential reference and the single-rank virtual baseline, and
/// run two discarded warm-up reps.
pub fn setup(
    w: &Workload,
    scale: &Scale,
    seed: u64,
    index: usize,
    checks: &mut Checks,
) -> Prepared {
    let input = generate(w, scale, input_seed(seed, index));
    let mseed = machine_seed(seed, 0);
    let (expect, base) = match &input {
        Input::Tree(tree) => (
            Answer::Tree(count_tree(tree)),
            run_uts(vt_machine(1, mseed), *tree, None, None),
        ),
        Input::Basis(basis) => (
            Answer::Energy(scf_sequential(basis, &fixed_iterations(scale)).energy),
            run_scf(vt_machine(1, mseed), basis, scale, None, checks),
        ),
    };
    let model_makespan_ns = match (w.kind, &input) {
        (Kind::UtsConc, Input::Tree(tree)) => {
            run_uts(vt_machine(w.ranks, mseed), *tree, None, None).makespan_ns
        }
        _ => base.makespan_ns,
    };
    let prepared = Prepared {
        input,
        expect,
        base_makespan_ns: base.makespan_ns,
        model_makespan_ns,
    };
    check_answer(&base, &prepared, checks);
    for _ in 0..2 {
        rep(
            w,
            scale,
            mseed,
            &prepared.input,
            timed_trace(w),
            None,
            &mut Checks::default(),
        );
    }
    prepared
}

/// True when reps of `w` must repeat every virtual-time figure exactly.
pub fn deterministic(w: &Workload) -> bool {
    w.kind != Kind::UtsConc
}
