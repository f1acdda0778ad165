//! One workload in this process: the timed run (end-to-end metrics, the
//! program's recorder off, no spans) and the traced run (per-layer
//! metrics). Closed loop by nature — a batch runtime does one run at a
//! time, and the next rep starts when the previous one returns.

use std::collections::BTreeMap;
use std::path::PathBuf;

use scioto_analyze::provenance::{self, NEAR_RADIUS};
use scioto_analyze::report::STARTUP_GAUGE;
use scioto_analyze::{analyze, decompose, spans_for_rank, Blame, Category, Provenance, CATEGORIES};
use scioto_det::MonoClock;
use scioto_sim::{Trace, TraceConfig, TraceEvent};

use crate::hostref::HostRef;
use crate::inputs::{jittered_h_chain_basis, sized_geometric_tree};
use crate::json::{bench_v1, result_line};
use crate::pipeline::{self, Stage, STAGES};
use crate::probes;
use crate::spans::{to_jsonl, Spans};
use crate::spec::{end_to_end, per_layer, Metric};
use crate::stats::{median, p75_if_supported, quartiles};
use crate::workloads::{
    check_answer, deterministic, input_seed, machine_seed, rep, setup, timed_trace, trace_on,
    vt_machine, Checks, Kind, Prepared, Rec, Run, Scale, Workload, FULL, QUICK,
};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input and machine seed.
    pub seed: u64,
    /// How long the timed reps go on for.
    pub seconds: f64,
    /// Toy inputs (the smoke test) instead of the benchmark's sizes.
    pub quick: bool,
}

impl Options {
    fn scale(&self) -> Scale {
        if self.quick {
            QUICK
        } else {
            FULL
        }
    }
}

/// Named metric values in report order.
pub type Values = Vec<(String, f64)>;

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks made and failed.
    pub checks: Checks,
    /// The declared metrics of this mode, in declaration order.
    pub metrics: Values,
    /// Further values for the `BENCH_*.json` file only.
    pub extra: Values,
}

/// Directory the harness writes into: `perf/out`, wherever the package
/// was built; quick runs go to `perf/out/quick` so the smoke test never
/// overwrites a real result.
pub fn out_dir(quick: bool) -> PathBuf {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if quick {
        out.join("quick")
    } else {
        out
    }
}

/// `VmHWM` of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A virtual-time workload must repeat its makespan and every count
/// exactly when the same input runs again under the same machine seed.
fn check_repeats(w: &Workload, run: &Run, first: &Run, checks: &mut Checks) {
    if deterministic(w) {
        checks.check(
            run.makespan_ns == first.makespan_ns && run.counts == first.counts,
            || {
                format!(
                    "virtual-time rep differs from its earlier self: makespan {} vs {}, counts {:?} vs {:?}",
                    run.makespan_ns, first.makespan_ns, run.counts, first.counts
                )
            },
        );
    }
}

fn sim_makespan_us(w: &Workload, prepared: &Prepared, first: &Run) -> f64 {
    let ns = match w.kind {
        Kind::UtsConc => prepared.model_makespan_ns,
        _ => first.makespan_ns,
    };
    ns as f64 / 1e3
}

/// The timed run: set up `scale.setups` inputs, then rep until `seconds`
/// have passed (and every slot has run once), checking every rep. Rep `i`
/// runs slot `i % slots`: input `slot % setups` under machine seed
/// `slot`, so a later visit to a slot repeats an earlier rep exactly.
pub fn timed(o: &Options) -> Outcome {
    let w = &o.workload;
    let scale = o.scale();
    let mut checks = Checks::default();

    let clock = MonoClock::new();
    // Every timed interval lies between two passes of the host-speed
    // reference; `lap()` says how much slower than the reference host this
    // one ran during it.
    let mut host = HostRef::new();
    let mut setup_wall_s = Vec::new();
    let mut setup_slow = Vec::new();
    let mut prepared = Vec::new();
    for index in 0..scale.setups {
        let t0 = clock.now_ns();
        prepared.push(setup(w, &scale, o.seed, index, &mut checks));
        setup_wall_s.push((clock.now_ns() - t0) as f64 / 1e9);
        setup_slow.push(host.lap());
    }
    // Sampled here as well as at exit: the reps below are bounded by
    // time, so their number — and with it what the allocator has
    // retained — depends on how fast the host is. Set-up is the same work
    // every time and already holds six reps of the program.
    let rss_after_setup = peak_rss_mb();
    // Bracketing the timed reps only: a process's first seconds run
    // faster than its steady state here, whatever it does.
    let calib_before = host.steady_ms();

    let slots = scale.setups * scale.machine_seeds;
    let budget_ns = (o.seconds * 1e9) as u64;
    let start = clock.now_ns();
    let mut runs: Vec<Run> = Vec::new();
    let mut slow = Vec::new();
    while runs.len() < slots || clock.now_ns() - start < budget_ns {
        let slot = runs.len() % slots;
        let input = &prepared[slot % scale.setups];
        let mseed = machine_seed(o.seed, slot);
        let mut run = rep(
            w,
            &scale,
            mseed,
            &input.input,
            timed_trace(w),
            None,
            &mut checks,
        );
        slow.push(host.lap());
        check_answer(&run, input, &mut checks);
        if let Some(earlier) = runs.len().checked_sub(slots) {
            check_repeats(w, &run, &runs[earlier], &mut checks);
        }
        run.trace = None;
        runs.push(run);
    }
    let calib_after = host.steady_ms();

    // Host times at reference speed: wall ÷ the interval's slowdown.
    let wall_s: Vec<f64> = runs.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let raw_rate: Vec<f64> = (0..runs.len())
        .map(|i| runs[i].units as f64 / wall_s[i])
        .collect();
    let rate: Vec<f64> = raw_rate.iter().zip(&slow).map(|(r, s)| r * s).collect();
    let setup_s: Vec<f64> = setup_wall_s
        .iter()
        .zip(&setup_slow)
        .map(|(wall, s)| wall / s)
        .collect();
    let cycle = &runs[..slots];
    let mean = |f: &dyn Fn(usize) -> f64| (0..slots).map(f).sum::<f64>() / slots as f64;
    let (q1, q2, q3) = quartiles(&wall_s);
    let metrics = vec![
        ("host_work_per_s".to_string(), median(&rate)),
        (
            "sim_makespan_us".to_string(),
            mean(&|slot| sim_makespan_us(w, &prepared[slot % scale.setups], &cycle[slot])),
        ),
        ("setup_s".to_string(), median(&setup_s)),
    ];
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let mut extra = vec![
        ("bench.reps".to_string(), runs.len() as f64),
        ("bench.raw_work_per_s".to_string(), median(&raw_rate)),
        ("bench.raw_setup_s".to_string(), median(&setup_wall_s)),
        ("bench.host_slowdown".to_string(), median(&slow)),
        (
            "bench.units_per_rep".to_string(),
            mean(&|slot| cycle[slot].units as f64),
        ),
        ("bench.rep_wall_q1_s".to_string(), q1),
        ("bench.rep_wall_median_s".to_string(), q2),
        ("bench.rep_wall_q3_s".to_string(), q3),
        (
            "bench.rep_wall_max_over_median".to_string(),
            max(&wall_s) / q2,
        ),
        (
            "bench.setup_max_over_median".to_string(),
            max(&setup_wall_s) / median(&setup_wall_s),
        ),
        ("bench.peak_rss_mb".to_string(), rss_after_setup),
        ("bench.peak_rss_at_exit_mb".to_string(), peak_rss_mb()),
        ("bench.calib_ms".to_string(), calib_before),
        (
            "bench.calib_drift".to_string(),
            (calib_after - calib_before).abs() / calib_before,
        ),
        (
            "failed_share".to_string(),
            checks.failed as f64 / checks.attempted.max(1) as f64,
        ),
    ];
    if let Some(p75) = p75_if_supported(&wall_s) {
        extra.push(("bench.rep_wall_p75_s".to_string(), p75));
    }
    // The per-rep series, so a slow-rep pattern is diffable run to run.
    extra.extend(
        setup_wall_s
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("bench.setup_s_{i}"), *s)),
    );
    for (i, (wall, s)) in wall_s.iter().zip(&slow).enumerate() {
        extra.push((format!("bench.rep_wall_s_{i:03}"), *wall));
        extra.push((format!("bench.rep_slowdown_{i:03}"), *s));
    }
    Outcome {
        checks,
        metrics,
        extra,
    }
}

/// What the traced run takes from the program's own recording.
struct Recording {
    /// Σ rank elapsed time.
    rank_time_ns: u64,
    /// Blame summed over ranks; totals `rank_time_ns`.
    blame: Blame,
    /// Σ per-rank startup stamps.
    startup_rank_ns: u64,
    provenance: Provenance,
    /// Critical-path length.
    critpath_ns: u64,
    /// Analyzer data-quality warnings, blame-invariant violations included.
    warnings: Vec<String>,
}

/// Read `trace` back through `scioto_analyze`. With `walk` the whole
/// `analyze()` report; without, the same per-rank blame, startup gauge
/// and provenance passes but no critical-path walk, whose length is the
/// makespan by construction. The walk is skipped on `uts_conc_p2` only:
/// on its recording (2 ranks × 200 k task spans) it alone takes 154 s
/// (README, baselines), which no run of this harness may.
fn read_recording(trace: &Trace, walk: bool) -> Recording {
    if walk {
        let report = analyze(trace);
        return Recording {
            rank_time_ns: report.elapsed_ns.iter().sum(),
            blame: report.total_blame(),
            startup_rank_ns: report.startup_ns.iter().sum(),
            critpath_ns: report.critical_path.length_ns,
            provenance: report.provenance,
            warnings: report.warnings,
        };
    }
    let mut blame = Blame::default();
    let mut warnings = Vec::new();
    let (mut rank_time_ns, mut startup_rank_ns, mut makespan_ns) = (0, 0, 0);
    for rank in 0..trace.nranks() {
        let elapsed = trace.elapsed_ns(rank);
        let own = decompose(&spans_for_rank(trace.events_for(rank)), elapsed);
        if own.total() != elapsed {
            warnings.push(format!("blame invariant violated on rank {rank}"));
        }
        blame.merge(&own);
        rank_time_ns += elapsed;
        makespan_ns = makespan_ns.max(elapsed);
        startup_rank_ns += trace.gauges[rank].get(STARTUP_GAUGE).map_or(0, |g| g.last);
    }
    Recording {
        rank_time_ns,
        blame,
        startup_rank_ns,
        provenance: provenance::analyze(trace),
        critpath_ns: makespan_ns,
        warnings,
    }
}

/// Counts the runtime's counters would have given, recovered from the
/// recording — for programs (SCF) whose public entry point does not
/// return its `ProcessStats`. Dirty marks leave no trace event.
fn counts_from_trace(trace: &Trace) -> Vec<(&'static str, f64)> {
    let (mut attempted, mut succeeded, mut stolen) = (0u64, 0u64, 0u64);
    let (mut released, mut reclaimed, mut waves) = (0u64, 0u64, 0u64);
    for rank in 0..trace.nranks() {
        let mut rank_waves = 0u64;
        for e in trace.events_for(rank) {
            match e.event {
                TraceEvent::StealAttempt { got, .. } => {
                    attempted += 1;
                    succeeded += u64::from(got > 0);
                    stolen += u64::from(got);
                }
                TraceEvent::SplitRelease { .. } => released += 1,
                TraceEvent::SplitReclaim { .. } => reclaimed += 1,
                TraceEvent::TdWave { wave, .. } => rank_waves = rank_waves.max(u64::from(wave)),
                _ => {}
            }
        }
        waves = waves.max(rank_waves);
    }
    vec![
        ("core.steals_attempted", attempted as f64),
        ("core.steals_succeeded", succeeded as f64),
        ("core.tasks_stolen", stolen as f64),
        ("core.td_waves_max", waves as f64),
        ("core.splits_released", released as f64),
        ("core.splits_reclaimed", reclaimed as f64),
    ]
}

fn value(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Median over `runs` of each pipeline stage's host ns, with its work.
fn median_stages(runs: &[&Run]) -> Vec<Stage> {
    (0..STAGES.len())
        .map(|i| {
            let ns: Vec<f64> = runs.iter().map(|r| r.stages[i].ns as f64).collect();
            Stage {
                ns: median(&ns) as u64,
                ..runs[0].stages[i]
            }
        })
        .collect()
}

/// The traced run, on the seed's first input and first machine seed:
/// three reps with the program's recorder off and three with it on,
/// alternating, all under bench-side spans; then the probe pass and one
/// pass of the trace tool chain.
pub fn traced(o: &Options) -> Outcome {
    let w = &o.workload;
    let scale = o.scale();
    let mut checks = Checks::default();
    // First, before anything has grown the allocator's pools.
    let spawn64 = probes::spawn_teardown_us(64);
    let spawn256 = probes::spawn_teardown_us(256);
    let prepared = setup(w, &scale, o.seed, 0, &mut checks);
    // After one set-up (references, baseline, two untraced reps), before
    // the recorder, the probes or the tool chain have allocated anything.
    let rss_after_setup = peak_rss_mb();
    let mut host = HostRef::new();
    let calib_before = host.steady_ms();
    let mseed = machine_seed(o.seed, 0);

    let spans = Spans::default();
    let mut plain: Vec<Run> = Vec::new();
    let mut recorded: Vec<Run> = Vec::new();
    for i in 0..3u32 {
        // Alternate which of the pair goes first.
        for record in [i % 2 == 1, i % 2 == 0] {
            let trace = if record {
                trace_on()
            } else {
                TraceConfig::disabled()
            };
            let rec = Some(Rec {
                spans: &spans,
                rep: 2 * i + u32::from(record),
            });
            let run = rep(w, &scale, mseed, &prepared.input, trace, rec, &mut checks);
            check_answer(&run, &prepared, &mut checks);
            if let Some(first) = plain.first().or(recorded.first()) {
                check_repeats(w, &run, first, &mut checks);
            }
            let list = if record { &mut recorded } else { &mut plain };
            // One recording is enough to analyze; drop the earlier ones.
            if let Some(prev) = list.last_mut() {
                prev.trace = None;
            }
            list.push(run);
        }
    }

    // The program's own recording, read back through the analyzer.
    let trace = recorded
        .last()
        .and_then(|r| r.trace.as_ref())
        .expect("a recorded rep");
    let report = read_recording(trace, deterministic(w));
    checks.check(report.warnings.is_empty(), || {
        format!("analysis warnings: {:?}", report.warnings)
    });
    let dropped: u64 = trace.dropped.iter().sum();
    checks.check(dropped == 0, || {
        format!("trace ring dropped {dropped} events")
    });
    let (rank_time, blame) = (report.rank_time_ns, report.blame);
    let share = |c: Category| blame.get(c) as f64 / rank_time as f64;
    let share_sum: f64 = CATEGORIES.iter().map(|&c| share(c)).sum();
    checks.check((share_sum - 1.0).abs() < 1e-9, || {
        format!("blame shares sum to {share_sum}, not 1")
    });
    if deterministic(w) {
        checks.check(report.critpath_ns == recorded[0].makespan_ns, || {
            "critical path does not span the makespan".into()
        });
    }

    // Counts: the runtime's own where the program returns them, from the
    // recording otherwise; the two must agree where both exist.
    let mut counts = plain[0].counts.clone();
    let from_trace = counts_from_trace(trace);
    for (name, v) in &from_trace {
        match value(&counts, name) {
            Some(own) => checks.check(own == *v || !deterministic(w), || {
                format!("{name}: runtime counted {own}, the recording shows {v}")
            }),
            None => counts.push((name, *v)),
        }
    }
    let startup_rank_ns = report.startup_rank_ns;
    if value(&counts, "core.startup_rank_ns").is_none() {
        counts.push(("core.startup_rank_ns", startup_rank_ns as f64));
    }
    let count = |name: &str| value(&counts, name).unwrap_or(0.0);

    let uts_tree = sized_geometric_tree(input_seed(o.seed, 0), scale.uts_depth, scale.uts_nodes);
    let basis = jittered_h_chain_basis(input_seed(o.seed, 0), scale.scf_atoms);
    let probed = probes::run_all(uts_tree, basis, scale.probe_sample_ns);

    // Tool-chain stage rates: from this workload's own passes if it is
    // the pipeline, from one pass over the pipeline's input otherwise.
    let extra_pass;
    let passes: Vec<&Run> = if w.kind == Kind::Pipeline {
        recorded.iter().collect()
    } else {
        let tree = sized_geometric_tree(input_seed(o.seed, 0), scale.pipe_depth, scale.pipe_nodes);
        let rec = Some(Rec {
            spans: &spans,
            rep: 6,
        });
        extra_pass = pipeline::pass(
            vt_machine(16, mseed).with_trace(trace_on()),
            tree,
            rec,
            &mut checks,
        );
        vec![&extra_pass]
    };
    let stages = median_stages(&passes);
    let pass_ns: u64 = stages.iter().map(|s| s.ns).sum();
    let calib_after = host.steady_ms();

    // The traced program's wall: for the pipeline that is its first
    // stage, set against a bare untraced run of the same tree.
    let program_wall = |r: &Run| r.stages.first().map_or(r.wall_ns, |s| s.ns) as f64;
    let plain_wall = median(&plain.iter().map(program_wall).collect::<Vec<_>>());
    let recorded_wall = median(&recorded.iter().map(program_wall).collect::<Vec<_>>());
    let events = trace.total_events() as f64;
    let all_walls: Vec<f64> = plain.iter().chain(&recorded).map(program_wall).collect();
    let kernel_events: f64 = ["sim.yields", "sim.blocks", "sim.unblocks", "sim.messages"]
        .iter()
        .map(|n| count(n))
        .sum();

    let mut got: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        got.insert(name.to_string(), v);
    };
    for (name, v) in &counts {
        put(name, *v);
    }
    put("sim.events_per_host_s", kernel_events / (plain_wall / 1e9));
    put(
        "core.steal_success_ratio",
        if count("core.steals_attempted") == 0.0 {
            1.0
        } else {
            count("core.steals_succeeded") / count("core.steals_attempted")
        },
    );
    put(
        "app.sim_speedup",
        prepared.base_makespan_ns as f64 / (sim_makespan_us(w, &prepared, &plain[0]) * 1e3),
    );
    put("app.vt_exec_share", share(Category::Exec));
    put("core.vt_steal_share", share(Category::Steal));
    put("armci.vt_lock_share", share(Category::Lock));
    put("core.vt_td_share", share(Category::Td));
    put("sim.vt_barrier_share", share(Category::Barrier));
    put("core.vt_idle_share", share(Category::Idle));
    put(
        "core.vt_startup_share",
        startup_rank_ns as f64 / rank_time as f64,
    );
    put("core.vt_critpath_us", report.critpath_ns as f64 / 1e3);
    put(
        "core.vt_steal_dist_mean",
        report.provenance.mean_ring_distance(),
    );
    put(
        "core.vt_steal_near_share",
        report.provenance.near_share(NEAR_RADIUS),
    );
    for (name, v) in &probed {
        put(name, *v);
    }
    put("sim.spawn_teardown_us_p64_first", spawn64.0);
    put("sim.spawn_teardown_us_p64_warm", spawn64.1);
    put("sim.spawn_teardown_us_p256_first", spawn256.0);
    put("sim.spawn_teardown_us_p256_warm", spawn256.1);
    for (stage, (name, rate)) in stages.iter().zip(STAGES) {
        put(&format!("{name}_{rate}"), stage.rate());
        put(&format!("{name}_share"), stage.ns as f64 / pass_ns as f64);
    }
    put("sim.trace_events", events);
    put("sim.trace_dropped", dropped as f64);
    put("sim.trace_overhead_ratio", recorded_wall / plain_wall);
    put(
        "sim.trace_emit_ns_per_event",
        (recorded_wall - plain_wall).max(0.0) / events,
    );
    put("bench.peak_rss_mb", rss_after_setup);
    put("bench.reps", all_walls.len() as f64);
    put(
        "bench.rep_wall_max_over_median",
        all_walls.iter().copied().fold(0.0, f64::max) / median(&all_walls),
    );
    put("bench.calib_ms", calib_before);
    put(
        "bench.calib_drift",
        (calib_after - calib_before).abs() / calib_before,
    );

    print_host_time_table(w, &scale, &got, plain_wall);
    let spans = spans.snapshot();
    let path = out_dir(o.quick).join(format!("spans_{}.jsonl", w.name));
    write_file(&path, &to_jsonl(&spans));
    println!("spans: {} written to {}", spans.len(), path.display());

    // SCF's entry point returns no dirty-mark counts and they leave no
    // trace event: reported as 0 there (see README).
    let metrics = per_layer()
        .into_iter()
        .map(|m| {
            let v = got.get(&m.name).copied().unwrap_or(0.0);
            (m.name, v)
        })
        .collect();
    Outcome {
        checks,
        metrics,
        extra: Vec::new(),
    }
}

/// "Count × probe" estimate of where a rep's host time goes, against the
/// measured rep wall — the first such table for this repo. Rows overlap
/// (a steal contains yields), so they are an accounting aid, not a
/// partition.
fn print_host_time_table(
    w: &Workload,
    scale: &Scale,
    got: &BTreeMap<String, f64>,
    rep_wall_ns: f64,
) {
    let g = |name: &str| got.get(name).copied().unwrap_or(0.0);
    let tasks = g("core.tasks_executed");
    let big = w.ranks >= 128;
    let mut rows: Vec<(&str, f64, f64)> = Vec::new();
    match w.kind {
        Kind::ScfVt => rows.push((
            "scf.seq_fock_s x iterations",
            scale.scf_iters as f64,
            g("scf.seq_fock_s") * 1e9,
        )),
        _ => rows.push(("uts.child_sha1_ns x nodes", tasks, g("uts.child_sha1_ns"))),
    }
    let push_pop = if w.kind == Kind::UtsConc {
        "core.conc_push_pop_ns"
    } else {
        "core.push_pop_ns"
    };
    rows.push(("core push+pop x tasks", tasks, g(push_pop)));
    if w.kind != Kind::UtsConc {
        let per_yield = g(if big {
            "sim.yield_switch_ns_p256"
        } else {
            "sim.yield_switch_ns_p2"
        });
        rows.push(("sim.yield_switch x yields", g("sim.yields"), per_yield));
        let spawn = g(if big {
            "sim.spawn_teardown_us_p256_warm"
        } else {
            "sim.spawn_teardown_us_p64_warm"
        });
        rows.push(("sim.spawn_teardown x 1", 1.0, spawn * 1e3));
    }
    rows.push((
        "core.steal_chunk_ns x steal attempts",
        g("core.steals_attempted"),
        g("core.steal_chunk_ns"),
    ));
    let phases = if w.kind == Kind::ScfVt {
        scale.scf_iters as f64
    } else {
        1.0
    };
    let per_phase = g(if w.ranks >= 64 {
        "core.td_noop_phase_us_p64"
    } else {
        "core.td_noop_phase_us_p8"
    });
    rows.push(("core.td_noop_phase x phases", phases, per_phase * 1e3));

    println!(
        "where host time goes (estimate = count x probe; rep wall {:.3} ms):",
        rep_wall_ns / 1e6
    );
    println!(
        "  {:<40} {:>12} {:>12} {:>10} {:>7}",
        "layer op", "count", "ns/op", "est ms", "share"
    );
    for (label, count, ns) in rows {
        let est = count * ns;
        println!(
            "  {label:<40} {count:>12.0} {ns:>12.1} {:>10.3} {:>6.1}%",
            est / 1e6,
            100.0 * est / rep_wall_ns
        );
    }
}

fn write_file(path: &std::path::Path, body: &str) {
    let dir = path.parent().expect("output paths have a directory");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, body))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// Print every metric by name with its unit, write the
/// `scioto-bench-v1` file, and print the driver's result line last.
pub fn report(o: &Options, trace: bool, outcome: &Outcome) {
    let declared: Vec<Metric> = if trace { per_layer() } else { end_to_end() };
    assert_eq!(
        declared.iter().map(|m| &m.name).collect::<Vec<_>>(),
        outcome.metrics.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "reported metrics must be exactly the declared ones"
    );
    let w = o.workload.name;
    println!(
        "== {w} seed {} ({}) ==",
        o.seed,
        if trace {
            "traced run"
        } else {
            "timed run, untraced"
        }
    );
    for ((name, v), m) in outcome.metrics.iter().zip(&declared) {
        assert!(v.is_finite(), "{name} is not a number");
        println!("{name:<44} {v:>18.6} {}", m.unit);
    }
    for (name, v) in &outcome.extra {
        println!("{name:<44} {v:>18.6}");
    }
    println!(
        "checks: {} attempted, {} failed",
        outcome.checks.attempted, outcome.checks.failed
    );

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let params = BTreeMap::from([
        ("workload".to_string(), w.to_string()),
        ("seed".to_string(), o.seed.to_string()),
        ("seconds".to_string(), o.seconds.to_string()),
        (
            "scale".to_string(),
            if o.quick { "quick" } else { "full" }.to_string(),
        ),
        ("nproc".to_string(), nproc.to_string()),
    ]);
    let metrics: BTreeMap<String, f64> = outcome
        .metrics
        .iter()
        .chain(&outcome.extra)
        .cloned()
        .collect();
    let kind = if trace { "layers" } else { "host" };
    // A date stamp, not a measurement: every interval in this package is
    // timed through `MonoClock`.
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let doc = bench_v1(&format!("{kind}_{w}"), stamp, &params, &metrics);
    write_file(
        &out_dir(o.quick).join(format!("BENCH_{kind}_{w}.json")),
        &doc,
    );

    let units: Vec<(&str, f64, &str)> = outcome
        .metrics
        .iter()
        .zip(&declared)
        .map(|((n, v), m)| (n.as_str(), *v, m.unit))
        .collect();
    println!(
        "{}",
        result_line(
            outcome.checks.failed == 0,
            outcome.checks.attempted.max(1),
            outcome.checks.failed,
            &units
        )
    );
}

/// Run one workload in this process and report it. Returns whether every
/// check held.
pub fn run(o: &Options, trace: bool) -> bool {
    let outcome = if trace { traced(o) } else { timed(o) };
    report(o, trace, &outcome);
    outcome.checks.failed == 0
}
