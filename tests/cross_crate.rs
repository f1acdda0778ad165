//! Workspace-level integration tests: exercises spanning the whole stack,
//! from the virtual-time machine through ARMCI/GA/Scioto up to the
//! applications — plus a real-thread (Concurrent mode) soak of the same
//! code paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scioto::{Task, TaskCollection, TcConfig, AFFINITY_HIGH};
use scioto_armci::Armci;
use scioto_ga::{Ga, Patch};
use scioto_mpi::{Comm, ReduceOp};
use scioto_scf::{
    run_scf_parallel, scf_sequential, BasisSet, LoadBalance, Molecule, ParallelScfConfig,
    ScfConfig,
};
use scioto_sim::{
    validate_json, ExecMode, LatencyModel, Machine, MachineConfig, SpeedModel, Trace, TraceConfig,
    TraceEvent,
};
use scioto_tce::contract::reference_checksum;
use scioto_tce::{run_contraction, ContractionConfig, TceLoadBalance};
use scioto_uts::mpi_ws::{run_mpi_uts, MpiUtsConfig};
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::{presets, sequential, TreeStats};

#[test]
fn uts_three_drivers_agree_end_to_end() {
    let params = presets::tiny();
    let seq = sequential::count_tree(&params);
    for ranks in [2, 5] {
        let scioto_out = Machine::run(
            MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
            move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(params)).0,
        );
        let mpi_out = Machine::run(
            MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
            move |ctx| run_mpi_uts(ctx, &MpiUtsConfig::new(params)).0,
        );
        let mut a = TreeStats::default();
        let mut b = TreeStats::default();
        scioto_out.results.iter().for_each(|s| a.merge(s));
        mpi_out.results.iter().for_each(|s| b.merge(s));
        assert_eq!(a, b, "driver mismatch at ranks={ranks}");
        assert_eq!(a.nodes, seq.nodes);
    }
}

#[test]
fn scf_energy_is_scheme_and_scale_invariant() {
    let basis = BasisSet::even_tempered(Molecule::h_chain(4), 2, 0.4, 3.5);
    let seq = scf_sequential(&basis, &ScfConfig::default());
    let mut energies = vec![seq.energy];
    for ranks in [1, 3] {
        for lb in [LoadBalance::Scioto, LoadBalance::GlobalCounter] {
            let b = basis.clone();
            let out = Machine::run(
                MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
                move |ctx| {
                    run_scf_parallel(
                        ctx,
                        &b,
                        &ParallelScfConfig {
                            lb,
                            ..Default::default()
                        },
                    )
                    .energy
                },
            );
            energies.push(out.results[0]);
        }
    }
    for e in &energies[1..] {
        assert!(
            (e - energies[0]).abs() < 1e-8,
            "energy drift: {energies:?}"
        );
    }
}

#[test]
fn tce_checksum_is_scheme_and_scale_invariant() {
    let mut sums = Vec::new();
    for ranks in [1, 4] {
        for lb in [TceLoadBalance::Scioto, TceLoadBalance::GlobalCounter] {
            let out = Machine::run(
                MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster()),
                move |ctx| {
                    let cfg = ContractionConfig::new(lb);
                    let reference = reference_checksum(ctx, &cfg);
                    let (_, checksum) = run_contraction(ctx, &cfg);
                    (reference, checksum)
                },
            );
            sums.push(out.results[0]);
        }
    }
    let (r0, _) = sums[0];
    for (r, c) in &sums {
        assert!((r - r0).abs() < 1e-12);
        assert!((c - r).abs() < 1e-9 * r.max(1.0), "{c} vs reference {r}");
    }
}

#[test]
fn mixed_model_program_mpi_ga_scioto_together() {
    // The interoperability claim of the paper: one program using MPI
    // collectives, GA arrays, and a Scioto task collection side by side.
    let out = Machine::run(
        MachineConfig::virtual_time(4).with_latency(LatencyModel::cluster()),
        |ctx| {
            let comm = Comm::world(ctx);
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "grid", 16, 16);
            ga.zero(ctx, a);
            ga.sync(ctx);

            let tc = TaskCollection::create(ctx, ga.armci(), TcConfig::new(16, 2, 256));
            let ga_cb = ga.clone();
            let h = tc.register(
                ctx,
                Arc::new(move |t| {
                    let i = scioto::wire::get_u64(t.body(), 0) as usize;
                    ga_cb.acc(
                        t.ctx,
                        scioto_ga::GaHandle(0),
                        Patch::new(i, i + 1, 0, 16),
                        1.0,
                        &[1.0; 16],
                    );
                }),
            );
            if ctx.rank() == 0 {
                let mut task = Task::with_body_size(h, 8);
                for i in 0..16u64 {
                    scioto::wire::set_u64(task.body_mut(), 0, i);
                    tc.add(ctx, (i % 4) as usize, AFFINITY_HIGH, &task);
                }
            }
            tc.process(ctx);
            ga.sync(ctx);
            // MPI allreduce over a GA-read partial sum.
            let mine = ga.get(ctx, a, ga.distribution(a, ctx.rank()));
            let partial: f64 = mine.iter().sum();
            let total = comm.allreduce_f64(ctx, &[partial], ReduceOp::Sum);
            total[0]
        },
    );
    for v in out.results {
        assert_eq!(v, 256.0);
    }
}

#[test]
fn ga_patch_traffic_reaches_the_race_checker() {
    // Rank 0 puts the whole array while rank 1 gets it. `Ga::put` / `get`
    // move patches with strided ARMCI operations; when those left no
    // access record, the unsynchronised version of this program checked
    // clean.
    let check = |synced: bool| {
        let cfg = MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled());
        let report = Machine::run(cfg, move |ctx| {
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "a", 4, 4);
            let all = Patch::new(0, 4, 0, 4);
            if ctx.rank() == 0 {
                ga.put(ctx, a, all, &[1.0; 16]);
            }
            if synced {
                ga.sync(ctx);
            }
            if ctx.rank() == 1 {
                ga.get(ctx, a, all);
            }
        })
        .report;
        let trace = report.trace.expect("tracing was enabled");
        scioto_race::check_trace(&trace).expect("a complete trace")
    };
    let racy = check(false);
    // All 16 elements, half on each owner, each raced put-against-get.
    assert_eq!(racy.races.iter().map(|r| r.word_count).sum::<u64>(), 16, "{racy}");
    for race in &racy.races {
        let ops = [race.first.op.as_str(), race.second.op.as_str()];
        assert!(ops.contains(&"put") && ops.contains(&"get"), "{race}");
    }
    assert!(check(true).is_clean());
}

#[test]
fn concurrent_mode_soak_full_stack() {
    // Real threads + real locks through the whole stack.
    for trial in 0..3 {
        let params = presets::tiny();
        let seq = sequential::count_tree(&params);
        let cfg = MachineConfig {
            mode: ExecMode::Concurrent,
            ..MachineConfig::virtual_time(4)
        };
        let out = Machine::run(cfg, move |ctx| {
            run_scioto_uts(ctx, &SciotoUtsConfig::new(params)).0
        });
        let mut total = TreeStats::default();
        out.results.iter().for_each(|s| total.merge(s));
        assert_eq!(total.nodes, seq.nodes, "trial {trial}");
    }
}

#[test]
fn heterogeneous_machine_shifts_load_to_fast_ranks() {
    let params = presets::small();
    let out = Machine::run(
        MachineConfig::virtual_time(8)
            .with_latency(LatencyModel::cluster())
            .with_speed(SpeedModel::hetero_cluster(8)),
        move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(params)).0,
    );
    let fast: u64 = out.results.iter().step_by(2).map(|s| s.nodes).sum();
    let slow: u64 = out.results.iter().skip(1).step_by(2).map(|s| s.nodes).sum();
    assert!(
        fast > slow,
        "fast ranks should process more nodes: fast={fast} slow={slow}"
    );
}

#[test]
fn multiple_collections_in_one_program() {
    // §3.1: multiple collections may exist; one is processed while others
    // are being seeded (phase-based parallelism).
    let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
        let armci = Armci::init(ctx);
        let tc1 = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 128));
        let tc2 = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 128));
        let count = Arc::new(AtomicU64::new(0));
        let clo1 = tc1.register_clo(ctx, count.clone());
        let tc2_ref = tc2.clone();
        let h2 = tc2.register(
            ctx,
            Arc::new(move |t| {
                let c: Arc<AtomicU64> = t.tc.clo(t.ctx, scioto::CloHandle(0));
                c.fetch_add(100, Ordering::Relaxed);
            }),
        );
        let clo2 = tc2.register_clo(ctx, count.clone());
        let _ = (clo1, clo2);
        let h1 = tc1.register(
            ctx,
            Arc::new(move |t| {
                let c: Arc<AtomicU64> = t.tc.clo(t.ctx, scioto::CloHandle(0));
                c.fetch_add(1, Ordering::Relaxed);
                // While tc1 is processing, tasks may be added to tc2.
                tc2_ref.add(t.ctx, t.ctx.rank(), AFFINITY_HIGH, &Task::new(h2, vec![]));
            }),
        );
        if ctx.rank() == 0 {
            for _ in 0..9 {
                tc1.add(ctx, 0, AFFINITY_HIGH, &Task::new(h1, vec![]));
            }
        }
        tc1.process(ctx);
        tc2.process(ctx);
        count.load(Ordering::Relaxed)
    });
    // 9 tasks in tc1 (+1 each) spawn 9 tasks in tc2 (+100 each).
    assert_eq!(out.results.iter().sum::<u64>(), 9 + 900);
}

#[test]
fn same_seed_gives_bit_identical_steals_and_virtual_time() {
    // The hermetic-build contract: with the in-tree RNG, a virtual-time
    // run is a pure function of the MachineConfig. Two runs with the same
    // seed must agree bit-for-bit on every per-rank counter (including
    // steal attempts/successes, which depend on every victim draw) and on
    // the virtual-time report.
    let params = presets::tiny();
    let run = || {
        Machine::run(
            MachineConfig::virtual_time(4)
                .with_latency(LatencyModel::cluster())
                .with_seed(0xD5EED),
            move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(params)).1,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results, "per-rank ProcessStats must match");
    assert_eq!(a.report.makespan_ns, b.report.makespan_ns);
    assert_eq!(a.report.rank_clock_ns, b.report.rank_clock_ns);
    let steals: u64 = a.results.iter().map(|s| s.steals_succeeded).sum();
    assert!(steals > 0, "workload must actually exercise stealing");
}

#[test]
fn different_seeds_give_different_victim_sequences() {
    // Victim selection draws `gen_range(0..n-1)` from the per-rank stream
    // (collection.rs). Replay the same draw sequence under two seeds: the
    // streams are derived by mixing (seed, rank), so changing the seed must
    // change the victim sequence on every rank.
    let victims = |seed: u64| {
        Machine::run(
            MachineConfig::virtual_time(4).with_seed(seed),
            |ctx| {
                let n = ctx.nranks();
                (0..32)
                    .map(|_| {
                        let k = ctx.rng().gen_range(0..n - 1);
                        if k >= ctx.rank() {
                            k + 1
                        } else {
                            k
                        }
                    })
                    .collect::<Vec<usize>>()
            },
        )
        .results
    };
    let a = victims(1);
    let b = victims(2);
    for (rank, (va, vb)) in a.iter().zip(&b).enumerate() {
        assert_ne!(va, vb, "rank {rank}: seeds 1 and 2 picked identical victims");
        assert!(va.iter().all(|&v| v != rank && v < 4));
    }
}

/// Seeded 8-rank traced UTS run — the observability acceptance workload.
fn traced_uts_report(seed: u64) -> scioto_sim::Report {
    let params = presets::tiny();
    Machine::run(
        MachineConfig::virtual_time(8)
            .with_latency(LatencyModel::cluster())
            .with_seed(seed)
            .with_trace(TraceConfig::enabled()),
        move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(params)).0,
    )
    .report
}

fn traced_uts(seed: u64) -> Trace {
    traced_uts_report(seed).trace.expect("tracing was enabled")
}

#[test]
fn same_seed_gives_byte_identical_trace_exports() {
    // Events are stamped with the emitting rank's virtual clock, so a
    // virtual-time trace is a pure function of the MachineConfig: both
    // export formats must agree byte for byte across same-seed runs.
    let a = traced_uts(0xD5EED);
    let b = traced_uts(0xD5EED);
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "JSONL export must be bit-identical");
    assert_eq!(
        a.to_chrome_json(),
        b.to_chrome_json(),
        "Chrome export must be bit-identical"
    );

    let chrome = a.to_chrome_json();
    validate_json(&chrome).expect("chrome export parses as JSON");
    // Per-rank tracks with the acceptance event kinds, stamped in
    // virtual ns.
    for r in 0..a.nranks() {
        assert!(
            chrome.contains(&format!("\"name\":\"rank {r}\"")),
            "rank {r} track metadata missing"
        );
        assert!(
            a.events_for(r)
                .iter()
                .any(|e| matches!(e.event, TraceEvent::TdWave { .. })),
            "rank {r} has no TdWave events"
        );
    }
    let kinds: Vec<&str> = a
        .events
        .iter()
        .flatten()
        .map(|e| e.event.name())
        .collect();
    assert!(kinds.contains(&"TaskExecBegin"));
    assert!(kinds.contains(&"StealAttempt"));
    assert!(
        a.events
            .iter()
            .flatten()
            .any(|e| e.t_ns > 0),
        "events must carry non-zero virtual timestamps"
    );
}

#[test]
fn different_seeds_give_different_traced_steal_sequences() {
    // The steal schedule is seed-dependent, and the trace must show it:
    // the per-rank (time, victim) sequences of StealAttempt events cannot
    // coincide across seeds on every rank.
    let steal_seq = |t: &Trace| -> Vec<Vec<(u64, u32)>> {
        (0..t.nranks())
            .map(|r| {
                t.events_for(r)
                    .iter()
                    .filter_map(|e| match e.event {
                        TraceEvent::StealAttempt { victim, .. } => Some((e.t_ns, victim)),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    };
    let a = traced_uts(1);
    let b = traced_uts(2);
    assert_ne!(
        steal_seq(&a),
        steal_seq(&b),
        "seeds 1 and 2 produced identical steal timelines"
    );
}

#[test]
fn analyzer_blame_sums_exactly_to_elapsed_on_uts() {
    // The tentpole invariant: the six blame categories of every rank sum
    // exactly to that rank's elapsed virtual time from the Report, and
    // the critical path is bounded by total work below max single-task
    // time and above the summed elapsed time.
    let report = traced_uts_report(0xD5EED);
    let trace = report.trace.as_ref().unwrap();
    let analysis = scioto_analyze::analyze(trace);
    assert_eq!(analysis.ranks, 8);
    for r in 0..analysis.ranks {
        assert_eq!(
            analysis.blame[r].total(),
            report.rank_clock_ns[r],
            "rank {r} blame must sum to its Report elapsed time"
        );
    }
    // The workload actually exercises the interesting categories.
    let total = analysis.total_blame();
    assert!(total.get(scioto_analyze::Category::Exec) > 0, "no exec time attributed");
    assert!(total.get(scioto_analyze::Category::Steal) > 0, "no steal time attributed");
    assert!(analysis.provenance.total_successes() > 0);
    assert!(analysis.provenance.migrated_execs > 0);

    let cp = &analysis.critical_path;
    let total_elapsed: u64 = report.rank_clock_ns.iter().sum();
    assert_eq!(cp.length_ns, analysis.makespan_ns);
    assert!(cp.length_ns <= total_elapsed);
    assert!(cp.length_ns >= cp.max_task_ns, "critical path shorter than one task");
    assert!(cp.max_task_ns > 0);
    assert!(!cp.truncated);
    assert!(analysis.warnings.is_empty(), "{:?}", analysis.warnings);
}

#[test]
fn analyzer_blame_invariant_holds_for_lock_and_barrier_heavy_run() {
    // A table1-style 2-rank microbench: explicit barriers, remote adds
    // through the victim's lock, termination detection — the categories a
    // steal-light run exercises.
    let out = Machine::run(
        MachineConfig::virtual_time(2)
            .with_latency(LatencyModel::cluster())
            .with_seed(7)
            .with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 256));
            let h = tc.register(ctx, Arc::new(|t| t.ctx.compute(1_000)));
            armci.barrier(ctx);
            if ctx.rank() == 1 {
                for _ in 0..50 {
                    tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
                }
            }
            tc.process(ctx);
            armci.barrier(ctx);
        },
    );
    let analysis = scioto_analyze::analyze(out.report.trace.as_ref().unwrap());
    for r in 0..2 {
        assert_eq!(analysis.blame[r].total(), out.report.rank_clock_ns[r], "rank {r}");
    }
    let total = analysis.total_blame();
    assert!(total.get(scioto_analyze::Category::Barrier) > 0, "no barrier time attributed");
    assert!(total.get(scioto_analyze::Category::Td) > 0, "no TD time attributed");
}

#[test]
fn analysis_report_is_deterministic_and_survives_jsonl_roundtrip() {
    // Same seed → byte-identical analysis JSON, both in-memory and after
    // a JSONL export/re-parse round trip.
    let a = scioto_analyze::analyze(&traced_uts(0xD5EED));
    let b = scioto_analyze::analyze(&traced_uts(0xD5EED));
    let ja = a.to_json();
    assert_eq!(ja, b.to_json(), "same-seed analysis must be byte-identical");
    validate_json(&ja).expect("analysis JSON parses");
    assert!(ja.contains("\"schema\":\"scioto-analysis-v1\""));

    let reparsed = scioto_analyze::jsonl::parse(&traced_uts(0xD5EED).to_jsonl())
        .expect("JSONL dump re-parses");
    assert_eq!(
        scioto_analyze::analyze(&reparsed).to_json(),
        ja,
        "offline analysis of the JSONL dump must match the in-memory analysis"
    );
}

#[test]
fn replay_of_recorded_uts_trace_is_byte_identical() {
    // The ISSUE-7 acceptance gate: lower a recorded fig7@8-shaped trace
    // into a replay program and re-execute it on the virtual-time kernel
    // with no workload closure. The replay must reproduce the trace — and
    // therefore the blame decomposition and critical path — byte for byte.
    let live = traced_uts(0xD5EED);
    let prog = scioto_analyze::lower(&live).expect("recorded trace lowers for replay");
    let replayed = scioto_sim::run_replay(&prog);
    assert_eq!(
        live.to_jsonl(),
        replayed.to_jsonl(),
        "replay must reproduce the recorded trace byte for byte"
    );
    assert_eq!(
        scioto_analyze::analyze(&live).to_json(),
        scioto_analyze::analyze(&replayed).to_json(),
        "replayed blame decomposition and critical path must match the live run"
    );
}

#[test]
fn record_replay_replay_is_a_fixed_point() {
    // Determinism satellite: a replayed trace is itself replayable, and
    // the second generation is byte-identical to the first — replay is a
    // fixed point, not an approximation that drifts per generation.
    let live = traced_uts(0xD5EED);
    let gen1 = scioto_sim::run_replay(
        &scioto_analyze::lower(&live).expect("live trace lowers"),
    );
    let gen2 = scioto_sim::run_replay(
        &scioto_analyze::lower(&gen1).expect("replayed trace lowers again"),
    );
    assert_eq!(gen1.to_jsonl(), gen2.to_jsonl(), "replay must be a fixed point");
    assert_eq!(
        scioto_analyze::analyze(&gen1).to_json(),
        scioto_analyze::analyze(&gen2).to_json(),
        "analysis reports must be byte-identical across replay generations"
    );
}

#[test]
fn bench_json_is_deterministic_modulo_wall_clock() {
    // Build the BENCH document from same-seed UTS runs twice: only the
    // generated_wall_ns line may differ.
    let doc = |wall: u64| {
        let report = traced_uts_report(0xD5EED);
        let mut b = scioto_bench::BenchOut::new("uts_acceptance");
        b.param("ranks", 8);
        b.param("seed", "0xD5EED");
        b.metric("makespan_ns", report.makespan_ns as f64);
        for (r, ns) in report.rank_clock_ns.iter().enumerate() {
            b.metric(&format!("elapsed_ns_r{r}"), *ns as f64);
        }
        b.to_json(wall)
    };
    let a = doc(1);
    let b = doc(2);
    assert_ne!(a, b, "wall stamp must differ");
    assert_eq!(
        scioto_bench::benchjson::strip_wall_clock(&a),
        scioto_bench::benchjson::strip_wall_clock(&b),
        "BENCH json must be byte-identical modulo the wall-clock line"
    );
    scioto_bench::benchjson::validate(&a).expect("BENCH json satisfies its schema");
    let parsed = scioto_bench::benchjson::parse(&a).unwrap();
    assert_eq!(parsed.name, "uts_acceptance");
    assert_eq!(parsed.metrics.len(), 9);
}

#[test]
fn startup_runs_one_barrier_per_epoch() {
    // There is one startup protocol: collectives publish through the
    // barrier-free log, and an epoch's commit is the only barrier a
    // `TaskCollection::create` runs — no barrier per collective inside it,
    // none trailing it. Counted where a regression would show: in the
    // barrier events each rank traces.
    let out = Machine::run(
        MachineConfig::virtual_time(4)
            .with_latency(LatencyModel::cluster())
            .with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            armci.malloc(ctx, 64);
            armci.create_mutexes(ctx, 2);
            TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 64));
        },
    );
    let trace = out.report.trace.expect("tracing enabled");
    for r in 0..4 {
        let episodes = trace
            .events_for(r)
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::BarrierWait { .. }))
            .count();
        assert_eq!(episodes, 1, "rank {r}: init + malloc + mutexes + create");
    }
}

#[test]
fn machine_runs_1024_ranks() {
    // Capacity test only fibers can pass on this host: 1024 parked OS
    // threads exceed what it can stand up, but 1024 fibers on 256 KiB
    // stacks are cheap. Light workload — skewed compute, a ring message
    // through MPI, and tree barriers.
    if !scioto_sim::fibers_supported() {
        eprintln!("no fibers on this target; skipping");
        return;
    }
    const P: usize = 1024;
    let out = Machine::run(
        MachineConfig::virtual_time(P)
            .with_latency(LatencyModel::cluster_nearfar())
            .with_barrier(scioto_sim::BarrierKind::Tree)
            .with_stack_size(256 * 1024),
        |ctx| {
            let comm = Comm::world(ctx);
            ctx.compute((ctx.rank() as u64 % 7 + 1) * 10);
            ctx.barrier();
            // Ring: each rank sends its id to its right neighbour.
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&(ctx.rank() as u64).to_le_bytes());
            comm.send(ctx, (ctx.rank() + 1) % P, 7, &buf);
            let msg = comm.recv(ctx, Some((ctx.rank() + P - 1) % P), Some(7));
            let from = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
            ctx.barrier();
            from
        },
    );
    assert_eq!(out.report.rank_clock_ns.len(), P);
    for (r, got) in out.results.iter().enumerate() {
        assert_eq!(*got, ((r + P - 1) % P) as u64);
    }
    // Every rank must have reached the common release of the final barrier.
    let max = *out.report.rank_clock_ns.iter().max().unwrap();
    assert!(max > 0);
}

/// Peak resident set of this test process in kB (Linux; `None` elsewhere).
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn machine_stands_up_4096_ranks_at_default_sizes() {
    // Scale smoke with nothing shrunk: the default 1 MiB fiber stack and
    // UTS's 2^17-slot task queue are 6 MiB of address space per rank —
    // 24 GB at 4096 ranks, more than this host has. Stacks are never
    // initialised and segments are materialised on first touch, so what
    // a run commits is what a no-op phase and a ring message reach.
    if !scioto_sim::fibers_supported() {
        eprintln!("no fibers on this target; skipping");
        return;
    }
    const P: usize = 4096;
    let machine = || {
        MachineConfig::virtual_time(P)
            .with_latency(LatencyModel::cluster_nearfar())
            .with_barrier(scioto_sim::BarrierKind::Tree)
    };
    let create = |ctx: &scioto_sim::Ctx| {
        let armci = Armci::init(ctx);
        TaskCollection::create(ctx, &armci, SciotoUtsConfig::new(presets::tiny()).tc)
    };
    // A throw-away machine first: zeroed allocations made in a fresh
    // process are untouched kernel pages and cost nothing either way; it
    // is zeroing a *recycled* allocation that commits it (eager zeroing
    // peaks at 2 GB on a second machine and is OOM-killed on a third).
    Machine::run(machine(), |ctx| drop(create(ctx)));
    let out = Machine::run(machine(), |ctx| {
        let tc = create(ctx);
        let stats = tc.process(ctx);
        let comm = Comm::world(ctx);
        comm.send(ctx, (ctx.rank() + 1) % P, 7, &(ctx.rank() as u64).to_le_bytes());
        let msg = comm.recv(ctx, Some((ctx.rank() + P - 1) % P), Some(7));
        ctx.barrier();
        let from = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
        (stats.tasks_executed, from)
    });
    for (r, got) in out.results.iter().enumerate() {
        assert_eq!(*got, (0, ((r + P - 1) % P) as u64));
    }
    // The whole test binary's peak, these runs included.
    if let Some(kb) = vm_hwm_kb() {
        assert!(kb < 1 << 20, "peak RSS {} MB (budget: 1 GB)", kb >> 10);
    }
}
