//! `scioto tune` — closed-loop knob autotuner: record one seeded fig7-style UTS run,
//! replay it under a deterministic candidate sweep, score candidates by
//! makespan/imbalance/blame shares, live-validate the most promising
//! ones, and emit a tuned `TcConfig` as JSON plus a human report.
//!
//! The loop never re-runs the workload to *rank* candidates — ranking is
//! replay re-pricing (`scioto-analyze`'s what-if layer), which costs
//! milliseconds per candidate. Live seeded runs are reserved for the
//! top-K finishers plus every structural candidate the critical-path
//! gate admitted (release-fraction changes restructure the schedule, so
//! replay cannot price them).
//!
//! Options: `--ranks N` (default 64), `--tree tiny|small|medium|large`
//! (default small), `--seed N` (default 876269 = 0xD5EED),
//! `--max-candidates N`, `--top K` (default 3 live validations),
//! `--latency flat|nearfar`, `--out <config.json>`, `--report <path>`,
//! `--json-out <BENCH json>`, `--require-improvement` (exit 1 unless the
//! tuned config beats the default live).

use scioto_analyze::tune::{candidates, config_json, render_report, replay_score, Score, TuneRow};
use scioto_analyze::whatif::Knobs;
use scioto_sim::{LatencyModel, Machine, MachineConfig, SpeedModel, Trace, TraceConfig};
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
use scioto_uts::TreeParams;

use crate::front::{self, Exit, Outcome};
use crate::{tree_arg, Args, BenchOut, LatencyPreset};

#[derive(Clone, Copy)]
struct RunCfg {
    ranks: usize,
    params: TreeParams,
    seed: u64,
    latency: LatencyPreset,
}

/// One live traced seeded run under `knobs`; returns the trace.
fn live_run(rc: RunCfg, knobs: &Knobs) -> Trace {
    let mut uts = SciotoUtsConfig::new(rc.params);
    uts.tc.chunk = knobs.chunk;
    uts.tc.victim_cont = knobs.victim_cont;
    uts.tc.victim_escape = knobs.victim_escape;
    uts.tc.release_fraction = knobs.release_fraction;
    Machine::run(
        MachineConfig::virtual_time(rc.ranks)
            .with_latency(rc.latency.apply(LatencyModel::cluster()))
            .with_speed(SpeedModel::hetero_cluster(rc.ranks))
            .with_seed(rc.seed)
            .with_trace(TraceConfig::enabled()),
        move |ctx| run_scioto_uts(ctx, &uts).0,
    )
    .report
    .trace
    .expect("tracing was enabled")
}

pub fn run(args: &Args) -> Outcome {
    let (tree, params) = tree_arg(args, "tree", "small");
    let rc = RunCfg {
        ranks: args.count("ranks", 64),
        params,
        seed: args.get("seed", 0xD5EED),
        latency: LatencyPreset::from_args(args),
    };
    let max_candidates: usize = args.get("max-candidates", usize::MAX);
    let top_k: usize = args.get("top", 3);

    // 1. Record the incumbent.
    eprintln!("tune: recording baseline ({} ranks, {tree} tree, seed {})", rc.ranks, rc.seed);
    let base_knobs = Knobs {
        tiers: rc.latency.tiers(),
        ..Knobs::baseline()
    };
    let recording = live_run(rc, &base_knobs);
    let base_report = scioto_analyze::analyze(&recording);
    let base_score = Score::from_report(&base_report);

    // 2. Lower + self-check: the replay engine must reproduce the
    //    recording exactly before its re-pricings can be trusted.
    let (prog, _) = front::replay_identity(&recording)?;

    // 3. Candidate sweep, pruned by the recorded critical path.
    let mut sweep = candidates(&base_knobs, &base_report.critical_path);
    if sweep.len() > max_candidates {
        eprintln!(
            "tune: truncating sweep {} -> {max_candidates} candidates (--max-candidates)",
            sweep.len()
        );
        sweep.truncate(max_candidates);
    }

    // 4. Replay-score every candidate (structural ones keep the baseline
    //    score: the gate, not the replay, argued for them).
    let scored: Vec<(usize, Score)> = sweep
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let s = if c.structural {
                base_score
            } else {
                replay_score(&prog, &base_knobs, &c.knobs)
            };
            eprintln!(
                "tune: replay {:<24} makespan {} ns{}",
                c.name,
                s.makespan_ns,
                if c.structural { " (structural; live-only)" } else { "" }
            );
            (i, s)
        })
        .collect();

    // 5. Pick live-validation set: top-K replay scores that beat the
    //    baseline, plus every structural candidate.
    let mut ranked: Vec<&(usize, Score)> = scored
        .iter()
        .filter(|(i, s)| !sweep[*i].structural && s.cost() < base_score.cost())
        .collect();
    ranked.sort_by(|a, b| a.1.cost().partial_cmp(&b.1.cost()).unwrap());
    let mut validate: Vec<usize> = ranked.iter().take(top_k).map(|(i, _)| *i).collect();
    validate.extend(
        sweep
            .iter()
            .enumerate()
            .filter(|(_, c)| c.structural)
            .map(|(i, _)| i),
    );

    let mut rows = vec![TuneRow {
        name: "baseline".into(),
        replay: base_score,
        live: Some(base_score),
    }];
    let mut best: (String, Knobs, Score) = ("baseline".into(), base_knobs, base_score);
    for &i in &validate {
        let c = &sweep[i];
        eprintln!("tune: live-validating {}", c.name);
        let live = Score::from_report(&scioto_analyze::analyze(&live_run(rc, &c.knobs)));
        eprintln!("tune: live {:<24} makespan {} ns", c.name, live.makespan_ns);
        rows.push(TuneRow {
            name: c.name.clone(),
            replay: scored[i].1,
            live: Some(live),
        });
        if live.cost() < best.2.cost() {
            best = (c.name.clone(), c.knobs, live);
        }
    }
    // Candidates that were replay-scored but not validated still show in
    // the report.
    for (i, s) in &scored {
        if !validate.contains(i) {
            rows.push(TuneRow { name: sweep[*i].name.clone(), replay: *s, live: None });
        }
    }

    // 6. Emit artifacts.
    let (winner, winner_knobs, winner_score) = best;
    let source = format!(
        "tune fig7@{} tree={tree} seed={} latency={}",
        rc.ranks,
        rc.seed,
        rc.latency.name()
    );
    let cfg = config_json(&winner_knobs, &source);
    if let Some(out) = args.get_opt("out") {
        front::write_file(&out, &cfg, "tuned config")?;
    }
    let report = render_report(&rows, &winner, "baseline");
    if let Some(out) = args.get_opt("report") {
        front::write_file(&out, &report, "tune report")?;
    }
    print!("{report}");
    print!("{cfg}");

    let mut bench = BenchOut::new("fig7_tuned");
    bench.param("ranks", rc.ranks);
    bench.param("tree", &tree);
    bench.param("seed", rc.seed);
    bench.param("winner", &winner);
    rc.latency.record(&mut bench);
    bench.metric("makespan_default_ns", base_score.makespan_ns as f64);
    bench.metric("makespan_tuned_ns", winner_score.makespan_ns as f64);
    bench.metric(
        "headroom_ns",
        base_score.makespan_ns as f64 - winner_score.makespan_ns as f64,
    );
    bench.write_if_requested(args)?;

    if args.has("require-improvement") && winner_score.makespan_ns >= base_score.makespan_ns {
        return Err(Exit::failed(format!(
            "no improvement over defaults (tuned {} ns >= default {} ns)",
            winner_score.makespan_ns, base_score.makespan_ns
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `analyze` cannot see `core`, so `Knobs::baseline()` hard-codes the
    /// defaults the recorded run used; here both sides are visible.
    #[test]
    fn whatif_baseline_is_the_tcconfig_a_default_uts_run_uses() {
        let tc = SciotoUtsConfig::new(scioto_uts::presets::tiny()).tc;
        let expect = Knobs {
            victim_cont: tc.victim_cont,
            victim_escape: tc.victim_escape,
            chunk: tc.chunk,
            release_fraction: tc.release_fraction,
            tiers: None,
        };
        assert_eq!(Knobs::baseline(), expect);
    }
}
