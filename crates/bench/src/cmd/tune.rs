//! `scioto tune` — knob autotuner: run a seeded fig7-style UTS workload
//! under the default `TcConfig` and under every candidate of a fixed
//! sweep, score each run by makespan/imbalance/blame shares, and emit the
//! fastest configuration as JSON plus a human report.
//!
//! Every candidate is scored by running it. The machine is deterministic
//! per seed, so one live run is the exact answer for a candidate, and at
//! fig7@64 on the small tree it costs about 0.1 s.
//!
//! Options: `--ranks N` (default 64), `--tree tiny|small|medium|large`
//! (default small), `--seed N` (default 876269 = 0xD5EED),
//! `--latency flat|nearfar`, `--out <config.json>`,
//! `--report <path>`, `--json-out <BENCH json>`, `--require-improvement`
//! (exit 1 unless the tuned config beats the default).

use scioto::TcConfig;
use scioto_analyze::{AnalysisReport, Category};
use scioto_sim::{LatencyModel, Machine, MachineConfig, SpeedModel, TraceConfig};
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

/// The sweep around `base`, one axis at a time: victim continuation and
/// escape probabilities, steal chunk, split release fraction.
fn candidates(base: TcConfig) -> Vec<(String, TcConfig)> {
    let mut out = Vec::new();
    for cont in [0.5, 0.85] {
        out.push((
            format!("cont={cont:.2}"),
            TcConfig {
                victim_cont: cont,
                ..base
            },
        ));
    }
    for escape in [0.0625, 0.25] {
        out.push((
            format!("escape={escape:.4}"),
            TcConfig {
                victim_escape: escape,
                ..base
            },
        ));
    }
    for chunk in [5, 20] {
        out.push((format!("chunk={chunk}"), TcConfig { chunk, ..base }));
    }
    for frac in [0.25, 0.75, 1.0] {
        let tc = TcConfig {
            release_fraction: frac,
            ..base
        };
        out.push((format!("release_fraction={frac:.2}"), tc));
    }
    out
}

/// Scheduling quality of one run, from its analysis report.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Score {
    /// Virtual makespan.
    makespan_ns: u64,
    /// `max(elapsed) / mean(elapsed) - 1`; 0 is perfectly balanced.
    imbalance: f64,
    /// Steal share of total blamed time.
    steal_share: f64,
    /// Idle share of total blamed time.
    idle_share: f64,
    /// TD-polling share of total blamed time.
    td_share: f64,
}

impl Score {
    fn from_report(report: &AnalysisReport) -> Score {
        let total = report.total_blame();
        let denom = total.total().max(1) as f64;
        let n = report.ranks.max(1) as f64;
        let max = report.elapsed_ns.iter().copied().max().unwrap_or(0) as f64;
        let mean = report.elapsed_ns.iter().sum::<u64>() as f64 / n;
        Score {
            makespan_ns: report.makespan_ns,
            imbalance: if mean > 0.0 { max / mean - 1.0 } else { 0.0 },
            steal_share: total.get(Category::Steal) as f64 / denom,
            idle_share: total.get(Category::Idle) as f64 / denom,
            td_share: total.get(Category::Td) as f64 / denom,
        }
    }

    /// Tie-break between equal makespans: makespan nudged by imbalance,
    /// so the better-balanced run is cheaper.
    fn cost(&self) -> f64 {
        self.makespan_ns as f64 * (1.0 + 0.05 * self.imbalance)
    }
}

/// One live traced seeded run of the workload under `tc`, scored.
fn live_score(rc: RunCfg, tc: TcConfig) -> Score {
    let uts = SciotoUtsConfig {
        tc,
        ..SciotoUtsConfig::new(rc.params)
    };
    let trace = Machine::run(
        MachineConfig::virtual_time(rc.ranks)
            .with_latency(rc.latency.apply(LatencyModel::cluster()))
            .with_speed(SpeedModel::hetero_cluster(rc.ranks))
            .with_seed(rc.seed)
            .with_trace(TraceConfig::enabled()),
        move |ctx| run_scioto_uts(ctx, &uts).0,
    )
    .report
    .trace
    .expect("tracing was enabled");
    Score::from_report(&scioto_analyze::analyze(&trace))
}

/// A configuration and the score its live run measured.
struct Row {
    name: String,
    tc: TcConfig,
    score: Score,
}

/// Run the default configuration (row 0, `baseline`) and every
/// candidate of the sweep, each live.
fn sweep(rc: RunCfg) -> Vec<Row> {
    let base = SciotoUtsConfig::new(rc.params).tc;
    let all = std::iter::once(("baseline".to_string(), base)).chain(candidates(base));
    all.map(|(name, tc)| {
        let score = live_score(rc, tc);
        eprintln!("tune: {name:<24} makespan {} ns", score.makespan_ns);
        Row { name, tc, score }
    })
    .collect()
}

/// The row with the smallest makespan — the quantity `headroom_ns` and
/// `--require-improvement` measure — with `Score::cost` breaking ties and
/// the earlier row winning a full tie, so the baseline stands unless a
/// candidate beats it.
fn winner(rows: &[Row]) -> &Row {
    let key = |r: &Row| (r.score.makespan_ns, r.score.cost());
    let cheaper = |best: &Row, r: &Row| key(r) < key(best);
    rows.iter()
        .reduce(|best, r| if cheaper(best, r) { r } else { best })
        .expect("a baseline row")
}

/// Fixed-point decimal with 4 fractional digits — deterministic across
/// platforms (no shortest-roundtrip float formatting in output files).
fn dec4(v: f64) -> String {
    format!("{v:.4}")
}

/// Render `tc`'s tuned knobs as the `scioto-tcconfig-v1` JSON document.
fn config_json(tc: &TcConfig, source: &str) -> String {
    format!(
        "{{\n  \"schema\": \"scioto-tcconfig-v1\",\n  \"source\": \"{source}\",\n  \
         \"chunk\": {},\n  \"victim_cont\": {},\n  \"victim_escape\": {},\n  \
         \"release_fraction\": {}\n}}\n",
        tc.chunk,
        dec4(tc.victim_cont),
        dec4(tc.victim_escape),
        dec4(tc.release_fraction)
    )
}

/// Render the human tuning report: one row per live run, the winner, and
/// the blame movement from the baseline (row 0) to the winner.
fn render_report(rows: &[Row], winner: &Row) -> String {
    let mut s = String::from("scioto autotune report\n");
    s += &format!("{:-<60}\n", "");
    s += &format!(
        "{:<24} {:>12} {:>8} {:>7} {:>7}\n",
        "candidate", "live ns", "imbal", "steal%", "idle%"
    );
    for row in rows {
        let sc = row.score;
        let mark = if row.name == winner.name { " *" } else { "" };
        s += &format!(
            "{:<24} {:>12} {:>8} {:>6.1}% {:>6.1}%{mark}\n",
            row.name,
            sc.makespan_ns,
            dec4(sc.imbalance),
            100.0 * sc.steal_share,
            100.0 * sc.idle_share,
        );
    }
    let (bl, wl) = (rows[0].score, winner.score);
    let gain = bl.makespan_ns as i64 - wl.makespan_ns as i64;
    s += &format!(
        "\nwinner: {} — live makespan {} vs baseline {} ({}{} ns, {:.2}%)\n",
        winner.name,
        wl.makespan_ns,
        bl.makespan_ns,
        if gain >= 0 { "-" } else { "+" },
        gain.abs(),
        100.0 * gain as f64 / bl.makespan_ns.max(1) as f64,
    );
    s += &format!(
        "blame shift: steal {:.1}% -> {:.1}%, idle {:.1}% -> {:.1}%, td {:.1}% -> {:.1}%\n",
        100.0 * bl.steal_share,
        100.0 * wl.steal_share,
        100.0 * bl.idle_share,
        100.0 * wl.idle_share,
        100.0 * bl.td_share,
        100.0 * wl.td_share,
    );
    s
}

pub fn run(args: &Args) -> Outcome {
    let (tree, params) = tree_arg(args, "tree", "small");
    let rc = RunCfg {
        ranks: args.count("ranks", 64),
        params,
        seed: args.get("seed", 0xD5EED),
        latency: LatencyPreset::from_args(args),
    };
    eprintln!("tune: {} ranks, {tree} tree, seed {}", rc.ranks, rc.seed);
    let rows = sweep(rc);
    let (base, best) = (rows[0].score, winner(&rows));

    let source = format!(
        "tune fig7@{} tree={tree} seed={} latency={}",
        rc.ranks,
        rc.seed,
        rc.latency.name()
    );
    let cfg = config_json(&best.tc, &source);
    if let Some(out) = args.get_opt("out") {
        front::write_file(&out, &cfg, "tuned config")?;
    }
    let report = render_report(&rows, best);
    if let Some(out) = args.get_opt("report") {
        front::write_file(&out, &report, "tune report")?;
    }
    print!("{report}");
    print!("{cfg}");

    let tuned = best.score.makespan_ns;
    let mut bench = BenchOut::new("fig7_tuned");
    bench.param("ranks", rc.ranks);
    bench.param("tree", &tree);
    bench.param("seed", rc.seed);
    bench.param("winner", &best.name);
    rc.latency.record(&mut bench);
    bench.metric("makespan_default_ns", base.makespan_ns as f64);
    bench.metric("makespan_tuned_ns", tuned as f64);
    bench.metric("headroom_ns", base.makespan_ns as f64 - tuned as f64);
    bench.write_if_requested(args)?;

    if args.has("require-improvement") && tuned >= base.makespan_ns {
        return Err(Exit::failed(format!(
            "no improvement over defaults (tuned {tuned} ns >= default {} ns)",
            base.makespan_ns
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(makespan_ns: u64, imbalance: f64) -> Score {
        Score {
            makespan_ns,
            imbalance,
            steal_share: 0.0,
            idle_share: 0.0,
            td_share: 0.0,
        }
    }

    fn row(name: &str, score: Score) -> Row {
        Row {
            name: name.to_string(),
            tc: SciotoUtsConfig::new(scioto_uts::presets::tiny()).tc,
            score,
        }
    }

    /// The full sweep at 8 ranks on the tiny tree: every configuration is
    /// a valid `TcConfig`, every report row carries its live makespan, and
    /// the pick has the smallest makespan, then the smallest cost.
    #[test]
    fn the_pick_is_the_cheapest_live_candidate() {
        let rc = RunCfg {
            ranks: 8,
            params: scioto_uts::presets::tiny(),
            seed: 0xD5EED,
            latency: LatencyPreset::Flat,
        };
        let rows = sweep(rc);
        assert_eq!(rows.len(), 1 + 9, "baseline + four axes");
        for row in &rows {
            assert_eq!(row.tc.validate(), Ok(()), "{}", row.name);
            assert!(row.score.makespan_ns > 0, "{}", row.name);
        }
        let best = winner(&rows);
        let fastest = rows.iter().map(|r| r.score.makespan_ns).min().unwrap();
        assert_eq!(
            best.score.makespan_ns, fastest,
            "{} is not the fastest",
            best.name
        );
        let min_cost = rows
            .iter()
            .filter(|r| r.score.makespan_ns == fastest)
            .map(|r| r.score.cost())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(
            best.score.cost(),
            min_cost,
            "{} is not the cheapest",
            best.name
        );

        // The rendered table has one live makespan per row, the winner's
        // marked.
        let report = render_report(&rows, best);
        let table: Vec<&str> = report
            .lines()
            .skip(3)
            .take_while(|l| !l.is_empty())
            .collect();
        assert_eq!(table.len(), rows.len(), "{report}");
        for (line, row) in table.iter().zip(&rows) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[0], row.name, "{report}");
            assert_eq!(
                cols[1].parse::<u64>(),
                Ok(row.score.makespan_ns),
                "{report}"
            );
            assert_eq!(line.ends_with(" *"), row.name == best.name, "{report}");
        }
        assert!(
            report.contains(&format!("\nwinner: {} — ", best.name)),
            "{report}"
        );
        assert!(report.contains("\nblame shift: steal "), "{report}");
    }

    #[test]
    fn report_renders_winner_gain_and_blame_shift() {
        let rows = vec![
            row(
                "baseline",
                Score {
                    steal_share: 0.2,
                    ..score(1000, 0.0)
                },
            ),
            row(
                "chunk=5",
                Score {
                    steal_share: 0.1,
                    ..score(880, 0.0)
                },
            ),
        ];
        let report = render_report(&rows, &rows[1]);
        assert!(
            report.contains(
                "\nwinner: chunk=5 — live makespan 880 vs baseline 1000 (-120 ns, 12.00%)\n"
            ),
            "{report}"
        );
        assert!(
            report.contains("\nblame shift: steal 20.0% -> 10.0%, "),
            "{report}"
        );
        let stands = render_report(&rows, &rows[0]);
        assert!(stands.contains("\nwinner: baseline — "), "{stands}");
        assert!(stands.contains("(-0 ns, 0.00%)"), "{stands}");
        let worse = vec![
            row("baseline", score(880, 0.0)),
            row("chunk=5", score(1000, 0.0)),
        ];
        let report = render_report(&worse, &worse[1]);
        assert!(report.contains("(+120 ns, -13.64%)"), "{report}");
    }

    /// Makespan ranks first: a lower cost bought with a higher makespan
    /// does not win, so the pick never fails `--require-improvement` while
    /// a faster candidate exists. Cost breaks a makespan tie, and the
    /// baseline keeps a full tie.
    #[test]
    fn winner_ranks_by_makespan_then_cost() {
        let rows = vec![
            row("baseline", score(1000, 0.5)),
            row("balanced", score(1001, 0.0)),
            row("skewed", score(990, 0.4)),
            row("even", score(990, 0.3)),
        ];
        assert!(rows[1..]
            .iter()
            .all(|r| rows[1].score.cost() <= r.score.cost()));
        assert_eq!(winner(&rows).name, "even");
        let tie = vec![
            row("baseline", score(1000, 0.0)),
            row("same", score(1000, 0.0)),
        ];
        assert_eq!(winner(&tie).name, "baseline");
    }

    #[test]
    fn config_json_is_deterministic_and_versioned() {
        let tc = SciotoUtsConfig::new(scioto_uts::presets::tiny()).tc;
        let a = config_json(&tc, "fig7@64 seed=0xD5EED");
        assert_eq!(
            a,
            "{\n  \"schema\": \"scioto-tcconfig-v1\",\n  \"source\": \"fig7@64 seed=0xD5EED\",\n  \
             \"chunk\": 10,\n  \"victim_cont\": 0.7000,\n  \"victim_escape\": 0.1250,\n  \
             \"release_fraction\": 0.5000\n}\n"
        );
        scioto_sim::validate_json(&a).expect("config json parses");
    }

    #[test]
    fn score_cost_prefers_smaller_makespan_then_balance() {
        let fast = score(100, 0.5);
        assert!(fast.cost() < score(120, 0.0).cost());
        assert!(score(100, 0.0).cost() < fast.cost());
    }
}
