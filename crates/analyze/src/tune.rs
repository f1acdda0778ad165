//! Closed-loop knob autotuning over replayed schedules.
//!
//! The tuner's loop (driven by `scioto tune`) is: record one
//! seeded run → lower it to a replay program → re-price it under each
//! candidate knob assignment ([`crate::whatif::reprice`]) → replay and
//! score → live-validate the most promising candidates → emit a tuned
//! `TcConfig` as JSON plus a human report. This module holds the pure
//! pieces: the candidate sweep (pruned by the recorded critical path),
//! the score extracted from an analysis report, and the two renderers.
//!
//! Pruning follows the ISSUE's rule: the owner-release knobs
//! (`release_fraction`) restructure the schedule rather than re-price it,
//! so replay cannot rank them. They are explored only when the recorded
//! critical path is *headed by queue starvation* — its longest segment is
//! steal or idle time — and even then their replay score is the baseline's
//! (structural knobs ride to live validation on the gate alone).

use crate::critpath::CritPath;
use crate::timeline::Category;
use crate::whatif::Knobs;
use crate::AnalysisReport;

/// One knob assignment in the sweep, with a stable display name.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Stable axis=value label, e.g. `chunk=5`.
    pub name: String,
    /// The knobs this candidate runs under.
    pub knobs: Knobs,
    /// True when the candidate differs from the baseline only in
    /// structural knobs replay cannot re-price (release fraction): its
    /// replay score is meaningless and live validation decides.
    pub structural: bool,
}

/// Deterministic candidate sweep around `base`, pruned by the recorded
/// critical path `cp`.
///
/// Axes: victim continuation/escape probabilities, steal chunk, and —
/// only when the path is headed by steal/idle time — the split release
/// fraction.
pub fn candidates(base: &Knobs, cp: &CritPath) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut push = |name: String, knobs: Knobs, structural: bool| {
        out.push(Candidate { name, knobs, structural });
    };

    for cont in [0.5, 0.85] {
        if (cont - base.victim_cont).abs() > 1e-9 {
            push(
                format!("cont={cont:.2}"),
                Knobs { victim_cont: cont, ..*base },
                false,
            );
        }
    }
    for escape in [0.0625, 0.25] {
        if (escape - base.victim_escape).abs() > 1e-9 {
            push(
                format!("escape={escape:.4}"),
                Knobs { victim_escape: escape, ..*base },
                false,
            );
        }
    }
    for chunk in [5usize, 20] {
        if chunk != base.chunk {
            push(format!("chunk={chunk}"), Knobs { chunk, ..*base }, false);
        }
    }

    // Owner-release knobs: only when the owner's queue heads the path.
    let queue_headed = cp
        .top_segments(1)
        .first()
        .is_some_and(|s| matches!(s.cat, Category::Steal | Category::Idle));
    if queue_headed {
        for frac in [0.25, 0.75, 1.0] {
            if (frac - base.release_fraction).abs() > 1e-9 {
                push(
                    format!("release_fraction={frac:.2}"),
                    Knobs { release_fraction: frac, ..*base },
                    true,
                );
            }
        }
    }
    out
}

/// Scheduling quality extracted from one analysis report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// Virtual makespan.
    pub makespan_ns: u64,
    /// `max(elapsed) / mean(elapsed) - 1`; 0 is perfectly balanced.
    pub imbalance: f64,
    /// Steal share of total blamed time.
    pub steal_share: f64,
    /// Idle share of total blamed time.
    pub idle_share: f64,
    /// TD-polling share of total blamed time.
    pub td_share: f64,
}

impl Score {
    /// Extract a score from `report`.
    pub fn from_report(report: &AnalysisReport) -> Score {
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

    /// Scalar cost for ranking: makespan, nudged by imbalance so two
    /// candidates with equal makespans prefer the better-balanced one.
    pub fn cost(&self) -> f64 {
        self.makespan_ns as f64 * (1.0 + 0.05 * self.imbalance)
    }
}

/// Replay-score `cand` against a lowered recording: re-price, replay,
/// analyze, extract. Pure virtual-time arithmetic — deterministic.
pub fn replay_score(prog: &scioto_sim::ReplayProgram, base: &Knobs, cand: &Knobs) -> Score {
    let repriced = crate::whatif::reprice(prog, base, cand);
    let trace = scioto_sim::run_replay(&repriced);
    Score::from_report(&crate::analyze(&trace))
}

/// Fixed-point decimal with 4 fractional digits — deterministic across
/// platforms (no shortest-roundtrip float formatting in output files).
fn dec4(v: f64) -> String {
    format!("{v:.4}")
}

/// Render `knobs` as the tuned-config JSON document
/// (`scioto-tcconfig-v1`), consumable by operators or future loaders.
pub fn config_json(knobs: &Knobs, source: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"scioto-tcconfig-v1\",\n");
    s.push_str(&format!("  \"source\": \"{source}\",\n"));
    s.push_str(&format!("  \"chunk\": {},\n", knobs.chunk));
    s.push_str(&format!("  \"victim_cont\": {},\n", dec4(knobs.victim_cont)));
    s.push_str(&format!(
        "  \"victim_escape\": {},\n",
        dec4(knobs.victim_escape)
    ));
    s.push_str(&format!(
        "  \"release_fraction\": {}\n",
        dec4(knobs.release_fraction)
    ));
    s.push_str("}\n");
    s
}

/// One row of the tuning report: a candidate and its replay score, plus
/// its live score when the candidate reached validation.
#[derive(Clone, Debug)]
pub struct TuneRow {
    /// Candidate label (`baseline` for the incumbent).
    pub name: String,
    /// Score predicted by replay re-pricing.
    pub replay: Score,
    /// Score measured by a live seeded re-run, when validated.
    pub live: Option<Score>,
}

/// Render the human tuning report: the sweep table, the winner, and the
/// blame movement between baseline and winner.
pub fn render_report(rows: &[TuneRow], winner: &str, baseline: &str) -> String {
    let mut s = String::new();
    s.push_str("scioto autotune report\n");
    s.push_str(&format!("{:-<72}\n", ""));
    s.push_str(&format!(
        "{:<24} {:>12} {:>8} {:>7} {:>7} {:>12}\n",
        "candidate", "replay ns", "imbal", "steal%", "idle%", "live ns"
    ));
    for row in rows {
        let live = row
            .live
            .map_or("-".to_string(), |l| l.makespan_ns.to_string());
        let mark = if row.name == winner { " *" } else { "" };
        s.push_str(&format!(
            "{:<24} {:>12} {:>8} {:>6.1}% {:>6.1}% {:>12}{mark}\n",
            row.name,
            row.replay.makespan_ns,
            dec4(row.replay.imbalance),
            100.0 * row.replay.steal_share,
            100.0 * row.replay.idle_share,
            live,
        ));
    }
    let find = |name: &str| rows.iter().find(|r| r.name == name);
    if let (Some(b), Some(w)) = (find(baseline), find(winner)) {
        if let (Some(bl), Some(wl)) = (b.live, w.live) {
            let gain = bl.makespan_ns as i64 - wl.makespan_ns as i64;
            s.push_str(&format!(
                "\nwinner: {winner} — live makespan {} vs baseline {} ({}{} ns, {:.2}%)\n",
                wl.makespan_ns,
                bl.makespan_ns,
                if gain >= 0 { "-" } else { "+" },
                gain.abs(),
                100.0 * gain as f64 / bl.makespan_ns.max(1) as f64,
            ));
            s.push_str(&format!(
                "blame shift: steal {:.1}% -> {:.1}%, idle {:.1}% -> {:.1}%, td {:.1}% -> {:.1}%\n",
                100.0 * bl.steal_share,
                100.0 * wl.steal_share,
                100.0 * bl.idle_share,
                100.0 * wl.idle_share,
                100.0 * bl.td_share,
                100.0 * wl.td_share,
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::PathSegment;
    use crate::Blame;

    fn path_headed_by(cat: Category) -> CritPath {
        CritPath {
            length_ns: 100,
            total_work_ns: 100,
            max_task_ns: 10,
            blame: Blame::default(),
            segments: vec![PathSegment { rank: 0, cat, start: 0, end: 100 }],
            truncated: false,
        }
    }

    #[test]
    fn release_axis_gated_on_queue_headed_path() {
        let base = Knobs::baseline();
        let gated = candidates(&base, &path_headed_by(Category::Exec));
        assert!(
            !gated.iter().any(|c| c.name.starts_with("release_fraction")),
            "exec-headed path must not explore release knobs: {gated:?}"
        );
        let open = candidates(&base, &path_headed_by(Category::Steal));
        let releases: Vec<_> = open
            .iter()
            .filter(|c| c.name.starts_with("release_fraction"))
            .collect();
        assert_eq!(releases.len(), 3);
        assert!(releases.iter().all(|c| c.structural));
        // Non-structural axes are present either way.
        for sweep in [&gated, &open] {
            assert!(sweep.iter().any(|c| c.name == "chunk=5"));
            assert!(sweep.iter().any(|c| c.name == "cont=0.50"));
            assert!(sweep.iter().any(|c| c.name == "escape=0.2500"));
        }
    }

    #[test]
    fn sweep_skips_values_equal_to_baseline() {
        let mut base = Knobs::baseline();
        base.chunk = 5;
        let sweep = candidates(&base, &path_headed_by(Category::Exec));
        assert!(!sweep.iter().any(|c| c.name == "chunk=5"));
        assert!(sweep.iter().any(|c| c.name == "chunk=20"));
    }

    #[test]
    fn config_json_is_deterministic_and_versioned() {
        let k = Knobs::baseline();
        let a = config_json(&k, "fig7@64 seed=0xD5EED");
        assert_eq!(a, config_json(&k, "fig7@64 seed=0xD5EED"));
        assert!(a.contains("\"schema\": \"scioto-tcconfig-v1\""));
        assert!(a.contains("\"victim_escape\": 0.1250"));
        assert!(a.contains("\"chunk\": 10"));
        scioto_sim::validate_json(&a).expect("config json parses");
    }

    #[test]
    fn score_cost_prefers_smaller_makespan_then_balance() {
        let fast = Score {
            makespan_ns: 100,
            imbalance: 0.5,
            steal_share: 0.0,
            idle_share: 0.0,
            td_share: 0.0,
        };
        let slow = Score { makespan_ns: 120, imbalance: 0.0, ..fast };
        assert!(fast.cost() < slow.cost());
        let balanced = Score { imbalance: 0.0, ..fast };
        assert!(balanced.cost() < fast.cost());
    }

    #[test]
    fn report_renders_winner_and_blame_shift() {
        let s = |m: u64| Score {
            makespan_ns: m,
            imbalance: 0.1,
            steal_share: 0.2,
            idle_share: 0.1,
            td_share: 0.05,
        };
        let rows = vec![
            TuneRow { name: "baseline".into(), replay: s(1000), live: Some(s(1000)) },
            TuneRow { name: "chunk=5".into(), replay: s(900), live: Some(s(880)) },
        ];
        let r = render_report(&rows, "chunk=5", "baseline");
        assert!(r.contains("winner: chunk=5"), "{r}");
        assert!(r.contains("-120 ns"), "{r}");
        assert!(r.contains("blame shift"), "{r}");
    }
}
