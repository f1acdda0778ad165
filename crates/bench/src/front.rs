//! The tool front end every subcommand shares: how a trace gets in, the
//! one verdict on it (three analyses and the replay engine's self-check),
//! how artifacts get out, and what the process exits with.
//!
//! Exit status of `scioto <subcommand>`, whichever subcommand it is:
//!
//! * **0** — ran, and every requested check is clean;
//! * **1** — ran and found something: races, predicted races, atomicity
//!   violations or deadlock cycles, metric drift, a replay that differs
//!   from its recording, a gate over its budget;
//! * **2** — could not do what was asked: a usage error (`args.rs`), a
//!   params mismatch, or a file that is missing, malformed, lossy (ring
//!   overflow dropped events) or not lowerable to a replay program.
//!
//! A subcommand returns an [`Outcome`]; `scioto_bench::main` is the one
//! place that turns it into a diagnostic line and a status — never a
//! panic.

use scioto_analyze::AnalysisReport;
use scioto_race::{DeadlockReport, PredictReport, RaceReport};
use scioto_sim::{Trace, TraceEvent};

/// Why a subcommand stops short of exit 0.
#[derive(Debug)]
pub struct Exit {
    pub(crate) code: u8,
    pub(crate) msg: String,
}

impl Exit {
    /// Exit 1: the subcommand ran and a check has findings or a gate
    /// failed.
    pub fn failed(msg: impl Into<String>) -> Exit {
        Exit { code: 1, msg: msg.into() }
    }

    /// Exit 2: input the subcommand cannot work on.
    pub fn unusable(msg: impl Into<String>) -> Exit {
        Exit { code: 2, msg: msg.into() }
    }

    /// The same exit, its message introduced by the file it is about.
    pub fn at(self, path: &str) -> Exit {
        Exit { msg: format!("{path}: {}", self.msg), ..self }
    }
}

/// What a subcommand returns.
pub type Outcome = Result<(), Exit>;

/// Read a text file, or exit 2 naming it.
pub fn read_file(path: &str) -> Result<String, Exit> {
    std::fs::read_to_string(path).map_err(|e| Exit::unusable(format!("cannot read {path}: {e}")))
}

/// Write an artifact and say so on stderr, or exit 2 naming the path.
pub fn write_file(path: &str, body: &str, what: &str) -> Outcome {
    std::fs::write(path, body).map_err(|e| Exit::unusable(format!("cannot write {path}: {e}")))?;
    eprintln!("{what} written to {path}");
    Ok(())
}

/// Load a JSONL trace dump (`--trace-out <path>.jsonl`) — the one way a
/// trace file gets into the tools.
pub fn load_trace(path: &str) -> Result<Trace, Exit> {
    scioto_analyze::jsonl::parse(&read_file(path)?)
        .map_err(|e| Exit::unusable(format!("{path}: {e}")))
}

/// Write a trace: flat JSONL when the path ends in `.jsonl`, Chrome
/// `trace_event` JSON otherwise. Ring-overflow drops are mirrored to
/// stderr: they mean truncated timelines.
pub fn write_trace(path: &str, trace: &Trace) -> Outcome {
    let dropped: u64 = trace.dropped.iter().sum();
    if dropped > 0 {
        eprintln!(
            "trace WARNING: ring overflow dropped {dropped} event(s) on {} rank(s); rerun with \
             a larger --trace-ring",
            trace.dropped.iter().filter(|&&d| d > 0).count()
        );
    }
    let body = if path.ends_with(".jsonl") { trace.to_jsonl() } else { trace.to_chrome_json() };
    let what = format!("trace: {} events ({} ranks)", trace.total_events(), trace.nranks());
    write_file(path, &body, &what)
}

/// Write an analysis: human text when the path ends in `.txt`, the
/// `scioto-analysis-v1` JSON otherwise. Ring-overflow and truncation
/// warnings are mirrored to stderr so a lossy trace never passes
/// silently.
pub fn write_analysis(path: &str, analysis: &AnalysisReport) -> Outcome {
    for w in &analysis.warnings {
        eprintln!("analysis WARNING: {w}");
    }
    let body = if path.ends_with(".txt") { analysis.to_text() } else { analysis.to_json() };
    let what = format!("analysis: {} ranks, makespan {} ns,", analysis.ranks, analysis.makespan_ns);
    write_file(path, &body, &what)
}

/// What the replay self-check of one [`check`] found.
enum Replay {
    /// A wall-clock (concurrent-mode) trace: valid and analyzable, but not
    /// replayable by design — wall stamps are not reproducible, so there is
    /// no byte-exact schedule to re-execute.
    WallClock,
    /// A virtual-time trace, lowered and replayed with no workload;
    /// `identical` when the replay equals the recording.
    Virtual { identical: bool },
}

/// The barrier episodes of a trace: the most `BarrierWait` records any
/// one rank emitted (every rank emits one per episode it joins).
pub fn barrier_episodes(trace: &Trace) -> usize {
    let waits = trace.events.iter().map(|events| {
        events.iter().filter(|e| matches!(e.event, TraceEvent::BarrierWait { .. })).count()
    });
    waits.max().unwrap_or(0)
}

/// The verdict of one [`check`]: its three analyses, its barrier-episode
/// census and its replay.
pub struct Verdict {
    ranks: usize,
    episodes: usize,
    hb: RaceReport,
    predicted: PredictReport,
    deadlocks: DeadlockReport,
    replay: Replay,
}

impl Verdict {
    /// No race, predicted race, atomicity violation or deadlock cycle, and
    /// no replay that differs from its recording.
    pub fn is_clean(&self) -> bool {
        self.hb.is_clean()
            && self.predicted.is_clean()
            && self.deadlocks.is_clean()
            && !matches!(self.replay, Replay::Virtual { identical: false })
    }

    /// The trace's barrier episodes ([`barrier_episodes`]).
    pub fn episodes(&self) -> usize {
        self.episodes
    }

    /// The reports as text, each introduced by `label`.
    pub fn to_text(&self, label: &str) -> String {
        let replay = match self.replay {
            Replay::WallClock => "replay check: wall-clock (concurrent-mode) trace: valid, not \
                                  replayable by design"
                .to_string(),
            Replay::Virtual { identical: true } => format!(
                "replay check OK: {} ranks reproduced identically ({} barrier episode(s))",
                self.ranks, self.episodes
            ),
            Replay::Virtual { identical: false } => {
                "replay check FAILED: replay differs from the recording".to_string()
            }
        };
        let (hb, p, d) = (&self.hb, &self.predicted, &self.deadlocks);
        format!("{label}{hb}{label}{p}{label}{d}{label}{replay}\n")
    }

    /// The reports as one `scioto-race-v1` JSON line.
    pub fn to_json(&self, trace_label: &str) -> String {
        let (hb, p, d) = (&self.hb, &self.predicted, &self.deadlocks);
        scioto_race::render_report(trace_label, self.ranks, hb, p, d) + "\n"
    }
}

/// The one verdict on a trace: the happens-before race check, the
/// sync-preserving predictive analysis, the cross-rank lock-order cycle
/// scan, then the replay engine's self-check — a virtual-time trace is
/// lowered, replayed with no workload and must equal the recording in
/// every stamp, duration and gauge; a wall-clock trace passes as not
/// replayable by design. A trace that cannot be checked (dropped events,
/// a stuck sync walk, a program that does not lower) is exit 2; findings
/// and a replay that differs are the caller's to report
/// ([`Verdict::is_clean`]).
pub fn check(trace: &Trace) -> Result<Verdict, Exit> {
    let refused = |what: &str, e: String| Exit::unusable(format!("{what}: {e}"));
    Ok(Verdict {
        ranks: trace.nranks(),
        episodes: barrier_episodes(trace),
        hb: scioto_race::check_trace(trace).map_err(|e| refused("race check", e))?,
        predicted: scioto_race::predict(trace).map_err(|e| refused("predict", e))?,
        deadlocks: scioto_race::check_deadlocks(trace)
            .map_err(|e| refused("deadlock check", e))?,
        replay: match trace.wall_clock {
            true => Replay::WallClock,
            false => {
                let program = scioto_analyze::lower(trace)
                    .map_err(|e| refused("not replayable", e.to_string()))?;
                Replay::Virtual { identical: scioto_sim::run_replay(&program) == *trace }
            }
        },
    })
}
