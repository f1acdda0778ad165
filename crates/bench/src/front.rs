//! The tool front end every subcommand shares: how a trace gets in, the
//! one verdict on it (three analyses from one sync walk, and the
//! barrier-episode census), how artifacts get out, and what the process
//! exits with.
//!
//! Exit status of `scioto <subcommand>`, whichever subcommand it is:
//!
//! * **0** — ran, and every requested check is clean;
//! * **1** — ran and found something: races, predicted races, atomicity
//!   violations or deadlock cycles, metric drift, a gate over its budget;
//! * **2** — could not do what was asked: a usage error (`args.rs`), a
//!   params mismatch, or a file that is missing, malformed (unparsable,
//!   or refused by the sync walk) or lossy (ring overflow dropped events).
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

/// The barrier episodes of a trace: the most `BarrierWait` records any
/// one rank emitted (every rank emits one per episode it joins).
pub fn barrier_episodes(trace: &Trace) -> usize {
    let waits = trace.events.iter().map(|events| {
        events.iter().filter(|e| matches!(e.event, TraceEvent::BarrierWait { .. })).count()
    });
    waits.max().unwrap_or(0)
}

/// The verdict of one [`check`]: its three analyses and its
/// barrier-episode census.
pub struct Verdict {
    ranks: usize,
    episodes: usize,
    hb: RaceReport,
    predicted: PredictReport,
    deadlocks: DeadlockReport,
}

impl Verdict {
    /// No race, predicted race, atomicity violation or deadlock cycle.
    pub fn is_clean(&self) -> bool {
        self.hb.is_clean() && self.predicted.is_clean() && self.deadlocks.is_clean()
    }

    /// The trace's barrier episodes ([`barrier_episodes`]).
    pub fn episodes(&self) -> usize {
        self.episodes
    }

    /// The reports and the census as text, each introduced by `label`.
    pub fn to_text(&self, label: &str) -> String {
        let (hb, p, d) = (&self.hb, &self.predicted, &self.deadlocks);
        let census = format!("census: {} rank(s), {} barrier episode(s)", self.ranks, self.episodes);
        format!("{label}{hb}{label}{p}{label}{d}{label}{census}\n")
    }

    /// The reports as one `scioto-race-v1` JSON line.
    pub fn to_json(&self, trace_label: &str) -> String {
        let (hb, p, d) = (&self.hb, &self.predicted, &self.deadlocks);
        scioto_race::render_report(trace_label, self.ranks, hb, p, d) + "\n"
    }
}

/// The one verdict on a trace: the happens-before race check, the
/// sync-preserving predictive analysis and the cross-rank lock-order cycle
/// scan, from one walk of its synchronization ([`scioto_race::check_all`]),
/// and its barrier-episode census. A trace that cannot be checked (dropped
/// events, a malformed trace, a stuck sync walk) is exit 2; findings are
/// the caller's to report ([`Verdict::is_clean`]).
pub fn check(trace: &Trace) -> Result<Verdict, Exit> {
    let (hb, predicted, deadlocks) = scioto_race::check_all(trace).map_err(Exit::unusable)?;
    let (ranks, episodes) = (trace.nranks(), barrier_episodes(trace));
    Ok(Verdict { ranks, episodes, hb, predicted, deadlocks })
}
