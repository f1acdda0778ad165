//! The tool front end every subcommand shares: how a trace gets in, what
//! a check's verdict means, how the replay engine vouches for itself, how
//! artifacts get out, and what the process exits with.
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
use scioto_sim::{ReplayProgram, Trace};

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
/// `trace_event` JSON otherwise.
pub fn write_trace(path: &str, trace: &Trace) -> Outcome {
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

/// The reports of one [`check`].
pub struct Verdict {
    ranks: usize,
    hb: RaceReport,
    predicted: Option<PredictReport>,
    deadlocks: Option<DeadlockReport>,
}

impl Verdict {
    /// No race, predicted race, atomicity violation or deadlock cycle.
    pub fn is_clean(&self) -> bool {
        self.hb.is_clean()
            && self.predicted.as_ref().is_none_or(|p| p.is_clean())
            && self.deadlocks.as_ref().is_none_or(|d| d.is_clean())
    }

    /// The reports as text, each introduced by `label`.
    pub fn to_text(&self, label: &str) -> String {
        let mut out = format!("{label}{}", self.hb);
        if let Some(p) = &self.predicted {
            out += &format!("{label}{p}");
        }
        if let Some(d) = &self.deadlocks {
            out += &format!("{label}{d}");
        }
        out
    }

    /// The reports as one `scioto-race-v1` JSON line.
    pub fn to_json(&self, trace_label: &str) -> String {
        let (p, d) = (self.predicted.as_ref(), self.deadlocks.as_ref());
        scioto_race::render_report(trace_label, self.ranks, &self.hb, p, d) + "\n"
    }
}

/// Replay the happens-before check over `trace` and, when asked, the
/// sync-preserving predictive analysis and the cross-rank lock-order
/// cycle scan. A trace a checker cannot work on (dropped events, a stuck
/// replay) is exit 2; findings are the caller's to report
/// ([`Verdict::is_clean`]).
pub fn check(trace: &Trace, predict: bool, deadlock: bool) -> Result<Verdict, Exit> {
    let refused = |what: &str, e: String| Exit::unusable(format!("{what}: {e}"));
    Ok(Verdict {
        ranks: trace.nranks(),
        hb: scioto_race::check_trace(trace).map_err(|e| refused("race check", e))?,
        predicted: match predict {
            true => Some(scioto_race::predict(trace).map_err(|e| refused("predict", e))?),
            false => None,
        },
        deadlocks: match deadlock {
            true => Some(
                scioto_race::check_deadlocks(trace).map_err(|e| refused("deadlock check", e))?,
            ),
            false => None,
        },
    })
}

/// Lower a trace to a replay program, or exit 2 naming the first rank and
/// event that cannot be re-executed.
pub fn lower(trace: &Trace) -> Result<ReplayProgram, Exit> {
    scioto_analyze::lower(trace).map_err(|e| Exit::unusable(format!("not replayable: {e}")))
}

/// The replay engine's self-check: lower `trace`, re-execute it on the
/// virtual-time kernel with no workload, and require the replay to equal
/// the recording — every stamp, duration, histogram and gauge, and so its
/// blame decomposition and critical path. Returns the program and the
/// replayed trace; exit 1 when they differ.
pub fn replay_identity(trace: &Trace) -> Result<(ReplayProgram, Trace), Exit> {
    let prog = lower(trace)?;
    let replayed = scioto_sim::run_replay(&prog);
    if replayed != *trace {
        return Err(Exit::failed("replay check FAILED: replay differs from the recording"));
    }
    eprintln!(
        "replay check OK: {} events over {} ranks reproduced identically",
        trace.total_events(),
        trace.nranks()
    );
    Ok((prog, replayed))
}
