//! `scioto trace_check` — smoke-check a Chrome `trace_event` dump
//! produced by `--trace-out`: the file must parse as JSON and carry at
//! least one event (beyond the `thread_name` metadata record) on every
//! one of the `--ranks <n>` rank tracks; a file that does not is exit 1.
//!
//! With `--replayable` the file is instead treated as a JSONL dump and
//! probed for replayability: parse, lower to a replay program, and name
//! the first offending rank/event when the trace cannot be re-executed
//! (exit 2). Wall-clock (concurrent-mode) traces are an expected, valid
//! input that is *by design* not replayable — they classify as such with
//! a descriptive note and exit 0, not an error cascade.
//!
//! `--max-episodes N` (with `--replayable`) additionally gates the
//! lowered program's barrier-episode census: more than `N` episodes
//! exits 1. This is the verify-script guard against collective-startup
//! regressions — the collective log keeps fixed-shape workloads at a
//! known episode count, and an accidental extra barrier shows up here
//! long before it shows up in a throughput figure.

use scioto_sim::validate_json;

use crate::front::{self, Exit, Outcome};
use crate::Args;

/// `--replayable`: classify a JSONL dump.
fn replayable(args: &Args, path: &str) -> Outcome {
    let trace = front::load_trace(path)?;
    if trace.wall_clock {
        // Valid trace, wrong clock domain for replay: report the
        // classification and succeed — the file is exactly what a
        // concurrent-mode run is supposed to produce.
        println!(
            "trace_check: {path} is a wall-clock (concurrent-mode) trace: valid, \
             analyzable, but not replayable by design — wall timestamps are not \
             reproducible, so there is no byte-exact schedule to re-execute \
             ({} ranks)",
            trace.nranks()
        );
        return Ok(());
    }
    let prog = front::lower(&trace).map_err(|e| e.at(path))?;
    println!(
        "trace_check: {path} is replayable ({} ranks, {} barrier episode(s))",
        prog.nranks, prog.episodes
    );
    match args.get_parsed::<usize>("max-episodes") {
        Some(max) if prog.episodes > max => Err(Exit::failed(format!(
            "{path} has {} barrier episode(s), over the --max-episodes budget {max} — a \
             collective on the startup or steady-state path regressed to extra barrier rounds",
            prog.episodes
        ))),
        _ => Ok(()),
    }
}

pub fn run(args: &Args) -> Outcome {
    let path = args.required("file");
    if args.has("replayable") {
        return replayable(args, &path);
    }
    let ranks: usize = args.get("ranks", 0);
    if ranks == 0 {
        args.fail("--ranks must be >= 1");
    }
    let body = front::read_file(&path)?;
    validate_json(&body).map_err(|e| Exit::failed(format!("{path} is not valid JSON: {e}")))?;
    // Every rank's track holds its thread_name metadata record plus its
    // events, each carrying a `"tid":R` member — require metadata plus at
    // least one real event per rank. Rank 0's track also carries the
    // process_name metadata record.
    for r in 0..ranks {
        // `tid` is followed by `,` when args trail it, `}` otherwise; both
        // terminators keep rank 1 from matching rank 12.
        let hits = body.matches(&format!("\"tid\":{r},")).count()
            + body.matches(&format!("\"tid\":{r}}}")).count();
        let meta = if r == 0 { 2 } else { 1 };
        if hits < meta + 1 {
            return Err(Exit::failed(format!(
                "rank {r} has {} event(s) in {path}; expected at least one trace event \
                 besides track metadata",
                hits.saturating_sub(meta)
            )));
        }
    }
    // The Chrome export carries the ring-overflow counters in its
    // `sciotoMeta` trailer; surface drops loudly (they mean truncated
    // timelines) without failing the check.
    if let Some(dropped) = dropped_counts(&body) {
        let total: u64 = dropped.iter().sum();
        if total > 0 {
            eprintln!(
                "trace_check: WARNING: ring overflow dropped {total} event(s) on {} rank(s); \
                 rerun with a larger --trace-ring",
                dropped.iter().filter(|&&d| d > 0).count()
            );
        }
    }
    let clock = if body.contains("\"clock\":\"wall\"") {
        ", wall clock"
    } else {
        ""
    };
    println!("trace_check: {path} OK ({ranks} rank tracks, JSON parses{clock})");
    Ok(())
}

/// Pull the per-rank drop counters out of `"sciotoMeta":{"dropped":[...]`.
/// Returns `None` for traces predating the metadata trailer.
fn dropped_counts(body: &str) -> Option<Vec<u64>> {
    let prefix = "\"sciotoMeta\":{\"dropped\":[";
    let rest = &body[body.find(prefix)? + prefix.len()..];
    let list = &rest[..rest.find(']')?];
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().ok())
        .collect()
}
