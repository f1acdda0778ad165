//! Smoke-check a Chrome `trace_event` dump produced by `--trace-out`:
//! the file must parse as JSON and carry at least one event (beyond the
//! `thread_name` metadata record) on every rank's track.
//!
//! Run: `cargo run -p scioto-bench --bin trace_check -- \
//!           --file /tmp/trace.json --ranks 8`
//!
//! With `--replayable` the file is instead treated as a JSONL dump and
//! probed for replayability: parse, lower to a replay program, and report
//! the first offending rank/event when the trace cannot be re-executed.
//! Wall-clock (concurrent-mode) traces are an expected, valid input that
//! is *by design* not replayable — they classify as such with a
//! descriptive note and exit 0, not an error cascade.
//!
//! `--max-episodes N` (with `--replayable`) additionally gates the
//! lowered program's barrier-episode census: more than `N` episodes
//! exits 1. This is the verify-script guard against collective-startup
//! regressions — the collective log keeps fixed-shape workloads at a
//! known episode count, and an accidental extra barrier shows up here
//! long before it shows up in a throughput figure.
//!
//! Exits 0 on success, 1 with a diagnostic on stderr otherwise. Used by
//! `scripts/verify.sh` to smoke-test the tracing pipeline end to end.

use scioto_bench::Args;
use scioto_sim::validate_json;

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let Some(path) = args.get_opt("file") else {
        eprintln!("usage: trace_check --file <trace.json> --ranks <n> | --file <trace.jsonl> --replayable");
        std::process::exit(1);
    };
    if args.has("replayable") {
        let body = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("trace_check: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let trace = match scioto_analyze::jsonl::parse(&body) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trace_check: {path}: {e}");
                std::process::exit(1);
            }
        };
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
            return;
        }
        match scioto_analyze::lower(&trace) {
            Ok(prog) => {
                println!(
                    "trace_check: {path} is replayable ({} ranks, {} barrier episode(s))",
                    prog.nranks, prog.episodes
                );
                if let Some(max) = args.get_parsed::<usize>("max-episodes") {
                    if prog.episodes > max {
                        eprintln!(
                            "trace_check: {path} has {} barrier episode(s), over the \
                             --max-episodes budget {max} — a collective on the startup \
                             or steady-state path regressed to extra barrier rounds",
                            prog.episodes
                        );
                        std::process::exit(1);
                    }
                }
                return;
            }
            Err(e) => {
                eprintln!("trace_check: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let ranks: usize = args.get("ranks", 0);
    if ranks == 0 {
        eprintln!("trace_check: --ranks must be >= 1");
        std::process::exit(1);
    }
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = validate_json(&body) {
        eprintln!("trace_check: {path} is not valid JSON: {e}");
        std::process::exit(1);
    }
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
            eprintln!(
                "trace_check: rank {r} has {} event(s) in {path}; expected \
                 at least one trace event besides track metadata",
                hits.saturating_sub(meta)
            );
            std::process::exit(1);
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
