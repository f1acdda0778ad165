//! Analyze a JSONL trace dump offline: blame decomposition, steal
//! provenance, and critical path, without re-running the simulation.
//!
//! Run: `cargo run -p scioto-bench --bin analyze -- \
//!           --file /tmp/trace.jsonl [--json-out /tmp/analysis.json]`
//!
//! The human-readable report goes to stdout; `--json-out` additionally
//! writes the `scioto-analysis-v1` JSON document. The input must be a
//! JSONL dump from `--trace-out <path>.jsonl` (the meta header carries
//! the rank count, final clocks, and drop counters the analysis needs).
//!
//! Exits 0 on success, 1 on unreadable/malformed input. Ring-overflow
//! and truncation warnings are printed but do not fail the run.

use scioto_analyze::jsonl;
use scioto_bench::Args;

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let Some(path) = args.get_opt("file") else {
        eprintln!("usage: analyze --file <trace.jsonl> [--json-out <analysis.json>]");
        std::process::exit(1);
    };
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("analyze: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let trace = match jsonl::parse(&body) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("analyze: {path}: {e}");
            std::process::exit(1);
        }
    };
    let report = scioto_analyze::analyze(&trace);
    for w in &report.warnings {
        eprintln!("analyze WARNING: {w}");
    }
    print!("{}", report.to_text());
    if let Some(out) = args.get_opt("json-out") {
        let json = report.to_json();
        scioto_sim::validate_json(&json).expect("analysis JSON must be valid");
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
        eprintln!("analyze: JSON report written to {out}");
    }
}
