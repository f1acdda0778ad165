//! Re-execute a recorded JSONL trace on the virtual-time kernel — no
//! original workload needed — optionally re-priced under substituted
//! knobs (the what-if layer).
//!
//! Run: `cargo run --release -p scioto-bench --bin replay -- --file t.jsonl`
//!
//! Options:
//! * `--file <path>` — recorded JSONL trace (required).
//! * `--check` — verify the replay reproduces the recording
//!   byte-identically (exit 1 on mismatch); incompatible with knob
//!   substitution.
//! * What-if knobs (any subset; omitted knobs keep the baseline value):
//!   `--chunk N`, `--victim-cont F`, `--victim-escape F`,
//!   `--td-batch on|off`, `--latency flat|nearfar` (the scenario's
//!   latency tiers; `--base-latency` names the recording's, default
//!   flat).
//! * `--analysis-out <path>` — write the replayed run's analysis
//!   (`.txt` for human text, JSON otherwise).
//! * `--trace-out <path>` — write the replayed trace (`.jsonl` or Chrome
//!   JSON).
//!
//! Exit codes: 0 ok, 1 `--check` mismatch, 2 unreplayable input.

use scioto_analyze::whatif::{reprice, Knobs};
use scioto_bench::{Args, LatencyPreset};

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let path = args
        .get_opt("file")
        .unwrap_or_else(|| args.fail("--file <trace.jsonl> is required"));
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let trace = match scioto_analyze::jsonl::parse(&body) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: cannot parse {path}: {e}");
            std::process::exit(2);
        }
    };
    let prog = match scioto_analyze::lower(&trace) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("replay: {e}");
            std::process::exit(2);
        }
    };

    let base = Knobs {
        tiers: LatencyPreset::from_flag(&args, "base-latency").tiers(),
        ..Knobs::baseline()
    };
    let mut cand = base;
    cand.chunk = args.get("chunk", cand.chunk);
    cand.victim_cont = args.get("victim-cont", cand.victim_cont);
    cand.victim_escape = args.get("victim-escape", cand.victim_escape);
    cand.td_batch = args
        .choice("td-batch", &[("on", true), ("off", false)])
        .unwrap_or(cand.td_batch);
    if args.has("latency") {
        cand.tiers = LatencyPreset::from_args(&args).tiers();
    }

    let what_if = cand != base;
    if args.has("check") && what_if {
        args.fail("--check verifies identity replay; drop the what-if knobs");
    }

    let replayed = if what_if {
        scioto_sim::run_replay(&reprice(&prog, &base, &cand))
    } else {
        scioto_sim::run_replay(&prog)
    };

    if args.has("check") {
        if replayed.to_jsonl() != trace.to_jsonl() {
            eprintln!("replay check FAILED: replay differs from the recording");
            std::process::exit(1);
        }
        eprintln!(
            "replay check OK: {} events over {} ranks reproduced byte-identically",
            trace.total_events(),
            trace.nranks()
        );
    }

    let analysis = scioto_analyze::analyze(&replayed);
    if let Some(out) = args.get_opt("analysis-out") {
        let body = if out.ends_with(".txt") {
            analysis.to_text()
        } else {
            analysis.to_json()
        };
        std::fs::write(&out, body).unwrap_or_else(|e| panic!("writing {out}: {e}"));
        eprintln!("replay analysis written to {out}");
    }
    if let Some(out) = args.get_opt("trace-out") {
        let body = if out.ends_with(".jsonl") {
            replayed.to_jsonl()
        } else {
            replayed.to_chrome_json()
        };
        std::fs::write(&out, body).unwrap_or_else(|e| panic!("writing {out}: {e}"));
        eprintln!("replayed trace written to {out}");
    }

    let mode = if what_if { "what-if" } else { "identity" };
    println!(
        "replayed {path} ({mode}): {} ranks, makespan {} ns",
        analysis.ranks, analysis.makespan_ns
    );
}
