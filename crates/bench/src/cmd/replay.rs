//! `scioto replay` — re-execute a recorded JSONL trace on the
//! virtual-time kernel, no original workload needed, optionally re-priced
//! under substituted knobs (the what-if layer).
//!
//! * `--file <path>` — recorded JSONL trace (required).
//! * `--check` — verify the replay reproduces the recording exactly
//!   (exit 1 on mismatch); incompatible with knob substitution.
//! * What-if knobs (any subset; omitted knobs keep the baseline value):
//!   `--chunk N`, `--victim-cont F`, `--victim-escape F`,
//!   `--latency flat|nearfar` (the scenario's latency tiers;
//!   `--base-latency` names the recording's, default flat). A knob value
//!   `TcConfig::validate` would refuse exits 2.
//! * `--analysis-out <path>` / `--trace-out <path>` — write the replayed
//!   run's analysis (`.txt` or JSON) and trace (`.jsonl` or Chrome JSON).

use scioto_analyze::whatif::{reprice, Knobs};

use crate::front::{self, Outcome};
use crate::{Args, LatencyPreset};

pub fn run(args: &Args) -> Outcome {
    let path = args.required("file");
    let base = Knobs {
        tiers: LatencyPreset::from_flag(args, "base-latency").tiers(),
        ..Knobs::baseline()
    };
    let mut cand = base;
    cand.chunk = args.get("chunk", cand.chunk);
    cand.victim_cont = args.get("victim-cont", cand.victim_cont);
    cand.victim_escape = args.get("victim-escape", cand.victim_escape);
    let tc = scioto::TcConfig {
        chunk: cand.chunk,
        ..scioto::TcConfig::new(8, 1, 16)
    };
    if let Err(e) = tc.with_victim_probs(cand.victim_cont, cand.victim_escape).validate() {
        args.fail(&e);
    }
    if args.has("latency") {
        cand.tiers = LatencyPreset::from_args(args).tiers();
    }
    let what_if = cand != base;
    if args.has("check") && what_if {
        args.fail("--check verifies identity replay; drop the what-if knobs");
    }

    let trace = front::load_trace(&path)?;
    let replayed = if args.has("check") {
        front::replay_identity(&trace).map_err(|e| e.at(&path))?.1
    } else {
        let prog = front::lower(&trace).map_err(|e| e.at(&path))?;
        scioto_sim::run_replay(&if what_if { reprice(&prog, &base, &cand) } else { prog })
    };

    let analysis = scioto_analyze::analyze(&replayed);
    if let Some(out) = args.get_opt("analysis-out") {
        front::write_analysis(&out, &analysis)?;
    }
    if let Some(out) = args.get_opt("trace-out") {
        front::write_trace(&out, &replayed)?;
    }
    let mode = if what_if { "what-if" } else { "identity" };
    println!(
        "replayed {path} ({mode}): {} ranks, makespan {} ns",
        analysis.ranks, analysis.makespan_ns
    );
    Ok(())
}
