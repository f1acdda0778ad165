//! `scioto replay` — re-time a recorded JSONL trace by evaluating its
//! timing recurrences, no original workload needed.
//!
//! * `--file <path>` — recorded JSONL trace (required).
//! * `--check` — verify the replay reproduces the recording exactly
//!   (exit 1 on mismatch).
//! * `--analysis-out <path>` / `--trace-out <path>` — write the replayed
//!   run's analysis (`.txt` or JSON) and trace (`.jsonl` or Chrome JSON).

use crate::front::{self, Outcome};
use crate::Args;

pub fn run(args: &Args) -> Outcome {
    let path = args.required("file");
    let trace = front::load_trace(&path)?;
    let replayed = if args.has("check") {
        front::replay_identity(&trace).map_err(|e| e.at(&path))?
    } else {
        scioto_sim::run_replay(&front::lower(&trace).map_err(|e| e.at(&path))?)
    };

    let analysis = scioto_analyze::analyze(&replayed);
    if let Some(out) = args.get_opt("analysis-out") {
        front::write_analysis(&out, &analysis)?;
    }
    if let Some(out) = args.get_opt("trace-out") {
        front::write_trace(&out, &replayed)?;
    }
    println!(
        "replayed {path}: {} ranks, makespan {} ns",
        analysis.ranks, analysis.makespan_ns
    );
    Ok(())
}
