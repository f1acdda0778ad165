//! `scioto analyze` — analyze a JSONL trace dump offline: the trace's
//! census (events per rank and kind, duration digests, gauges), blame
//! decomposition, steal provenance and critical path, without re-running
//! the simulation.
//!
//! The human-readable report goes to stdout; `--json-out <path>`
//! additionally writes the `scioto-analysis-v1` JSON document (text when
//! the path ends in `.txt`). The input must be a JSONL dump from
//! `--trace-out <path>.jsonl` (the meta header carries the rank count,
//! final clocks and drop counters the analysis needs). Ring-overflow and
//! truncation warnings are part of the report and do not fail the run.

use crate::front::{self, Outcome};
use crate::Args;

pub fn run(args: &Args) -> Outcome {
    let path = args.required("file");
    let report = scioto_analyze::analyze(&front::load_trace(&path)?);
    print!("{}", report.to_text());
    match args.get_opt("json-out") {
        Some(out) => front::write_analysis(&out, &report),
        None => Ok(()),
    }
}
