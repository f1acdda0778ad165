//! `scioto race_check` — race / deadlock checker for exported JSONL
//! traces, one or more per invocation (`--file <path>`, repeated).
//!
//! Always replays the happens-before check. `--predict` additionally
//! runs the sync-preserving predictive analysis (schedule-masked races
//! plus atomic-protocol verification); `--deadlock` runs the cross-rank
//! lock-order cycle scan. `--json-out <path>` writes one canonical
//! `scioto-race-v1` JSON object per trace (one per line, in command-line
//! order) to the path (`-` for stdout). The first trace that cannot be
//! analyzed stops the run with exit 2.

use crate::front::{self, Exit, Outcome};
use crate::Args;

pub fn run(args: &Args) -> Outcome {
    let paths = args.get_all("file");
    if paths.is_empty() {
        args.fail("at least one --file <trace.jsonl> is required");
    }
    let mut clean = true;
    let mut json_lines = String::new();
    for path in paths {
        let verdict =
            front::check(&front::load_trace(path)?, args.has("predict"), args.has("deadlock"))
                .map_err(|e| e.at(path))?;
        print!("{}", verdict.to_text(&format!("{path}: ")));
        clean &= verdict.is_clean();
        json_lines += &verdict.to_json(path);
    }
    match args.get_opt("json-out").as_deref() {
        Some("-") => print!("{json_lines}"),
        Some(out) => front::write_file(out, &json_lines, "race report")?,
        None => {}
    }
    match clean {
        true => Ok(()),
        false => Err(Exit::failed("findings (see the report above)")),
    }
}
