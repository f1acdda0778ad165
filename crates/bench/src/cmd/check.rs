//! `scioto check` — the verdict on recorded JSONL traces, one or more per
//! invocation (`--file <path>`, repeated): the same [`front::check`] that
//! `--check` gives a figure's traced run — the happens-before race check,
//! the predictive race and protocol-atomicity check, the lock-order
//! deadlock scan and the replay self-check.
//!
//! The text report goes to stdout. `--json-out <path>` writes one
//! canonical `scioto-race-v1` JSON object per trace (one per line, in
//! command-line order); with `-` for the path the objects go to stdout and
//! the text to stderr, so stdout parses line by line. `--max-episodes N`
//! gates each trace's barrier-episode census, the most `BarrierWait`
//! records any one rank emitted, wall-clock traces included: more than
//! `N` fails the check — the guard against a collective on the startup
//! or steady-state path regressing to extra barrier rounds. The first trace
//! that cannot be checked stops the run with exit 2.

use crate::front::{self, Exit, Outcome};
use crate::Args;

pub fn run(args: &Args) -> Outcome {
    let paths = args.get_all("file");
    if paths.is_empty() {
        args.fail("at least one --file <trace.jsonl> is required");
    }
    let json_out = args.get_opt("json-out");
    let max_episodes = args.get_parsed::<usize>("max-episodes");
    let mut clean = true;
    let mut json_lines = String::new();
    for path in paths {
        let verdict = front::check(&front::load_trace(path)?).map_err(|e| e.at(path))?;
        let mut text = verdict.to_text(&format!("{path}: "));
        clean &= verdict.is_clean();
        if let Some(max) = max_episodes.filter(|&max| verdict.episodes() > max) {
            text += &format!(
                "{path}: {} barrier episode(s), over the --max-episodes budget {max}\n",
                verdict.episodes()
            );
            clean = false;
        }
        match json_out.as_deref() {
            Some("-") => eprint!("{text}"),
            _ => print!("{text}"),
        }
        json_lines += &verdict.to_json(path);
    }
    match json_out.as_deref() {
        Some("-") => print!("{json_lines}"),
        Some(out) => front::write_file(out, &json_lines, "race report")?,
        None => {}
    }
    match clean {
        true => Ok(()),
        false => Err(Exit::failed("the check failed (see the report above)")),
    }
}
