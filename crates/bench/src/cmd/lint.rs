//! `scioto lint` — scan the source tree for the repo's invariants (see
//! `scioto_race::lint` for the rules), run from the repository root: the
//! roots are `crates` and `src`.
//!
//! Default mode prints each finding and exits 1 when there is one.
//! `--stats` prints the live waiver count of every rule (one `<rule> <n>`
//! line per rule, sorted, then a `total` line) and exits 0: `verify.sh`
//! holds it against the committed ratchet `results/lint_waivers.txt`, so
//! waiver totals only shrink without a bless. Unreadable sources exit 2.

use std::path::PathBuf;

use crate::front::{Exit, Outcome};
use crate::Args;

pub fn run(args: &Args) -> Outcome {
    let roots: Vec<PathBuf> = ["crates", "src"].iter().map(PathBuf::from).filter(|p| p.is_dir()).collect();
    if roots.is_empty() {
        return Err(Exit::unusable("no crates/ or src/ directory here; run from the repository root"));
    }
    if args.has("stats") {
        let counts = scioto_race::waiver_stats(&roots).map_err(|e| Exit::unusable(format!("--stats: {e}")))?;
        for (rule, n) in &counts {
            println!("{rule} {n}");
        }
        println!("total {}", counts.values().sum::<usize>());
        return Ok(());
    }
    let mut findings = Vec::new();
    for root in &roots {
        let found = scioto_race::lint_tree(root).map_err(|e| Exit::unusable(format!("{}: {e}", root.display())))?;
        findings.extend(found);
    }
    for f in &findings {
        println!("{f}");
    }
    if !findings.is_empty() {
        return Err(Exit::failed(format!("{} finding(s)", findings.len())));
    }
    println!("lint: clean ({} root(s))", roots.len());
    Ok(())
}
