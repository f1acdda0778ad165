//! The `scioto` executable: every table/figure regeneration and every
//! trace tool is a subcommand of it. Here: the dispatch table and strict
//! flag parser ([`Args`]), the front end all subcommands share
//! ([`front`]: trace loading, the check driver, the replay self-check,
//! artifact writers, the exit-status contract), the run spec every figure
//! builds its machines from ([`RunSpec`]), aligned table printing and
//! common sweep helpers.

use std::fmt::Write as _;
use std::process::ExitCode;

mod args;
pub mod benchjson;
mod cmd;
pub mod front;
mod runspec;

pub use args::{accepted_flags, subcommands, Args};
pub use benchjson::BenchOut;
pub use runspec::{LatencyPreset, PolicyFlags, RunSpec};

/// Run the subcommand the process arguments name and turn its
/// [`front::Outcome`] into the exit status.
pub fn main() -> ExitCode {
    let (run, args) = args::dispatch();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(exit) => {
            eprintln!("{}: {}", args.cmd(), exit.msg);
            ExitCode::from(exit.code)
        }
    }
}

/// Render an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ", w = w);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Format nanoseconds as microseconds with 2 decimals.
pub fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e3)
}

/// Format nanoseconds as seconds with 3 decimals.
pub fn secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Millions of tree nodes per second of virtual time.
pub fn mnodes_per_s(nodes: u64, makespan_ns: u64) -> f64 {
    nodes as f64 / (makespan_ns as f64 / 1e9) / 1e6
}

/// The rank counts used by the paper's cluster figures, extended past the
/// paper's 64-rank ceiling by continuing the powers of two up to `max`
/// (fibers sweep to 1024+ ranks on one core).
pub fn cluster_rank_sweep(max: usize) -> Vec<usize> {
    let mut ps = Vec::new();
    let mut p = 2usize;
    while p <= max {
        ps.push(p);
        p *= 2;
    }
    ps
}

/// `--<key> tiny|small|medium|large`: a UTS tree preset by name (`default`
/// when the flag is absent). Returns the name with the parameters, for
/// subcommands that print or record it.
pub fn tree_arg(args: &Args, key: &str, default: &str) -> (String, scioto_uts::TreeParams) {
    use scioto_uts::presets;
    let name = args.get_opt(key).unwrap_or_else(|| default.to_string());
    let params = match name.as_str() {
        "tiny" => presets::tiny(),
        "small" => presets::small(),
        "medium" => presets::medium(),
        "large" => presets::large(),
        other => args.fail(&format!("--{key} expects tiny|small|medium|large, got {other}")),
    };
    (name, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["P", "value"],
            &[
                vec!["2".into(), "1.00".into()],
                vec!["64".into(), "123.45".into()],
            ],
        );
        assert!(t.contains("demo"));
        assert!(t.contains("123.45"));
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(us(1_500), "1.50");
        assert_eq!(secs(2_500_000_000), "2.500");
    }

    #[test]
    fn sweep_respects_cap() {
        assert_eq!(cluster_rank_sweep(16), vec![2, 4, 8, 16]);
        // Identical to the historical list at the paper's 64-rank ceiling,
        // and continuing in powers of two beyond it.
        assert_eq!(cluster_rank_sweep(64), vec![2, 4, 8, 16, 32, 64]);
        assert_eq!(
            cluster_rank_sweep(1024),
            vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        );
    }
}
