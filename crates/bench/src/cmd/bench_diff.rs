//! `scioto bench_diff` — compare `scioto-bench-v1` JSON documents and
//! flag metric drift.
//!
//! Pairwise: `--baseline results/baselines/BENCH_table1.json --new
//! /tmp/BENCH_table1.json [--rel-tol 0.05] [--abs-tol 1e-9]`.
//!
//! Directory mode: `--all <dir> [--baseline-dir results/baselines]`
//! compares every `BENCH_*.json` under `<dir>` against the same-named
//! file in the baseline directory, applying the same tolerances to each
//! pair — one invocation covers a whole blessed set.
//!
//! A metric drifts when `|new - base| > abs_tol + rel_tol * |base|`, in
//! either direction — an unexpected speedup is as suspicious as a
//! slowdown when virtual-time results are supposed to be deterministic.
//! Metrics present in only one document always count as drift.
//!
//! Drift is exit 1; an unreadable or invalid file, a missing baseline and
//! a benchmark/params mismatch are exit 2 (comparing runs with different
//! parameters is a harness bug, not a regression).
//!
//! `--ignore-metrics split_startup_ns_*` drops matching metrics from both
//! documents before comparison (a trailing `*` matches any suffix) — for
//! diffs where one side legitimately records extra metrics.

use crate::front::{self, Exit, Outcome};
use crate::{benchjson, Args};

fn load(path: &str) -> Result<benchjson::BenchOut, Exit> {
    benchjson::parse(&front::read_file(path)?).map_err(|e| Exit::unusable(format!("{path}: {e}")))
}

struct Tolerance {
    rel: f64,
    abs: f64,
    ignore_metrics: Vec<String>,
}

/// `pat` matches `key` exactly, or by prefix when it ends in `*`.
fn metric_matches(pat: &str, key: &str) -> bool {
    match pat.strip_suffix('*') {
        Some(prefix) => key.starts_with(prefix),
        None => pat == key,
    }
}

/// Compare one baseline/new pair. Returns the number of drifted metrics;
/// a name/params mismatch is exit 2 (harness bug, not a regression).
fn compare(base_path: &str, new_path: &str, tol: &Tolerance) -> Result<usize, Exit> {
    let mut base = load(base_path)?;
    let mut new = load(new_path)?;
    for pat in &tol.ignore_metrics {
        base.metrics.retain(|k, _| !metric_matches(pat, k));
        new.metrics.retain(|k, _| !metric_matches(pat, k));
    }

    if base.name != new.name {
        return Err(Exit::unusable(format!(
            "benchmark mismatch: baseline is {:?}, new is {:?}",
            base.name, new.name
        )));
    }
    if base.params != new.params {
        return Err(Exit::unusable(format!(
            "params mismatch for {}: baseline {:?} vs new {:?}",
            base.name, base.params, new.params
        )));
    }

    let mut drifted = 0usize;
    let mut checked = 0usize;
    let keys: std::collections::BTreeSet<&String> =
        base.metrics.keys().chain(new.metrics.keys()).collect();
    for key in keys {
        match (base.metrics.get(key), new.metrics.get(key)) {
            (Some(b), Some(n)) => {
                checked += 1;
                let delta = (n - b).abs();
                if delta > tol.abs + tol.rel * b.abs() {
                    let pct = if *b == 0.0 { f64::INFINITY } else { 100.0 * (n - b) / b };
                    println!("DRIFT {key}: {b:.6} -> {n:.6} ({pct:+.2}%)");
                    drifted += 1;
                }
            }
            (Some(b), None) => {
                println!("DRIFT {key}: {b:.6} -> (missing in new)");
                drifted += 1;
            }
            (None, Some(n)) => {
                println!("DRIFT {key}: (missing in baseline) -> {n:.6}");
                drifted += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    if drifted > 0 {
        eprintln!(
            "bench_diff: {}: {drifted} metric(s) drifted beyond rel {} / abs {} \
             ({checked} compared)",
            base.name, tol.rel, tol.abs
        );
    } else {
        println!(
            "bench_diff: {}: {checked} metric(s) within rel {} / abs {}",
            base.name, tol.rel, tol.abs
        );
    }
    Ok(drifted)
}

pub fn run(args: &Args) -> Outcome {
    let tol = Tolerance {
        rel: args.get("rel-tol", 0.05),
        abs: args.get("abs-tol", 1e-9),
        ignore_metrics: args
            .get_opt("ignore-metrics")
            .map(|spec| {
                spec.split(',')
                    .map(str::trim)
                    .filter(|k| !k.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default(),
    };

    if let Some(dir) = args.get_opt("all") {
        let base_dir = args
            .get_opt("baseline-dir")
            .unwrap_or_else(|| "results/baselines".to_string());
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .map_err(|e| Exit::unusable(format!("cannot read directory {dir}: {e}")))?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
            })
            .collect();
        names.sort();
        if names.is_empty() {
            return Err(Exit::unusable(format!("no BENCH_*.json files under {dir}")));
        }
        let mut drifted = 0usize;
        for name in &names {
            let base_path = format!("{base_dir}/{name}");
            if !std::path::Path::new(&base_path).exists() {
                return Err(Exit::unusable(format!(
                    "{name}: no baseline at {base_path} (bless it or remove the stray result)"
                )));
            }
            drifted += compare(&base_path, &format!("{dir}/{name}"), &tol)?;
        }
        if drifted > 0 {
            return Err(Exit::failed(format!(
                "{drifted} metric(s) drifted across {} file(s)",
                names.len()
            )));
        }
        println!("bench_diff: {} file(s) clean against {base_dir}", names.len());
        return Ok(());
    }

    let (Some(base_path), Some(new_path)) = (args.get_opt("baseline"), args.get_opt("new")) else {
        args.fail("give --baseline <base.json> --new <new.json>, or --all <dir>");
    };
    match compare(&base_path, &new_path, &tol)? {
        0 => Ok(()),
        n => Err(Exit::failed(format!("{n} metric(s) drifted"))),
    }
}
