//! Command line: one workload in this process (what the acceptance driver
//! calls), or every workload each in a fresh child process (what a person
//! runs), optionally twice with the two sets compared.

use std::collections::BTreeMap;
use std::process::Command;

use crate::bench::{self, out_dir, Options};
use crate::json;
use crate::spec::{end_to_end, per_layer};
use crate::workloads::{deterministic, Workload, WORKLOADS};

const USAGE: &str = "\
usage: perf/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                   [--quick] [--repeat-check]

  --workload NAME  run one workload in this process (default: all five,
                   each in a fresh process so peak_rss_mb is its own)
  --seed N         input and machine seed (default 0)
  --seconds S      how long the timed reps go on for (default 15)
  --trace [0|1]    1: the traced run (per-layer metrics, spans, probes);
                   0: the timed run (end-to-end metrics). Without
                   --workload, a bare --trace runs both for each workload
  --quick          toy inputs, 2 reps: the smoke test
  --repeat-check   run two full sets back to back and compare them
                   against the benchmark's own bounds
";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeat_check: bool,
}

/// Parse `argv` (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 15.0,
        trace: false,
        quick: false,
        repeat_check: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a number >= 0")?;
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn find_workload(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })
}

/// Run `w` in a fresh child process; true when it exited 0.
fn spawn(w: &Workload, args: &Args, trace: bool) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `status()` waits for the child to end.
    cmd.status().is_ok_and(|s| s.success())
}

/// One full set: every workload's timed run, and its traced run too when
/// asked. True when every child succeeded.
fn run_set(args: &Args) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        ok &= spawn(w, args, false);
        if args.trace {
            ok &= spawn(w, args, true);
        }
    }
    ok
}

type Set = BTreeMap<String, BTreeMap<String, f64>>;

/// Read the `BENCH_<kind>_<workload>.json` files of the set just run.
fn read_set(kind: &str, quick: bool) -> Result<Set, String> {
    let mut set = Set::new();
    for w in &WORKLOADS {
        let path = out_dir(quick).join(format!("BENCH_{kind}_{}.json", w.name));
        let body =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&body).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = doc
            .get("metrics")
            .ok_or_else(|| format!("{}: no metrics", path.display()))?
            .members()
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        set.insert(w.name.to_string(), metrics);
    }
    Ok(set)
}

/// Compare two sets of the same code. Host metrics must agree within
/// their own bounds; virtual-time figures must be identical. Returns
/// whether they do.
pub fn compare_sets(kind: &str, a: &Set, b: &Set) -> bool {
    let declared = if kind == "host" {
        end_to_end()
    } else {
        per_layer()
    };
    let mut ok = true;
    println!(
        "{:<20} {:<32} {:>16} {:>16} {:>9} {:>7}  status",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for w in &WORKLOADS {
        let (ma, mb) = (&a[w.name], &b[w.name]);
        let drift = |m: &BTreeMap<String, f64>| m.get("bench.calib_drift").copied().unwrap_or(0.0);
        let unresolved = drift(ma) > 0.10 || drift(mb) > 0.10;
        for metric in &declared {
            let (Some(&x), Some(&y)) = (ma.get(&metric.name), mb.get(&metric.name)) else {
                println!("{:<20} {:<32} missing from a set", w.name, metric.name);
                ok = false;
                continue;
            };
            // Virtual-time results and counts repeat exactly or not at all.
            let exact = metric.name.starts_with("sim_")
                || (deterministic(w)
                    && metric.unit == "count"
                    && !metric.name.starts_with("bench."));
            let gap = if x == y {
                0.0
            } else {
                (y - x).abs() / x.abs().max(f64::MIN_POSITIVE)
            };
            let (bound, status) = match (exact, metric.bound) {
                (true, _) if gap != 0.0 => ("exact".to_string(), "DIFFERS"),
                (true, _) => ("exact".to_string(), "ok"),
                (false, Some(bound)) if unresolved => (format!("{bound:.2}"), "unresolved"),
                (false, Some(bound)) if gap > bound => (format!("{bound:.2}"), "EXCEEDS"),
                (false, Some(bound)) => (format!("{bound:.2}"), "ok"),
                // Per-layer host metrics carry no bound: shown, not judged.
                (false, None) => ("-".to_string(), "-"),
            };
            ok &= !matches!(status, "DIFFERS" | "EXCEEDS");
            println!(
                "{:<20} {:<32} {x:>16.4} {y:>16.4} {:>8.2}% {bound:>7}  {status}",
                w.name,
                metric.name,
                gap * 100.0
            );
        }
    }
    ok
}

fn repeat_check(args: &Args) -> Result<bool, String> {
    let kinds: &[&str] = if args.trace {
        &["host", "layers"]
    } else {
        &["host"]
    };
    let mut ok = run_set(args);
    let first: Vec<Set> = kinds
        .iter()
        .map(|k| read_set(k, args.quick))
        .collect::<Result<_, _>>()?;
    ok &= run_set(args);
    for (kind, a) in kinds.iter().zip(&first) {
        println!("\n== repeat check: {kind} metrics, two sets of the same code ==");
        ok &= compare_sets(kind, a, &read_set(kind, args.quick)?);
    }
    println!(
        "\nrepeat check: {}",
        if ok {
            "both sets agree within the benchmark's bounds"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

/// Entry point; returns the process exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let ok = match &args.workload {
        Some(name) => {
            let workload = match find_workload(name) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            };
            let options = Options {
                workload,
                seed: args.seed,
                // Quick runs stop at the rep floor, whatever the budget.
                seconds: if args.quick { 0.0 } else { args.seconds },
                quick: args.quick,
            };
            bench::run(&options, args.trace)
        }
        None if args.repeat_check => match repeat_check(&args) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("repeat check: {e}");
                false
            }
        },
        None => run_set(&args),
    };
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_form_and_the_human_form() {
        let a = parse_args(&argv(
            "--workload uts_vt_p64 --seed 7 --seconds 12 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("uts_vt_p64"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, false));
        assert!(parse_args(&argv("--trace 1")).unwrap().trace);
        assert!(parse_args(&argv("--trace --quick")).unwrap().trace);
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(find_workload("nope").is_err());
    }

    fn set_with(host: &[(&str, f64)]) -> Set {
        WORKLOADS
            .iter()
            .map(|w| {
                let m = host.iter().map(|(k, v)| (k.to_string(), *v)).collect();
                (w.name.to_string(), m)
            })
            .collect()
    }

    #[test]
    fn repeat_check_applies_each_metrics_own_rule() {
        let bound = end_to_end()[0].bound.expect("host_work_per_s is bounded");
        let base = [
            ("host_work_per_s", 1000.0),
            ("sim_makespan_us", 50.0),
            ("setup_s", 1.0),
        ];
        let a = set_with(&base);
        assert!(compare_sets("host", &a, &a));
        // Inside the host bound: fine.
        let mut near = base;
        near[0].1 = 1000.0 * (1.0 - bound / 2.0);
        assert!(compare_sets("host", &a, &set_with(&near)));
        // Outside it: fails.
        let mut far = base;
        far[0].1 = 1000.0 * (1.0 - bound * 1.5);
        assert!(!compare_sets("host", &a, &set_with(&far)));
        // Virtual time may not move at all.
        let mut vt = base;
        vt[1].1 = 50.001;
        assert!(!compare_sets("host", &a, &set_with(&vt)));
        // A host that changed speed mid-run resolves nothing.
        let mut drifted = far.to_vec();
        drifted.push(("bench.calib_drift", 0.5));
        assert!(compare_sets("host", &a, &set_with(&drifted)));
    }
}
