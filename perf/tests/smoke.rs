//! End-to-end checks of the harness itself: the declared benchmark and
//! the code agree, the whole thing runs on toy inputs, and what it writes
//! has the promised shape.

use std::process::Command;

use scioto_perf::json::{self, Value};
use scioto_perf::spec::{end_to_end, per_layer, Metric};
use scioto_perf::workloads::{
    generate, machine, machine_seed, rep, setup, timed_trace, Checks, Input, QUICK, WORKLOADS,
};
use scioto_sim::validate_json;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string member {key}"))
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_reports() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["perf"]);
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let declared: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let coded: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared, coded);
    for w in doc.get("workloads").unwrap().items() {
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let same = |section: &str, coded: Vec<Metric>| {
        let declared = doc.get(section).unwrap().items();
        assert_eq!(declared.len(), coded.len(), "{section}: entry count");
        for (d, c) in declared.iter().zip(&coded) {
            assert_eq!(text(d, "name"), c.name, "{section}: order or name");
            assert_eq!(text(d, "unit"), c.unit, "{}: unit", c.name);
            assert_eq!(text(d, "better"), c.better.word(), "{}: direction", c.name);
            assert_eq!(
                d.get("bound").and_then(Value::as_f64),
                c.bound,
                "{}: bound",
                c.name
            );
        }
    };
    same("end_to_end", end_to_end());
    same("per_layer", per_layer());
}

/// The metric names of a driver result line, in order, after checking the
/// line's shape.
fn result_metrics(stdout: &str) -> Vec<String> {
    let line = stdout.lines().last().expect("a result line");
    let v = json::parse(line).expect("the last line is JSON");
    let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{line}");
    assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
    v.get("metrics")
        .unwrap()
        .members()
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
            name.clone()
        })
        .collect()
}

#[test]
fn quick_mode_runs_every_workload_both_ways() {
    let exe = env!("CARGO_BIN_EXE_scioto-perf");
    let names = |ms: Vec<Metric>| ms.into_iter().map(|m| m.name).collect::<Vec<_>>();
    for w in WORKLOADS {
        for (trace, declared) in [("0", names(end_to_end())), ("1", names(per_layer()))] {
            let out = Command::new(exe)
                .args([
                    "--quick",
                    "--workload",
                    w.name,
                    "--seed",
                    "3",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("the harness binary runs");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{} trace {trace}: {stdout}\n{}",
                w.name,
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                result_metrics(&stdout),
                declared,
                "{} trace {trace}",
                w.name
            );
            // Every metric is also printed by name with its unit.
            for name in &declared {
                assert!(
                    stdout.lines().any(|l| l.starts_with(name.as_str())),
                    "{name} not printed"
                );
            }
        }
        // What was written: a scioto-bench-v1 document per mode, and spans.
        let dir = scioto_perf::bench::out_dir(true);
        for kind in ["host", "layers"] {
            let body =
                std::fs::read_to_string(dir.join(format!("BENCH_{kind}_{}.json", w.name))).unwrap();
            validate_json(&body).unwrap();
            let doc = json::parse(&body).unwrap();
            assert_eq!(text(&doc, "schema"), json::BENCH_SCHEMA);
            assert_eq!(text(&doc, "name"), format!("{kind}_{}", w.name));
            assert!(body.contains("\n\"generated_wall_ns\":"));
            assert_eq!(text(doc.get("params").unwrap(), "scale"), "quick");
            assert!(!doc.get("metrics").unwrap().members().is_empty());
        }
        let spans = std::fs::read_to_string(dir.join(format!("spans_{}.jsonl", w.name))).unwrap();
        assert!(spans.lines().count() > 6, "spans for {}", w.name);
        assert!(spans.contains("\"name\":\"sim.Machine::run\""));
        for line in spans.lines() {
            validate_json(line).unwrap();
        }
    }
}

#[test]
fn a_seed_fixes_every_virtual_time_figure_and_another_seed_changes_the_input() {
    for w in WORKLOADS
        .iter()
        .filter(|w| scioto_perf::workloads::deterministic(w))
    {
        let run = |seed: u64| {
            let input = generate(w, &QUICK, seed);
            let mut checks = Checks::default();
            let mseed = machine_seed(seed, 0);
            let run = rep(w, &QUICK, mseed, &input, timed_trace(w), None, &mut checks);
            assert_eq!(checks.failed, 0);
            (input, run.makespan_ns, run.counts, run.answer)
        };
        let (a, b, other) = (run(11), run(11), run(12));
        assert_eq!((a.1, &a.2, a.3), (b.1, &b.2, b.3), "{}: same seed", w.name);
        match (&a.0, &other.0) {
            (Input::Tree(x), Input::Tree(y)) => assert_ne!(x, y, "{}", w.name),
            (Input::Basis(x), Input::Basis(y)) => assert_ne!(x, y, "{}", w.name),
            _ => unreachable!(),
        }
        assert_ne!(a.3, other.3, "{}: another seed, another answer", w.name);
    }
}

#[test]
fn set_up_checks_its_own_baseline_against_the_reference() {
    let w = &WORKLOADS[0];
    let mut checks = Checks::default();
    let prepared = setup(w, &QUICK, 5, 0, &mut checks);
    assert!(checks.attempted >= 4 && checks.failed == 0);
    assert!(prepared.base_makespan_ns > 0);
    assert_eq!(machine(w, 5).ranks, 64);
}
