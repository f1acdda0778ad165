//! Exit-code contract of `scioto race_check` (relied on by
//! `scripts/verify.sh`): 0 = every trace analyzed and clean, 1 =
//! findings, 2 = unanalyzable input — and malformed JSONL must produce
//! a diagnostic, never a panic. Traces are operands of repeated `--file`.

use std::path::PathBuf;
use std::process::{Command, Output};

use scioto_armci::Armci;
use scioto_sim::{Machine, MachineConfig, TraceConfig};

fn race_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scioto"))
        .arg("race_check")
        .args(args)
        .output()
        .expect("spawn race_check")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

/// A clean 2-rank trace: one locked counter increment per rank.
fn clean_jsonl() -> String {
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            let m = armci.create_mutexes(ctx, 1);
            armci.lock(ctx, m, 0, 0);
            let mut buf = [0u8; 8];
            armci.get(ctx, g, 0, 0, &mut buf);
            let v = i64::from_le_bytes(buf);
            armci.put(ctx, g, 0, 0, &(v + 1).to_le_bytes());
            armci.unlock(ctx, m, 0, 0);
            armci.barrier(ctx);
        },
    );
    out.report.trace.expect("tracing enabled").to_jsonl()
}

/// A racy 2-rank trace: rank 1 skips the lock.
fn racy_jsonl() -> String {
    let out = Machine::run(
        MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled()),
        |ctx| {
            let armci = Armci::init(ctx);
            let g = armci.malloc(ctx, 8);
            let m = armci.create_mutexes(ctx, 1);
            if ctx.rank() == 0 {
                armci.lock(ctx, m, 0, 0);
                armci.put(ctx, g, 0, 0, &1i64.to_le_bytes());
                armci.unlock(ctx, m, 0, 0);
            } else {
                armci.put(ctx, g, 0, 0, &2i64.to_le_bytes());
            }
            armci.barrier(ctx);
        },
    );
    out.report.trace.expect("tracing enabled").to_jsonl()
}

#[test]
fn clean_trace_exits_zero_and_flags_compose() {
    let p = tmp("cli_clean.jsonl");
    std::fs::write(&p, clean_jsonl()).unwrap();
    let path = p.to_str().unwrap();
    for args in [
        vec!["--file", path],
        vec!["--predict", "--file", path],
        vec!["--deadlock", "--file", path],
        vec!["--predict", "--deadlock", "--file", path],
    ] {
        let out = race_check(&args);
        assert_eq!(out.status.code(), Some(0), "args {args:?}: {out:?}");
    }
}

#[test]
fn findings_exit_one() {
    let p = tmp("cli_racy.jsonl");
    std::fs::write(&p, racy_jsonl()).unwrap();
    let out = race_check(&["--predict", "--deadlock", "--file", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("race on rank 0"), "{stdout}");
}

#[test]
fn malformed_jsonl_exits_two_without_panicking() {
    for (name, body) in [
        ("cli_garbage.jsonl", "this is not jsonl at all\n{]\n"),
        ("cli_truncated.jsonl", "{\"type\":\"meta\",\"ranks\":2"),
        ("cli_badevent.jsonl", "{\"rank\":0,\"t\":5,\"type\":\"NoSuchEvent\"}\n"),
        ("cli_empty_obj.jsonl", "{}\n"),
    ] {
        let p = tmp(name);
        std::fs::write(&p, body).unwrap();
        let out = race_check(&["--file", p.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{name} panicked: {stderr}");
        assert!(stderr.contains("race_check:"), "{name}: {stderr}");
    }
}

#[test]
fn missing_file_unknown_flag_and_no_args_exit_two() {
    let out = race_check(&["--file", "/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = race_check(&["--frobnicate", "--file", "x.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = race_check(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn json_out_emits_schema_v1_per_trace() {
    let clean = tmp("cli_json_clean.jsonl");
    std::fs::write(&clean, clean_jsonl()).unwrap();
    let racy = tmp("cli_json_racy.jsonl");
    std::fs::write(&racy, racy_jsonl()).unwrap();
    let report = tmp("cli_report.json");
    let out = race_check(&[
        "--predict",
        "--deadlock",
        "--json-out",
        report.to_str().unwrap(),
        "--file",
        clean.to_str().unwrap(),
        "--file",
        racy.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "racy input: {out:?}");
    let body = std::fs::read_to_string(&report).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "one report object per trace:\n{body}");
    for line in &lines {
        assert!(line.starts_with("{\"schema\":\"scioto-race-v1\","), "{line}");
        assert!(line.contains("\"predict\":{"), "{line}");
        assert!(line.contains("\"deadlock\":{"), "{line}");
    }
    assert!(lines[0].contains("\"clean\":true"), "{}", lines[0]);
    assert!(lines[1].contains("\"clean\":false"), "{}", lines[1]);
    // `--json-out -` streams the same objects to stdout.
    let out = race_check(&["--json-out", "-", "--file", clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"schema\":\"scioto-race-v1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"predict\":null"), "{stdout}");
}
