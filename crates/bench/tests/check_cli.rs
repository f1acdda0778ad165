//! Exit-code contract of `scioto check` (relied on by `scripts/verify.sh`):
//! 0 = every trace checked and clean, its replay identical or, for a
//! wall-clock recording, not replayable by design; 1 = findings or an
//! episode count (the most barrier waits any rank recorded) over
//! `--max-episodes`; 2 = unusable input — and malformed
//! JSONL must produce a one-line diagnostic, never a panic. Traces are
//! operands of repeated `--file`.

use std::path::PathBuf;
use std::process::{Command, Output};

use scioto_armci::Armci;
use scioto_bench::front;
use scioto_sim::{validate_json, Ctx, Machine, MachineConfig, Trace, TraceConfig};

fn check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scioto"))
        .arg("check")
        .args(args)
        .output()
        .expect("spawn check")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

/// Write `body` to a scratch file; returns its path.
fn write(name: &str, body: &str) -> String {
    let p = tmp(name);
    std::fs::write(&p, body).unwrap();
    p.to_str().unwrap().to_string()
}

/// One locked counter increment per rank, then a barrier.
fn locked_increment(ctx: &Ctx) {
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
}

/// A clean 2-rank virtual-time trace.
fn clean_jsonl() -> String {
    let cfg = MachineConfig::virtual_time(2).with_trace(TraceConfig::enabled());
    let out = Machine::run(cfg, locked_increment);
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
fn clean_trace_exits_zero_with_the_replay_line() {
    let path = write("cli_clean.jsonl", &clean_jsonl());
    let out = check(&["--file", &path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for part in ["race check: ", "predict: ", "deadlock scan: ", "replay check OK: "] {
        assert!(stdout.contains(&format!("{path}: {part}")), "{part}: {stdout}");
    }
    assert!(stdout.contains("reproduced identically"), "{stdout}");
}

#[test]
fn a_wall_clock_recording_is_clean_and_not_replayable_by_design() {
    let cfg = MachineConfig::concurrent(2).with_seed(7).with_trace(TraceConfig::enabled());
    let trace = Machine::run(cfg, locked_increment).report.trace.expect("tracing enabled");
    assert!(trace.wall_clock);
    // The episode census counts the recording itself, replayable or not.
    let episodes = front::barrier_episodes(&trace);
    assert!(episodes > 0, "the increment ends in a barrier");
    let path = write("cli_wall.jsonl", &trace.to_jsonl());
    let over = check(&["--max-episodes", &(episodes - 1).to_string(), "--file", &path]);
    assert_eq!(over.status.code(), Some(1), "{over:?}");
    let stdout = String::from_utf8_lossy(&over.stdout);
    assert!(stdout.contains(&format!("{path}: {episodes} barrier episode(s), over")), "{stdout}");
    let out = check(&["--max-episodes", &episodes.to_string(), "--file", &path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" 0 race(s)\n"), "{stdout}");
    assert!(stdout.contains("0 predicted race(s), 0 atomicity violation(s)\n"), "{stdout}");
    assert!(stdout.contains(" 0 cycle(s)\n"), "{stdout}");
    assert!(
        stdout.contains(&format!(
            "{path}: replay check: wall-clock (concurrent-mode) trace: valid, not replayable \
             by design\n"
        )),
        "{stdout}"
    );
}

#[test]
fn an_episode_count_over_the_budget_exits_one_naming_the_budget() {
    let path = write("cli_budget.jsonl", &clean_jsonl());
    let out = check(&["--max-episodes", "0", "--file", &path]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replay check OK: "), "the replay itself is identical: {stdout}");
    assert!(stdout.contains(", over the --max-episodes budget 0\n"), "{stdout}");
}

/// Run `scioto <subcommand> <args> --trace-out <dump>` and load the dump.
fn recorded(subcommand: &str, args: &[&str], dump: &str) -> Trace {
    let path = tmp(dump);
    let out = Command::new(env!("CARGO_BIN_EXE_scioto"))
        .arg(subcommand)
        .args(args)
        .args(["--trace-out", path.to_str().unwrap()])
        .output()
        .expect("spawn scioto");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    front::load_trace(path.to_str().unwrap()).expect("the dump loads")
}

#[test]
fn the_episode_census_counts_what_the_replay_program_lowers() {
    // verify.sh's check stage traces: table1 and fig7@8's traced UTS run.
    let fig7 = ["--max-ranks", "8", "--only-ranks", "0", "--tree", "small"];
    for (name, trace, want) in [
        ("table1", recorded("table1", &[], "census_table1.jsonl"), 4),
        ("fig7@8", recorded("fig7_uts_cluster", &fig7, "census_fig7.jsonl"), 2),
    ] {
        let lowered = scioto_analyze::lower(&trace).expect("a virtual-time trace lowers");
        assert_eq!(front::barrier_episodes(&trace), lowered.episodes, "{name}");
        assert_eq!(lowered.episodes, want, "{name}");
    }
}

#[test]
fn findings_exit_one() {
    let path = write("cli_racy.jsonl", &racy_jsonl());
    let out = check(&["--file", &path]);
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
        let path = write(name, body);
        let out = check(&["--file", &path]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = stderr.trim_end();
        assert!(!line.contains('\n') && !line.contains("panicked"), "{name}: {stderr}");
        assert!(line.starts_with(&format!("check: {path}: ")), "{name}: {stderr}");
    }
}

#[test]
fn an_access_past_the_last_byte_exits_two_naming_its_line() {
    // Rank 0 writes two words from the last byte on, rank 1 puts the last
    // word unsynchronised. Read as a wrapped word range, the pair once
    // checked clean with 2^64 / 8 words tracked.
    let body = concat!(
        "{\"meta\":\"scioto-trace\",\"version\":4,\"ranks\":2,\"dropped\":[0,0],\"final_clock_ns\":[5,5]}\n",
        "{\"rank\":0,\"t\":1,\"ev\":\"LocalAccess\",\"seg\":0,\"off\":18446744073709551615,\"bytes\":16,",
        "\"write\":true,\"atomic\":false}\n",
        "{\"rank\":1,\"t\":2,\"ev\":\"RemoteOp\",\"kind\":\"put\",\"target\":0,\"seg\":0,",
        "\"off\":18446744073709551608,\"bytes\":8,\"atomic\":false}\n",
    );
    let path = write("cli_overflow.jsonl", body);
    let out = check(&["--file", &path]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim_end(), format!("check: {path}: line 2: malformed LocalAccess event"));
}

#[test]
fn missing_file_unknown_flag_and_no_args_exit_two() {
    let out = check(&["--file", "/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = check(&["--frobnicate", "--file", "x.jsonl"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = check(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn json_out_emits_schema_v1_per_trace() {
    let clean = write("cli_json_clean.jsonl", &clean_jsonl());
    let racy = write("cli_json_racy.jsonl", &racy_jsonl());
    let report = tmp("cli_report.json");
    let out = check(&["--json-out", report.to_str().unwrap(), "--file", &clean, "--file", &racy]);
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
}

#[test]
fn json_out_dash_prints_only_json_on_stdout() {
    let a = write("cli_dash_a.jsonl", &clean_jsonl());
    let b = write("cli_dash_b.jsonl", &clean_jsonl());
    let out = check(&["--json-out", "-", "--file", &a, "--file", &b]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    for line in lines {
        validate_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    // The text report moved to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("{b}: replay check OK: ")), "{stderr}");
}
