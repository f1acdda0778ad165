//! The `scioto` command line at the process boundary: a missing or
//! unknown subcommand exits 2 listing the dispatch table, a stale or
//! mistyped flag exits 2 naming what is accepted, every flag `verify.sh`
//! passes is one the subcommand it passes it to accepts, `--analysis-out`
//! writes the report, census first, on its own, and a trace file a subcommand cannot
//! work on exits 2 naming it — never a panic.

use std::process::Command;

use scioto_bench::{accepted_flags, subcommands};

/// Run `scioto <subcommand> <args>`; returns (exit code, stderr).
fn run(subcommand: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scioto"))
        .arg(subcommand)
        .args(args)
        .output()
        .expect("scioto runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn missing_and_unknown_subcommands_exit_2_listing_every_subcommand() {
    let scioto = env!("CARGO_BIN_EXE_scioto");
    let none = Command::new(scioto).output().expect("scioto runs");
    let unknown = Command::new(scioto).args(["fig9", "--max-ranks", "2"]).output().unwrap();
    for out in [none, unknown] {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: scioto <subcommand> [flags]\n"), "{stderr}");
        assert_eq!(subcommands().count(), 11);
        for name in subcommands() {
            assert!(stderr.contains(&format!("\n  {name} ")), "{name} missing: {stderr}");
        }
    }
}

#[test]
fn stale_and_mistyped_flags_exit_2_naming_the_accepted_flags() {
    let table1 = "table1";
    let fig7 = "fig7_uts_cluster";
    // Retired spellings in two halves: the repo-wide grep that proves the
    // forks are gone must stay empty.
    let cases: [(&str, Vec<&str>, &str); 10] = [
        (table1, vec![concat!("--old", "-policy")], "unknown flag"),
        (table1, vec![concat!("--old", "-startup")], "unknown flag"),
        // The trace census is the analysis text's head now.
        (table1, vec![concat!("--trace", "-summary"), "s.txt"], "unknown flag --trace-"),
        (fig7, vec!["--engine", "threads"], "unknown flag --engine"),
        // The four check switches are one `--check` now.
        (fig7, vec!["--race-check"], "unknown flag --race-check"),
        (fig7, vec!["--predict"], "unknown flag --predict"),
        (fig7, vec!["--deadlock"], "unknown flag --deadlock"),
        (table1, vec!["--replay-check"], "unknown flag --replay-check"),
        (
            fig7,
            vec!["--max-ranks", "abc"],
            "--max-ranks: cannot parse \"abc\"",
        ),
        (
            fig7,
            vec!["--tree", "huge", "--max-ranks", "2"],
            "--tree expects tiny|small|medium|large",
        ),
    ];
    for (exe, args, what) in cases {
        let (code, stderr) = run(exe, &args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(what), "{args:?}: {stderr}");
        assert!(
            stderr.contains("accepted flags: --victim uniform|locality"),
            "{args:?}: {stderr}"
        );
    }
    let (code, stderr) =
        run("bench_diff", &[concat!("--ignore", "-params"), "victim", "--all", "/nonexistent"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag") && stderr.contains("--ignore-metrics <a,b*>"),
        "{stderr}"
    );
    // The live-validation budget of `tune` went with the re-pricing
    // model: every candidate now runs, and the sweep is never cut short.
    // `concurrent_obs` writes its Chrome export through `--trace-out
    // <path>.json`, as every traced subcommand does.
    let tune = "--ranks <n> --tree tiny|small|medium|large --seed <n> --latency flat|nearfar \
                --out <path> --report <path> --json-out <path> --require-improvement";
    let conc = "--ranks <n> --app uts|scf --atoms <n> --tree tiny|small|medium|large --seed <n> \
                --reps <n> --max-event-ns <ns> --victim uniform|locality --barrier flat|tree \
                --trace-out <path> --trace-ring <events> --analysis-out <path> --check";
    let retired: [(&str, &[&str], &str); 3] = [
        ("tune", &["--top", "1"], tune),
        ("tune", &[concat!("--max", "-candidates"), "2"], tune),
        ("concurrent_obs", &["--chrome-out", "c.json"], conc),
    ];
    for (subcommand, args, accepted) in retired {
        let (code, stderr) = run(subcommand, args);
        assert_eq!(code, Some(2), "{subcommand} {args:?}: {stderr}");
        let flag = args[0];
        assert_eq!(stderr, format!("{subcommand}: unknown flag {flag}\naccepted flags: {accepted}\n"));
    }
    // The source scan went to rustc and clippy, the race checker and the
    // replay self-check went into `check`, and the Chrome dump's check
    // into verify.sh's byte pin: their subcommands are as unknown as any
    // other word, and the table lists `check`.
    for (subcommand, args) in [
        ("lint", &["--stats"][..]),
        ("race_check", &["--predict", "--deadlock", "--file", "t.jsonl"][..]),
        ("replay", &["--file", "t.jsonl", "--check"][..]),
        ("trace_check", &["--file", "t.json", "--ranks", "2"][..]),
    ] {
        let (code, stderr) = run(subcommand, args);
        assert_eq!(code, Some(2), "{subcommand}: {stderr}");
        assert!(stderr.starts_with("usage: scioto <subcommand> [flags]\n"), "{stderr}");
        assert!(
            stderr.contains("\n  check             --file <path> --json-out <path>"),
            "{subcommand}: {stderr}"
        );
    }
}

#[test]
fn the_retired_td_poll_flag_exits_2_on_every_subcommand_that_took_it() {
    // Spelled in two halves, like the other retired flags above.
    let flag = concat!("--td", "-batch");
    for subcommand in ["table1", "ablation", "fig7_uts_cluster", "concurrent_obs"] {
        let (code, stderr) = run(subcommand, &[flag, "off"]);
        assert_eq!(code, Some(2), "{subcommand}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{subcommand}: unknown flag {flag}\naccepted flags: ")),
            "{subcommand}: {stderr}"
        );
    }
}

/// A count of zero is a usage error: exit 2 with the accepted flags,
/// before any run — never a panic and never a figure of nothing.
#[test]
fn out_of_range_numeric_flags_exit_2_naming_the_accepted_flags() {
    let cases: &[(&str, &[&str], &str)] = &[
        ("tune", &["--ranks", "0"], "--ranks must be at least 1"),
        ("concurrent_obs", &["--ranks", "0"], "--ranks must be at least 1"),
        ("concurrent_obs", &["--reps", "0"], "--reps must be at least 1"),
        ("concurrent_obs", &["--app", "scf", "--atoms", "0"], "--atoms must be at least 1"),
        ("fig5_fig6_apps", &["--atoms", "0"], "--atoms must be at least 1"),
        ("fig5_fig6_apps", &["--tiles", "0"], "--tiles must be at least 1"),
        ("fig5_fig6_apps", &["--max-ranks", "0"], "--max-ranks must be at least 1"),
        ("fig4_termination", &["--max-ranks", "0"], "--max-ranks must be at least 1"),
        ("fig4_termination", &["--trace-ranks", "0", "--check"], "--trace-ranks must be"),
        ("fig7_uts_cluster", &["--max-ranks", "0"], "--max-ranks must be at least 1"),
        ("fig8_uts_xt4", &["--trace-ranks", "0", "--check"], "--trace-ranks must be"),
    ];
    for &(subcommand, args, what) in cases {
        let (code, stderr) = run(subcommand, args);
        assert_eq!(code, Some(2), "{subcommand} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{subcommand} {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{subcommand}: ")) && stderr.contains(what),
            "{subcommand} {args:?}: {stderr}"
        );
        assert!(stderr.contains("\naccepted flags: --"), "{subcommand} {args:?}: {stderr}");
    }
}

/// Every `scioto <subcommand> <flags...>` command of `scripts/verify.sh`,
/// with continuation lines joined.
fn verify_sh_invocations() -> Vec<(String, Vec<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/verify.sh");
    let script = std::fs::read_to_string(path).expect("scripts/verify.sh is readable");
    // What the extraction relies on: the script reaches the executable
    // through its `scioto` function and nothing goes through `cargo run`.
    assert!(script.contains("\nscioto() { target/release/scioto \"$@\"; }\n"));
    assert_eq!(script.matches("cargo run").count(), 0);
    let joined = script.replace("\\\n", " ");
    let mut out = Vec::new();
    for line in joined.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some("scioto") {
            continue;
        }
        let bin = words.next().expect("scioto names a subcommand").to_string();
        let flags = words
            .filter(|w| w.starts_with("--"))
            .map(|w| w.trim_start_matches("--").to_string())
            .collect();
        out.push((bin, flags));
    }
    out
}

#[test]
fn every_flag_verify_sh_passes_is_accepted() {
    let invocations = verify_sh_invocations();
    assert_eq!(invocations.len(), 24, "scioto commands in verify.sh");
    let mut flags_checked = 0;
    for (bin, flags) in &invocations {
        let accepted = accepted_flags(bin)
            .unwrap_or_else(|| panic!("verify.sh runs {bin}, which has no flag table"));
        for flag in flags {
            assert!(
                accepted.iter().any(|(name, _)| name == flag),
                "verify.sh passes --{flag} to {bin}, which does not accept it"
            );
            flags_checked += 1;
        }
    }
    assert_eq!(flags_checked, 97, "flags verify.sh passes");
}

#[test]
fn a_missing_or_truncated_trace_file_exits_2_naming_the_path() {
    // A recording cut off mid-line, as a killed run or a full disk leaves.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let truncated = dir.join("cli_truncated_trace.jsonl");
    let body = "{\"meta\":\"scioto-trace\",\"version\":3,\"ranks\":2,\"dropped\":[0,0],\
                \"final_clock_ns\":[9,9]}\n{\"rank\":0,\"t\":5,\"ev\":\"LockAcq\",\"target\":1,\"se";
    std::fs::write(&truncated, body).unwrap();
    let truncated = truncated.to_str().unwrap();
    let missing = "/nonexistent/trace.jsonl";
    for path in [missing, truncated] {
        let cases = [
            ("analyze", vec![]),
            ("check", vec![]),
            ("check", vec!["--max-episodes", "6", "--json-out", "-"]),
        ];
        for (subcommand, flags) in cases {
            let mut args = vec!["--file", path];
            args.extend(flags);
            let (code, stderr) = run(subcommand, &args);
            assert_eq!(code, Some(2), "{subcommand} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{subcommand} {args:?}: {stderr}");
            let line = stderr.trim_end();
            assert!(!line.contains('\n'), "{subcommand} {args:?}: more than one line: {stderr}");
            assert!(
                line.starts_with(&format!("{subcommand}: ")) && line.contains(path),
                "{subcommand} {args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn a_32_bit_trace_field_past_its_range_is_a_parse_error_not_another_trace() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("cli_wide_field.jsonl");
    let body = "{\"meta\":\"scioto-trace\",\"version\":3,\"ranks\":2,\"dropped\":[0,0],\
                \"final_clock_ns\":[9,9]}\n\
                {\"rank\":0,\"t\":5,\"ev\":\"StealAttempt\",\"victim\":4294967297,\"got\":0,\"dur\":3}\n";
    std::fs::write(&path, body).unwrap();
    let (code, stderr) = run("analyze", &["--file", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("line 2: malformed StealAttempt event"), "{stderr}");
}

#[test]
fn a_header_that_cannot_be_trusted_exits_2_instead_of_aborting() {
    // `ranks` used to size allocations on its own: the first header made
    // every `--file` subcommand die in `vec![0; ranks]` (SIGABRT).
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    for (name, header, what) in [
        ("huge_ranks", "\"version\":3,\"ranks\":1000000000000000", "meta lacks \"dropped\""),
        ("no_dropped", "\"version\":3,\"ranks\":2,\"final_clock_ns\":[9,9]", "meta lacks \"dropped\""),
        ("version_5", "\"version\":5,\"ranks\":1,\"dropped\":[0]", "trace version 5 is newer"),
    ] {
        let path = dir.join(format!("cli_header_{name}.jsonl"));
        std::fs::write(&path, format!("{{\"meta\":\"scioto-trace\",{header}}}\n")).unwrap();
        let path = path.to_str().unwrap();
        for subcommand in ["analyze", "check"] {
            let (code, stderr) = run(subcommand, &["--file", path]);
            assert_eq!(code, Some(2), "{subcommand} {name}: {stderr}");
            let line = stderr.trim_end();
            assert!(!line.contains('\n') && !line.contains("panicked"), "{subcommand}: {stderr}");
            assert!(
                line.starts_with(&format!("{subcommand}: {path}: line 1: ")) && line.contains(what),
                "{subcommand} {name}: {stderr}"
            );
        }
    }
}

#[test]
fn an_unwritable_artifact_path_exits_2_naming_the_path() {
    let tune = ["--ranks", "8", "--tree", "tiny"];
    for (subcommand, before, flag) in [
        ("table1", &[][..], "--json-out"),
        ("table1", &[][..], "--trace-out"),
        ("table1", &[][..], "--analysis-out"),
        ("tune", &tune[..], "--out"),
    ] {
        let path = format!("/nonexistent/{}.json", flag.trim_start_matches("--"));
        let mut args = before.to_vec();
        args.extend([flag, &path]);
        let (code, stderr) = run(subcommand, &args);
        assert_eq!(code, Some(2), "{subcommand} {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{subcommand} {flag}: {stderr}");
        // `tune` reports its progress on stderr first; the verdict is last.
        let line = stderr.trim_end().lines().last().unwrap_or("");
        assert!(
            line.starts_with(&format!("{subcommand}: cannot write {path}: ")),
            "{subcommand} {flag}: {stderr}"
        );
        if subcommand == "table1" {
            assert_eq!(stderr.trim_end(), line, "one line only");
        }
    }
}

#[test]
fn trace_summary_alone_runs_the_traced_configuration_and_writes_the_digest() {
    // The analysis text opens with the trace's census: the summary that
    // used to have a flag of its own.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("cli_summary_alone.txt");
    let _ = std::fs::remove_file(&path);
    let path = path.to_str().unwrap();
    let (code, stderr) = run("fig4_termination", &["--max-ranks", "2", "--analysis-out", path]);
    assert_eq!(code, Some(0), "{stderr}");
    let summary = std::fs::read_to_string(path).expect("--analysis-out wrote its file");
    assert!(summary.starts_with("== trace summary: 8 ranks, "), "{summary}");
    assert!(summary.contains("\n  steal_rtt_ns     count="), "{summary}");
    assert!(summary.contains("\n== trace analysis: 8 ranks, "), "{summary}");
}
