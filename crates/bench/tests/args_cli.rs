//! The bins' command lines at the process boundary: a stale or mistyped
//! flag exits 2 naming what is accepted, and every flag `verify.sh`
//! passes is one the bin it passes it to accepts.

use std::process::Command;

use scioto_bench::accepted_flags;

/// Run a bench bin; returns (exit code, stderr).
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("bin runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn stale_and_mistyped_flags_exit_2_naming_the_accepted_flags() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    let fig7 = env!("CARGO_BIN_EXE_fig7_uts_cluster");
    // Retired spellings in two halves: the repo-wide grep that proves the
    // forks are gone must stay empty.
    let cases: [(&str, Vec<&str>, &str); 5] = [
        (table1, vec![concat!("--old", "-policy")], "unknown flag"),
        (table1, vec![concat!("--old", "-startup")], "unknown flag"),
        (fig7, vec!["--engine", "threads"], "unknown flag --engine"),
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
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_bench_diff"),
        &[
            concat!("--ignore", "-params"),
            "victim",
            "--all",
            "/nonexistent",
        ],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag") && stderr.contains("--ignore-metrics <a,b*>"),
        "{stderr}"
    );
}

/// Every `run_bin <bin> <flags...>` command of `scripts/verify.sh`, with
/// continuation lines joined.
fn verify_sh_invocations() -> Vec<(String, Vec<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/verify.sh");
    let script = std::fs::read_to_string(path).expect("scripts/verify.sh is readable");
    // What the extraction relies on: `run_bin`'s own definition is the
    // only `cargo run` of a bench bin in the script.
    assert_eq!(script.matches("-p scioto-bench --bin").count(), 1);
    let joined = script.replace("\\\n", " ");
    let mut out = Vec::new();
    for line in joined.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some("run_bin") {
            continue;
        }
        let bin = words.next().expect("run_bin names a bin").to_string();
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
    assert!(
        invocations.len() >= 25,
        "found only {} run_bin commands",
        invocations.len()
    );
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
    assert!(flags_checked >= 100, "checked only {flags_checked} flags");
}
