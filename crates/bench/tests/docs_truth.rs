//! Docs are part of correctness: every command the user-facing docs name
//! must exist. README.md, DESIGN.md and the verify skill may name no
//! `--bin` other than the workspace's two executables, and no `scioto
//! <word>` that is not a subcommand in the dispatch table.

use scioto_bench::subcommands;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

fn read(doc: &str) -> String {
    let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// The name `text` starts with (empty when it starts with anything else).
fn leading_name(text: &str) -> &str {
    &text[..text.find(|c| !is_name_char(c)).unwrap_or(text.len())]
}

#[test]
fn docs_name_only_executables_and_subcommands_that_exist() {
    let mut commands_seen = 0;
    for doc in DOCS {
        let text = read(doc);
        for (at, marker) in text.match_indices("--bin ") {
            let bin = leading_name(&text[at + marker.len()..]);
            assert!(
                bin == "scioto" || bin == "scioto-lint",
                "{doc} names `--bin {bin}`; the workspace builds scioto and scioto-lint"
            );
        }
        // `scioto <word>` — as `target/release/scioto table1`, `--bin scioto
        // -- table1` or "`scioto analyze` does …" — is a subcommand; the
        // crate names (`scioto-bench`, `scioto_sim`) do not match.
        for (at, _) in text.match_indices("scioto ") {
            let standalone = !text[..at].ends_with(is_name_char);
            let word = leading_name(text[at + "scioto ".len()..].trim_start_matches("-- "));
            if !standalone || word.is_empty() {
                continue; // `libscioto …`, `scioto <subcommand>`, `scioto (core)`
            }
            assert!(
                subcommands().any(|name| name == word),
                "{doc} names `scioto {word}`, which is not in the dispatch table"
            );
            commands_seen += 1;
        }
        for stale in ["six bench bins", "six figure binaries"] {
            assert!(!text.contains(stale), "{doc} still says {stale:?}");
        }
    }
    assert!(commands_seen >= 40, "the scan found only {commands_seen} commands");
}
