//! Docs are part of correctness: every command the user-facing docs name
//! must exist. README.md, DESIGN.md and the verify skill may name no
//! `--bin` other than the workspace's two executables, and no `scioto
//! <word>` that is not a subcommand in the dispatch table; and a `--flag`
//! README.md or DESIGN.md shows on a `scioto <subcommand> …` command line
//! must be one that subcommand accepts.

use scioto_bench::{accepted_flags, subcommands};

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

/// The command lines `text` shows: the lines of its fenced blocks (a
/// trailing `\` joins the next line on) and its inline code spans, which
/// may wrap.
fn code_lines(text: &str) -> Vec<String> {
    let (mut fenced, mut prose) = (String::new(), String::new());
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
        } else if in_fence {
            fenced.push_str(line);
            fenced.push('\n');
        } else {
            prose.push_str(line);
            prose.push(' ');
        }
    }
    let fenced = fenced.replace("\\\n", " ");
    let spans = prose.split('`').skip(1).step_by(2);
    fenced.lines().chain(spans).map(str::to_string).collect()
}

/// The `(subcommand, flag)` pairs of every `scioto <subcommand> …` command
/// on `line`. A command runs to the end of the line or to the shell
/// operator that ends it — a `#` comment after it counts, it is about
/// that command; flags ahead of `scioto` are cargo's.
fn shown_flags(line: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (at, marker) in line.match_indices("scioto ") {
        let rest = line[at + marker.len()..].trim_start_matches("-- ");
        let word = leading_name(rest);
        let Some(cmd) = subcommands().find(|name| *name == word) else {
            continue;
        };
        if line[..at].ends_with(is_name_char) {
            continue;
        }
        for word in rest[word.len()..].split_whitespace() {
            if ["|", "||", "&&"].contains(&word) {
                break;
            }
            match word.strip_prefix("--").map(leading_name) {
                Some(name) if !name.is_empty() => out.push((cmd, name.to_string())),
                _ => {}
            }
            // `…;` ends the command, `…)` the substitution it ran in.
            if word.ends_with([';', ')']) {
                break;
            }
        }
    }
    out
}

/// A flag the docs show on a subcommand's command line is one its row of
/// the dispatch table (or the shared run-spec flags) declares — the strict
/// parser would otherwise exit 2 on the documented command.
#[test]
fn docs_show_only_flags_the_subcommand_accepts() {
    let mut flags_seen = 0;
    for doc in ["README.md", "DESIGN.md"] {
        for line in code_lines(&read(doc)) {
            for (cmd, flag) in shown_flags(&line) {
                let accepted = accepted_flags(cmd).expect("a subcommand");
                assert!(
                    accepted.iter().any(|(name, _)| *name == flag),
                    "{doc} shows `scioto {cmd} --{flag}`, which {cmd} does not accept"
                );
                flags_seen += 1;
            }
        }
    }
    assert!(flags_seen >= 40, "the scan found only {flags_seen} flags");
}

#[test]
fn shown_flags_reads_fences_continuations_and_wrapped_spans() {
    let doc = "Run `scioto replay --file t.jsonl\n--check; libscioto analyze --nope` first.\n\
               ```sh\n\
               cargo run --release --bin scioto -- fig7_uts_cluster \\\n    --tree small --max-ranks=2 | head --lines 1\n\
               diff <(target/release/scioto table1 --race-check) golden && scioto-lint --deny\n\
               ```\n";
    let found: Vec<_> = code_lines(doc).iter().flat_map(|l| shown_flags(l)).collect();
    let want = [
        ("fig7_uts_cluster", "tree"),
        ("fig7_uts_cluster", "max-ranks"),
        ("table1", "race-check"),
        ("replay", "file"),
        ("replay", "check"),
    ];
    assert_eq!(found, want.map(|(c, f)| (c, f.to_string())));
}

/// Every `.rs` file under `dir`, as `(path relative to dir, text)`.
fn sources(dir: &std::path::Path, rel: &str, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        let name = format!("{rel}{}", path.file_name().expect("file name").to_string_lossy());
        if path.is_dir() {
            sources(&path, &format!("{name}/"), out);
        } else if name.ends_with(".rs") {
            out.push((name, std::fs::read_to_string(&path).expect("source file")));
        }
    }
}

/// The sources of `crates/<krate>/src`.
fn crate_sources(krate: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let dir = format!("{}/../{krate}/src", env!("CARGO_MANIFEST_DIR"));
    sources(std::path::Path::new(&dir), "", &mut out);
    out
}

/// Does `text` hold `<keyword> name` for one of `keywords`, as whole words?
fn declares(text: &str, keywords: &[&str], name: &str) -> bool {
    keywords.iter().any(|kw| {
        let decl = format!("{kw} {name}");
        text.match_indices(&decl).any(|(at, _)| {
            !text[..at].ends_with(is_name_char) && !text[at + decl.len()..].starts_with(is_name_char)
        })
    })
}

const ITEMS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

/// Does `owner::item` name something in these sources? `owner` is a module
/// (a file) declaring `item`, or a type of this crate with `item` among its
/// methods, associated constants, variants or fields.
fn resolves(srcs: &[(String, String)], owner: &str, item: &str) -> bool {
    let module = [format!("{owner}.rs"), format!("{owner}/mod.rs")];
    if let Some((_, text)) = srcs.iter().find(|(name, _)| module.contains(name)) {
        return declares(text, &ITEMS, item);
    }
    srcs.iter().any(|(_, text)| declares(text, &["struct", "enum", "trait", "type"], owner))
        && srcs.iter().any(|(_, text)| {
            declares(text, &["fn", "const"], item)
                || text.lines().any(|line| {
                    let line = line.trim_start().trim_start_matches("pub ");
                    line.strip_prefix(item).is_some_and(|rest| {
                        rest.is_empty() || rest.starts_with([',', ':', '(', ' '])
                    })
                })
        })
}

/// DESIGN.md's workspace-inventory sections describe the tree by naming
/// its items; a name the tree does not have is a stale claim. Every
/// backticked `owner::item` path there must resolve in the crate its
/// `### crates/<name>` section names — or the one its own `scioto_<name>::`
/// prefix names, or, in a section about no one crate, in some crate.
#[test]
fn design_inventory_paths_resolve_in_the_tree() {
    let text = read("DESIGN.md");
    let start = text.find("## Workspace inventory").expect("inventory heading");
    let inventory = &text[start..];
    let inventory = &inventory[..inventory[2..].find("\n## ").expect("next section") + 2];
    let all: Vec<String> = std::fs::read_dir(format!("{}/..", env!("CARGO_MANIFEST_DIR")))
        .expect("crates/")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let mut checked = 0;
    for section in inventory.split("\n### ") {
        let heading = section.lines().next().unwrap_or("");
        let section_crate = heading.strip_prefix("crates/").map(leading_name);
        // Code spans are the odd pieces between backticks; the fenced
        // listing opens the inventory and holds no paths.
        for span in section.split('`').skip(1).step_by(2).filter(|s| s.contains("::")) {
            let path_len = span.find(|c| !is_name_char(c) && c != ':').unwrap_or(span.len());
            let mut path: Vec<&str> = span[..path_len].trim_end_matches(':').split("::").collect();
            // `Type::{A, B{x}}` names `Type::A` and `Type::B`.
            let group = span[path_len..].strip_prefix('{').unwrap_or("");
            let mut leaves: Vec<&str> = group.split(", ").map(leading_name).collect();
            leaves.retain(|leaf| !leaf.is_empty());
            if ["std", "Box", "f64"].contains(&path[0]) {
                continue;
            }
            let named = path[0].strip_prefix("scioto").map(|k| match k {
                "" => "core",
                k => k.trim_start_matches('_'),
            });
            if named.is_some() {
                path.remove(0);
            }
            let crates: Vec<&str> = match named.or(section_crate) {
                Some(k) => vec![k],
                None => all.iter().map(String::as_str).collect(),
            };
            if leaves.is_empty() {
                leaves.push(path.pop().expect("a non-empty path"));
            }
            for leaf in leaves {
                let found = crates.iter().any(|k| {
                    let srcs = crate_sources(k);
                    match path.last() {
                        Some(owner) => resolves(&srcs, owner, leaf),
                        None => srcs.iter().any(|(_, text)| declares(text, &ITEMS, leaf)),
                    }
                });
                assert!(
                    found,
                    "DESIGN.md (### {heading}) names `{span}`: no `{leaf}` under `{}` in {crates:?}",
                    path.join("::")
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 40, "the scan found only {checked} paths");
}
