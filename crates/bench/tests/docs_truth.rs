//! Docs are part of correctness: every command the user-facing docs name
//! must exist. README.md, DESIGN.md and the verify skill may name no
//! `--bin` other than the workspace's one executable, and no `scioto
//! <word>` that is not a subcommand in the dispatch table; a `--flag`
//! README.md, DESIGN.md, EXPERIMENTS.md or PERF_LOG.md shows on a `scioto
//! <subcommand> …` command line must be one that subcommand accepts; and the files
//! DESIGN.md says may hold `unsafe` code must be the ones that do. It
//! also keeps the source rules rustc and clippy cannot: every
//! protocol-atomic access names its protocol, and the exemptions from the
//! workspace lints (`Cargo.toml`, `clippy.toml`) sit where they are pinned.

use std::collections::BTreeSet;

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
            assert_eq!(bin, "scioto", "{doc} names `--bin {bin}`; the workspace builds scioto only");
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
    let mut rejected = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", "PERF_LOG.md"] {
        for line in code_lines(&read(doc)) {
            for (cmd, flag) in shown_flags(&line) {
                let accepted = accepted_flags(cmd).expect("a subcommand");
                if !accepted.iter().any(|(name, _)| *name == flag) {
                    rejected.push(format!("{doc} shows `scioto {cmd} --{flag}`"));
                }
                flags_seen += 1;
            }
        }
    }
    let rejected = rejected.join("\n");
    assert!(rejected.is_empty(), "flags their subcommand does not accept:\n{rejected}");
    assert!(flags_seen >= 40, "the scan found only {flags_seen} flags");
}

#[test]
fn shown_flags_reads_fences_continuations_and_wrapped_spans() {
    let doc = "Run `scioto check --file t.jsonl\n--max-episodes 6; libscioto analyze --nope` first.\n\
               ```sh\n\
               cargo run --release --bin scioto -- fig7_uts_cluster \\\n    --tree small --max-ranks=2 | head --lines 1\n\
               diff <(target/release/scioto table1 --check) golden && scioto-lint --deny\n\
               ```\n";
    let found: Vec<_> = code_lines(doc).iter().flat_map(|l| shown_flags(l)).collect();
    let want = [
        ("fig7_uts_cluster", "tree"),
        ("fig7_uts_cluster", "max-ranks"),
        ("table1", "check"),
        ("check", "file"),
        ("check", "max-episodes"),
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

/// The non-test lines of a source file: those before its first
/// `#[cfg(test)]`.
fn non_test_lines(text: &str) -> usize {
    text.lines().take_while(|line| !line.trim_start().starts_with("#[cfg(test)]")).count()
}

/// The tooling — `analyze`, `race`, the recorder (`sim/src/trace.rs`) and
/// the word-run module (`det/src/runs.rs`) — outweighs the runtime it
/// checks (`core` + `armci`) by at most the ceiling DESIGN.md commits to,
/// in non-test lines, the test-only `race/src/verdicts.rs`,
/// `race/src/fixtures.rs` and `analyze/src/jsonl/reference.rs` left out.
/// Code moved into the run module still counts as tooling.
#[test]
fn the_tooling_stays_under_its_committed_ceiling() {
    let count = |krate: &str, counted: &dyn Fn(&str) -> bool| -> usize {
        let srcs = crate_sources(krate);
        srcs.iter().filter(|(name, _)| counted(name)).map(|(_, text)| non_test_lines(text)).sum()
    };
    let analyze = count("analyze", &|name| name != "jsonl/reference.rs");
    let race = count("race", &|name| !["verdicts.rs", "fixtures.rs"].contains(&name));
    let recorder = count("sim", &|name| name == "trace.rs");
    let runs = count("det", &|name| name == "runs.rs");
    let (core, armci) = (count("core", &|_| true), count("armci", &|_| true));
    let (tooling, runtime) = (analyze + race + recorder + runs, core + armci);
    let ratio = tooling as f64 / runtime as f64;
    let text = read("DESIGN.md");
    let marker = "tooling-to-runtime ceiling: ";
    let at = text.find(marker).expect("DESIGN.md commits to a ceiling") + marker.len();
    let ceiling: f64 = text[at..].split('×').next().and_then(|c| c.parse().ok()).expect("a ratio");
    let counted = format!(
        "tooling {tooling} lines (analyze {analyze}, race {race}, recorder {recorder}, runs {runs}), \
         runtime {runtime} (core {core}, armci {armci}): {ratio:.3}×, ceiling {ceiling}×"
    );
    println!("{counted}");
    assert!(ratio <= ceiling, "{counted}");
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

/// Assert that every backticked `owner::item` path in `text` resolves —
/// in `krate`, or in the crate its own `scioto_<name>::` prefix names, or,
/// with neither, in some crate. `place` says where `text` is in DESIGN.md.
/// Returns how many paths were checked.
fn assert_paths_resolve(place: &str, text: &str, krate: Option<&str>) -> usize {
    let all: Vec<String> = std::fs::read_dir(format!("{}/..", env!("CARGO_MANIFEST_DIR")))
        .expect("crates/")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let mut checked = 0;
    // Code spans are the odd pieces between backticks.
    for span in text.split('`').skip(1).step_by(2).filter(|s| s.contains("::")) {
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
        let crates: Vec<&str> = match named.or(krate) {
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
                "DESIGN.md ({place}) names `{span}`: no `{leaf}` under `{}` in {crates:?}",
                path.join("::")
            );
            checked += 1;
        }
    }
    checked
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
    let mut checked = 0;
    // The fenced listing opens the inventory and holds no paths.
    for section in inventory.split("\n### ") {
        let heading = section.lines().next().unwrap_or("");
        let krate = heading.strip_prefix("crates/").map(leading_name);
        checked += assert_paths_resolve(&format!("### {heading}"), section, krate);
    }
    assert!(checked >= 40, "the scan found only {checked} paths");
}

/// DESIGN.md's policy-knob table names each knob and its paper and
/// default settings by path, so a deleted knob cannot stay listed: every
/// row's paths must resolve in the crate its `crates/<name>/…` column
/// names.
#[test]
fn design_knob_table_paths_resolve_in_the_tree() {
    let text = read("DESIGN.md");
    let table = &text[text.find("\n| knob |").expect("the policy-knob table") + 1..];
    let mut checked = 0;
    // Skip the header and its `|---|` rule; the table ends at the first
    // line that is not a row.
    for row in table.lines().skip(2).take_while(|line| line.starts_with('|')) {
        let krate = row.split("`crates/").nth(1).map(leading_name);
        assert!(krate.is_some(), "knob table row names no crate: {row}");
        checked += assert_paths_resolve("policy-knob table", row, krate);
    }
    assert!(checked >= 6, "the knob table held only {checked} paths");
}

/// The Rust sources of the repository — every `.rs` file under `crates/`,
/// `src/`, `tests/` and `examples/` — named from its root.
fn tree_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        let path = format!("{}/../../{dir}", env!("CARGO_MANIFEST_DIR"));
        sources(std::path::Path::new(&path), &format!("{dir}/"), &mut out);
    }
    assert!(out.len() > 100, "the scan found only {} files", out.len());
    out
}

/// The attribute lines of `src` that name `lint`, with what each covers:
/// `"module"` for an inner attribute, else the item on the next line (its
/// name, if it is a `fn`).
fn lint_exemptions<'a>(src: &'a str, lint: &str) -> Vec<&'a str> {
    let lines: Vec<&str> = src.lines().map(str::trim_start).collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.starts_with('#') || !line.contains(lint) {
            continue;
        }
        if line.starts_with("#![") {
            out.push("module");
            continue;
        }
        let item = lines.get(i + 1).copied().unwrap_or("");
        out.push(match item.find("fn ") {
            Some(at) => leading_name(&item[at + 3..]),
            None => item,
        });
    }
    out
}

/// A protocol-atomic access (`.put_atomic(` / `.get_atomic(`) exempts a
/// word from the race checker, so each call site names the ordering
/// protocol that makes it safe: a `//` comment containing `protocol` on
/// its line or within the three lines above.
#[test]
fn every_protocol_atomic_access_names_its_protocol() {
    // In halves, so that this line is no call site.
    let calls = [concat!(".put", "_atomic("), concat!(".get", "_atomic(")];
    let mut sites = 0;
    for (name, text) in tree_sources() {
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !calls.iter().any(|call| line.contains(call)) {
                continue;
            }
            let named = lines[i.saturating_sub(3)..=i]
                .iter()
                .any(|l| l.find("//").is_some_and(|at| l[at..].contains("protocol")));
            assert!(named, "{name}:{}: a protocol-atomic access names no protocol", i + 1);
            sites += 1;
        }
    }
    assert!(sites >= 10, "the scan found only {sites} protocol-atomic accesses");
}

/// `clippy.toml` bans the ambient `std::sync` locks and the `std::time`
/// types. The exemptions are the lock wrappers and the wall clock of
/// `scioto-det`, and the bench JSON writer's generation stamp — no other.
#[test]
fn the_banned_types_are_allowed_only_where_pinned() {
    let lint = "disallowed_types";
    let srcs = tree_sources();
    let found: BTreeSet<(&str, &str)> = srcs
        .iter()
        .flat_map(|(name, text)| lint_exemptions(text, lint).into_iter().map(move |what| (name.as_str(), what)))
        .collect();
    let want = [
        ("crates/bench/src/benchjson.rs", "write_if_requested"),
        ("crates/det/src/clock.rs", "module"),
        ("crates/det/src/sync.rs", "module"),
    ];
    assert_eq!(found, BTreeSet::from(want));
}

/// DESIGN.md's "Deliberate deviations" bullet on `unsafe` names, as
/// backticked paths, every file that allows `unsafe_code` (denied
/// workspace-wide) — and no other: a PR that adds `unsafe` somewhere new,
/// or removes the last of it from a file, must say so there. Only the
/// fiber switch allows it module-wide (`global_asm!` is a module item);
/// everywhere else the allow sits on the item.
#[test]
fn unsafe_lives_exactly_in_the_files_design_names() {
    let text = read("DESIGN.md");
    let section = &text[text.find("## Deliberate deviations").expect("the section")..];
    let bullet = &section[section.find("* `unsafe` is confined").expect("the unsafe bullet")..];
    let bullet = &bullet[..bullet[2..].find("\n* ").map_or(bullet.len(), |end| end + 2)];
    let named: BTreeSet<&str> =
        bullet.split('`').skip(1).step_by(2).filter(|span| span.ends_with(".rs")).collect();
    let srcs = tree_sources();
    let lint = "unsafe_code";
    let allowing: BTreeSet<&str> = srcs
        .iter()
        .filter(|(_, text)| !lint_exemptions(text, lint).is_empty())
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(allowing, named, "files allowing `unsafe` vs DESIGN.md's list");
    let module_wide: Vec<&str> = srcs
        .iter()
        .filter(|(_, text)| lint_exemptions(text, lint).contains(&"module"))
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(module_wide, ["crates/sim/src/fiber.rs"]);
}
