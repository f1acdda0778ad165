//! The source lint `scioto lint` runs: a zero-dependency scanner for the repo's
//! hermeticity and determinism invariants, v2 — token-based.
//!
//! v1 scanned raw text line by line; v2 lexes every file with the
//! in-tree Rust lexer ([`crate::lexer`]) and walks the token stream.
//! That solves the scanner's three classic problems once, centrally:
//! string literals that merely *mention* a banned path are invisible to
//! code rules, commented-out code neither triggers nor hides findings,
//! and constructs split across lines (multi-line `use` groups, spilled
//! call arguments) are ordinary token sequences.
//!
//! Rules (each can be waived per-site with a `scioto-lint: allow(<rule>)`
//! comment on the offending line or the line immediately above):
//!
//! * `std-sync` — ambient `Mutex`/`RwLock`/`Condvar` under the std sync
//!   module are banned outside `crates/det`; all blocking primitives
//!   must come from `scioto_det::sync` so lock behaviour stays
//!   deterministic and poison-free (`.lock()` returns the guard
//!   directly).
//! * `wallclock` — the std time module and ambient `rand::` paths are
//!   banned everywhere; virtual time comes from the simulator clock and
//!   randomness from the in-tree deterministic RNG. For std time the
//!   per-line waiver is honored only inside the sanctioned file
//!   allowlist (`SANCTIONED_TIME_FILES`): the runtime's one wall-clock
//!   source (`crates/det/src/clock.rs`, wrapping `Instant` behind
//!   `MonoClock`) and the bench JSON writer's generation stamp. Anywhere
//!   else a waiver comment does not suppress the finding.
//! * `trace-closure` — trace emission sites must pass a deferred
//!   closure (`ctx.trace(|| TraceEvent::...)`), never a pre-built
//!   event, so disabled tracing costs one branch and zero construction.
//! * `lock-unwrap` — `unwrap`/`expect` chained onto `.lock()` is
//!   banned; the in-tree mutex cannot poison and returns the guard
//!   directly, so an `unwrap` signals a foreign lock sneaking in.
//! * `atomic-protocol` — every protocol-atomic call site
//!   (`put_atomic` / `get_atomic`) must name the ordering protocol that
//!   makes the unfenced access safe, in a comment on the same line or within
//!   three lines above containing the word `protocol`. The atomic
//!   markers exempt accesses from the race checker, so an unexplained
//!   one is an unexplained suppression. (The *semantic* side of this
//!   rule — whether the trace actually obeys the declared protocol —
//!   is checked by [`mod@crate::predict`].)
//! * `unsafe-audit` — new in v2, impossible to express textually:
//!   every `unsafe` block (`unsafe {`) and `unsafe impl` must carry a
//!   comment containing `SAFETY:` naming the invariant, on the same
//!   line or within three lines above. `unsafe fn` declarations are
//!   exempt (their contract lives in their doc comment; the *callers*
//!   are the audited `unsafe {` sites).
//!
//! Waiver totals are ratcheted: [`waiver_stats`] counts live waiver
//! comments per rule, the `scioto lint --stats` output is pinned in
//! `results/lint_waivers.txt`, and `verify.sh` fails if any rule's
//! count grows without a `--bless`.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok, TokKind};

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// File the violation is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule slug, e.g. `std-sync`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Every rule the scanner knows, sorted; the `--stats` output enumerates
/// exactly this list so the ratchet file's shape is stable.
const ALL_RULES: &[&str] = &[
    "atomic-protocol",
    "lock-unwrap",
    "std-sync",
    "trace-closure",
    "unsafe-audit",
    "wallclock",
];

/// The only files where a `wallclock` waiver on a std-time line is
/// honored: the runtime's single wall-clock source and the bench JSON
/// writer (which stamps a document with when it was generated).
/// Matched as path suffixes so absolute and relative invocations agree.
const SANCTIONED_TIME_FILES: &[&str] = &[
    "crates/det/src/clock.rs",
    "crates/bench/src/benchjson.rs",
];

/// Is `path` on the std-time allowlist?
fn time_sanctioned(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    SANCTIONED_TIME_FILES.iter().any(|s| p.ends_with(s))
}

/// Per-file lexed view shared by all rules: the code tokens (comments
/// stripped) and the comment text attributed to each source line.
struct FileView<'a> {
    src: &'a str,
    /// Non-comment tokens, in source order.
    code: Vec<Tok>,
    /// line number → concatenated comment text appearing on that line
    /// (multi-line block comments contribute to every line they span).
    comments: BTreeMap<usize, String>,
}

impl<'a> FileView<'a> {
    fn new(src: &'a str) -> Self {
        let toks = lex(src);
        let mut code = Vec::with_capacity(toks.len());
        let mut comments: BTreeMap<usize, String> = BTreeMap::new();
        for t in toks {
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => {
                    for (k, part) in t.text(src).split('\n').enumerate() {
                        comments.entry(t.line + k).or_default().push_str(part);
                    }
                }
                _ => code.push(t),
            }
        }
        FileView { src, code, comments }
    }

    /// Text of code token `i` (empty past the end).
    fn t(&self, i: usize) -> &str {
        self.code.get(i).map(|t| t.text(self.src)).unwrap_or("")
    }

    /// Is code token `i` an identifier with text `s`?
    fn id(&self, i: usize, s: &str) -> bool {
        matches!(self.code.get(i), Some(t) if t.kind == TokKind::Ident) && self.t(i) == s
    }

    /// Is code token `i` punctuation `s`?
    fn p(&self, i: usize, s: &str) -> bool {
        matches!(self.code.get(i), Some(t) if t.kind == TokKind::Punct) && self.t(i) == s
    }

    /// Does a comment on `line` or the line above carry `allow(rule)`?
    fn waived(&self, line: usize, rule: &str) -> bool {
        let marker = format!("scioto-lint: allow({rule})");
        self.comment_has(line, &marker) || (line > 1 && self.comment_has(line - 1, &marker))
    }

    /// Does the comment text on `line` contain `needle`?
    fn comment_has(&self, line: usize, needle: &str) -> bool {
        self.comments.get(&line).is_some_and(|c| c.contains(needle))
    }

    /// Does any comment in `[line-back, line]` contain `needle`?
    fn comment_within(&self, line: usize, back: usize, needle: &str) -> bool {
        (line.saturating_sub(back)..=line).any(|l| self.comment_has(l, needle))
    }
}

/// Lint one file's contents. `det_exempt` relaxes the `std-sync` rule
/// (crates/det is the one place allowed to wrap the ambient primitives).
fn lint_source(path: &Path, src: &str, det_exempt: bool) -> Vec<Finding> {
    let v = FileView::new(src);
    let mut out = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Finding { path: path.to_path_buf(), line, rule, message });
    };

    let banned_sync = ["Mutex", "RwLock", "Condvar"];
    let atomic_calls = ["put_atomic", "get_atomic"];

    for i in 0..v.code.len() {
        let line = v.code[i].line;

        // --- std-sync ---------------------------------------------------
        // `std :: sync :: …` — scan the rest of the statement (to the
        // terminating `;`) for a banned primitive, which covers both
        // inline paths and multi-line `use` groups.
        if !det_exempt
            && v.id(i, "std")
            && v.p(i + 1, "::")
            && v.id(i + 2, "sync")
            && v.p(i + 3, "::")
            && !v.waived(line, "std-sync")
        {
            let mut j = i + 4;
            let hit = loop {
                if j >= v.code.len() || j > i + 128 || v.p(j, ";") {
                    break None;
                }
                if let Some(b) = banned_sync.iter().find(|b| v.id(j, b)) {
                    break Some(*b);
                }
                j += 1;
            };
            if let Some(b) = hit {
                push(
                    line,
                    "std-sync",
                    format!(
                        "ambient std sync {b} is banned outside crates/det; \
                         use scioto_det::sync::{b}"
                    ),
                );
            }
        }

        // --- wallclock --------------------------------------------------
        // `std :: time` — waivers count only on the sanctioned allowlist.
        if v.id(i, "std") && v.p(i + 1, "::") && v.id(i + 2, "time")
            && !(time_sanctioned(path) && v.waived(line, "wallclock"))
        {
            push(
                line,
                "wallclock",
                "std time is banned; use the simulator's virtual clock (Ctx::now_ns) \
                 or, for real wall time, scioto_det::MonoClock — waivers are honored \
                 only in the sanctioned clock/bench-harness files"
                    .to_string(),
            );
        }
        // Ambient `rand::` path root: `rand` not preceded by `::` (which
        // would make it `scioto_det::rand` or similar) or `.` (a method).
        if v.id(i, "rand")
            && v.p(i + 1, "::")
            && !(i > 0 && (v.p(i - 1, "::") || v.p(i - 1, ".")))
            && !v.waived(line, "wallclock")
        {
            push(
                line,
                "wallclock",
                "ambient rand:: is banned; use the in-tree deterministic RNG \
                 (scioto_det::rng)"
                    .to_string(),
            );
        }

        // --- trace-closure ----------------------------------------------
        // `.trace(` / `.emit(` whose arguments build a TraceEvent with no
        // closure bars before it. Token depth tracking makes the spilled
        // multi-line case identical to the single-line one.
        if v.p(i, ".") && (v.id(i + 1, "trace") || v.id(i + 1, "emit")) && v.p(i + 2, "(") {
            let mut depth = 1usize;
            let mut saw_bars = false;
            let mut j = i + 3;
            while j < v.code.len() && depth > 0 && j < i + 256 {
                if v.p(j, "(") {
                    depth += 1;
                } else if v.p(j, ")") {
                    depth -= 1;
                } else if v.p(j, "||") {
                    saw_bars = true;
                } else if v.id(j, "TraceEvent") && v.p(j + 1, "::") {
                    if !saw_bars && !v.waived(line, "trace-closure") {
                        push(
                            v.code[j].line,
                            "trace-closure",
                            "trace emission must defer event construction: \
                             pass a closure (`|| TraceEvent::..`), not a built event"
                                .to_string(),
                        );
                    }
                    break;
                }
                j += 1;
            }
        }

        // --- lock-unwrap ------------------------------------------------
        // `. lock ( ) . unwrap (`  /  `. lock ( ) . expect (`.
        if v.p(i, ".")
            && v.id(i + 1, "lock")
            && v.p(i + 2, "(")
            && v.p(i + 3, ")")
            && v.p(i + 4, ".")
            && (v.id(i + 5, "unwrap") || v.id(i + 5, "expect"))
            && v.p(i + 6, "(")
            && !v.waived(line, "lock-unwrap")
        {
            push(
                line,
                "lock-unwrap",
                "unwrap/expect on a lock result; scioto_det::sync locks \
                 cannot poison and return the guard directly"
                    .to_string(),
            );
        }

        // --- atomic-protocol --------------------------------------------
        // A protocol-atomic access is a race-checker exemption; the call
        // site must say which ordering protocol justifies it, in a
        // comment on the same line or within three lines above.
        if v.p(i, ".")
            && atomic_calls.iter().any(|c| v.id(i + 1, c))
            && v.p(i + 2, "(")
            && !v.waived(line, "atomic-protocol")
            && !v.comment_within(line, 3, "protocol")
        {
            push(
                line,
                "atomic-protocol",
                format!(
                    "`.{}(...)` call site must name its ordering protocol in a \
                     comment containing \"protocol\" on this line or within \
                     3 lines above",
                    v.t(i + 1)
                ),
            );
        }

        // --- unsafe-audit -----------------------------------------------
        // `unsafe {` blocks and `unsafe impl` need a SAFETY comment
        // naming the invariant within three lines. `unsafe fn` is exempt
        // (contract in docs; its callers are the audited sites), as are
        // `unsafe trait` / `unsafe extern` declarations.
        if v.id(i, "unsafe")
            && (v.p(i + 1, "{") || v.id(i + 1, "impl"))
            && !v.waived(line, "unsafe-audit")
            && !v.comment_within(line, 3, "SAFETY:")
        {
            let what = if v.p(i + 1, "{") { "unsafe block" } else { "unsafe impl" };
            push(
                line,
                "unsafe-audit",
                format!(
                    "{what} without a SAFETY comment: name the upheld invariant in a \
                     comment containing \"SAFETY:\" on this line or within 3 lines above"
                ),
            );
        }
    }
    out
}

/// Count live waiver comments per rule in one file's contents. Only
/// comment tokens count — a waiver marker inside a string literal (e.g.
/// a lint-test fixture) is not a waiver.
fn waiver_stats_source(src: &str) -> BTreeMap<String, usize> {
    let mut stats = BTreeMap::new();
    let marker = "scioto-lint: allow(";
    for t in lex(src) {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let text = t.text(src);
        let mut at = 0;
        while let Some(pos) = text[at..].find(marker) {
            let start = at + pos + marker.len();
            if let Some(end) = text[start..].find(')') {
                let rule = &text[start..start + end];
                // Skip placeholder docs like `allow(<rule>)`.
                if rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') && !rule.is_empty() {
                    *stats.entry(rule.to_string()).or_insert(0) += 1;
                }
                at = start + end;
            } else {
                break;
            }
        }
    }
    stats
}

/// Walk every `.rs` file under `root` (skipping `target/` and dot
/// directories), sorted for deterministic output.
fn rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively lint every `.rs` file under `root`, skipping `target/`
/// build directories. Files whose path contains a `crates/det` component
/// are exempt from the `std-sync` rule.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for p in rs_files(root)? {
        let src = std::fs::read_to_string(&p)?;
        let det_exempt = p
            .components()
            .collect::<Vec<_>>()
            .windows(2)
            .any(|w| w[0].as_os_str() == "crates" && w[1].as_os_str() == "det");
        findings.extend(lint_source(&p, &src, det_exempt));
    }
    Ok(findings)
}

/// Waiver counts per rule across `roots`, with every known rule present
/// (zero-filled) so the `--stats` output shape never changes. Unknown
/// rule names found in waiver comments are included too — they count
/// against the ratchet rather than hiding.
pub fn waiver_stats(roots: &[PathBuf]) -> std::io::Result<BTreeMap<String, usize>> {
    let mut stats: BTreeMap<String, usize> =
        ALL_RULES.iter().map(|r| (r.to_string(), 0)).collect();
    for root in roots {
        for p in rs_files(root)? {
            let src = std::fs::read_to_string(&p)?;
            for (rule, n) in waiver_stats_source(&src) {
                *stats.entry(rule).or_insert(0) += n;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(src: &str) -> Vec<Finding> {
        lint_source(Path::new("fixture.rs"), src, false)
    }

    // Fixtures are plain string literals: the token-based scanner never
    // looks inside literals, so this file cannot flag itself.

    #[test]
    fn flags_planted_std_sync_mutex() {
        let f = lint_str("use std::sync::Mutex;\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "std-sync");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn flags_multiline_use_group() {
        let f = lint_str("use std::sync::{\n    Arc,\n    RwLock,\n};\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "std-sync");
    }

    #[test]
    fn arc_and_atomics_are_fine() {
        let src = "use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn det_crate_is_exempt_from_std_sync() {
        let src = "use std::sync::Mutex;\n";
        let path = Path::new("crates/det/src/sync.rs");
        assert!(lint_source(path, src, true).is_empty());
    }

    #[test]
    fn string_literals_are_invisible_to_code_rules() {
        // The v1 textual scanner had to assemble its own patterns with
        // format! to avoid flagging itself; v2 makes literals inert.
        let src = "let s = \"use std::sync::Mutex; std::time rand:: .lock().unwrap()\";\n";
        assert!(lint_str(src).is_empty(), "{:?}", lint_str(src));
    }

    #[test]
    fn flags_wallclock_and_ambient_rand() {
        let f = lint_str("use std::time::Instant;\nlet x = rand::random();\n");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "wallclock"));
    }

    #[test]
    fn in_tree_rng_path_is_not_ambient_rand() {
        let src = "use scioto_det::rand::Pcg32;\nlet r = det::rand::seed(7);\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn waiver_comment_suppresses_finding() {
        // Marker built with format! so it is not a live waiver comment
        // in *this* file's stats.
        let src = format!("// scioto-lint: {}(wallclock)\nlet x = rand::random();\n", "allow");
        assert!(lint_str(&src).is_empty());
    }

    #[test]
    fn time_waiver_is_honored_only_in_sanctioned_files() {
        let src = format!(
            "use std::time::Instant; // scioto-lint: {}(wallclock)\n",
            "allow"
        );
        for ok in super::SANCTIONED_TIME_FILES {
            assert!(
                lint_source(Path::new(ok), &src, ok.contains("crates/det")).is_empty(),
                "waiver must be honored in {ok}"
            );
        }
        // Anywhere else the same waiver is dead weight.
        let f = lint_source(Path::new("crates/sim/src/kernel.rs"), &src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wallclock");
        assert!(f[0].message.contains("MonoClock"), "{}", f[0].message);
    }

    #[test]
    fn sanctioned_files_still_need_per_line_waivers() {
        // The allowlist widens where waivers *work*, not what is allowed
        // bare: an unwaived std-time line is flagged even in clock.rs.
        let src = "use std::time::Instant;\n";
        let f = lint_source(Path::new("crates/det/src/clock.rs"), src, true);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wallclock");
    }

    #[test]
    fn flags_eager_trace_event_construction() {
        let f = lint_str("ctx.trace(TraceEvent::Block);\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "trace-closure");

        let f = lint_str("ctx.trace(\n    TraceEvent::Block,\n);\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn deferred_closure_emission_is_fine() {
        let src = "ctx.trace(|| TraceEvent::Block);\n\
                   self.emit(rank, || TraceEvent::Steal { victim });\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn flags_lock_unwrap() {
        let f = lint_str("let g = m.lock().unwrap();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock-unwrap");
        let f = lint_str("let g = m.lock().expect(\"poisoned\");\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock-unwrap");
    }

    #[test]
    fn block_comments_hide_banned_code() {
        let src = "/* use std::sync::Mutex; */\nfn f() {}\n/*\nuse std::time::Instant;\n\
                   /* let g = m.lock().unwrap(); */\nstill commented\n*/\nfn g() {}\n";
        assert!(lint_str(src).is_empty(), "{:?}", lint_str(src));
    }

    #[test]
    fn code_after_block_comment_close_is_still_linted() {
        let f = lint_str("/* prose */ use std::time::Instant;\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wallclock");
    }

    #[test]
    fn block_comment_does_not_hide_following_lines() {
        let f = lint_str("/*\nprose\n*/\nuse std::sync::Mutex;\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn flags_undocumented_atomic_call() {
        let f = lint_str("armci.put_atomic(ctx, g, rank, off, &buf);\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "atomic-protocol");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn protocol_comment_satisfies_atomic_rule() {
        // Same line, 1 above, and exactly 3 above all count; 4 above
        // does not.
        let same = "armci.get_atomic(ctx, g, r, o, &mut b); // protocol: single-writer slot\n";
        assert!(lint_str(same).is_empty());
        let above = "// protocol: owner-only tail word\nlet x = 1;\nlet y = 2;\n\
                     armci.put_atomic(ctx, g, r, o, &t);\n";
        assert!(lint_str(above).is_empty());
        let too_far = "// protocol: owner-only tail word\nlet x = 1;\nlet y = 2;\nlet z = 3;\n\
                       armci.put_atomic(ctx, g, r, o, &t);\n";
        let f = lint_str(too_far);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "atomic-protocol");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn atomic_rule_waiver_works() {
        let src = format!(
            "// scioto-lint: {}(atomic-protocol)\narmci.get_atomic(ctx, g, r, o, &mut b);\n",
            "allow"
        );
        assert!(lint_str(&src).is_empty());
    }

    #[test]
    fn protocol_word_in_string_does_not_satisfy_atomic_rule() {
        // v1 looked at raw line text, so a string containing "protocol"
        // could bless an atomic call; v2 requires a comment.
        let src = "let s = \"protocol\"; armci.put_atomic(ctx, g, r, o, &b);\n";
        let f = lint_str(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "atomic-protocol");
    }

    #[test]
    fn flags_unsafe_block_without_safety_comment() {
        let f = lint_str("fn f(p: *mut u8) { unsafe { *p = 0 } }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsafe-audit");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn safety_comment_satisfies_unsafe_audit() {
        // Same line, directly above, and exactly 3 above all count.
        let same = "fn f(p: *mut u8) { unsafe { *p = 0 } } // SAFETY: p is valid\n";
        assert!(lint_str(same).is_empty());
        let above = "// SAFETY: caller guarantees exclusive access to p.\n\
                     fn f(p: *mut u8) {\nlet q = p;\nunsafe { *q = 0 }\n}\n";
        assert!(lint_str(above).is_empty(), "{:?}", lint_str(above));
        let too_far = "// SAFETY: stale comment.\nlet a = 1;\nlet b = 2;\nlet c = 3;\n\
                       fn f(p: *mut u8) { unsafe { *p = 0 } }\n";
        let f = lint_str(too_far);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn unsafe_impl_needs_safety_comment_but_unsafe_fn_does_not() {
        let f = lint_str("unsafe impl Sync for RankCell {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsafe-audit");
        // `unsafe fn` declares a contract, it does not discharge one.
        assert!(lint_str("unsafe fn set_task(t: *mut u8) {}\n").is_empty());
        // With a SAFETY comment the impl is fine.
        let ok = "// SAFETY: RankCell is only touched by its owning fiber.\n\
                  unsafe impl Sync for RankCell {}\n";
        assert!(lint_str(ok).is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_is_not_audited() {
        let src = "// an unsafe { example } in prose\nlet s = \"unsafe { }\";\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn unsafe_audit_waiver_works() {
        let src = format!(
            "// scioto-lint: {}(unsafe-audit)\nfn f(p: *mut u8) {{ unsafe {{ *p = 0 }} }}\n",
            "allow"
        );
        assert!(lint_str(&src).is_empty());
    }

    #[test]
    fn waiver_stats_count_comments_not_strings() {
        let src = format!(
            "// scioto-lint: {a}(wallclock)\n\
             /* scioto-lint: {a}(wallclock) */\n\
             let s = \"scioto-lint: {a}(std-sync)\";\n\
             // scioto-lint: {a}(unsafe-audit)\n",
            a = "allow"
        );
        let stats = waiver_stats_source(&src);
        assert_eq!(stats.get("wallclock"), Some(&2));
        assert_eq!(stats.get("unsafe-audit"), Some(&1));
        assert_eq!(stats.get("std-sync"), None, "string-literal marker must not count");
    }

    #[test]
    fn waiver_stats_skip_doc_placeholders() {
        let src = format!("// waive with scioto-lint: {}(<rule>) on the line\n", "allow");
        assert!(waiver_stats_source(&src).is_empty());
    }

    #[test]
    fn real_tree_is_clean() {
        // The repo root is two levels up from this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let findings: Vec<Finding> = ["crates", "src"]
            .iter()
            .map(|d| root.join(d))
            .filter(|p| p.is_dir())
            .flat_map(|p| lint_tree(&p).expect("walk"))
            .collect();
        assert!(
            findings.is_empty(),
            "lint findings in tree:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
