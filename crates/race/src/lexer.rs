//! A hand-rolled token-level Rust lexer for the source lint (`scioto lint`).
//!
//! The v1 lint scanned raw text line by line, which forced every rule to
//! re-solve the same three problems — string literals that *mention*
//! banned paths, comments that contain code, and constructs split across
//! lines. This lexer solves them once, centrally: source is tokenized
//! into identifiers, literals, comments and punctuation with exact line
//! attribution, and the rules walk the token stream. A banned path
//! inside a string literal is invisible to code rules; commented-out
//! code neither triggers nor hides findings; a method chain spread over
//! four lines is one token sequence.
//!
//! The lexer is deliberately *lossy where it does not matter*: it never
//! fails (an unterminated literal swallows the rest of the file as one
//! token), numeric literals are approximate (suffixes and float shapes
//! are not validated), and multi-character punctuation is split except
//! for the two sequences the lint rules match on (`::` and `||`). It is
//! not a compiler front end — it only has to classify code vs. comment
//! vs. literal correctly, which it does for the whole real tree (pinned
//! by `real_tree_is_clean` over every `.rs` file in the workspace).

/// Token classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `unsafe`, `impl`).
    Ident,
    /// Raw identifier (`r#type`); the `r#` prefix is part of the text.
    RawIdent,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
    /// Any string-ish literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `'c'`,
    /// `b'c'` — the interior is never scanned by lint rules.
    Literal,
    /// Numeric literal.
    Num,
    /// `// …` line comment (includes `///` and `//!` doc comments).
    LineComment,
    /// `/* … */` block comment, nesting handled; may span lines.
    BlockComment,
    /// One punctuation token. Single characters, except `::` and `||`
    /// which are merged (the only multi-character sequences the rules
    /// need).
    Punct,
}

/// One token: kind, byte range in the source, and the 1-based line the
/// token *starts* on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: usize,
}

impl Tok {
    /// The token's text within `src` (the string it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. Whitespace is skipped; everything else (including
/// comments) is returned in source order. Never fails: malformed input
/// degrades to approximate tokens, never to a panic.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    // Count the newlines in src[from..to] into `line`.
    let bump_lines = |from: usize, to: usize, line: &mut usize| {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count();
    };
    while i < src.len() {
        let start = i;
        let start_line = line;
        let c = src[i..].chars().next().expect("in-bounds char");
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += c.len_utf8();
            continue;
        }
        // Comments.
        if src[i..].starts_with("//") {
            let end = src[i..].find('\n').map(|n| i + n).unwrap_or(src.len());
            toks.push(Tok { kind: TokKind::LineComment, start, end, line: start_line });
            i = end;
            continue;
        }
        if src[i..].starts_with("/*") {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < src.len() && depth > 0 {
                if src[j..].starts_with("/*") {
                    depth += 1;
                    j += 2;
                } else if src[j..].starts_with("*/") {
                    depth -= 1;
                    j += 2;
                } else {
                    j += src[j..].chars().next().expect("in-bounds char").len_utf8();
                }
            }
            bump_lines(start, j, &mut line);
            toks.push(Tok { kind: TokKind::BlockComment, start, end: j, line: start_line });
            i = j;
            continue;
        }
        // Raw strings / raw identifiers / byte strings, before plain
        // identifiers so the `r`/`b` prefixes are not lexed as idents.
        if c == 'r' || c == 'b' {
            if let Some((end, kind)) = raw_or_byte(src, i) {
                bump_lines(start, end, &mut line);
                toks.push(Tok { kind, start, end, line: start_line });
                i = end;
                continue;
            }
        }
        // Plain identifier / keyword.
        if is_ident_start(c) {
            let mut j = i + c.len_utf8();
            while let Some(n) = src[j..].chars().next() {
                if is_ident_continue(n) {
                    j += n.len_utf8();
                } else {
                    break;
                }
            }
            toks.push(Tok { kind: TokKind::Ident, start, end: j, line: start_line });
            i = j;
            continue;
        }
        // String literal.
        if c == '"' {
            let end = scan_string(src, i + 1, '"');
            bump_lines(start, end, &mut line);
            toks.push(Tok { kind: TokKind::Literal, start, end, line: start_line });
            i = end;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let rest = &src[i + 1..];
            let mut chars = rest.chars();
            match chars.next() {
                Some('\\') => {
                    // Escaped char literal: scan to the closing quote.
                    let end = scan_string(src, i + 1, '\'');
                    toks.push(Tok { kind: TokKind::Literal, start, end, line: start_line });
                    i = end;
                    continue;
                }
                Some(f) if is_ident_start(f) => {
                    // `'x'` is a char literal; `'x` followed by anything
                    // but `'` is a lifetime/label.
                    let mut j = i + 1 + f.len_utf8();
                    while let Some(n) = src[j..].chars().next() {
                        if is_ident_continue(n) {
                            j += n.len_utf8();
                        } else {
                            break;
                        }
                    }
                    if src[j..].starts_with('\'') && j == i + 1 + f.len_utf8() {
                        toks.push(Tok { kind: TokKind::Literal, start, end: j + 1, line: start_line });
                        i = j + 1;
                    } else {
                        toks.push(Tok { kind: TokKind::Lifetime, start, end: j, line: start_line });
                        i = j;
                    }
                    continue;
                }
                Some(other) => {
                    // `'('`-style unescaped char literal.
                    let j = i + 1 + other.len_utf8();
                    let end = if src[j..].starts_with('\'') { j + 1 } else { j };
                    toks.push(Tok { kind: TokKind::Literal, start, end, line: start_line });
                    i = end;
                    continue;
                }
                None => {
                    toks.push(Tok { kind: TokKind::Punct, start, end: i + 1, line: start_line });
                    i += 1;
                    continue;
                }
            }
        }
        // Number.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while let Some(n) = src[j..].chars().next() {
                if n.is_alphanumeric() || n == '_' {
                    j += n.len_utf8();
                } else if n == '.' {
                    // Consume the dot only for a digit-led fraction, so
                    // `1..3` stays a range and `1.0` stays one number.
                    match src[j + 1..].chars().next() {
                        Some(d) if d.is_ascii_digit() => j += 1,
                        _ => break,
                    }
                } else {
                    break;
                }
            }
            toks.push(Tok { kind: TokKind::Num, start, end: j, line: start_line });
            i = j;
            continue;
        }
        // Punctuation; merge the two sequences the rules match on.
        for merged in ["::", "||"] {
            if src[i..].starts_with(merged) {
                toks.push(Tok { kind: TokKind::Punct, start, end: i + 2, line: start_line });
                i += 2;
                break;
            }
        }
        if i != start {
            continue;
        }
        toks.push(Tok { kind: TokKind::Punct, start, end: i + c.len_utf8(), line: start_line });
        i += c.len_utf8();
    }
    toks
}

/// Scan a quoted literal body starting *after* the opening quote, with
/// backslash escapes, returning the index one past the closing `quote`
/// (or `src.len()` if unterminated).
fn scan_string(src: &str, mut i: usize, quote: char) -> usize {
    while i < src.len() {
        let c = src[i..].chars().next().expect("in-bounds char");
        if c == '\\' {
            i += 1;
            if let Some(e) = src[i..].chars().next() {
                i += e.len_utf8();
            }
            continue;
        }
        i += c.len_utf8();
        if c == quote {
            return i;
        }
    }
    src.len()
}

/// Try to lex a raw string (`r"…"`, `r#"…"#`), raw identifier
/// (`r#ident`), byte string (`b"…"`, `br#"…"#`) or byte char (`b'c'`)
/// at `i`. Returns `(end, kind)` or `None` if this is a plain ident.
fn raw_or_byte(src: &str, i: usize) -> Option<(usize, TokKind)> {
    let rest = &src[i..];
    let (prefix_len, raw) = if rest.starts_with("br") {
        (2, true)
    } else if rest.starts_with('r') {
        (1, true)
    } else if rest.starts_with('b') {
        (1, false)
    } else {
        return None;
    };
    let after = &src[i + prefix_len..];
    if raw {
        // Count hashes.
        let hashes = after.bytes().take_while(|&c| c == b'#').count();
        let body = &src[i + prefix_len + hashes..];
        if body.starts_with('"') {
            // Raw string: ends at `"` followed by `hashes` hashes.
            let close: String = std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
            let open_at = i + prefix_len + hashes + 1;
            let end = src[open_at..]
                .find(&close)
                .map(|n| open_at + n + close.len())
                .unwrap_or(src.len());
            return Some((end, TokKind::Literal));
        }
        if prefix_len == 1 && hashes == 1 {
            // Maybe a raw identifier `r#ident`.
            let mut chars = body.chars();
            if let Some(f) = chars.next() {
                if is_ident_start(f) {
                    let mut j = i + 2 + f.len_utf8();
                    while let Some(n) = src[j..].chars().next() {
                        if is_ident_continue(n) {
                            j += n.len_utf8();
                        } else {
                            break;
                        }
                    }
                    return Some((j, TokKind::RawIdent));
                }
            }
        }
        return None;
    }
    // `b"…"` / `b'c'` (non-raw byte literals).
    if after.starts_with('"') {
        return Some((scan_string(src, i + prefix_len + 1, '"'), TokKind::Literal));
    }
    if after.starts_with('\'') {
        return Some((scan_string(src, i + prefix_len + 2, '\''), TokKind::Literal));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_puncts_and_merged_ops() {
        let k = kinds("use std::sync::Mutex; || a|b");
        assert_eq!(
            k,
            vec![
                (TokKind::Ident, "use".into()),
                (TokKind::Ident, "std".into()),
                (TokKind::Punct, "::".into()),
                (TokKind::Ident, "sync".into()),
                (TokKind::Punct, "::".into()),
                (TokKind::Ident, "Mutex".into()),
                (TokKind::Punct, ";".into()),
                (TokKind::Punct, "||".into()),
                (TokKind::Ident, "a".into()),
                (TokKind::Punct, "|".into()),
                (TokKind::Ident, "b".into()),
            ]
        );
    }

    #[test]
    fn strings_hide_their_interior() {
        let src = r#"let s = "std::sync::Mutex"; x"#;
        let k = kinds(src);
        assert!(k.iter().any(|(kind, t)| *kind == TokKind::Literal && t.contains("Mutex")));
        // No Ident token named Mutex escapes the literal.
        assert!(!k.iter().any(|(kind, t)| *kind == TokKind::Ident && t == "Mutex"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = r#""a\"b" c"#;
        let k = kinds(src);
        assert_eq!(k[0], (TokKind::Literal, "\"a\\\"b\"".into()));
        assert_eq!(k[1], (TokKind::Ident, "c".into()));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = "r#\"interior \" quote\"# after";
        let k = kinds(src);
        assert_eq!(k[0].0, TokKind::Literal);
        assert_eq!(k[1], (TokKind::Ident, "after".into()));
        // Byte strings too.
        let src = "br\"bytes\" x";
        let k = kinds(src);
        assert_eq!(k[0].0, TokKind::Literal);
        assert_eq!(k[1], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn raw_idents() {
        let k = kinds("r#type x");
        assert_eq!(k[0], (TokKind::RawIdent, "r#type".into()));
        assert_eq!(k[1], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let k = kinds("&'a T 'x' '\\n' 'label: loop");
        assert_eq!(k[1], (TokKind::Lifetime, "'a".into()));
        assert_eq!(k[3], (TokKind::Literal, "'x'".into()));
        assert_eq!(k[4], (TokKind::Literal, "'\\n'".into()));
        assert_eq!(k[5], (TokKind::Lifetime, "'label".into()));
    }

    #[test]
    fn comments_classified_and_nested_blocks_close() {
        let src = "a // line\n/* b /* nested */ still */ c";
        let k = kinds(src);
        assert_eq!(k[0], (TokKind::Ident, "a".into()));
        assert_eq!(k[1].0, TokKind::LineComment);
        assert_eq!(k[2].0, TokKind::BlockComment);
        assert!(k[2].1.contains("nested"));
        assert_eq!(k[3], (TokKind::Ident, "c".into()));
    }

    #[test]
    fn line_attribution_spans_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb\n\"str\nacross\"\nc";
        let toks = lex(src);
        let find = |txt: &str| toks.iter().find(|t| t.text(src) == txt).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("c"), 7);
        // The block comment starts on line 2 even though it ends on 3.
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let k = kinds("0..8 1.5 0x1f");
        assert_eq!(k[0], (TokKind::Num, "0".into()));
        assert_eq!(k[1], (TokKind::Punct, ".".into()));
        assert_eq!(k[2], (TokKind::Punct, ".".into()));
        assert_eq!(k[3], (TokKind::Num, "8".into()));
        assert_eq!(k[4], (TokKind::Num, "1.5".into()));
        assert_eq!(k[5], (TokKind::Num, "0x1f".into()));
    }

    #[test]
    fn unterminated_literal_never_panics() {
        let src = "let s = \"unterminated";
        let k = kinds(src);
        assert_eq!(k.last().unwrap().0, TokKind::Literal);
    }
}
