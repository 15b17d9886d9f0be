//! Comment- and string-aware source stripping.
//!
//! The rule engine must never fire on tokens inside string literals,
//! char literals, or comments — and must *read* comments to find
//! `RELAXED:` / `allow(…)` annotations. This module
//! splits a Rust source file into per-line `(code, comment)` pairs with a
//! small state machine that understands:
//!
//! * line comments (`//`, `///`, `//!`);
//! * **nested** block comments (`/* /* */ */`);
//! * string literals with escapes, including multi-line strings;
//! * raw (and byte/raw-byte) strings `r"…"`, `r#"…"#`, … with any number
//!   of hashes;
//! * char literals vs. lifetimes (`'a'` and `'\n'` strip; `'a` in
//!   `&'a str` stays code).
//!
//! String and char *contents* are dropped from the code text (delimiters
//! are kept so token boundaries survive); comment text is collected
//! separately, per line.

/// One physical source line, split into its code and comment parts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Line {
    /// Code with string/char contents and all comments removed.
    pub code: String,
    /// Concatenated comment text carried by this line.
    pub comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    LineComment,
    /// Nesting depth.
    BlockComment(u32),
    /// Inside a normal string literal.
    Str,
    /// Inside a raw string with this many `#`s.
    RawStr(u32),
    /// Inside a char literal.
    CharLit,
}

/// Split `source` into per-line code/comment pairs.
pub fn strip_source(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut mode = Mode::Code;
    let mut i = 0;

    let at = |i: usize| -> Option<char> { chars.get(i).copied() };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            // Newline always ends the physical line; line comments end too.
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && at(i + 1) == Some('/') {
                    mode = Mode::LineComment;
                    i += 2;
                } else if c == '/' && at(i + 1) == Some('*') {
                    mode = Mode::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && !prev_is_ident(&chars, i)
                    && raw_string_hashes(&chars, i).is_some()
                {
                    // r"…", r#"…"#, b"…", br#"…"# — delimiters kept.
                    let (hashes, skip) = match raw_string_hashes(&chars, i) {
                        Some(hs) => hs,
                        None => unreachable_raw(),
                    };
                    for j in 0..skip {
                        cur.code.push(chars[i + j]);
                    }
                    mode = if chars[i + skip - 1] == '"' {
                        if hashes == u32::MAX {
                            Mode::Str
                        } else {
                            Mode::RawStr(hashes)
                        }
                    } else {
                        Mode::Code
                    };
                    i += skip;
                } else if c == '\'' {
                    // Char literal or lifetime?
                    let is_char = matches!(
                        (at(i + 1), at(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char {
                        cur.code.push('\'');
                        mode = Mode::CharLit;
                        i += 1;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '/' && at(i + 1) == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && at(i + 1) == Some('/') {
                    mode = if depth <= 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    if at(i + 1) == Some('\n') {
                        // Line-continuation escape: keep line numbers true.
                        lines.push(std::mem::take(&mut cur));
                    }
                    i += 2; // skip the escaped char (may be `"` or `\`)
                } else if c == '"' {
                    cur.code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1; // string content dropped
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    cur.code.push('"');
                    for _ in 0..hashes {
                        cur.code.push('#');
                    }
                    i += 1 + hashes as usize;
                    mode = Mode::Code;
                } else {
                    i += 1;
                }
            }
            Mode::CharLit => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    // Final line without trailing newline.
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// `raw_string_hashes(chars, i)` inspects a possible raw/byte string
/// opener at `i` (which holds `r` or `b`). Returns `(hashes, skip)` where
/// `skip` is the opener's length in chars, or `None` if this is not a
/// string opener. A plain `b"…"` byte string reports `hashes == u32::MAX`
/// as a sentinel meaning "escapes allowed" (handled as [`Mode::Str`]).
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    let mut saw_r = false;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        saw_r = true;
        j += 1;
    }
    if j == i {
        return None;
    }
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    if !saw_r {
        if hashes != 0 {
            return None; // `b#"` is not a thing
        }
        return Some((u32::MAX, j - i + 1)); // b"…" behaves like a normal string
    }
    Some((hashes, j - i + 1))
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0
        && chars
            .get(i - 1)
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

/// `raw_string_hashes` is consulted before entering this arm, so it never
/// yields `None` here; isolated to keep the hot path `unwrap`-free.
fn unreachable_raw() -> (u32, usize) {
    (0, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        strip_source(src).into_iter().map(|l| l.code).collect()
    }

    fn comments_of(src: &str) -> Vec<String> {
        strip_source(src).into_iter().map(|l| l.comment).collect()
    }

    #[test]
    fn strips_line_comments() {
        let lines = strip_source("let x = 1; // panic! here\n");
        assert_eq!(lines[0].code, "let x = 1; ");
        assert_eq!(lines[0].comment, " panic! here");
    }

    #[test]
    fn strips_nested_block_comments() {
        let c = code_of("a /* one /* two */ still comment */ b\n");
        assert_eq!(c[0], "a  b");
    }

    #[test]
    fn strips_string_contents_keeps_quotes() {
        let c = code_of("let s = \".unwrap() panic!\";\n");
        assert_eq!(c[0], "let s = \"\";");
    }

    #[test]
    fn handles_escaped_quotes() {
        let c = code_of(r#"let s = "a\"b"; let t = 1;"#);
        assert_eq!(c[0], "let s = \"\"; let t = 1;");
    }

    #[test]
    fn handles_raw_strings() {
        let c = code_of("let s = r#\"has \"quotes\" and panic!\"#; let t = 2;\n");
        assert_eq!(c[0], "let s = r#\"\"#; let t = 2;");
    }

    #[test]
    fn handles_multiline_strings() {
        let c = code_of("let s = \"line one\n  line two\"; let x = 3;\n");
        assert_eq!(c[0], "let s = \"");
        assert_eq!(c[1], "\"; let x = 3;");
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let c = code_of("let c = '\\n'; fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(c[0].contains("fn f<'a>"));
        assert!(!c[0].contains("\\n"));
        let c = code_of("let q = '\"'; let s = \"x\";\n");
        assert_eq!(c[0], "let q = ''; let s = \"\";");
    }

    #[test]
    fn byte_strings() {
        let c = code_of("let b = b\"panic! bytes\"; let x = 1;\n");
        assert_eq!(c[0], "let b = b\"\"; let x = 1;");
    }

    #[test]
    fn doc_comments_are_comments() {
        let com = comments_of("/// uses .unwrap() internally\nfn f() {}\n");
        assert!(com[0].contains(".unwrap()"));
        let c = code_of("/// uses .unwrap() internally\nfn f() {}\n");
        assert_eq!(c[0], "");
    }

    #[test]
    fn multibyte_chars_survive() {
        let lines = strip_source("let s = \"héllo wörld\"; // ünïcode\n");
        assert_eq!(lines[0].code, "let s = \"\"; ");
        assert!(lines[0].comment.contains("ünïcode"));
    }
}
