//! A comment- and string-aware scanner for Rust source.
//!
//! The passes in this crate match *tokens in code*, never text inside
//! string literals or comments. Rather than produce a token stream, the
//! scanner rewrites the source into a same-shape "blanked" form: every
//! comment and every string/char-literal *interior* is replaced by spaces
//! (newlines kept), so byte offsets and line numbers are preserved and the
//! passes can use plain substring matching on the result. Comment text is
//! captured separately — that is where `srclint: allow(...)` annotations
//! live.
//!
//! Handled: line comments, nested block comments, string literals with
//! escapes, raw strings (`r"…"`, `r#"…"#`, any hash depth), byte and
//! raw-byte strings, and char literals (distinguished from lifetimes by
//! lookahead: `'x'` or `'\…'` is a literal, `'ident` is a lifetime).
//! Not handled (documented limits, see DESIGN.md §17): tokens split
//! across lines by unusual formatting, and macro-generated code.

/// One comment, with the line its first character sits on (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: usize,
    /// Comment text without the `//` / `/* */` delimiters.
    pub text: String,
    /// True when the comment shares its line with preceding code
    /// (a trailing comment, as opposed to a standalone comment line).
    pub trailing: bool,
}

/// The scan result: blanked code plus the extracted comments.
#[derive(Debug, Clone, Default)]
pub struct Scanned {
    /// The source with comments and literal interiors blanked to spaces.
    /// Same length in lines as the input; every remaining non-space
    /// character is real code.
    pub code: String,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

/// True for characters that can continue a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Scans `source` into blanked code + comments. Total function: malformed
/// input (unterminated strings or comments) blanks to end of file rather
/// than failing — the linter must never panic on the code it audits.
pub fn scan(source: &str) -> Scanned {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut code = String::with_capacity(source.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut line_has_code = false;
    let mut i = 0usize;

    // Pushes a code character, tracking line count and whether the
    // current line has seen any non-whitespace code.
    macro_rules! push_code {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
                line_has_code = false;
            } else if !c.is_whitespace() {
                line_has_code = true;
            }
            code.push(c);
        }};
    }
    // Blanks one source character: newlines survive, all else → space.
    macro_rules! blank {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
                line_has_code = false;
                code.push('\n');
            } else {
                code.push(' ');
            }
        }};
    }

    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        // The last pushed *code* character continues an identifier: an
        // `r` or `b` here is part of that identifier, not a literal
        // prefix (`for r"…"` cannot occur; `handler"` can't either, but
        // `bar"x"` would otherwise misparse).
        let prev_ident = code
            .chars()
            .rev()
            .find(|c| *c != ' ')
            .is_some_and(is_ident_char);

        // Line comment.
        if c == '/' && next == Some('/') {
            let start_line = line;
            let trailing = line_has_code;
            let mut text = String::new();
            let mut j = i + 2;
            while j < n && chars[j] != '\n' {
                text.push(chars[j]);
                j += 1;
            }
            comments.push(Comment {
                line: start_line,
                text: text.trim().to_string(),
                trailing,
            });
            for &c in &chars[i..j] {
                blank!(c);
            }
            i = j;
            continue;
        }
        // Block comment (nested).
        if c == '/' && next == Some('*') {
            let start_line = line;
            let trailing = line_has_code;
            let mut depth = 1usize;
            let mut text = String::new();
            let mut j = i + 2;
            blank!(chars[i]);
            blank!(chars[i + 1]);
            while j < n && depth > 0 {
                if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    text.push_str("/*");
                    blank!(chars[j]);
                    blank!(chars[j + 1]);
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    blank!(chars[j]);
                    blank!(chars[j + 1]);
                    j += 2;
                } else {
                    text.push(chars[j]);
                    blank!(chars[j]);
                    j += 1;
                }
            }
            comments.push(Comment {
                line: start_line,
                text: text.trim().to_string(),
                trailing,
            });
            i = j;
            continue;
        }
        // Raw / byte / raw-byte string starts: r" r#" b" br" br#"
        if !prev_ident && (c == 'r' || c == 'b') {
            let mut j = i;
            if c == 'b' && (next == Some('r') || next == Some('"')) {
                j += 1; // past the b
            }
            if chars.get(j) == Some(&'r') && matches!(chars.get(j + 1), Some('"') | Some('#')) {
                // Raw string: count hashes.
                let mut k = j + 1;
                let mut hashes = 0usize;
                while chars.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if chars.get(k) == Some(&'"') {
                    // Prefix and opening quote survive as code.
                    for &c in &chars[i..=k] {
                        push_code!(c);
                    }
                    let mut m = k + 1;
                    // Interior until `"` followed by `hashes` hashes.
                    'raw: while m < n {
                        if chars[m] == '"' {
                            let mut h = 0usize;
                            while chars.get(m + 1 + h) == Some(&'#') {
                                h += 1;
                            }
                            if h >= hashes {
                                push_code!('"');
                                for p in 0..hashes {
                                    let _ = p;
                                    push_code!('#');
                                }
                                m += 1 + hashes;
                                break 'raw;
                            }
                        }
                        blank!(chars[m]);
                        m += 1;
                    }
                    i = m;
                    continue;
                }
            } else if c == 'b' && next == Some('"') {
                // Byte string: handled by the normal-string arm below
                // after pushing the prefix.
                push_code!('b');
                i += 1;
                continue;
            }
        }
        // Normal string literal.
        if c == '"' {
            push_code!('"');
            let mut j = i + 1;
            while j < n {
                if chars[j] == '\\' && j + 1 < n {
                    blank!(chars[j]);
                    blank!(chars[j + 1]);
                    j += 2;
                    continue;
                }
                if chars[j] == '"' {
                    push_code!('"');
                    j += 1;
                    break;
                }
                blank!(chars[j]);
                j += 1;
            }
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char_lit = match next {
                Some('\\') => true,
                Some(x) => {
                    // `'x'` is a literal; `'a` (no closing quote) is a
                    // lifetime. A quote right after (`''`) never parses.
                    chars.get(i + 2) == Some(&'\'') && x != '\''
                }
                None => false,
            };
            if is_char_lit {
                push_code!('\'');
                let mut j = i + 1;
                if chars.get(j) == Some(&'\\') {
                    blank!(chars[j]);
                    j += 1;
                    // Escape body runs to the closing quote.
                    while j < n && chars[j] != '\'' {
                        blank!(chars[j]);
                        j += 1;
                    }
                } else if j < n {
                    blank!(chars[j]);
                    j += 1;
                }
                if chars.get(j) == Some(&'\'') {
                    push_code!('\'');
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        push_code!(c);
        i += 1;
    }

    Scanned { code, comments }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked_and_captured() {
        let s = scan("let x = 1; // trailing note\n// standalone\nlet y = 2;\n");
        assert!(s.code.contains("let x = 1;"));
        assert!(!s.code.contains("trailing"));
        assert_eq!(s.comments.len(), 2);
        assert_eq!(s.comments[0].text, "trailing note");
        assert!(s.comments[0].trailing);
        assert_eq!(s.comments[1].line, 2);
        assert!(!s.comments[1].trailing);
    }

    #[test]
    fn nested_block_comments_blank_fully() {
        let s = scan("a /* outer /* inner */ still */ b\n");
        let line = s.code.lines().next().unwrap().to_string();
        assert!(line.starts_with('a'));
        assert!(line.trim_end().ends_with('b'));
        assert!(!line.contains("inner"));
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].text.contains("inner"));
    }

    #[test]
    fn string_interiors_are_blanked() {
        let s = scan("let x = \"HashMap.iter() // not a comment\"; y();\n");
        assert!(!s.code.contains("HashMap"));
        assert!(s.code.contains("y();"));
        assert!(s.comments.is_empty(), "no comment inside a string");
    }

    #[test]
    fn escaped_quotes_do_not_terminate() {
        let s = scan(r#"let x = "a\"b"; iter();"#);
        assert!(s.code.contains("iter();"));
        assert!(!s.code.contains('a'));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let s = scan("let x = r#\"Instant::now() \" quote\"#; go();\n");
        assert!(!s.code.contains("Instant"));
        assert!(s.code.contains("go();"));
        let s = scan("let x = r\"thread_rng\"; go();\n");
        assert!(!s.code.contains("thread_rng"));
        let s = scan("let x = br##\"env::var\"##; go();\n");
        assert!(!s.code.contains("env::var"));
        assert!(s.code.contains("go();"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let s = scan("for r in list { use_it(r); }\n");
        assert!(s.code.contains("for r in list"));
        let s = scan("let var = 1; let b = 2;\n");
        assert!(s.code.contains("let b = 2;"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = scan("let c = 'x'; let nl = '\\n'; fn f<'a>(v: &'a str) {}\n");
        assert!(!s.code.contains('x'), "char literal interior blanked");
        assert!(s.code.contains("<'a>"), "lifetime untouched");
        assert!(s.code.contains("&'a str"));
    }

    #[test]
    fn newlines_and_line_numbers_survive_blanking() {
        let src = "a\n\"line1\nline2\"\n// c3\nb\n";
        let s = scan(src);
        assert_eq!(s.code.lines().count(), src.lines().count());
        assert_eq!(s.comments[0].line, 4);
    }

    #[test]
    fn unterminated_literals_blank_to_eof_without_panic() {
        let s = scan("let x = \"unterminated Instant::now\n more");
        assert!(!s.code.contains("Instant"));
        let s = scan("/* never closed thread_rng");
        assert!(!s.code.contains("thread_rng"));
        assert_eq!(s.comments.len(), 1);
    }
}
