//! The SA pass implementations and the allow-annotation machinery.
//!
//! Every pass works on the *blanked* code produced by
//! [`crate::tokenizer::scan`]: string and comment interiors are spaces, so
//! plain substring/word-boundary matching cannot misfire on literals or
//! prose. Findings are suppressed by `srclint: allow(SAxxx) — reason`
//! annotations; an allow that suppresses nothing is itself an Error
//! (SA000), so the suppression set can never rot.
//!
//! Scope rules, driven purely by the workspace-relative path:
//!
//! * test code (any `tests` path segment, or a `#[cfg(test)]` region) is
//!   skipped by every pass except SA003 — tests may print, probe the
//!   environment, and iterate hash maps, but entropy seeding is banned
//!   everywhere;
//! * `src/` (the CLI crate) is exempt from SA004 and SA005 — it is the
//!   one place that reads the environment and owns stdout;
//! * `crates/obs/` is the timing quarantine (SA002 exempt);
//! * `crates/par/` is the thread-identity quarantine (SA006 exempt);
//! * binary targets (`src/main.rs`, `src/bin/`) are exempt from SA005.

use crate::tokenizer::{is_ident_char, scan, Comment};
use crate::{Line, SaCode};
use massf_metrics::diag::{Code as _, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};

/// A source finding: an SA diagnostic.
type Finding = Diagnostic<SaCode>;

/// A finding at `path:line`, at its code's severity.
fn finding(code: SaCode, path: &str, line: usize, message: String) -> Finding {
    Diagnostic {
        code,
        severity: code.severity(),
        location: Line {
            path: path.to_string(),
            line,
        },
        message,
    }
}

/// Lints one file. Returns the surviving findings plus, per code, how
/// many findings were suppressed by (non-stale) allow annotations.
pub fn lint_file(path: &str, text: &str) -> (Vec<Finding>, Vec<(SaCode, usize)>) {
    let scanned = scan(text);
    let lines: Vec<&str> = scanned.code.lines().collect();
    let ctx = FileCtx::classify(path, &lines);

    let mut raw: Vec<Finding> = Vec::new();
    // One finding per (code, line) per file keeps multi-hazard lines from
    // double-reporting and makes goldens insensitive to match order.
    let mut seen: BTreeSet<(SaCode, usize)> = BTreeSet::new();
    let mut push = |raw: &mut Vec<Finding>, code: SaCode, line: usize, message: String| {
        if seen.insert((code, line)) {
            raw.push(finding(code, path, line, message));
        }
    };

    sa001_hash_iteration(&ctx, &lines, path, &mut raw, &mut push);
    sa002_wall_clock(&ctx, &lines, &mut raw, &mut push);
    sa003_entropy(&ctx, &lines, &mut raw, &mut push);
    sa004_env_access(&ctx, &lines, &mut raw, &mut push);
    sa005_direct_print(&ctx, &lines, &mut raw, &mut push);
    sa006_thread_identity(&ctx, &lines, &mut raw, &mut push);
    sa007_float_accumulation(&ctx, &lines, &scanned.comments, &mut raw, &mut push);

    apply_allows(path, &lines, &scanned.comments, raw)
}

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

struct FileCtx {
    /// Any `tests` path segment: integration tests, crate test dirs.
    is_test_file: bool,
    /// Root `src/`: the `massf` CLI crate.
    is_cli: bool,
    /// Binary target (CLI, `main.rs`, or under `src/bin/`).
    is_binary: bool,
    /// `crates/<name>/...` → `Some(name)`.
    crate_dir: Option<String>,
    /// Per-line flag: inside a `#[cfg(test)]` region (or a test file).
    test_lines: Vec<bool>,
}

impl FileCtx {
    fn classify(path: &str, lines: &[&str]) -> FileCtx {
        let segs: Vec<&str> = path.split('/').collect();
        let is_test_file = segs.contains(&"tests");
        let is_cli = segs.first() == Some(&"src");
        let is_binary = is_cli
            || segs.last() == Some(&"main.rs")
            || segs.windows(2).any(|w| w == ["src", "bin"]);
        let crate_dir = if segs.first() == Some(&"crates") && segs.len() > 1 {
            Some(segs[1].to_string())
        } else {
            None
        };
        let mut test_lines = cfg_test_mask(lines);
        if is_test_file {
            test_lines.iter_mut().for_each(|b| *b = true);
        }
        FileCtx {
            is_test_file,
            is_cli,
            is_binary,
            crate_dir,
            test_lines,
        }
    }

    fn in_test(&self, line_idx: usize) -> bool {
        self.test_lines
            .get(line_idx)
            .copied()
            .unwrap_or(self.is_test_file)
    }

    fn in_crate(&self, name: &str) -> bool {
        self.crate_dir.as_deref() == Some(name)
    }
}

/// Marks the lines covered by `#[cfg(test)] mod … { … }` regions via brace
/// matching on the blanked code (strings can no longer confuse the count).
fn cfg_test_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            let start = i;
            let mut depth = 0usize;
            let mut opened = false;
            let mut end = lines.len() - 1;
            'outer: for (j, line) in lines.iter().enumerate().skip(i) {
                for c in line.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                end = j;
                                break 'outer;
                            }
                        }
                        // `#[cfg(test)] mod tests;` — no body in this file.
                        ';' if !opened => {
                            end = j;
                            break 'outer;
                        }
                        _ => {}
                    }
                }
            }
            for slot in mask.iter_mut().take(end + 1).skip(start) {
                *slot = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

// ---------------------------------------------------------------------------
// Matching helpers
// ---------------------------------------------------------------------------

/// Byte positions where `tok` occurs in `line` with identifier boundaries
/// on both sides.
fn token_positions(line: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(tok) {
        let at = from + rel;
        let before_ok = !line[..at].chars().next_back().is_some_and(is_ident_char);
        let after_ok = !line[at + tok.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + tok.len();
    }
    out
}

fn has_token(line: &str, tok: &str) -> bool {
    !token_positions(line, tok).is_empty()
}

/// The identifier ending exactly at the end of `s`, if any.
fn trailing_ident(s: &str) -> Option<&str> {
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()
        .map(|(i, _)| i)?;
    let id = &s[start..end];
    // An identifier cannot start with a digit.
    if id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(id)
}

/// The identifier starting at the first identifier character of `s`.
fn leading_ident(s: &str) -> Option<&str> {
    let trimmed = s.trim_start();
    let end = trimmed
        .char_indices()
        .find(|(_, c)| !is_ident_char(*c))
        .map(|(i, _)| i)
        .unwrap_or(trimmed.len());
    if end == 0 {
        None
    } else {
        Some(&trimmed[..end])
    }
}

// ---------------------------------------------------------------------------
// SA001 — HashMap/HashSet iteration
// ---------------------------------------------------------------------------

/// Iteration methods whose visit order follows the hasher, not the keys.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter()",
    "iter_mut()",
    "keys()",
    "into_keys()",
    "values()",
    "values_mut()",
    "into_values()",
    "into_iter()",
    "drain(",
];

/// Collects identifiers declared with a hash-collection type anywhere in
/// the file: `let [mut] name … Hash{Map,Set} …`, plus `name: …Hash… ` field
/// and parameter bindings. Deliberately conservative — a tracked `Vec` of
/// maps flags its `into_iter` too, since the elements almost always get
/// iterated next.
fn tracked_hash_idents(lines: &[&str]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for line in lines {
        if !has_token(line, "HashMap") && !has_token(line, "HashSet") {
            continue;
        }
        for kw in ["let mut ", "let "] {
            if let Some(pos) = line.find(kw) {
                if let Some(id) = leading_ident(&line[pos + kw.len()..]) {
                    if id != "mut" {
                        tracked.insert(id.to_string());
                    }
                }
            }
        }
        // `name: …HashMap…` — struct fields and fn parameters. Walk each
        // single `:` (skipping `::`) whose type side mentions the token
        // before the next single `:`.
        let bytes = line.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes[i] == b':' {
                if i + 1 < bytes.len() && bytes[i + 1] == b':' {
                    i += 2;
                    continue;
                }
                if i > 0 && bytes[i - 1] == b':' {
                    i += 1;
                    continue;
                }
                let ty = &line[i + 1..];
                let ty = ty.split(&[':', ';', '='][..]).next().unwrap_or(ty);
                if has_token(ty, "HashMap") || has_token(ty, "HashSet") {
                    if let Some(id) = trailing_ident(line[..i].trim_end()) {
                        tracked.insert(id.to_string());
                    }
                }
            }
            i += 1;
        }
    }
    tracked
}

fn sa001_hash_iteration(
    ctx: &FileCtx,
    lines: &[&str],
    _path: &str,
    raw: &mut Vec<Finding>,
    push: &mut impl FnMut(&mut Vec<Finding>, SaCode, usize, String),
) {
    let tracked = tracked_hash_idents(lines);
    if tracked.is_empty() {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if ctx.in_test(idx) {
            continue;
        }
        for m in HASH_ITER_METHODS {
            let pat = format!(".{m}");
            for at in substring_positions(line, &pat) {
                if let Some(id) = trailing_ident(&line[..at]) {
                    if tracked.contains(id) {
                        let method = m.trim_end_matches('(').trim_end_matches("()");
                        push(
                            raw,
                            SaCode::Sa001,
                            idx + 1,
                            format!("`{id}.{method}` iterates a HashMap/HashSet in hasher order"),
                        );
                    }
                }
            }
        }
        // `for … in <tracked>` — direct IntoIterator consumption.
        for at in token_positions(line, "for") {
            let rest = &line[at + 3..];
            if let Some(inpos) = rest.find(" in ") {
                if let Some(id) = leading_ident(&rest[inpos + 4..]) {
                    if tracked.contains(id) {
                        push(
                            raw,
                            SaCode::Sa001,
                            idx + 1,
                            format!("`for … in {id}` iterates a HashMap/HashSet in hasher order"),
                        );
                    }
                }
            }
        }
    }
}

/// Plain (non-boundary) substring positions; used for `.method(` patterns
/// whose leading `.` already guarantees a boundary.
fn substring_positions(line: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(pat) {
        out.push(from + rel);
        from = from + rel + pat.len();
    }
    out
}

// ---------------------------------------------------------------------------
// SA002..SA006 — token scans with path-based quarantines
// ---------------------------------------------------------------------------

fn sa002_wall_clock(
    ctx: &FileCtx,
    lines: &[&str],
    raw: &mut Vec<Finding>,
    push: &mut impl FnMut(&mut Vec<Finding>, SaCode, usize, String),
) {
    if ctx.in_crate("obs") {
        return; // the timing quarantine
    }
    for (idx, line) in lines.iter().enumerate() {
        if ctx.in_test(idx) {
            continue;
        }
        for tok in ["Instant::now", "SystemTime::now"] {
            if has_token(line, tok) {
                push(
                    raw,
                    SaCode::Sa002,
                    idx + 1,
                    format!("`{tok}` wall-clock read outside the massf-obs quarantine"),
                );
            }
        }
    }
}

fn sa003_entropy(
    _ctx: &FileCtx,
    lines: &[&str],
    raw: &mut Vec<Finding>,
    push: &mut impl FnMut(&mut Vec<Finding>, SaCode, usize, String),
) {
    // No test exemption: entropy seeding is banned everywhere — a test
    // seeded from the OS cannot reproduce its own failures.
    for (idx, line) in lines.iter().enumerate() {
        for tok in ["thread_rng", "from_entropy", "from_os_rng"] {
            if has_token(line, tok) {
                push(
                    raw,
                    SaCode::Sa003,
                    idx + 1,
                    format!("`{tok}` entropy-seeded randomness (derive streams from a fixed seed)"),
                );
            }
        }
    }
}

fn sa004_env_access(
    ctx: &FileCtx,
    lines: &[&str],
    raw: &mut Vec<Finding>,
    push: &mut impl FnMut(&mut Vec<Finding>, SaCode, usize, String),
) {
    if ctx.is_cli {
        return; // the CLI crate owns the process environment
    }
    for (idx, line) in lines.iter().enumerate() {
        if ctx.in_test(idx) {
            continue;
        }
        for tok in ["env::var", "env::var_os", "env::args", "env::args_os"] {
            if line.contains(tok) {
                push(
                    raw,
                    SaCode::Sa004,
                    idx + 1,
                    format!("`{tok}` environment access outside the CLI crate"),
                );
                break;
            }
        }
    }
}

fn sa005_direct_print(
    ctx: &FileCtx,
    lines: &[&str],
    raw: &mut Vec<Finding>,
    push: &mut impl FnMut(&mut Vec<Finding>, SaCode, usize, String),
) {
    if ctx.is_cli || ctx.is_binary || ctx.is_test_file {
        return; // binaries and tests own their stdout
    }
    for (idx, line) in lines.iter().enumerate() {
        if ctx.in_test(idx) {
            continue;
        }
        for mac in ["println!", "eprintln!", "print!", "eprint!"] {
            if has_token(line, mac.trim_end_matches('!')) && line.contains(mac) {
                push(
                    raw,
                    SaCode::Sa005,
                    idx + 1,
                    format!("`{mac}` in a library crate (route output through a renderer)"),
                );
                break;
            }
        }
    }
}

fn sa006_thread_identity(
    ctx: &FileCtx,
    lines: &[&str],
    raw: &mut Vec<Finding>,
    push: &mut impl FnMut(&mut Vec<Finding>, SaCode, usize, String),
) {
    if ctx.in_crate("par") {
        return; // the parallelism quarantine
    }
    for (idx, line) in lines.iter().enumerate() {
        if ctx.in_test(idx) {
            continue;
        }
        for tok in ["thread::current", "available_parallelism"] {
            if line.contains(tok) {
                push(
                    raw,
                    SaCode::Sa006,
                    idx + 1,
                    format!("`{tok}` thread-identity probe outside massf-par"),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SA007 — floating-point accumulation inside thread::scope
// ---------------------------------------------------------------------------

fn sa007_float_accumulation(
    ctx: &FileCtx,
    lines: &[&str],
    comments: &[Comment],
    raw: &mut Vec<Finding>,
    push: &mut impl FnMut(&mut Vec<Finding>, SaCode, usize, String),
) {
    for (idx, line) in lines.iter().enumerate() {
        if ctx.in_test(idx) {
            continue;
        }
        let Some(at) = line.find("thread::scope").or_else(|| {
            // massf-par re-exports the scoped entry point under `scope(`.
            token_positions(line, "scope")
                .into_iter()
                .find(|p| line[p + 5..].starts_with('('))
        }) else {
            continue;
        };
        let (end_idx, _) = match_parens(lines, idx, at);
        // A comment anywhere in the region documenting the deterministic
        // reduction waives the pass for the whole scope.
        let documented = comments.iter().any(|c| {
            c.line > idx
                && c.line <= end_idx + 1
                && c.text.to_ascii_lowercase().contains("deterministic")
        });
        if documented {
            continue;
        }
        for (j, body) in lines.iter().enumerate().take(end_idx + 1).skip(idx) {
            let float_hint = body.contains("f64") || body.contains("f32") || float_literal(body);
            let sum_hit = body.contains(".sum::<f64>")
                || body.contains(".sum::<f32>")
                || (body.contains(".sum()") && float_hint);
            let acc_hit = body.contains("+=") && float_hint;
            if sum_hit || acc_hit {
                push(
                    raw,
                    SaCode::Sa007,
                    j + 1,
                    "floating-point accumulation inside `thread::scope` without a \
                     deterministic-reduction comment"
                        .to_string(),
                );
            }
        }
    }
}

/// True when the line contains a float literal (`digit . digit`).
fn float_literal(line: &str) -> bool {
    let b = line.as_bytes();
    b.windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit())
}

/// Matches parentheses starting from the first `(` at or after `col` on
/// line `start`, across lines. Returns (end line index, end col).
fn match_parens(lines: &[&str], start: usize, col: usize) -> (usize, usize) {
    let mut depth = 0usize;
    let mut opened = false;
    for (j, line) in lines.iter().enumerate().skip(start) {
        let begin = if j == start { col } else { 0 };
        for (k, c) in line.char_indices().skip_while(|(k, _)| *k < begin) {
            match c {
                '(' => {
                    depth += 1;
                    opened = true;
                }
                ')' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return (j, k);
                    }
                }
                _ => {}
            }
        }
    }
    (lines.len().saturating_sub(1), 0)
}

// ---------------------------------------------------------------------------
// Allow annotations
// ---------------------------------------------------------------------------

struct Allow {
    code: SaCode,
    /// Line the suppression applies to (1-based).
    target_line: usize,
    /// Comment line, for SA000 reporting.
    comment_line: usize,
}

/// Parses allow annotations out of the comments, applies them to the raw
/// findings, and emits SA000 hygiene errors for malformed, reason-less,
/// or stale annotations. Returns surviving findings + suppressed counts.
fn apply_allows(
    path: &str,
    lines: &[&str],
    comments: &[Comment],
    raw: Vec<Finding>,
) -> (Vec<Finding>, Vec<(SaCode, usize)>) {
    let mut allows: Vec<Allow> = Vec::new();
    let mut hygiene: Vec<Finding> = Vec::new();
    let malformed_msg = || {
        "malformed srclint annotation (expected `srclint: allow(SAxxx) \u{2014} reason`)"
            .to_string()
    };

    for c in comments {
        let text = c.text.trim_start();
        if !text.starts_with("srclint:") {
            continue;
        }
        let rest = text["srclint:".len()..].trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            hygiene.push(finding(SaCode::Sa000, path, c.line, malformed_msg()));
            continue;
        };
        let Some(close) = body.find(')') else {
            hygiene.push(finding(SaCode::Sa000, path, c.line, malformed_msg()));
            continue;
        };
        let Some(code) = SaCode::parse(body[..close].trim()) else {
            hygiene.push(finding(
                SaCode::Sa000,
                path,
                c.line,
                format!(
                    "unknown code `{}` in srclint allow annotation",
                    body[..close].trim()
                ),
            ));
            continue;
        };
        // Everything after the `)` minus separator punctuation is the
        // reason. Accepted separators: em dash, `--`, `-`, `:`.
        let mut reason = body[close + 1..].trim_start();
        for sep in ["\u{2014}", "--", "-", ":"] {
            if let Some(r) = reason.strip_prefix(sep) {
                reason = r.trim_start();
                break;
            }
        }
        if reason.trim().is_empty() {
            hygiene.push(finding(
                SaCode::Sa000,
                path,
                c.line,
                format!(
                    "allow({code}) missing a reason (write `srclint: allow({code}) \u{2014} why`)"
                ),
            ));
            continue;
        }
        // Trailing comment → this line; standalone → next line with code.
        let target_line = if c.trailing {
            c.line
        } else {
            let mut t = c.line; // comment line is 1-based; next line index == c.line
            while t < lines.len() && lines[t].trim().is_empty() {
                t += 1;
            }
            t + 1
        };
        allows.push(Allow {
            code,
            target_line,
            comment_line: c.line,
        });
    }

    let mut survivors = Vec::new();
    let mut suppressed: BTreeMap<SaCode, usize> = BTreeMap::new();
    let mut used = vec![false; allows.len()];
    for f in raw {
        let hit = allows
            .iter()
            .position(|a| a.code == f.code && a.target_line == f.location.line);
        if let Some(i) = hit {
            used[i] = true;
            *suppressed.entry(f.code).or_insert(0) += 1;
        } else {
            survivors.push(f);
        }
    }
    for (a, used) in allows.iter().zip(&used) {
        if !used {
            hygiene.push(finding(
                SaCode::Sa000,
                path,
                a.comment_line,
                format!(
                    "stale allow({}): no {} finding on line {} \u{2014} remove the annotation",
                    a.code, a.code, a.target_line
                ),
            ));
        }
    }
    survivors.extend(hygiene);
    (survivors, suppressed.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, text: &str) -> Vec<Finding> {
        lint_file(path, text).0
    }

    fn codes(fs: &[Finding]) -> Vec<&'static str> {
        fs.iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn sa001_flags_tracked_map_iteration() {
        let src = "use std::collections::HashMap;\n\
                   struct S { records: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn dump(&self) { for v in self.records.values() { drop(v); } }\n\
                   }\n";
        let fs = lint("crates/engine/src/x.rs", src);
        assert_eq!(codes(&fs), ["SA001"]);
        assert_eq!(fs[0].location.line, 4);
        assert!(fs[0].message.contains("records.values"));
    }

    #[test]
    fn sa001_flags_for_in_and_drain() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                   let mut m: HashMap<u32, u32> = HashMap::new();\n\
                   for (k, v) in m { drop((k, v)); }\n\
                   }\n\
                   fn g(mut m2: HashMap<u32, u32>) { let _v: Vec<_> = m2.drain().collect(); }\n";
        let fs = lint("crates/engine/src/x.rs", src);
        assert_eq!(codes(&fs), ["SA001", "SA001"]);
        assert_eq!(fs[0].location.line, 4);
        assert_eq!(fs[1].location.line, 6);
    }

    #[test]
    fn sa001_ignores_lookup_only_use_and_test_code() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&3) }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t(m: std::collections::HashMap<u32, u32>) { for v in m.values() {} }\n\
                   }\n";
        let fs = lint("crates/engine/src/x.rs", src);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn sa002_quarantine_and_hit() {
        let src = "fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        assert!(lint("crates/obs/src/lib.rs", src).is_empty());
        let fs = lint("crates/engine/src/lib.rs", src);
        assert_eq!(codes(&fs), ["SA002"]);
    }

    #[test]
    fn sa003_applies_even_in_tests() {
        let src =
            "#[cfg(test)]\nmod tests {\n fn t() { let r = rand::thread_rng(); drop(r); }\n}\n";
        let fs = lint("crates/traffic/src/lib.rs", src);
        assert_eq!(codes(&fs), ["SA003"]);
        let fs = lint("tests/integration.rs", src);
        assert_eq!(codes(&fs), ["SA003"]);
    }

    #[test]
    fn sa004_cli_exempt() {
        let src = "fn f() -> Option<String> { std::env::var(\"X\").ok() }\n";
        assert!(lint("src/cli.rs", src).is_empty());
        assert_eq!(codes(&lint("crates/trace/src/lib.rs", src)), ["SA004"]);
    }

    #[test]
    fn sa005_library_only() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert!(lint("src/main.rs", src).is_empty());
        assert!(lint("crates/check/src/main.rs", src).is_empty());
        assert!(lint("crates/bench/src/bin/b.rs", src).is_empty());
        assert_eq!(codes(&lint("crates/engine/src/lib.rs", src)), ["SA005"]);
    }

    #[test]
    fn sa006_par_exempt() {
        let src =
            "fn f() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n";
        assert!(lint("crates/par/src/lib.rs", src).is_empty());
        assert_eq!(codes(&lint("crates/engine/src/lib.rs", src)), ["SA006"]);
    }

    #[test]
    fn sa007_scope_accumulation_and_comment_waiver() {
        let dirty = "fn f(xs: &[f64]) -> f64 {\n\
                     let mut total = 0.0;\n\
                     std::thread::scope(|s| {\n\
                     s.spawn(|| { let mut local = 0.0f64; for x in xs { local += *x; } });\n\
                     });\n\
                     total += 1.0f64;\n\
                     total\n\
                     }\n";
        let fs = lint("crates/engine/src/lib.rs", dirty);
        assert_eq!(codes(&fs), ["SA007"]);
        assert_eq!(
            fs[0].location.line, 4,
            "only the in-scope accumulation: {fs:?}"
        );

        let documented = dirty.replace(
            "s.spawn",
            "// deterministic reduction: fixed shard order, merged serially\ns.spawn",
        );
        assert!(lint("crates/engine/src/lib.rs", &documented).is_empty());
    }

    #[test]
    fn allow_suppresses_and_counts() {
        let src = "fn f() { let t = std::time::Instant::now(); drop(t); } // srclint: allow(SA002) \u{2014} benchmark wall time\n";
        let (fs, counts) = lint_file("crates/bench/src/lib.rs", src);
        assert!(fs.is_empty(), "{fs:?}");
        assert_eq!(counts, vec![(SaCode::Sa002, 1)]);
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let src = "// srclint: allow(SA002) \u{2014} benchmark wall time\n\
                   \n\
                   fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        let (fs, counts) = lint_file("crates/bench/src/lib.rs", src);
        assert!(fs.is_empty(), "{fs:?}");
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn stale_allow_is_sa000() {
        let src = "fn f() {} // srclint: allow(SA002) \u{2014} nothing here\n";
        let fs = lint("crates/engine/src/lib.rs", src);
        assert_eq!(codes(&fs), ["SA000"]);
        assert!(fs[0].message.contains("stale"));
    }

    #[test]
    fn reasonless_and_malformed_allows_are_sa000() {
        let fs = lint(
            "crates/engine/src/lib.rs",
            "fn f() { let t = std::time::Instant::now(); drop(t); } // srclint: allow(SA002)\n",
        );
        // lint_file output is unsorted (Report::finish orders it): the
        // SA002 finding survives and the reason-less allow adds SA000.
        assert_eq!(codes(&fs), ["SA002", "SA000"], "{fs:?}");
        let fs = lint("crates/engine/src/lib.rs", "// srclint: disallow(SA002)\n");
        assert_eq!(codes(&fs), ["SA000"]);
        let fs = lint(
            "crates/engine/src/lib.rs",
            "// srclint: allow(SA042) \u{2014} no\n",
        );
        assert_eq!(codes(&fs), ["SA000"]);
        assert!(fs[0].message.contains("unknown code"));
    }

    #[test]
    fn hazard_tokens_in_strings_and_comments_do_not_fire() {
        let src = "fn f() -> &'static str { \"Instant::now thread_rng env::var println!\" }\n\
                   // Instant::now() and thread_rng() discussed in prose only.\n";
        assert!(lint("crates/engine/src/lib.rs", src).is_empty());
    }
}
