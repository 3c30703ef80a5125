//! massf-srclint: a self-applied determinism lint over the workspace source.
//!
//! The emulator's headline invariant — run reports byte-identical across
//! thread counts, scheduler kinds, and routing representations — is
//! enforced dynamically by golden tests and the model checker. This crate
//! rules the hazard *class* out statically: it scans the workspace's own
//! Rust files with a comment/string-aware tokenizer
//! ([`tokenizer::scan`]) and flags source patterns that are known to
//! break byte-determinism, each under a stable `SA` code (append-only,
//! like the `MC*` scenario codes in `massf-lint`).
//!
//! Legitimate sites are acknowledged in place with
//! `// srclint: allow(SA00x) — reason` annotations; the tool verifies
//! every allow matches at least one real finding (a stale allow is itself
//! an Error, code SA000), so suppressions cannot rot.
//!
//! The crate depends only on the std-only leaf crate `massf-metrics`
//! (for the severity model and the JSON check document it shares with
//! `massf-lint`): the linter must stay buildable and trustworthy even when
//! the rest of the workspace is mid-refactor, and its scan results must
//! never depend on anything but the bytes of the files it reads.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod passes;
pub mod render;
pub mod tokenizer;

pub use massf_metrics::report::Severity;

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Stable source-analysis pass codes. Append-only: codes are never
/// renumbered or reused, mirroring the MC* catalog in `massf-lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SaCode {
    /// Allow-annotation hygiene: stale, malformed, or reason-less allows.
    Sa000,
    /// HashMap/HashSet iteration in deterministic crates.
    Sa001,
    /// Wall-clock reads outside the `massf-obs` timing quarantine.
    Sa002,
    /// Entropy-seeded randomness anywhere in the workspace.
    Sa003,
    /// Environment access outside the CLI crate.
    Sa004,
    /// Direct stdout/stderr printing in library crates.
    Sa005,
    /// Thread-identity / parallelism probes outside `massf-par`.
    Sa006,
    /// Unordered floating-point accumulation inside `thread::scope`.
    Sa007,
}

impl SaCode {
    /// Every pass, in catalog order.
    pub const ALL: [SaCode; 8] = [
        SaCode::Sa000,
        SaCode::Sa001,
        SaCode::Sa002,
        SaCode::Sa003,
        SaCode::Sa004,
        SaCode::Sa005,
        SaCode::Sa006,
        SaCode::Sa007,
    ];

    /// The stable code string, e.g. `"SA001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            SaCode::Sa000 => "SA000",
            SaCode::Sa001 => "SA001",
            SaCode::Sa002 => "SA002",
            SaCode::Sa003 => "SA003",
            SaCode::Sa004 => "SA004",
            SaCode::Sa005 => "SA005",
            SaCode::Sa006 => "SA006",
            SaCode::Sa007 => "SA007",
        }
    }

    /// Short kebab-case pass name.
    pub fn name(self) -> &'static str {
        match self {
            SaCode::Sa000 => "allow-hygiene",
            SaCode::Sa001 => "hashmap-iteration",
            SaCode::Sa002 => "wall-clock-read",
            SaCode::Sa003 => "entropy-randomness",
            SaCode::Sa004 => "env-access",
            SaCode::Sa005 => "direct-print",
            SaCode::Sa006 => "thread-identity",
            SaCode::Sa007 => "float-accumulation",
        }
    }

    /// One-line human description of what the pass flags.
    pub fn summary(self) -> &'static str {
        match self {
            SaCode::Sa000 => "srclint allow annotation is stale, malformed, or missing a reason",
            SaCode::Sa001 => {
                "HashMap/HashSet iteration in a deterministic crate (unordered visit order)"
            }
            SaCode::Sa002 => "wall-clock read outside the massf-obs timing quarantine",
            SaCode::Sa003 => "entropy-seeded randomness (seeded streams only, everywhere)",
            SaCode::Sa004 => "environment access (env::var/args) outside the CLI crate",
            SaCode::Sa005 => "println!/eprintln! in a library crate (output goes through renderers)",
            SaCode::Sa006 => "thread-identity or parallelism probe outside massf-par",
            SaCode::Sa007 => {
                "floating-point accumulation in thread::scope without a deterministic-reduction note"
            }
        }
    }

    /// The severity every finding from this pass carries.
    pub fn severity(self) -> Severity {
        match self {
            SaCode::Sa000 => Severity::Error,
            SaCode::Sa001 => Severity::Error,
            SaCode::Sa002 => Severity::Error,
            SaCode::Sa003 => Severity::Error,
            SaCode::Sa004 => Severity::Warn,
            SaCode::Sa005 => Severity::Warn,
            SaCode::Sa006 => Severity::Error,
            SaCode::Sa007 => Severity::Warn,
        }
    }

    /// Parses `"SA001"` (case-sensitive) back to a code.
    pub fn parse(s: &str) -> Option<SaCode> {
        SaCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for SaCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a hazard at a specific file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass that produced this finding.
    pub code: SaCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the specific site.
    pub message: String,
}

impl Finding {
    #[cfg(test)]
    fn new(code: SaCode, path: &str, line: usize, message: String) -> Finding {
        Finding {
            code,
            severity: code.severity(),
            path: path.to_string(),
            line,
            message,
        }
    }
}

/// An in-memory source file handed to the linter.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// An acknowledged (suppressed) site, aggregated per code and file so the
/// workspace golden stays stable under unrelated line churn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedSite {
    /// The suppressed code.
    pub code: SaCode,
    /// File the allow lives in.
    pub path: String,
    /// Number of findings suppressed by allows in this file for this code.
    pub count: usize,
}

/// The full scan result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Surviving findings, deterministically sorted by [`Report::finish`].
    pub findings: Vec<Finding>,
    /// Suppressed sites, aggregated per `(code, path)`.
    pub allows: Vec<AllowedSite>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of passes every scan runs (the full SA catalog).
    pub const PASSES_RUN: usize = SaCode::ALL.len();

    /// Deterministic final order: severity (errors first), then code,
    /// path, line, message. Must be called before rendering.
    pub fn finish(&mut self) {
        self.findings.sort_by(|a, b| {
            (Reverse(a.severity), a.code, &a.path, a.line, &a.message).cmp(&(
                Reverse(b.severity),
                b.code,
                &b.path,
                b.line,
                &b.message,
            ))
        });
        self.allows
            .sort_by(|a, b| (a.code, &a.path).cmp(&(b.code, &b.path)));
    }

    /// Count of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// True when any Error-severity finding survived.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Promotes every Warn finding to Error (the `--deny-warnings` gate).
    pub fn deny_warnings(&mut self) {
        for f in &mut self.findings {
            if f.severity == Severity::Warn {
                f.severity = Severity::Error;
            }
        }
        self.finish();
    }
}

/// Lints a set of in-memory sources. Output depends only on `sources`
/// (order-insensitive: files are sorted by path first).
pub fn lint_sources(sources: &[SourceFile]) -> Report {
    let mut sources: Vec<&SourceFile> = sources.iter().collect();
    sources.sort_by(|a, b| a.path.cmp(&b.path));

    let mut findings = Vec::new();
    let mut allow_counts: BTreeMap<(SaCode, String), usize> = BTreeMap::new();
    for src in &sources {
        let (file_findings, file_allows) = passes::lint_file(&src.path, &src.text);
        findings.extend(file_findings);
        for (code, count) in file_allows {
            *allow_counts.entry((code, src.path.clone())).or_insert(0) += count;
        }
    }

    let mut report = Report {
        findings,
        allows: allow_counts
            .into_iter()
            .map(|((code, path), count)| AllowedSite { code, path, count })
            .collect(),
        files_scanned: sources.len(),
    };
    report.finish();
    report
}

/// Walks the workspace rooted at `root` and lints every Rust source file.
///
/// The walk is fully deterministic: only `src/`, `crates/`, and `tests/`
/// under the root are visited, `target/`, `vendor/`, and dot-directories
/// are skipped, only `.rs` files are read, and files are processed in
/// lexicographic order of their `/`-normalized relative paths.
///
/// # Errors
/// A root holding none of the three (a mistyped path, a file) is an error
/// rather than a clean zero-file report: it must not pass a CI gate.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    const TOPS: [&str; 3] = ["src", "crates", "tests"];
    if !TOPS.iter().any(|top| root.join(top).is_dir()) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "no src/, crates/ or tests/ directory there",
        ));
    }
    let mut files = Vec::new();
    for top in TOPS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push(SourceFile { path: rel, text });
    }
    Ok(lint_sources(&sources))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<(String, PathBuf, bool)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_dir = path.is_dir();
        entries.push((name, path, is_dir));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, path, is_dir) in entries {
        if is_dir {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_are_stable_and_ordered() {
        let strs: Vec<&str> = SaCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            strs,
            ["SA000", "SA001", "SA002", "SA003", "SA004", "SA005", "SA006", "SA007"]
        );
        for c in SaCode::ALL {
            assert_eq!(SaCode::parse(c.as_str()), Some(c));
            assert!(!c.name().is_empty());
            assert!(!c.summary().is_empty());
        }
        assert_eq!(SaCode::parse("SA999"), None);
        assert_eq!(SaCode::parse("sa001"), None);
    }

    #[test]
    fn report_finish_orders_errors_first_then_code_path_line() {
        let mut r = Report {
            findings: vec![
                Finding::new(SaCode::Sa004, "b.rs", 3, "w".into()),
                Finding::new(SaCode::Sa001, "z.rs", 9, "e".into()),
                Finding::new(SaCode::Sa001, "a.rs", 1, "e".into()),
            ],
            allows: vec![],
            files_scanned: 3,
        };
        r.finish();
        let order: Vec<(&str, &str)> = r
            .findings
            .iter()
            .map(|f| (f.code.as_str(), f.path.as_str()))
            .collect();
        assert_eq!(
            order,
            [("SA001", "a.rs"), ("SA001", "z.rs"), ("SA004", "b.rs")]
        );
    }

    #[test]
    fn deny_warnings_promotes_and_resorts() {
        let mut r = Report {
            findings: vec![Finding::new(SaCode::Sa005, "lib.rs", 2, "p".into())],
            allows: vec![],
            files_scanned: 1,
        };
        assert!(!r.has_errors());
        r.deny_warnings();
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warn), 0);
    }

    #[test]
    fn lint_sources_is_input_order_insensitive() {
        let a = SourceFile {
            path: "crates/engine/src/x.rs".into(),
            text: "fn f(m: &std::collections::HashMap<u32, u32>) { for v in m.values() {} }\n"
                .into(),
        };
        let b = SourceFile {
            path: "crates/engine/src/y.rs".into(),
            text: "fn g() {}\n".into(),
        };
        let r1 = lint_sources(&[a.clone(), b.clone()]);
        let r2 = lint_sources(&[b, a]);
        assert_eq!(r1.findings, r2.findings);
        assert_eq!(r1.files_scanned, 2);
    }
}
