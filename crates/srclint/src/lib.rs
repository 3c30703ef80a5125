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
//! (for the diagnostics model it shares with `massf-lint`: the catalog
//! trait, the finding and report types, and their renderings): the
//! linter must stay buildable and trustworthy even when the rest of the
//! workspace is mid-refactor, and its scan results must never depend on
//! anything but the bytes of the files it reads.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod passes;
pub mod tokenizer;

pub use massf_metrics::diag::Severity;

use massf_metrics::diag::{Code as _, Extra};
use massf_metrics::json::{Layout::Block, Writer};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

massf_metrics::catalog! {
    /// Stable source-analysis pass codes. Append-only: codes are never
    /// renumbered or reused, mirroring the MC* catalog in `massf-lint`.
    /// Every finding carries its code's severity, and none is capped.
    pub enum SaCode {
        tool = "srclint", location = Line, extra = Scan, cap = usize::MAX;
        Sa000 = ("SA000", "allow-hygiene", Error,
            "srclint allow annotation is stale, malformed, or missing a reason"),
        Sa001 = ("SA001", "hashmap-iteration", Error,
            "HashMap/HashSet iteration in a deterministic crate (unordered visit order)"),
        Sa002 = ("SA002", "wall-clock-read", Error,
            "wall-clock read outside the massf-obs timing quarantine"),
        Sa003 = ("SA003", "entropy-randomness", Error,
            "entropy-seeded randomness (seeded streams only, everywhere)"),
        Sa004 = ("SA004", "env-access", Warn,
            "environment access (env::var/args) outside the CLI crate"),
        Sa005 = ("SA005", "direct-print", Warn,
            "println!/eprintln! in a library crate (output goes through renderers)"),
        Sa006 = ("SA006", "thread-identity", Error,
            "thread-identity or parallelism probe outside massf-par"),
        Sa007 = ("SA007", "float-accumulation", Warn,
            "floating-point accumulation in thread::scope without a deterministic-reduction note"),
    }
}

/// Where a source finding points: a file and a line in it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Line {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.path, self.line)
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

/// What a scan reports beside its findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scan {
    /// Findings suppressed by allow annotations, per `(code, file)` —
    /// counts without lines, so the workspace golden stays stable under
    /// unrelated line churn.
    pub allows: BTreeMap<(SaCode, String), usize>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// A scan's report over the SA catalog.
pub type Report = massf_metrics::diag::Report<SaCode>;

/// The SA report's extras: the files scanned, and the acknowledged sites
/// as its trailer.
impl Extra<SaCode> for Scan {
    fn counts(report: &Report) -> Vec<(&'static str, &'static str, usize)> {
        vec![(
            "files_scanned",
            "file(s) scanned",
            report.extra.files_scanned,
        )]
    }

    fn human_trailer(report: &Report) -> String {
        report
            .extra
            .allows
            .iter()
            .map(|((code, path), n)| format!("allow[{code}] {path}: {n} acknowledged site(s)\n"))
            .collect()
    }

    fn json_trailer(report: &Report, w: &mut Writer) {
        w.key("allows")
            .rows(Block, &report.extra.allows, |w, ((code, path), n)| {
                w.key("code").string(code.as_str());
                w.key("path").string(path);
                w.key("count").uint(*n as u64);
            });
    }
}

/// Lints a set of in-memory sources into a finished report. Output
/// depends only on `sources` (order-insensitive: files are sorted by path
/// first).
pub fn lint_sources(sources: &[SourceFile]) -> Report {
    let mut sources: Vec<&SourceFile> = sources.iter().collect();
    sources.sort_by(|a, b| a.path.cmp(&b.path));

    let mut report = Report::default();
    for src in &sources {
        let (findings, allows) = passes::lint_file(&src.path, &src.text);
        for f in findings {
            report.push(f.code, f.severity, f.location, f.message);
        }
        for (code, count) in allows {
            let site = report.extra.allows.entry((code, src.path.clone()));
            *site.or_insert(0) += count;
        }
    }
    report.passes_run = SaCode::CATALOG.len();
    report.extra.files_scanned = sources.len();
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

/// Collects the `.rs` files under `dir` in name order. Symlinks are not
/// followed — neither into directories nor to files — so no file is
/// scanned twice and a link cycle cannot loop.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        entries.push((name, entry.path(), entry.file_type()?));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, path, kind) in entries {
        if kind.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if kind.is_file() && name.ends_with(".rs") {
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
        let strs: Vec<&str> = SaCode::all().map(|c| c.as_str()).collect();
        assert_eq!(
            strs,
            ["SA000", "SA001", "SA002", "SA003", "SA004", "SA005", "SA006", "SA007"]
        );
        for c in SaCode::all() {
            assert_eq!(SaCode::parse(c.as_str()), Some(c));
            assert!(!c.name().is_empty());
            assert!(!c.summary().is_empty());
        }
        assert_eq!(SaCode::parse("SA999"), None);
        assert_eq!(SaCode::parse("sa001"), None);
        assert_eq!(SaCode::CAP, usize::MAX);
    }

    #[test]
    fn lint_sources_is_input_order_insensitive_and_path_ordered() {
        let clock = |path: &str| SourceFile {
            path: path.into(),
            text: "fn f() { let t = std::time::Instant::now(); drop(t); }\n".into(),
        };
        let (x, y) = (
            clock("crates/engine/src/x.rs"),
            clock("crates/engine/src/y.rs"),
        );
        let r1 = lint_sources(&[x.clone(), y.clone()]);
        let r2 = lint_sources(&[y, x]);
        assert_eq!(r1, r2);
        let at: Vec<String> = r1.iter().map(|f| f.location.to_string()).collect();
        assert_eq!(at, ["crates/engine/src/x.rs:1", "crates/engine/src/y.rs:1"]);
        assert_eq!(r1.extra.files_scanned, 2);
        assert_eq!(r1.passes_run, 8);
    }

    #[test]
    fn empty_scan_renders_its_counts_and_an_empty_allows_block() {
        let r = lint_sources(&[]);
        assert!(r
            .json()
            .ends_with("\"diagnostics\": [],\n  \"allows\": []\n}\n"));
        assert_eq!(
            r.human(),
            "srclint: 0 error(s), 0 warning(s), 0 note(s) \u{2014} 0 file(s) scanned, 8 passes run\n"
        );
    }
}
