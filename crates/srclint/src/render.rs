//! Report renderers: human text and byte-deterministic JSON.
//!
//! The JSON form is the same check document `massf check` emits — both
//! crates call [`massf_metrics::report::check_document`] — so tooling that
//! consumes one consumes the other with only the `tool` field and the
//! trailer (`allows` here, `suppressed` there) changing. Key order,
//! spacing and escapes belong to the workspace's one `json::Writer`, so
//! repeated runs over the same tree are byte-identical.

use crate::{Report, Severity};
use massf_metrics::json::Layout::Block;
use massf_metrics::report::check_document;

/// Renders the human-readable report. Call [`Report::finish`] first.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}[{}] {}:{}: {}\n",
            f.severity.label(),
            f.code,
            f.path,
            f.line,
            f.message
        ));
    }
    for a in &report.allows {
        out.push_str(&format!(
            "allow[{}] {}: {} acknowledged site(s)\n",
            a.code, a.path, a.count
        ));
    }
    out.push_str(&format!(
        "srclint: {} error(s), {} warning(s), {} note(s) \u{2014} {} file(s) scanned, {} passes run\n",
        report.count(Severity::Error),
        report.count(Severity::Warn),
        report.count(Severity::Note),
        report.files_scanned,
        Report::PASSES_RUN
    ));
    out
}

/// Renders the byte-deterministic JSON report. Call [`Report::finish`]
/// first.
pub fn render_json(report: &Report) -> String {
    let rows: Vec<_> = report
        .findings
        .iter()
        .map(|f| {
            let location = format!("{}:{}", f.path, f.line);
            (f.code.as_str(), f.severity, location, f.message.as_str())
        })
        .collect();
    let extras = [
        ("files_scanned", report.files_scanned),
        ("passes_run", Report::PASSES_RUN),
    ];
    check_document("massf-srclint", 1, &extras, &rows, |w| {
        w.key("allows").rows(Block, &report.allows, |w, a| {
            w.key("code").string(a.code.as_str());
            w.key("path").string(&a.path);
            w.key("count").uint(a.count as u64);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_sources, SourceFile};

    fn dirty_report() -> Report {
        lint_sources(&[SourceFile {
            path: "crates/engine/src/dirty.rs".into(),
            text: "fn f() { let t = std::time::Instant::now(); drop(t); }\n\
                   fn g() { println!(\"x\"); }\n"
                .into(),
        }])
    }

    #[test]
    fn human_lines_and_summary() {
        let r = dirty_report();
        let h = render_human(&r);
        assert!(h.contains("error[SA002] crates/engine/src/dirty.rs:1:"));
        assert!(h.contains("warning[SA005] crates/engine/src/dirty.rs:2:"));
        assert!(h.ends_with("passes run\n"));
        assert!(h.contains("srclint: 1 error(s), 1 warning(s), 0 note(s)"));
    }

    #[test]
    fn json_is_parseable_shape_and_repeatable() {
        let r = dirty_report();
        let j1 = render_json(&r);
        let j2 = render_json(&dirty_report());
        assert_eq!(j1, j2, "byte-identical across runs");
        assert!(j1.contains("\"tool\": \"massf-srclint\""));
        assert!(j1.contains("\"format\": 1"));
        assert!(j1.contains("\"errors\": 1"));
        assert!(j1.contains("\"location\": \"crates/engine/src/dirty.rs:1\""));
        assert!(j1.ends_with("}\n"));
    }

    #[test]
    fn empty_report_renders_compact_arrays() {
        let r = lint_sources(&[]);
        let j = render_json(&r);
        assert!(j.contains("\"diagnostics\": [],"));
        assert!(j.contains("\"allows\": []\n"));
        let h = render_human(&r);
        assert_eq!(
            h,
            "srclint: 0 error(s), 0 warning(s), 0 note(s) \u{2014} 0 file(s) scanned, 8 passes run\n"
        );
    }
}
