//! Report renderers: a human-readable text form and a byte-deterministic
//! JSON form.
//!
//! Both render a *finished* [`Diagnostics`] (the lint entry points return
//! finished reports), so line order is the deterministic report order —
//! errors first, then code, location, message. The JSON form is the
//! check document `massf-srclint` also emits
//! ([`massf_metrics::report::check_document`], written through the
//! workspace's one `json::Writer`) plus this crate's `suppressed` trailer;
//! it contains no absolute paths or timestamps, so two runs over the same
//! scenario produce byte-identical output at any thread count, which the
//! golden-file tests pin down.

use crate::Diagnostics;
use massf_metrics::json::Layout::Spaced;
use massf_metrics::report::check_document;

/// Schema version stamped into the JSON output; bump on layout changes.
pub const JSON_FORMAT_VERSION: u32 = 1;

/// Renders the compiler-style human report: one `severity[CODE]
/// location: message` line per finding, suppression notices, and the
/// summary line.
pub fn human(diags: &Diagnostics) -> String {
    let mut out = String::new();
    for d in diags.iter() {
        out.push_str(&format!(
            "{}[{}] {}: {}\n",
            d.severity.label(),
            d.code.as_str(),
            d.location.render(),
            d.message
        ));
    }
    for (code, n) in diags.suppressed() {
        out.push_str(&format!(
            "note: {n} additional {} finding(s) suppressed\n",
            code.as_str()
        ));
    }
    out.push_str(&diags.summary_line());
    out.push('\n');
    out
}

/// Renders the deterministic JSON report.
pub fn json(diags: &Diagnostics) -> String {
    let rows: Vec<_> = diags
        .iter()
        .map(|d| {
            let location = d.location.render();
            (d.code.as_str(), d.severity, location, d.message.as_str())
        })
        .collect();
    let extras = [("passes_run", diags.passes_run())];
    check_document("massf-check", JSON_FORMAT_VERSION, &extras, &rows, |w| {
        w.key("suppressed")
            .rows(Spaced, diags.suppressed(), |w, (code, n)| {
                w.key("code").string(code.as_str());
                w.key("count").uint(n as u64);
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Code, Location, Severity};

    fn sample() -> Diagnostics {
        let mut d = Diagnostics::new();
        d.push(
            Code::Mc001,
            Severity::Error,
            Location::Network,
            "network has 2 connected components".into(),
        );
        d.push(
            Code::Mc003,
            Severity::Warn,
            Location::Link { id: 1, a: 0, b: 2 },
            "router-router link with 3 µs latency".into(),
        );
        d.finish();
        d
    }

    #[test]
    fn human_lines_and_summary() {
        let text = human(&sample());
        assert!(text.starts_with("error[MC001] network: network has 2 connected components\n"));
        assert!(
            text.contains("warning[MC003] link 1 (0-2): router-router link with 3 µs latency\n")
        );
        assert!(text.ends_with("check: 1 error(s), 1 warning(s), 0 note(s) — 0 passes run\n"));
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let a = json(&sample());
        let b = json(&sample());
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"tool\": \"massf-check\",\n"));
        assert!(a.contains("\"errors\": 1"));
        assert!(a.contains("\"code\": \"MC001\""));
        assert!(a.contains("\"location\": \"link 1 (0-2)\""));
        assert!(a.ends_with("]\n}\n"));
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let d = Diagnostics::new();
        let j = json(&d);
        assert!(j.contains("\"diagnostics\": [],"));
        assert!(j.contains("\"suppressed\": []"));
        assert_eq!(
            human(&d),
            "check: 0 error(s), 0 warning(s), 0 note(s) — 0 passes run\n"
        );
    }

    #[test]
    fn suppressed_findings_rendered_in_both_forms() {
        let mut d = Diagnostics::new();
        for i in 0..crate::MAX_DIAGS_PER_CODE + 3 {
            d.push(
                Code::Mc009,
                Severity::Warn,
                Location::Flow(i),
                format!("finding {i}"),
            );
        }
        d.finish();
        assert!(human(&d).contains("note: 3 additional MC009 finding(s) suppressed\n"));
        assert!(json(&d).contains("{ \"code\": \"MC009\", \"count\": 3 }"));
    }
}
