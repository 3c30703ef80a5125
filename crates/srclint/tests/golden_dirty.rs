//! Golden reports for the deliberately-dirty fixture: all seven SA
//! hazard codes plus the SA000 stale-allow error, in both renderers.
//!
//! Regenerate with `MASSF_BLESS=1 cargo test -p massf-srclint --test
//! golden_dirty` after an intentional format or pass change.

use massf_metrics::diag::Code;
use massf_srclint::{lint_sources, Report, SaCode, SourceFile};
use std::collections::BTreeSet;

const DIRTY: &str = include_str!("fixtures/dirty_rs.txt");

/// The fixture under a fake library-crate path (the `.txt` extension
/// keeps the workspace self-scan away from it; the path we lint it under
/// decides the scope rules).
fn dirty_report() -> Report {
    lint_sources(&[SourceFile {
        path: "crates/dirty/src/lib.rs".to_string(),
        text: DIRTY.to_string(),
    }])
}

/// Compares `actual` against the golden at `path`, rewriting the golden
/// instead when `MASSF_BLESS=1` is set.
fn assert_golden(actual: &str, path: &str) {
    if std::env::var_os("MASSF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(path, actual).unwrap_or_else(|e| panic!("cannot bless {path}: {e}"));
        return;
    }
    let golden =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_eq!(actual, golden, "output drifted from {path}");
}

#[test]
fn dirty_fixture_triggers_every_sa_code() {
    let report = dirty_report();
    let hit: BTreeSet<SaCode> = report.iter().map(|f| f.code).collect();
    for code in SaCode::all() {
        assert!(
            hit.contains(&code),
            "fixture does not trigger {code}; findings: {report:#?}"
        );
    }
    // The one valid allow is acknowledged, not reported.
    let allows: Vec<_> = report.extra.allows.iter().collect();
    assert_eq!(
        allows,
        [(&(SaCode::Sa002, "crates/dirty/src/lib.rs".into()), &1)]
    );
}

#[test]
fn dirty_fixture_matches_human_golden() {
    let report = dirty_report();
    assert_golden(&report.human(), "tests/golden/dirty.txt");
}

#[test]
fn dirty_fixture_matches_json_golden_and_is_byte_stable() {
    let j1 = dirty_report().json();
    let j2 = dirty_report().json();
    assert_eq!(j1, j2, "repeated renders must be byte-identical");
    assert_golden(&j1, "tests/golden/dirty.json");
}
