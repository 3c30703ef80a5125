//! Golden-file and refusal tests for the `massf check` preflight
//! diagnostics (the `massf-lint` crate driven through the CLI).
//!
//! The golden reports live in `tests/golden/` and were produced from
//! `tests/fixtures/broken.dml` + `tests/fixtures/broken_cbr.txt`: a
//! disconnected topology with a near-zero-latency core link and
//! oversubscribed 1 Mbps host uplinks. Reports must match byte for byte —
//! the JSON renderer is the machine interface and must be deterministic
//! across runs and `--threads` settings.

use massf_repro::cli;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Runs `massf check` on the broken fixture and returns the report
/// (which arrives as an `Err` because the fixture has Error findings).
fn check_broken(extra: &[&str]) -> String {
    let mut a = vec![
        "check",
        "tests/fixtures/broken.dml",
        "--engines",
        "2",
        "--traffic",
        "tests/fixtures/broken_cbr.txt",
    ];
    a.extend_from_slice(extra);
    cli::run(&args(&a))
        .expect_err("broken fixture must fail the check")
        .0
}

#[test]
fn broken_fixture_matches_human_golden() {
    let report = check_broken(&[]);
    let golden = include_str!("golden/broken_check.txt");
    assert_eq!(
        report, golden,
        "human report drifted from tests/golden/broken_check.txt"
    );
}

#[test]
fn broken_fixture_matches_json_golden() {
    let report = check_broken(&["--format", "json"]);
    let golden = include_str!("golden/broken_check.json");
    assert_eq!(
        report, golden,
        "JSON report drifted from tests/golden/broken_check.json"
    );
}

#[test]
fn json_report_is_byte_identical_across_runs_and_threads() {
    let base = check_broken(&["--format", "json"]);
    for threads in ["1", "2", "8"] {
        let again = check_broken(&["--format", "json", "--threads", threads]);
        assert_eq!(base, again, "JSON report varies at --threads {threads}");
    }
}

#[test]
fn broken_fixture_reports_the_planted_codes() {
    let report = check_broken(&["--format", "json"]);
    for code in ["MC001", "MC003", "MC004", "MC005"] {
        assert!(report.contains(code), "missing {code} in:\n{report}");
    }
    // The planted defects are errors + warnings only.
    assert!(report.contains("\"errors\": 2"), "{report}");
    assert!(report.contains("\"warnings\": 5"), "{report}");
}

#[test]
fn partition_refuses_broken_scenario() {
    let e = cli::run(&args(&[
        "partition",
        "tests/fixtures/broken.dml",
        "--engines",
        "2",
    ]))
    .expect_err("partition must refuse a disconnected network");
    assert!(e.0.contains("preflight check failed"), "{}", e.0);
    assert!(e.0.contains("MC001"), "{}", e.0);
}

#[test]
fn run_refuses_broken_scenario() {
    let e = cli::run(&args(&[
        "run",
        "tests/fixtures/broken.dml",
        "--engines",
        "2",
        "--traffic",
        "tests/fixtures/broken_cbr.txt",
        "--duration-s",
        "1",
    ]))
    .expect_err("run must refuse a disconnected network");
    assert!(e.0.contains("preflight check failed"), "{}", e.0);
    assert!(e.0.contains("MC001"), "{}", e.0);
}

#[test]
fn replay_refuses_broken_scenario() {
    // Record a trace on a healthy network, then replay it against the
    // broken one: the trace check (which validates the trace against the
    // replay network) must reject before any emulation starts.
    let dir = std::env::temp_dir().join(format!("massf_lint_diag_test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.txt");
    let trace = trace.to_str().unwrap();
    cli::run(&args(&[
        "record",
        "examples/scenarios/campus.dml",
        "--traffic",
        "examples/scenarios/cbr.txt",
        "--duration-s",
        "1",
        "--out",
        trace,
    ]))
    .expect("record on the healthy campus network must succeed");
    let e = cli::run(&args(&[
        "replay",
        "tests/fixtures/broken.dml",
        trace,
        "--engines",
        "2",
    ]))
    .expect_err("replay must refuse a disconnected network");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(e.0.contains("trace check failed"), "{}", e.0);
    assert!(e.0.contains("MC001"), "{}", e.0);
}

#[test]
fn example_scenarios_check_clean_under_deny_warnings() {
    // Mirrors the CI `check` job: every shipped example scenario must be
    // free of errors *and* warnings at its documented engine count.
    for (dml, engines, spec) in [
        (
            "examples/scenarios/campus.dml",
            "3",
            "examples/scenarios/cbr.txt",
        ),
        (
            "examples/scenarios/teragrid.dml",
            "5",
            "examples/scenarios/http.txt",
        ),
        (
            "examples/scenarios/brite.dml",
            "8",
            "examples/scenarios/onoff.txt",
        ),
    ] {
        let out = cli::run(&args(&[
            "check",
            dml,
            "--engines",
            engines,
            "--traffic",
            spec,
            "--deny-warnings",
        ]))
        .unwrap_or_else(|e| panic!("{dml} failed the check:\n{}", e.0));
        assert!(out.contains("0 error(s), 0 warning(s)"), "{dml}: {out}");
    }
}
