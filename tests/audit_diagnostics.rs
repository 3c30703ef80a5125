//! Golden-file and refusal tests for the post-pipeline artifact audit
//! (MC013–MC020): a deliberately broken partition rendered through
//! `massf-lint`, a corrupted trace fixture driven through `massf check`,
//! and byte-determinism of the audit report across `--threads`.
//!
//! Regenerate the goldens with `MASSF_BLESS=1 cargo test --test
//! audit_diagnostics` after an intentional output change.

use massf_lint::{lint_artifacts, LintInput};
use massf_partition::Partitioning;
use massf_repro::cli;
use massf_topology::dml;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
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

/// A six-node line with low-latency cut links, partitioned badly on
/// purpose: part 1 is empty (Error), part 0 is split into two fragments
/// (Note), every cut link sits under the 50 µs lookahead hazard (Warn),
/// and the capacity vector has the wrong length for 3 engines (Error).
fn broken_partition_audit() -> massf_lint::Diagnostics {
    let net = dml::parse(
        "node 0 router \"r0\" as 0\n\
         node 1 router \"r1\" as 0\n\
         node 2 router \"r2\" as 0\n\
         node 3 router \"r3\" as 0\n\
         node 4 host \"h0\" as 0\n\
         node 5 host \"h1\" as 0\n\
         link 0 1 bw 100 lat 20\n\
         link 1 2 bw 100 lat 20\n\
         link 2 3 bw 100 lat 20\n\
         link 3 4 bw 100 lat 5\n\
         link 3 5 bw 100 lat 5\n",
    )
    .expect("fixture DML parses");
    let partition = Partitioning {
        part: vec![0, 2, 0, 2, 2, 2],
        nparts: 3,
    };
    let caps = [1.0, 2.0];
    lint_artifacts(
        &LintInput::network(&net)
            .with_engines(3)
            .with_partition(&partition)
            .with_capacities(&caps),
    )
}

#[test]
fn broken_partition_human_report_matches_golden() {
    let diags = broken_partition_audit();
    assert!(diags.has_errors(), "{}", diags.summary_line());
    assert_golden(&diags.human(), "tests/golden/broken_partition_audit.txt");
}

#[test]
fn broken_partition_json_report_matches_golden() {
    assert_golden(
        &broken_partition_audit().json(),
        "tests/golden/broken_partition_audit.json",
    );
}

#[test]
fn corrupt_trace_human_report_matches_golden() {
    // The fixture is warning-dirty but error-free, so the check succeeds
    // and the full report is the stdout text.
    let report = cli::run(&args(&["check", "tests/fixtures/corrupt_trace.txt"]))
        .expect("warnings alone must not fail the check");
    assert_golden(&report, "tests/golden/corrupt_trace_check.txt");
}

#[test]
fn corrupt_trace_json_report_matches_golden() {
    let report = cli::run(&args(&[
        "check",
        "tests/fixtures/corrupt_trace.txt",
        "--format",
        "json",
    ]))
    .expect("warnings alone must not fail the check");
    assert_golden(&report, "tests/golden/corrupt_trace_check.json");
}

#[test]
fn brite_audit_json_report_matches_golden() {
    // Two of every three BRITE nodes are degree-1 hosts, and many of the
    // equal-cost routes the audit lists end at one: the routing probes
    // must report them exactly as a sweep over every node would.
    let report = cli::run(&args(&[
        "check",
        "examples/scenarios/brite.dml",
        "--audit",
        "--engines",
        "4",
        "--format",
        "json",
    ]))
    .expect("the BRITE audit is error-free");
    assert_golden(&report, "tests/golden/brite_audit.json");
}

#[test]
fn corrupt_trace_fails_under_deny_warnings() {
    let e = cli::run(&args(&[
        "check",
        "tests/fixtures/corrupt_trace.txt",
        "--deny-warnings",
    ]))
    .expect_err("--deny-warnings must promote the MC016 warning");
    assert!(e.0.contains("MC016"), "{}", e.0);
}

#[test]
fn audit_report_is_byte_identical_across_threads() {
    let report = |threads: &str| {
        cli::run(&args(&[
            "check",
            "examples/scenarios/campus.dml",
            "--engines",
            "3",
            "--audit",
            "--format",
            "json",
            "--threads",
            threads,
        ]))
        .expect("campus audit is error-free")
    };
    let base = report("1");
    for threads in ["2", "4"] {
        assert_eq!(
            base,
            report(threads),
            "audit report varies at --threads {threads}"
        );
    }
}

#[test]
fn check_audits_a_capacity_vector() {
    // A mismatched --capacities vector is an MC017 Error through the CLI.
    let e = cli::run(&args(&[
        "check",
        "examples/scenarios/campus.dml",
        "--engines",
        "3",
        "--capacities",
        "1.0,2.0",
    ]))
    .expect_err("a 2-entry vector for 3 engines must fail the audit");
    assert!(e.0.contains("MC017"), "{}", e.0);
    // A well-formed vector audits clean of errors (and implies --audit:
    // the artifact passes run, so the report shows all 20 passes).
    let ok = cli::run(&args(&[
        "check",
        "examples/scenarios/campus.dml",
        "--engines",
        "3",
        "--capacities",
        "1.0,1.0,2.0",
    ]))
    .expect("a feasible vector must pass");
    assert!(ok.contains("20 passes run"), "{ok}");
    // Entries that each pass the per-entry check but do not normalize (the
    // sum overflows; a share underflows) stop at the MC017 report instead
    // of reaching the partitioner's assertions.
    for extreme in ["1e308,1e308,1e308", "1e308,1e-308,1"] {
        let e = cli::run(&args(&[
            "check",
            "examples/scenarios/campus.dml",
            "--capacities",
            extreme,
        ]))
        .expect_err("a vector without usable shares must fail the audit");
        assert!(e.0.contains("error[MC017]"), "{extreme}: {}", e.0);
    }
}

#[test]
fn record_refuses_an_empty_schedule() {
    // `record` audits the trace text before writing: a spec that
    // generates no flows (zero sessions is only a preflight Warn) is the
    // MC016 empty-trace Error, and no file appears on disk.
    let dir = std::env::temp_dir();
    let spec = dir.join(format!("massf_audit_empty_spec_{}.txt", std::process::id()));
    let out = dir.join(format!("massf_audit_empty_{}.trace", std::process::id()));
    std::fs::write(&spec, "traffic { name CBR\n sessions 0 }").unwrap();
    let e = cli::run(&args(&[
        "record",
        "examples/scenarios/campus.dml",
        "--traffic",
        spec.to_str().unwrap(),
        "--duration-s",
        "1",
        "--out",
        out.to_str().unwrap(),
    ]))
    .expect_err("an empty recording must refuse");
    assert!(e.0.contains("artifact audit failed"), "{}", e.0);
    assert!(e.0.contains("MC016"), "{}", e.0);
    assert!(!out.exists(), "no trace file may be written on refusal");
    let _ = std::fs::remove_file(&spec);
}
