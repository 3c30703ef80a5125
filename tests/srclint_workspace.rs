//! `massf srclint` over this workspace: the tool must land clean on its
//! own codebase (zero findings; every allow annotation matching a real
//! site), the JSON report is golden-pinned, and repeated runs are
//! byte-identical. Also covers the CLI failure path on a dirty tree and
//! the `massf check --list-passes` catalog.
//!
//! Regenerate the goldens with `MASSF_BLESS=1 cargo test --test
//! srclint_workspace`.

use massf_repro::cli;

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

#[test]
fn workspace_scan_is_clean_even_under_deny_warnings() {
    let report = cli::run(&args(&["srclint", "--deny-warnings"]))
        .expect("the workspace must pass its own determinism lint");
    assert!(
        report.contains("srclint: 0 error(s), 0 warning(s), 0 note(s)"),
        "unexpected summary:\n{report}"
    );
}

#[test]
fn workspace_json_matches_golden_and_is_byte_identical() {
    let run = || cli::run(&args(&["srclint", "--format", "json"])).expect("clean workspace scan");
    let j1 = run();
    let j2 = run();
    assert_eq!(j1, j2, "repeated scans must be byte-identical");
    assert_golden(&j1, "tests/golden/srclint_workspace.json");
}

#[test]
fn dirty_tree_fails_with_the_report_as_the_error() {
    // A scratch workspace with one hazard; the command must refuse and
    // carry the rendered report in the error.
    let root = std::env::temp_dir().join(format!("massf-srclint-{}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("mkdir scratch workspace");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    )
    .expect("write dirty file");

    let err = cli::run(&args(&["srclint", root.to_str().expect("utf-8 temp path")]))
        .expect_err("a wall-clock read outside massf-obs must fail the scan");
    assert!(err.0.contains("error[SA002]"), "report:\n{}", err.0);
    assert!(err.0.contains("1 error(s)"), "report:\n{}", err.0);

    // A symlink cycle is not followed: the one (now clean) file is
    // scanned once and the walk ends.
    #[cfg(unix)]
    {
        std::fs::write(src.join("lib.rs"), "pub fn one() -> u32 { 1 }\n").expect("clean file");
        std::fs::create_dir_all(root.join("tests")).expect("mkdir tests");
        std::os::unix::fs::symlink("..", root.join("tests/loop")).expect("symlink tests/loop");
        let json = cli::run(&args(&[
            "srclint",
            root.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .expect("a symlink cycle must not fail the scan");
        assert!(json.contains("\"files_scanned\": 1,"), "{json}");
    }

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_root_with_nothing_to_scan_is_an_error() {
    // A mistyped root used to report "0 file(s) scanned" and exit 0.
    for root in ["/nonexistent", "Cargo.toml", "examples"] {
        let err = cli::run(&args(&["srclint", root]))
            .expect_err("nothing to scan must not pass as a clean tree");
        let wanted = format!("cannot scan {root}: ");
        assert!(err.0.starts_with(&wanted), "{root}: {}", err.0);
        assert_eq!(err.0.lines().count(), 1, "{}", err.0);
    }
}

#[test]
fn list_passes_covers_both_catalogs() {
    let human = cli::run(&args(&["check", "--list-passes"])).expect("catalog renders");
    for code in ["MC001", "MC020", "SA000", "SA007"] {
        assert!(human.contains(code), "missing {code}:\n{human}");
    }
    assert!(human.contains("20 scenario/artifact passes (MC), 8 source passes (SA)"));

    let json = cli::run(&args(&["check", "--list-passes", "--format", "json"]))
        .expect("catalog renders as JSON");
    let j2 = cli::run(&args(&["check", "--list-passes", "--format", "json"])).unwrap();
    assert_eq!(json, j2, "catalog JSON must be byte-identical across runs");
    assert_golden(&json, "tests/golden/list_passes.json");
    // 28 pass objects: 20 MC + 8 SA.
    assert_eq!(json.matches("\"code\":").count(), 28);
}

#[test]
fn srclint_rejects_unknown_flags_and_extra_positionals() {
    let err = cli::run(&args(&["srclint", "--threads", "4"])).expect_err("unknown flag");
    assert!(err.0.contains("unknown flag"), "{}", err.0);
    let err = cli::run(&args(&["srclint", "a", "b"])).expect_err("two roots");
    assert!(err.0.contains("usage: massf srclint"), "{}", err.0);
}
