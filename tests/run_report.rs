//! Golden-file tests for the `--report` run report (the `massf-obs`
//! layer driven through the CLI).
//!
//! The goldens in `tests/golden/campus_run_report.{json,txt}` hold the
//! deterministic prefix of the report for the shipped campus + CBR
//! scenario: everything above the `timing` key (JSON) or the
//! `timing (wall-clock…)` header (human text). Wall-clock spans live
//! below that boundary by construction, so the masked prefix must match
//! byte for byte across runs *and* across `--threads` settings.

use massf_core::metrics::load_imbalance;
use massf_core::obs::json::fmt_f64;
use massf_core::obs::report::RunReport;
use massf_repro::cli;
use proptest::prelude::*;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Runs the campus CBR scenario with `--report` (plus `extra` CLI flags)
/// and returns the JSON text.
fn campus_report_json_with(threads: &str, extra: &[&str]) -> String {
    campus_report_json_on("examples/scenarios/cbr.txt", threads, extra)
}

/// The same over the traffic spec at `traffic`.
fn campus_report_json_on(traffic: &str, threads: &str, extra: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "massf_run_report_{}_t{threads}_{}.json",
        std::process::id(),
        extra.join("_").replace("--", "")
    ));
    let path_str = path.to_str().unwrap();
    let mut all = vec![
        "run",
        "examples/scenarios/campus.dml",
        "--engines",
        "3",
        "--traffic",
        traffic,
        "--duration-s",
        "2",
        "--threads",
        threads,
        "--report",
        path_str,
    ];
    all.extend_from_slice(extra);
    cli::run(&args(&all)).expect("campus run must succeed");
    let json = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    json
}

/// Runs the campus CBR scenario with `--report` and returns the JSON text.
fn campus_report_json(threads: &str) -> String {
    campus_report_json_with(threads, &[])
}

/// Truncates a JSON report at the `timing` key — the non-deterministic
/// remainder of the document.
fn mask_json(json: &str) -> &str {
    let at = json
        .find("  \"timing\": {")
        .expect("report has a timing key");
    &json[..at]
}

/// Truncates a human rendering at the wall-clock section header.
fn mask_human(text: &str) -> &str {
    let at = text
        .find("timing (wall-clock")
        .expect("rendering has a timing section");
    &text[..at]
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
fn campus_json_report_matches_golden() {
    let json = campus_report_json("1");
    let golden = include_str!("golden/campus_run_report.json");
    assert_eq!(
        mask_json(&json),
        golden,
        "deterministic report prefix drifted from tests/golden/campus_run_report.json"
    );
}

#[test]
fn campus_human_report_matches_golden() {
    let json = campus_report_json("1");
    let path = std::env::temp_dir().join(format!("massf_run_report_{}_h.json", std::process::id()));
    std::fs::write(&path, &json).unwrap();
    let text = cli::run(&args(&["report", path.to_str().unwrap()])).expect("report renders");
    let _ = std::fs::remove_file(&path);
    let golden = include_str!("golden/campus_run_report.txt");
    assert_eq!(
        mask_human(&text),
        golden,
        "deterministic rendering prefix drifted from tests/golden/campus_run_report.txt"
    );
}

#[test]
fn masked_report_is_byte_identical_across_threads() {
    let base = campus_report_json("1");
    for threads in ["2", "4"] {
        let other = campus_report_json(threads);
        assert_eq!(
            mask_json(&base),
            mask_json(&other),
            "simulated quantities vary at --threads {threads}"
        );
    }
}

#[test]
fn masked_report_is_byte_identical_across_emulation_workers() {
    // The shipped CBR spec averages five events per sync window, so its
    // runs stay on the calling thread at any --threads. This one holds
    // hundreds: from --threads 2 up (on two or more cores) the emulate
    // stage runs on worker threads, and must report the same bytes.
    let dense = |threads| {
        campus_report_json_on(
            "tests/fixtures/cbr_dense.txt",
            threads,
            &["--approach", "top"],
        )
    };
    let base = dense("1");
    let rounds = RunReport::from_json(&base)
        .unwrap()
        .emulation
        .unwrap()
        .rounds;
    assert!(rounds > 512, "too short to leave the first slice: {rounds}");
    for threads in ["2", "4"] {
        assert_eq!(
            mask_json(&base),
            mask_json(&dense(threads)),
            "simulated quantities vary at --threads {threads}"
        );
    }
}

#[test]
fn report_carries_routing_size_counters() {
    let json = campus_report_json("1");
    for key in [
        "\"routing.bytes_dense_baseline\"",
        "\"routing.bytes_measured\"",
        "\"routing.bytes_predicted\"",
        "\"routing.rows_leaf\"",
        "\"routing.runs_total\"",
        "\"routing.compression_x\"",
        "\"routing.runs_mean_per_row\"",
    ] {
        assert!(json.contains(key), "report missing {key}");
    }
    assert!(!json.contains("\"routing.lazy_"), "lazy counters are gone");
}

const EPOCH_FLAGS: &[&str] = &["--epochs", "4", "--rebalance", "incremental"];

#[test]
fn campus_epoch_report_matches_golden() {
    // The online run: 4 epochs, incremental rebalancing. The `rebalance`
    // block (per-epoch measured loads, drift values, boundary decisions)
    // sits between `emulation` and `lint`, above the timing mask.
    // Regenerate with `MASSF_BLESS=1 cargo test --test run_report`.
    let json = campus_report_json_with("1", EPOCH_FLAGS);
    assert!(json.contains("\"rebalance\": {"), "{json}");
    assert_golden(
        mask_json(&json),
        "tests/golden/campus_run_report_epochs.json",
    );

    let path = std::env::temp_dir().join(format!("massf_run_report_{}_e.json", std::process::id()));
    std::fs::write(&path, &json).unwrap();
    let text = cli::run(&args(&["report", path.to_str().unwrap()])).expect("report renders");
    let _ = std::fs::remove_file(&path);
    assert!(text.contains("rebalance (incremental)"), "{text}");
    assert_golden(
        mask_human(&text),
        "tests/golden/campus_run_report_epochs.txt",
    );
}

#[test]
fn epoch_report_is_byte_identical_across_threads() {
    // Epoch loads, drift values, and boundary decisions are functions of
    // virtual time, never of scheduling, so the whole deterministic
    // prefix — rebalance block included — must not move with --threads.
    let base = campus_report_json_with("1", EPOCH_FLAGS);
    for threads in ["2", "4"] {
        let other = campus_report_json_with(threads, EPOCH_FLAGS);
        assert_eq!(
            mask_json(&base),
            mask_json(&other),
            "epoch block varies at --threads {threads}"
        );
    }
}

#[test]
fn timing_is_present_and_last() {
    let json = campus_report_json("1");
    let at = json.find("  \"timing\": {").unwrap();
    // Nothing but the timing object and the closing brace may follow.
    let tail = &json[at..];
    assert!(tail.trim_end().ends_with('}'), "{tail}");
    assert!(
        !tail.contains("\"emulation\""),
        "emulation data leaked below the timing boundary"
    );
}

/// A full, parseable report document: the masked JSON golden plus a
/// minimal `timing` tail.
fn golden_document() -> String {
    include_str!("golden/campus_run_report.json").to_string()
        + "  \"timing\": {\n    \"threads\": 1,\n    \"spans\": []\n  }\n}\n"
}

/// What `massf report` does with a file: read it, and render what read
/// back. `Ok` or `Err`, no panic.
fn read_without_panicking(text: &str) {
    let _ = massf_core::obs::json::parse(text);
    if let Ok(report) = RunReport::from_json(text) {
        let _ = report.render_human();
    }
}

#[test]
fn reader_rejects_hostile_nesting_with_a_positioned_error() {
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(200_000);
        let e = RunReport::from_json(&deep).expect_err("unclosed and far too deep");
        assert!(e.starts_with("invalid JSON at byte "), "{e}");
    }
}

/// The golden report with every counter of its `emulation` block — event
/// totals, per-engine counters, all three timelines — saturated to
/// `u64::MAX`: well-formed, and what a counter that stopped at its ceiling
/// would have written.
fn saturated_document() -> String {
    let mut report = RunReport::from_json(&golden_document()).expect("golden + timing parses");
    let e = report
        .emulation
        .as_mut()
        .expect("golden has an emulation block");
    for total in [
        &mut e.delivered,
        &mut e.dropped,
        &mut e.total_events,
        &mut e.rounds,
        &mut e.remote_messages,
    ] {
        *total = u64::MAX;
    }
    for eng in &mut e.engines {
        for counter in [
            &mut eng.events,
            &mut eng.stalled_rounds,
            &mut eng.remote_sent,
            &mut eng.remote_recv,
            &mut eng.queue_peak,
            &mut eng.sched_resizes,
        ] {
            *counter = u64::MAX;
        }
        for series in [
            &mut eng.timeline,
            &mut eng.stall_timeline,
            &mut eng.recv_timeline,
        ] {
            series.fill(u64::MAX);
        }
    }
    report.to_json()
}

#[test]
fn saturated_counters_render_without_overflow() {
    // `massf report` is parse + render_human; tests build with overflow
    // checks on, so a `u64` sum over these buckets would panic here.
    let doc = saturated_document();
    assert!(
        doc.contains(&format!("\"timeline\": [{0}, {0}]", u64::MAX)),
        "{doc}"
    );
    let report = RunReport::from_json(&doc).expect("saturated report is well-formed");
    let text = report.render_human();
    assert!(text.contains(&format!("{} events", u64::MAX)), "{text}");
    let _ = report.to_json();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reader_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        read_without_panicking(&String::from_utf8_lossy(&bytes));
    }

    /// Byte-level damage to a real report: overwrite, delete, insert,
    /// truncate. `massf report` reads files as UTF-8, so damage that
    /// breaks the encoding is folded back in lossily.
    #[test]
    fn reader_never_panics_on_mutated_reports(
        saturated in prop::bool::ANY,
        edits in prop::collection::vec((any::<usize>(), 0u8..4, any::<u8>()), 1..8),
    ) {
        let base = if saturated { saturated_document() } else { golden_document() };
        let mut bytes = base.into_bytes();
        for (at, op, byte) in edits {
            let at = at % bytes.len().max(1);
            match op {
                _ if bytes.is_empty() => bytes.push(byte),
                0 => bytes[at] = byte,
                1 => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, byte),
                _ => bytes.truncate(at),
            }
        }
        read_without_panicking(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn unmutated_golden_document_reads_back() {
    // Keeps the mutation property honest: its starting point is a
    // document the reader accepts, so the edits are what it rejects.
    let report = RunReport::from_json(&golden_document()).expect("golden + timing parses");
    assert_eq!(mask_json(&report.to_json()), mask_json(&golden_document()));
    // `imbalance` is the paper's metric over the report's own engine events.
    let emu = report.emulation.expect("golden has an emulation block");
    let events: Vec<u64> = emu.engines.iter().map(|e| e.events).collect();
    assert_eq!(fmt_f64(emu.imbalance), fmt_f64(load_imbalance(&events)));
}
