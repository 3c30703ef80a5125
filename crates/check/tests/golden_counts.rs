//! Golden test pinning the explorer's schedule counts.
//!
//! The partial-order reduction is only trustworthy if its aggressiveness
//! is *pinned*: if `pruned`/`states` fall without a matching change in
//! `executions`, the reduction started merging schedules it should
//! distinguish (over-pruning — silently unsound); if they blow up, it
//! stopped recognizing equivalent schedules (exploration cost explodes).
//! Either direction fails this test.
//!
//! Regenerate with `MASSF_BLESS=1 cargo test -p massf-check --test
//! golden_counts` after an intentional change to the protocol's shim-op
//! sequence or the reduction.

use massf_check::{explore, ExploreOpts, ExploreStats, Scenario};

/// Compares `actual` against the golden at `path` (relative to the crate
/// root), rewriting the golden instead when `MASSF_BLESS=1` is set.
fn assert_golden(actual: &str, path: &str) {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("MASSF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot bless {path}: {e}"));
        return;
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_eq!(actual, golden, "schedule counts drifted from {path}");
}

fn line(name: &str, mode: &str, s: ExploreStats) -> String {
    format!(
        "{name} {mode} executions={} pruned={} states={} depth={}\n",
        s.executions, s.pruned, s.states, s.peak_depth
    )
}

#[test]
fn schedule_counts_are_pinned() {
    let mut out = String::new();

    let two = Scenario::two_cross();
    let r = explore(&two, ExploreOpts::default());
    assert!(
        r.violation.is_none(),
        "two_cross violated: {:?}",
        r.violation
    );
    assert!(r.stats.exhaustive, "two_cross must be fully explorable");
    out.push_str(&line("two_cross", "exhaustive", r.stats));

    // three_chain is explored under a bound: big enough to walk a
    // meaningful slice (and to pin the pruning behavior on 3 threads),
    // small enough to keep the suite fast.
    let three = Scenario::three_chain();
    let r = explore(
        &three,
        ExploreOpts {
            max_schedules: Some(1_500),
            fault: None,
        },
    );
    assert!(
        r.violation.is_none(),
        "three_chain violated: {:?}",
        r.violation
    );
    out.push_str(&line("three_chain", "bounded=1500", r.stats));

    // Stop/migrate/resume: the two segments are explored separately, so
    // this line is the *sum* of their counts (about one two_cross), not
    // the product.
    let migrate = Scenario::two_cross_migrate();
    let r = explore(&migrate, ExploreOpts::default());
    assert!(
        r.violation.is_none(),
        "two_cross_migrate violated: {:?}",
        r.violation
    );
    assert!(
        r.stats.exhaustive,
        "two_cross_migrate must be fully explorable"
    );
    out.push_str(&line("two_cross_migrate", "exhaustive", r.stats));

    // The pooled executor's two shapes: one participant owning two
    // engines, and a run cut by the round budget and resumed (two
    // segments, like the migration); then a partial migration, where one
    // engine gives up some of its nodes and another none.
    for s in [
        Scenario::three_chain_paired(),
        Scenario::two_cross_budget(),
        Scenario::three_chain_migrate(),
    ] {
        let r = explore(&s, ExploreOpts::default());
        assert!(r.violation.is_none(), "{}: {:?}", s.name, r.violation);
        assert!(r.stats.exhaustive, "{} must be fully explorable", s.name);
        out.push_str(&line(s.name, "exhaustive", r.stats));
    }

    assert_golden(&out, "tests/golden/counts.txt");
}

#[test]
fn every_completed_schedule_matched_the_reference() {
    // `explore` returning no violation IS the determinism statement (any
    // report divergence would have surfaced as ReportMismatch); this test
    // documents the claim and keeps a second scenario-independent check:
    // the reference itself must be non-trivial for the statement to mean
    // anything.
    let s = Scenario::two_cross();
    let reference = s.reference();
    assert!(reference.delivered > 0 && reference.remote_messages > 0);
    let r = explore(&s, ExploreOpts::default());
    assert!(r.violation.is_none());
    assert_eq!(r.stats.executions + r.stats.pruned, 725, "schedule total");
}
