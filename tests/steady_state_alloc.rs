//! DESIGN.md §12's "steady-state processing performs no allocation", held
//! to account: once the event queues have reached their peak depth, more
//! events must not mean more allocations.

mod common;

use common::{allocations, peak_bytes};
use massf_core::engine::{run_sequential, EmulationReport, SteppableEmulation};
use massf_core::prelude::*;

/// ScaLapack on the campus network at scale 0.12, and the TOP mapping's
/// configuration with NetFlow on or off.
fn campus_scalapack(netflow: bool) -> (BuiltScenario, EmulationConfig) {
    let built = Scenario::new(Topology::Campus, Workload::Scalapack)
        .with_scale(0.12)
        .build();
    let partition = built
        .study
        .map(Approach::Top, &built.predicted, &built.flows);
    let mut cfg = EmulationConfig::new(partition.part.clone(), partition.nparts);
    cfg.netflow = netflow;
    (built, cfg)
}

/// `flows` played `reps` times, `period_us` apart, every flow under
/// `window`.
fn plays(flows: &[FlowSpec], reps: u64, period_us: u64, window: Option<u32>) -> Vec<FlowSpec> {
    (0..reps)
        .flat_map(|rep| {
            flows.iter().map(move |f| FlowSpec {
                start_us: f.start_us + rep * period_us,
                window,
                ..*f
            })
        })
        .collect()
}

/// The campus ScaLapack schedule played once and then eight times back
/// to back: seven more repetitions of the same bursts, the same queue
/// depths — and some 130 k more kernel events. Returns `(more
/// allocations, more events, more NetFlow records)`. With `window`, every
/// flow is ACK-clocked, so packets also travel the reverse direction; with
/// `netflow`, every router records every flow it sees.
fn eight_plays_against_one(window: Option<u32>, netflow: bool) -> (usize, u64, usize) {
    let (built, cfg) = campus_scalapack(netflow);
    let run = |reps: u64, period_us: u64| -> (EmulationReport, usize) {
        let flows = plays(&built.flows, reps, period_us, window);
        allocations(|| run_sequential(&built.study.net, &built.study.tables, &flows, &cfg))
    };

    let (once, allocs_once) = run(1, 0);
    let (eight, allocs_eight) = run(8, once.virtual_end_us + 1_000_000);
    let more_allocs = allocs_eight.saturating_sub(allocs_once);
    (
        more_allocs,
        eight.total_events() - once.total_events(),
        eight.netflow.len() - once.netflow.len(),
    )
}

#[test]
fn allocations_stop_growing_with_the_event_count() {
    let (more_allocs, more_events, _) = eight_plays_against_one(None, false);
    assert!(more_events > 100_000, "only {more_events} more events");

    // What still grows (16 at the time of writing) is logarithmic: the
    // per-window counter series double as virtual time runs on, and each
    // repetition parks one more start event per flow in the start cursors.
    // The calendar that kept a vector per bucket made 1 034 more allocations
    // here, its buckets regrowing as the packet front swept across them.
    // The engines' next-link pins are keyed by route, and eight plays of
    // one schedule add flows, not routes: the pins of the eighth play are
    // the pins of the first.
    assert!(
        more_allocs <= 40,
        "{more_allocs} more allocations for {more_events} more events"
    );
}

/// The same bound with every flow windowed: the ACK half of the pins is
/// per route too.
#[test]
fn allocations_stop_growing_under_window_transport() {
    let (more_allocs, more_events, _) = eight_plays_against_one(Some(4), false);
    assert!(more_events > 100_000, "only {more_events} more events");
    assert!(
        more_allocs <= 40,
        "{more_allocs} more allocations for {more_events} more events"
    );
}

/// With NetFlow on, allocations follow the records — seven more plays are
/// seven times the flows, so seven times the `(router, flow)` records: the
/// record vector doubles and the ordered index takes a node every few keys —
/// not the packets, which find their record through their lane's cell
/// (151 more allocations for 784 more records at the time of writing).
#[test]
fn netflow_allocations_follow_records_not_packets() {
    let (more_allocs, more_events, more_records) = eight_plays_against_one(None, true);
    assert!(more_events > 100_000, "only {more_events} more events");
    assert!(more_records > 500, "only {more_records} more records");
    assert!(
        more_allocs <= 40 + more_records / 4,
        "{more_allocs} more allocations for {more_records} more records"
    );
}

/// NetFlow holds one epoch: with an epoch slice after every play, eight
/// plays peak where one does, the eighth play's records replacing the
/// first's instead of joining them (1.07× at the time of writing; 2.50×
/// when every slice was a diff of cumulative dumps).
#[test]
fn netflow_holds_one_epoch() {
    let (built, cfg) = campus_scalapack(true);
    let (net, tables) = (&built.study.net, &built.study.tables);
    let period_us = run_sequential(net, tables, &built.flows, &cfg).virtual_end_us + 1_000_000;
    let peak = |reps: u64| {
        let flows = plays(&built.flows, reps, period_us, None);
        let (records, bytes) = peak_bytes(|| {
            let mut emu = SteppableEmulation::new(net, tables, &flows, cfg.clone());
            let mut records = 0;
            for rep in 1..=reps {
                emu.run_until(rep * period_us);
                records += emu.netflow_epoch_slice().len();
            }
            emu.run_to_completion();
            records + emu.finish().netflow.len()
        });
        assert!(records > 0);
        bytes
    };
    let (once, eight) = (peak(1), peak(8));
    assert!(
        eight as f64 <= 1.15 * once as f64,
        "eight plays peak at {eight} B, one at {once} B"
    );
}
