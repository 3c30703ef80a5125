//! DESIGN.md §12's "steady-state processing performs no allocation", held
//! to account: once the event queues have reached their peak depth, more
//! events must not mean more allocations.

mod common;

use common::allocations;
use massf_core::engine::{run_sequential, EmulationReport};
use massf_core::prelude::*;

/// ScaLapack on the campus network, its flow schedule played once and then
/// eight times back to back: seven more repetitions of the same bursts,
/// the same queue depths — and some 130 k more kernel events. Returns
/// `(more allocations, more events)`. With `window`, every flow is
/// ACK-clocked, so packets also travel the reverse direction.
fn eight_plays_against_one(window: Option<u32>) -> (usize, u64) {
    let built = Scenario::new(Topology::Campus, Workload::Scalapack)
        .with_scale(0.12)
        .with_threads(1)
        .build();
    let partition = built
        .study
        .map(Approach::Top, &built.predicted, &built.flows);
    let cfg = EmulationConfig::new(partition.part.clone(), partition.nparts);
    let run = |reps: u64, period_us: u64| -> (EmulationReport, usize) {
        let flows: Vec<FlowSpec> = (0..reps)
            .flat_map(|rep| {
                built.flows.iter().map(move |f| FlowSpec {
                    start_us: f.start_us + rep * period_us,
                    window,
                    ..*f
                })
            })
            .collect();
        allocations(|| run_sequential(&built.study.net, &built.study.tables, &flows, &cfg))
    };

    let (once, allocs_once) = run(1, 0);
    let (eight, allocs_eight) = run(8, once.virtual_end_us + 1_000_000);
    let more_allocs = allocs_eight.saturating_sub(allocs_once);
    (more_allocs, eight.total_events() - once.total_events())
}

#[test]
fn allocations_stop_growing_with_the_event_count() {
    let (more_allocs, more_events) = eight_plays_against_one(None);
    assert!(more_events > 100_000, "only {more_events} more events");

    // What still grows (16 at the time of writing) is logarithmic: the
    // per-window counter series double as virtual time runs on, and each
    // repetition parks one more start event per flow in the queues. The
    // calendar that kept a vector per bucket made 1 034 more allocations
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
    let (more_allocs, more_events) = eight_plays_against_one(Some(4));
    assert!(more_events > 100_000, "only {more_events} more events");
    assert!(
        more_allocs <= 40,
        "{more_allocs} more allocations for {more_events} more events"
    );
}
