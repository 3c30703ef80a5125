//! The calendar-queue scheduler must be invisible in results: on real
//! scenarios, swapping it against the binary-heap baseline — and swapping
//! the calling thread against worker threads — must leave
//! every simulated quantity bit-identical. Only the scheduler's own
//! internal-cost counters (`engine_sched_resizes`, `engine_reallocs`) may
//! differ between kinds, and even those must be deterministic within a
//! kind across executors.

mod common;

use common::run_on_workers;
use massf_core::engine::{run_sequential, SchedulerKind};
use massf_core::prelude::*;

/// Asserts every simulated (scheduler-independent) field matches.
fn assert_simulated_equal(a: &EmulationReport, b: &EmulationReport, what: &str) {
    assert_eq!(a.engine_events, b.engine_events, "{what}");
    assert_eq!(a.engine_stalls, b.engine_stalls, "{what}");
    assert_eq!(a.engine_remote_sent, b.engine_remote_sent, "{what}");
    assert_eq!(a.engine_remote_recv, b.engine_remote_recv, "{what}");
    assert_eq!(a.engine_queue_peak, b.engine_queue_peak, "{what}");
    assert_eq!(a.delivered, b.delivered, "{what}");
    assert_eq!(a.dropped, b.dropped, "{what}");
    assert_eq!(a.latency_sum_us, b.latency_sum_us, "{what}");
    assert_eq!(a.remote_messages, b.remote_messages, "{what}");
    assert_eq!(a.rounds, b.rounds, "{what}");
    assert_eq!(a.virtual_end_us, b.virtual_end_us, "{what}");
    assert_eq!(a.window_series, b.window_series, "{what}");
    assert_eq!(a.stall_series, b.stall_series, "{what}");
    assert_eq!(a.recv_series, b.recv_series, "{what}");
    assert_eq!(a.netflow, b.netflow, "{what}");
}

fn check(topo: Topology, wl: Workload) {
    let built = Scenario::new(topo, wl).with_scale(0.08).build();
    let partition = built
        .study
        .map(Approach::Top, &built.predicted, &built.flows);
    let base = EmulationConfig::new(partition.part.clone(), partition.nparts).with_netflow();

    let heap_cfg = base.clone().with_scheduler(SchedulerKind::Heap);
    let cal_cfg = base.with_scheduler(SchedulerKind::Calendar);
    let net = &built.study.net;
    let tables = &built.study.tables;

    let heap_seq = run_sequential(net, tables, &built.flows, &heap_cfg);
    let cal_seq = run_sequential(net, tables, &built.flows, &cal_cfg);
    let heap_par = run_on_workers(net, tables, &built.flows, &heap_cfg);
    let cal_par = run_on_workers(net, tables, &built.flows, &cal_cfg);

    let label = format!("{topo:?}/{wl:?}");
    assert_simulated_equal(
        &heap_seq,
        &cal_seq,
        &format!("{label}: heap vs calendar (seq)"),
    );
    assert_simulated_equal(&heap_seq, &heap_par, &format!("{label}: seq vs par (heap)"));
    assert_simulated_equal(
        &cal_seq,
        &cal_par,
        &format!("{label}: seq vs par (calendar)"),
    );

    // The scheduler's internal-cost counters depend on the kind but never
    // on the executor.
    assert_eq!(heap_seq.engine_sched_resizes, heap_par.engine_sched_resizes);
    assert_eq!(cal_seq.engine_sched_resizes, cal_par.engine_sched_resizes);
    assert_eq!(heap_seq.engine_reallocs, heap_par.engine_reallocs);
    assert_eq!(cal_seq.engine_reallocs, cal_par.engine_reallocs);
    // The heap never rebuilds a bucket array.
    assert!(heap_seq.engine_sched_resizes.iter().all(|&r| r == 0));
}

#[test]
fn campus_scalapack() {
    check(Topology::Campus, Workload::Scalapack);
}

#[test]
fn teragrid_gridnpb() {
    check(Topology::TeraGrid, Workload::GridNpb);
}

#[test]
fn brite_scalapack() {
    check(Topology::Brite, Workload::Scalapack);
}
