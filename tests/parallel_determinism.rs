//! The parallel substrate must be bit-identical to the sequential
//! reference on real scenarios, for every approach and topology — and at
//! every worker count, engine → worker deal and density-gate setting.

mod common;

use common::run_on_workers;
use massf_core::engine::{run, run_parallel, run_sequential, SteppableEmulation};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;

fn check(topo: Topology, wl: Workload, approach: Approach) {
    let built = Scenario::new(topo, wl)
        .with_scale(0.08)
        .without_background()
        .build();
    let partition = built.study.map(approach, &built.predicted, &built.flows);
    let cfg = EmulationConfig::new(partition.part.clone(), partition.nparts).with_netflow();
    let seq = run_sequential(&built.study.net, &built.study.tables, &built.flows, &cfg);
    let par = run_on_workers(&built.study.net, &built.study.tables, &built.flows, &cfg);
    assert_eq!(
        seq,
        run_parallel(&built.study.net, &built.study.tables, &built.flows, &cfg)
    );
    assert_eq!(
        seq.engine_events, par.engine_events,
        "{topo:?}/{wl:?}/{approach:?}"
    );
    assert_eq!(seq.delivered, par.delivered);
    assert_eq!(seq.dropped, par.dropped);
    assert_eq!(seq.latency_sum_us, par.latency_sum_us);
    assert_eq!(seq.remote_messages, par.remote_messages);
    assert_eq!(seq.rounds, par.rounds);
    assert_eq!(seq.virtual_end_us, par.virtual_end_us);
    assert_eq!(seq.netflow, par.netflow);
    assert_eq!(seq.window_series, par.window_series);
    assert!((seq.wall.total_us - par.wall.total_us).abs() < 1e-6);
}

#[test]
fn campus_all_approaches() {
    for a in Approach::ALL {
        check(Topology::Campus, Workload::Scalapack, a);
    }
}

#[test]
fn teragrid_gridnpb_profile() {
    check(Topology::TeraGrid, Workload::GridNpb, Approach::Profile);
}

#[test]
fn brite_scalapack_top() {
    check(Topology::Brite, Workload::Scalapack, Approach::Top);
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Thread scheduling must not leak into results: run the parallel
    // executor several times and demand identical reports.
    let built = Scenario::new(Topology::Campus, Workload::GridNpb)
        .with_scale(0.1)
        .without_background()
        .build();
    let partition = built
        .study
        .map(Approach::Place, &built.predicted, &built.flows);
    let cfg = EmulationConfig::new(partition.part.clone(), partition.nparts);
    let first = run_on_workers(&built.study.net, &built.study.tables, &built.flows, &cfg);
    for _ in 0..4 {
        let again = run_on_workers(&built.study.net, &built.study.tables, &built.flows, &cfg);
        assert_eq!(first.engine_events, again.engine_events);
        assert_eq!(first.latency_sum_us, again.latency_sum_us);
        assert_eq!(first.rounds, again.rounds);
    }
}

#[test]
fn every_worker_count_deal_and_gate_reproduces_the_sequential_report() {
    // 16 engines on a round-robin partition: every hop crosses engines
    // and the lookahead is the shortest link, so the run is all protocol.
    const ENGINES: usize = 16;
    let built = Scenario::new(Topology::Brite, Workload::Scalapack)
        .with_scale(0.06)
        .without_background()
        .build();
    let (net, flows) = (&built.study.net, &built.flows[..]);
    let partition = (0..net.node_count()).map(|v| (v % ENGINES) as u32);
    let cfg = EmulationConfig::new(partition.collect(), ENGINES).with_netflow();
    let lazy = RoutingTables::build_lazy(net);
    for tables in [&built.study.tables, &lazy] {
        let seq = run_sequential(net, tables, flows, &cfg);
        assert!(seq.rounds > 2 * massf_core::engine::stepping::SLICE_ROUNDS);
        let dealt = |deal: Vec<usize>, dense_from: u64| {
            let mut emu = SteppableEmulation::new(net, tables, flows, cfg.clone());
            emu.set_workers(deal, dense_from);
            emu.run_to_completion();
            emu.finish()
        };
        // Worker counts that do not divide 16, and far more than cores.
        for workers in [1, 2, 3, 5, 8, 16] {
            let blocks: Vec<usize> = (0..ENGINES).map(|e| e * workers / ENGINES).collect();
            let shuffled: Vec<usize> = (0..ENGINES).map(|e| (e * 7 + 3) % workers).collect();
            // Gate forced open (every slice on the workers), forced shut,
            // and left to what the run measures.
            assert_eq!(seq, dealt(blocks.clone(), 0), "{workers} workers");
            assert_eq!(seq, dealt(shuffled, 0), "{workers} workers, shuffled");
            assert_eq!(seq, dealt(blocks, u64::MAX), "{workers} workers, gate shut");
            let measured = run(net, tables, flows, cfg.clone().with_workers(workers));
            assert_eq!(seq, measured, "{workers} workers, measured gate");
        }
    }
}
