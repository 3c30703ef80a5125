//! The mapping pipeline must be bit-identical at every thread count: the
//! routing-table build, both traffic accumulators, the partitioner's
//! best-of-N search, and the full Scenario pipeline built on them.

use massf_core::mapping::place::foreground_prediction;
use massf_core::mapping::weights::{
    accumulate_measured_with, accumulate_predicted_with, latency_graph,
};
use massf_core::partition::quality::edge_cut;
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::brite::{generate, BriteConfig};
use massf_core::topology::{campus::campus, teragrid::teragrid};

fn nets() -> Vec<(&'static str, Network)> {
    vec![
        ("campus", campus()),
        ("teragrid", teragrid()),
        (
            "brite",
            generate(&BriteConfig {
                routers: 40,
                hosts: 20,
                ..BriteConfig::paper_brite()
            }),
        ),
    ]
}

#[test]
fn routing_tables_identical_across_thread_counts() {
    for (name, net) in nets() {
        let serial = RoutingTables::build_with(&net, Parallelism::serial());
        for threads in [2, 4, 7, 16, 64] {
            let parallel = RoutingTables::build_with(&net, Parallelism::new(threads));
            assert_eq!(
                serial, parallel,
                "{name} tables differ at {threads} threads"
            );
        }
    }
}

#[test]
fn predicted_accumulators_are_bit_identical() {
    for (name, net) in nets() {
        let tables = RoutingTables::build(&net);
        let pred = foreground_prediction(&net, &net.hosts());
        let (link1, node1) = accumulate_predicted_with(&net, &tables, &pred, Parallelism::serial());
        // f64 sums must match to the bit, not within an epsilon: the
        // blocked reduction fixes the association order.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [4, 16, 64] {
            let (link, node) =
                accumulate_predicted_with(&net, &tables, &pred, Parallelism::new(threads));
            assert_eq!(
                bits(&link1),
                bits(&link),
                "{name} link weights differ at {threads}"
            );
            assert_eq!(
                bits(&node1),
                bits(&node),
                "{name} node weights differ at {threads}"
            );
        }
    }
}

#[test]
fn measured_accumulators_identical_on_profiled_records() {
    for (topo, wl) in [
        (Topology::Campus, Workload::Scalapack),
        (Topology::TeraGrid, Workload::GridNpb),
        (Topology::Brite, Workload::Scalapack),
    ] {
        let built = Scenario::new(topo, wl)
            .with_scale(0.08)
            .without_background()
            .build();
        let initial = built
            .study
            .map(Approach::Top, &built.predicted, &built.flows);
        let records = built.study.profile_records(&built.flows, &initial);
        assert!(
            !records.is_empty(),
            "{topo:?} profiling produced no records"
        );
        let (link1, node1) = accumulate_measured_with(
            &built.study.net,
            &built.study.tables,
            &records,
            Parallelism::serial(),
        );
        let (link4, node4) = accumulate_measured_with(
            &built.study.net,
            &built.study.tables,
            &records,
            Parallelism::new(4),
        );
        assert_eq!(link1, link4, "{topo:?} measured link loads differ");
        assert_eq!(node1, node4, "{topo:?} measured node loads differ");
    }
}

#[test]
fn partition_kway_identical_across_thread_counts() {
    for (name, net) in nets() {
        let g = latency_graph(&net);
        let serial = partition_kway(&g, &PartitionConfig::new(4));
        for threads in [2, 4, 7, 16, 64] {
            let cfg = PartitionConfig::new(4).with_threads(Parallelism::new(threads));
            let parallel = partition_kway(&g, &cfg);
            assert_eq!(
                serial, parallel,
                "{name} partition differs at {threads} threads"
            );
            assert_eq!(
                edge_cut(&g, &serial.part),
                edge_cut(&g, &parallel.part),
                "{name} cut differs at {threads} threads"
            );
        }
    }
}

#[test]
fn full_pipeline_identical_across_thread_counts() {
    let built = Scenario::new(Topology::Campus, Workload::Scalapack)
        .with_scale(0.08)
        .without_background()
        .build();
    let study = |threads: usize| {
        let cfg = built
            .study
            .cfg
            .clone()
            .with_parallelism(Parallelism::new(threads));
        MappingStudy::new(built.study.net.clone(), cfg)
    };
    let (serial, threaded) = (study(1), study(4));
    for approach in Approach::ALL {
        let p1 = serial.map(approach, &built.predicted, &built.flows);
        let p4 = threaded.map(approach, &built.predicted, &built.flows);
        assert_eq!(p1, p4, "{approach:?} partition depends on thread count");
    }
}
