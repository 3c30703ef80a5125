//! Heterogeneous simulation engines — the extension the paper's §5 flags
//! as a current limitation ("The MaSSF partitioner currently assumes
//! homogeneous physical resources for network simulation").
//!
//! The partitioner accepts per-part target fractions and the cost model
//! scales per-engine event processing by CPU speed; a capacity-aware
//! mapping must beat a capacity-blind one on a lopsided cluster.

use massf_core::partition::quality::target_balance;
use massf_core::prelude::*;

#[test]
fn partitioner_honours_target_fractions() {
    let net = Topology::Campus.build();
    let g = net.to_unit_graph();
    let caps = [3.0, 1.0, 1.0];
    let cfg = PartitionConfig::new(3).with_capacities(&caps);
    let p = partition_kway(&g, &cfg);
    // Part 0 should get roughly 60% of the vertices.
    let sizes = p.part_sizes();
    let share0 = sizes[0] as f64 / g.nvtxs() as f64;
    assert!(
        (0.45..=0.75).contains(&share0),
        "part 0 got {share0:.2} of vertices, wanted ~0.6 ({sizes:?})"
    );
    let tb = target_balance(&g, &p.part, &[0.6, 0.2, 0.2], 0);
    assert!(tb <= 1.35, "target balance {tb}");
}

#[test]
fn uniform_fractions_match_default() {
    let net = Topology::Campus.build();
    let g = net.to_unit_graph();
    let default = partition_kway(&g, &PartitionConfig::new(3));
    let uniform = partition_kway(
        &g,
        &PartitionConfig::new(3).with_capacities(&[1.0, 1.0, 1.0]),
    );
    assert_eq!(
        default, uniform,
        "uniform capacities must equal the default"
    );
}

#[test]
fn capacity_aware_mapping_beats_blind_on_lopsided_cluster() {
    // One engine is 3x faster. The capacity-aware PROFILE mapping should
    // finish (modeled) faster than the capacity-blind one evaluated on the
    // same lopsided hardware.
    let caps = vec![3.0, 1.0, 1.0];

    let mut blind = Scenario::new(Topology::Campus, Workload::Scalapack)
        .with_scale(0.2)
        .without_background()
        .build();
    // Evaluate the *blind* partition on lopsided hardware: speeds set, but
    // partition targets stay uniform.
    let blind_partition = blind
        .study
        .map(Approach::Profile, &blind.predicted, &blind.flows);
    blind.study.cfg.engine_capacities = Some(caps.clone());
    let blind_report = blind
        .study
        .evaluate(&blind_partition, &blind.flows, CostModel::replay());

    let mut aware = Scenario::new(Topology::Campus, Workload::Scalapack)
        .with_scale(0.2)
        .without_background()
        .build();
    aware.study.cfg = aware.study.cfg.clone().with_engine_capacities(caps);
    let aware_partition = aware
        .study
        .map(Approach::Profile, &aware.predicted, &aware.flows);
    let aware_report = aware
        .study
        .evaluate(&aware_partition, &aware.flows, CostModel::replay());

    assert_eq!(blind_report.delivered, aware_report.delivered);
    assert!(
        aware_report.emulation_time_s() <= blind_report.emulation_time_s() * 1.02,
        "capacity-aware {:.2}s should not lose to blind {:.2}s",
        aware_report.emulation_time_s(),
        blind_report.emulation_time_s()
    );
    // The fast engine should carry more events under the aware mapping.
    let aware_share0 = aware_report.engine_events[0] as f64 / aware_report.total_events() as f64;
    let blind_share0 = blind_report.engine_events[0] as f64 / blind_report.total_events() as f64;
    assert!(
        aware_share0 > blind_share0,
        "fast engine share: aware {aware_share0:.2} vs blind {blind_share0:.2}"
    );
}

#[test]
fn speeds_do_not_change_emulation_results() {
    // Engine speeds are a wall-clock model concern only; the discrete
    // events must be identical.
    let built = Scenario::new(Topology::Campus, Workload::GridNpb)
        .with_scale(0.1)
        .without_background()
        .build();
    let p = built
        .study
        .map(Approach::Top, &built.predicted, &built.flows);
    let base_cfg = EmulationConfig::new(p.part.clone(), p.nparts);
    let fast_cfg = EmulationConfig {
        engine_speeds: Some(vec![5.0, 1.0, 0.5]),
        ..EmulationConfig::new(p.part.clone(), p.nparts)
    };
    let a = massf_core::engine::run_sequential(
        &built.study.net,
        &built.study.tables,
        &built.flows,
        &base_cfg,
    );
    let b = massf_core::engine::run_sequential(
        &built.study.net,
        &built.study.tables,
        &built.flows,
        &fast_cfg,
    );
    assert_eq!(a.engine_events, b.engine_events);
    assert_eq!(a.latency_sum_us, b.latency_sum_us);
    assert_eq!(a.rounds, b.rounds);
    assert!(a.wall.total_us != b.wall.total_us, "wall model must differ");
}
