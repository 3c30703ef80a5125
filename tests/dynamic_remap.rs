//! Dynamic remapping (§6) integration checks: on drifting-hotspot traffic
//! the dynamic mapper must beat every static mapping; migration must never
//! change what is emulated.

use massf_core::mapping::run_online;
use massf_core::prelude::*;
use massf_core::topology::NodeId;
use massf_core::traffic::hotspot::{self, HotspotConfig};
use massf_metrics::timeseries::mean_active_imbalance;

fn campus_building_groups(net: &Network) -> Vec<Vec<NodeId>> {
    let mut groups: std::collections::BTreeMap<String, Vec<NodeId>> = Default::default();
    for h in net.hosts() {
        let (router, _) = net.neighbors(h)[0];
        let key = net
            .node(router)
            .name
            .split('-')
            .next()
            .unwrap_or("x")
            .to_string();
        groups.entry(key).or_default().push(h);
    }
    groups.into_values().collect()
}

fn hotspot_setup() -> (MappingStudy, Vec<FlowSpec>) {
    let net = Topology::Campus.build();
    let groups = campus_building_groups(&net);
    let cfg = HotspotConfig {
        phases: 4,
        phase_len_us: 5_000_000,
        flows_per_phase: 45,
        ..HotspotConfig::drift_over(groups)
    };
    let flows = hotspot::generate(&cfg);
    let mut study = MappingStudy::new(net, MapperConfig::new(3));
    study.counter_window_us = 500_000;
    (study, flows)
}

/// The global remap at every boundary. `drift_threshold: 0.0` opens the
/// quiet-epoch gate: with the default 0.02 a boundary whose load shares
/// barely moved keeps a partition that is already wrong for the next
/// hotspot phase, and the fine-grained imbalance loses to static PLACE.
fn run_global(study: &MappingStudy, flows: &[FlowSpec], epochs: usize) -> IncrementalOutcome {
    let cfg = IncrementalConfig {
        epochs,
        cost: CostModel::default(),
        drift_threshold: 0.0,
        ..Default::default()
    };
    run_online(study, flows, &[], &cfg, RebalanceMode::Global)
}

#[test]
fn dynamic_beats_static_on_drifting_hotspot() {
    let (study, flows) = hotspot_setup();
    let dynamic = run_global(&study, &flows, 16);
    assert!(dynamic.remaps_applied >= 2, "hotspot must trigger remaps");

    let dyn_fine = mean_active_imbalance(&dynamic.report.window_series, 32);
    for a in Approach::ALL {
        let p = study.map(a, &[], &flows);
        let r = study.evaluate(&p, &flows, CostModel::default());
        let static_fine = mean_active_imbalance(&r.window_series, 32);
        assert!(
            dyn_fine < static_fine,
            "dynamic fine-grained {dyn_fine:.3} must beat static {} {static_fine:.3}",
            a.label()
        );
    }
}

#[test]
fn dynamic_net_time_beats_static_profile_on_hotspot() {
    let (study, flows) = hotspot_setup();
    let p = study.map(Approach::Profile, &[], &flows);
    let static_r = study.evaluate(&p, &flows, CostModel::default());
    let dynamic = run_global(&study, &flows, 16);
    assert!(
        dynamic.report.emulation_time_s() < static_r.emulation_time_s() * 1.02,
        "dynamic {:.2}s should not lose to static PROFILE {:.2}s",
        dynamic.report.emulation_time_s(),
        static_r.emulation_time_s()
    );
}

#[test]
fn migration_preserves_emulation_results() {
    let (study, flows) = hotspot_setup();
    let injected: u64 = flows.iter().map(|f| f.packets).sum();
    // Static reference for totals.
    let top = study.map(Approach::Top, &[], &flows);
    let static_r = study.evaluate(&top, &flows, CostModel::default());
    let dynamic = run_global(&study, &flows, 8);
    assert_eq!(dynamic.report.delivered, injected);
    assert_eq!(dynamic.report.dropped, 0);
    assert_eq!(
        dynamic.report.total_events(),
        static_r.total_events(),
        "migration must not change the discrete events"
    );
    assert_eq!(dynamic.report.latency_sum_us, static_r.latency_sum_us);
}
