//! Dynamic remapping (§6) integration check: on drifting-hotspot traffic
//! the online rebalancer migrates nodes, and migration never changes what
//! is emulated.

use massf_core::mapping::run_online;
use massf_core::prelude::*;
use massf_core::topology::NodeId;
use massf_core::traffic::hotspot::{self, HotspotConfig};

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

#[test]
fn migration_preserves_emulation_results() {
    let (study, flows) = hotspot_setup();
    let injected: u64 = flows.iter().map(|f| f.packets).sum();
    // Static reference for totals.
    let top = study.map(Approach::Top, &[], &flows);
    let static_r = study.evaluate(&top, &flows, CostModel::live_application());
    let cfg = IncrementalConfig { epochs: 8 };
    let dynamic = run_online(&study, &flows, &[], &cfg, RebalanceMode::Incremental);
    assert!(dynamic.migrated_nodes > 0, "the hotspot must move nodes");
    assert_eq!(dynamic.report.delivered, injected);
    assert_eq!(dynamic.report.dropped, 0);
    assert_eq!(
        dynamic.report.total_events(),
        static_r.total_events(),
        "migration must not change the discrete events"
    );
    assert_eq!(dynamic.report.latency_sum_us, static_r.latency_sum_us);
}
