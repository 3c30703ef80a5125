//! Extension ablation — online incremental repartitioning vs a global
//! per-epoch remap on shifting traffic.
//!
//! The workload is the drifting campus hotspot (heavy traffic concentrates
//! in one building per phase, cycling): the static mappings must
//! compromise across phases, a global remap rebuilds the whole partition
//! at every noisy epoch boundary, and the incremental diffusive pass
//! migrates only the handful of boundary nodes the drift actually moved.
//! The acceptance bar this table records: incremental reaches at least the
//! imbalance reduction of the global remap while migrating strictly fewer
//! nodes.

use massf_bench::{dump_json, scale_from_args};
use massf_core::mapping::incremental::{run_online, IncrementalConfig, RebalanceMode};
use massf_core::prelude::*;
use massf_core::topology::NodeId;
use massf_core::traffic::hotspot::{self, HotspotConfig};
use massf_metrics::report::ResultTable;
use massf_metrics::timeseries::mean_active_imbalance;

/// Campus hosts grouped by the building their router belongs to.
fn building_groups(net: &Network) -> Vec<Vec<NodeId>> {
    let mut groups: std::collections::BTreeMap<String, Vec<NodeId>> = Default::default();
    for h in net.hosts() {
        let (router, _) = net.neighbors(h)[0];
        let name = &net.node(router).name;
        let key = name.split('-').next().unwrap_or("misc").to_string();
        groups.entry(key).or_default().push(h);
    }
    groups.into_values().collect()
}

fn main() {
    let scale = scale_from_args();
    let mut t = ResultTable::new(
        "ablate_online",
        "Online incremental repartitioning vs global remap (drifting hotspot, Campus, 3 engines)",
    );

    let net = Topology::Campus.build();
    let groups = building_groups(&net);
    let mut cfg = HotspotConfig::drift_over(groups);
    cfg.phases = 4;
    cfg.phase_len_us = 5_000_000;
    cfg.flows_per_phase = (60.0 * scale).max(8.0) as usize;
    let flows = hotspot::generate(&cfg);
    let mut study = MappingStudy::new(net, MapperConfig::new(3));
    study.counter_window_us = 500_000;

    // Every row runs the same epoch schedule (two boundaries per hotspot
    // phase) under the same cost model — the live-application pacing
    // `run_online` defaults to — so `net_time_s` is comparable down the
    // whole column.
    let inc_cfg = IncrementalConfig {
        epochs: 8,
        ..IncrementalConfig::default()
    };

    // Static baselines: one partition for the whole run. The hotspot is
    // unannounced (no predicted flows), so PLACE/PROFILE fall back to
    // their traffic-blind structure — the regime §6 warns about.
    let mut static_top_events = 0;
    for a in Approach::ALL {
        let p = study.map(a, &[], &flows);
        let r = study.evaluate(&p, &flows, inc_cfg.cost);
        if a == Approach::Top {
            static_top_events = r.total_events();
        }
        let row = format!("static {}", a.label());
        t.set(&row, "imbalance", load_imbalance(&r.engine_events));
        t.set(
            &row,
            "fine_grained",
            mean_active_imbalance(&r.window_series, 32),
        );
        t.set(&row, "net_time_s", r.emulation_time_s());
        t.set(&row, "migrated", 0.0);
        t.set(&row, "remaps", 0.0);
    }

    // Online runs: identical measurement path; only the boundary policy
    // varies.
    for (label, mode) in [
        ("online off", RebalanceMode::Off),
        ("online global", RebalanceMode::Global),
        ("online incremental", RebalanceMode::Incremental),
    ] {
        let out = run_online(&study, &flows, &[], &inc_cfg, mode);
        if mode == RebalanceMode::Off {
            // Never migrating is the static TOP run stopped and resumed at
            // the epoch boundaries: same protocol, same events; only the
            // windows capped at a boundary add their sync cost.
            assert_eq!(out.report.total_events(), static_top_events);
            let top_s = t.get("static TOP", "net_time_s").unwrap();
            let off_s = out.report.emulation_time_s();
            assert!(
                (off_s - top_s).abs() < 0.01 * top_s,
                "online off {off_s} s vs static TOP {top_s} s"
            );
        }
        t.set(
            label,
            "imbalance",
            load_imbalance(&out.report.engine_events),
        );
        t.set(
            label,
            "fine_grained",
            mean_active_imbalance(&out.report.window_series, 32),
        );
        t.set(label, "net_time_s", out.report.emulation_time_s());
        t.set(label, "migrated", out.migrated_nodes as f64);
        t.set(label, "remaps", out.remaps_applied as f64);
    }

    print!("{}", t.render(3));
    // Under a time-varying partition the whole-run `imbalance` aggregate is
    // not meaningful (a node's events land on different engines in
    // different epochs); `fine_grained` — the mean per-window imbalance —
    // is the quality metric, as in ablate_dynamic.
    let off = t.get("online off", "fine_grained").unwrap();
    let glob = t.get("online global", "fine_grained").unwrap();
    let inc = t.get("online incremental", "fine_grained").unwrap();
    let m_glob = t.get("online global", "migrated").unwrap();
    let m_inc = t.get("online incremental", "migrated").unwrap();
    println!(
        "\nfine-grained imbalance reduction vs off: global {:.3}, incremental {:.3}",
        off - glob,
        off - inc
    );
    println!(
        "migrated nodes: global {m_glob:.0}, incremental {m_inc:.0} \
         (incremental must reduce at least as much while moving fewer)"
    );
    dump_json(&t);
}
