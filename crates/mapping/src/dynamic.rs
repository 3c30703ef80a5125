//! Dynamic remapping — the paper's §6 direction, implemented.
//!
//! "Load imbalance happens due to burst/variation of traffic injected from
//! the application. Static partitions are fundamentally limited for large
//! emulation if traffic varies widely. … Dynamic remapping the virtual
//! network during the emulation is the only solution."
//!
//! The driver slices the emulation into virtual-time epochs. Each epoch
//! runs under the current partition with NetFlow recording live; at every
//! boundary the accumulated profile feeds the ordinary PROFILE mapper and
//! the emulation migrates to the new partition, paying a modeled
//! checkpoint/transfer cost per moved node.
//!
//! This is the *global* remap policy: the partitioner rebuilds the whole
//! assignment from the measured profile, with no loyalty to the incumbent
//! partition, so a boundary may migrate a large fraction of the network.
//! [`crate::incremental`] is the migration-frugal alternative (budgeted
//! diffusive single-node moves, drift-triggered — DESIGN.md §15);
//! [`crate::incremental::run_online`] drives either policy through one
//! comparable epoch loop, which is how the `ablate_online` bench and the
//! CLI's `--rebalance global|incremental` flag compare them.
//!
//! ```
//! use massf_mapping::dynamic::{run_dynamic, DynamicConfig};
//! use massf_mapping::{MapperConfig, MappingStudy};
//! use massf_topology::campus::campus;
//! use massf_traffic::gridnpb::{self, GridNpbConfig};
//!
//! let study = MappingStudy::new(campus(), MapperConfig::new(3));
//! let hosts = study.net.hosts();
//! let placement: Vec<_> = hosts.iter().step_by(4).take(9).copied().collect();
//! let cfg = GridNpbConfig { base_bytes: 200_000, ..Default::default() };
//! let flows = gridnpb::flows(&cfg, &gridnpb::paper_suite(&cfg), &placement);
//!
//! let out = run_dynamic(&study, &flows, &DynamicConfig::default());
//! // One partition per epoch; boundaries that remapped migrated nodes.
//! assert_eq!(out.epoch_partitions.len(), DynamicConfig::default().epochs);
//! assert!(out.remaps_applied <= DynamicConfig::default().epochs - 1);
//! ```

use crate::profile::map_profile;
use crate::top::map_top;
use crate::MappingStudy;
use massf_engine::stepping::{MigrationCost, SteppableEmulation};
use massf_engine::{CostModel, EmulationReport};
use massf_partition::Partitioning;
use massf_traffic::flow::horizon_us;
use massf_traffic::FlowSpec;

/// Configuration of a dynamic-remapping run.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Number of epochs (1 = static, no remapping).
    pub epochs: usize,
    /// Wall-clock cost charged per remap.
    pub migration: MigrationCost,
    /// Cost model for the emulation itself.
    pub cost: CostModel,
    /// Skip a remap whose new partition moves fewer nodes than this —
    /// migrating two nodes to fix 1 % imbalance is never worth a stall.
    pub min_moved_nodes: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            epochs: 4,
            migration: MigrationCost::default(),
            cost: CostModel::live_application(),
            min_moved_nodes: 2,
        }
    }
}

/// Outcome of a dynamic run.
#[derive(Debug)]
pub struct DynamicOutcome {
    /// The final emulation report (covers the whole run).
    pub report: EmulationReport,
    /// Partition in force during each epoch.
    pub epoch_partitions: Vec<Partitioning>,
    /// Total nodes migrated.
    pub migrated_nodes: usize,
    /// Remaps actually applied (skipped ones excluded).
    pub remaps_applied: usize,
}

/// Runs `flows` with periodic profile-driven remapping. The initial epoch
/// uses the TOP partition (nothing has been measured yet); each boundary
/// repartitions from the NetFlow history so far.
pub fn run_dynamic(
    study: &MappingStudy,
    flows: &[FlowSpec],
    cfg: &DynamicConfig,
) -> DynamicOutcome {
    assert!(cfg.epochs >= 1);
    let initial = map_top(&study.net, &study.cfg);
    let horizon = horizon_us(flows).saturating_add(1);
    let epoch_len = (horizon / cfg.epochs as u64).max(1);

    // NetFlow on: live profiling is what enables remapping.
    let emu_cfg = study.emulation_config(&initial, true, cfg.cost);
    let mut emu = SteppableEmulation::new(&study.net, &study.tables, flows, emu_cfg);

    let mut epoch_partitions = vec![initial.clone()];
    let mut current = initial;
    for epoch in 1..cfg.epochs as u64 {
        let now = epoch * epoch_len;
        emu.run_until(now);
        if emu.finished() {
            break;
        }
        // Remap on *recent* traffic: the last two epochs predict the next
        // stage far better than the whole history, which over-weights
        // early bursts that will never recur.
        let lookback = now.saturating_sub(2 * epoch_len);
        let mut records = emu.netflow_snapshot();
        let recent: Vec<_> = records
            .iter()
            .filter(|r| r.last_us >= lookback)
            .cloned()
            .collect();
        if !recent.is_empty() {
            records = recent;
        }
        let candidate = map_profile(&study.net, &study.tables, &records, &study.cfg);
        let moved = current
            .part
            .iter()
            .zip(&candidate.part)
            .filter(|(a, b)| a != b)
            .count();
        if moved >= cfg.min_moved_nodes {
            emu.repartition(candidate.part.clone(), cfg.migration);
            current = candidate;
        }
        epoch_partitions.push(current.clone());
    }
    emu.run_to_completion();
    let migrated_nodes = emu.migrated_nodes;
    let remaps_applied = emu.remaps;
    DynamicOutcome {
        report: emu.finish(),
        epoch_partitions,
        migrated_nodes,
        remaps_applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Approach;
    use crate::MapperConfig;
    use massf_metrics::load_imbalance;
    use massf_topology::campus::campus;
    use massf_traffic::gridnpb::{self, GridNpbConfig};

    fn study() -> MappingStudy {
        MappingStudy::new(campus(), MapperConfig::new(3))
    }

    fn phase_shifting_flows(study: &MappingStudy) -> Vec<FlowSpec> {
        // GridNPB's staged DAGs shift load between host groups over time.
        let hosts = study.net.hosts();
        let placement: Vec<_> = hosts.iter().step_by(4).take(9).copied().collect();
        let cfg = GridNpbConfig {
            base_bytes: 400_000,
            ..Default::default()
        };
        gridnpb::flows(&cfg, &gridnpb::paper_suite(&cfg), &placement)
    }

    #[test]
    fn dynamic_run_conserves_packets() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let injected: u64 = flows.iter().map(|f| f.packets).sum();
        let out = run_dynamic(&s, &flows, &DynamicConfig::default());
        assert_eq!(out.report.delivered, injected);
        assert_eq!(out.report.dropped, 0);
    }

    #[test]
    fn one_epoch_is_static_top() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let cfg = DynamicConfig {
            epochs: 1,
            ..Default::default()
        };
        let out = run_dynamic(&s, &flows, &cfg);
        assert_eq!(out.remaps_applied, 0);
        assert_eq!(out.epoch_partitions.len(), 1);
        // Same events as evaluating TOP statically.
        let top = s.map(Approach::Top, &[], &flows);
        let static_report = s.evaluate(&top, &flows, CostModel::live_application());
        assert_eq!(out.report.total_events(), static_report.total_events());
    }

    #[test]
    fn dynamic_improves_imbalance_over_static_top() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let top = s.map(Approach::Top, &[], &flows);
        let static_report = s.evaluate(&top, &flows, CostModel::live_application());
        let out = run_dynamic(&s, &flows, &DynamicConfig::default());
        let static_imb = load_imbalance(&static_report.engine_events);
        let dyn_imb = load_imbalance(&out.report.engine_events);
        assert!(
            dyn_imb < static_imb,
            "dynamic {dyn_imb:.3} should beat static TOP {static_imb:.3}"
        );
        assert!(out.remaps_applied >= 1, "expected at least one remap");
    }

    #[test]
    fn migration_costs_appear_in_wall_clock() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let cheap = DynamicConfig {
            migration: MigrationCost {
                fixed_us: 0.0,
                per_node_us: 0.0,
            },
            ..Default::default()
        };
        let dear = DynamicConfig {
            migration: MigrationCost {
                fixed_us: 5e6,
                per_node_us: 1e5,
            },
            ..Default::default()
        };
        let out_cheap = run_dynamic(&s, &flows, &cheap);
        let out_dear = run_dynamic(&s, &flows, &dear);
        // Identical emulation, different modeled cost.
        assert_eq!(
            out_cheap.report.total_events(),
            out_dear.report.total_events()
        );
        if out_cheap.remaps_applied > 0 {
            assert!(out_dear.report.wall.total_us > out_cheap.report.wall.total_us);
        }
    }

    #[test]
    fn deterministic() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let a = run_dynamic(&s, &flows, &DynamicConfig::default());
        let b = run_dynamic(&s, &flows, &DynamicConfig::default());
        assert_eq!(a.report.engine_events, b.report.engine_events);
        assert_eq!(a.migrated_nodes, b.migrated_nodes);
        assert_eq!(a.epoch_partitions, b.epoch_partitions);
    }
}
