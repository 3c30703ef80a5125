//! Running the paper's experiments: map with an approach, emulate, and
//! extract the three metrics of §4.1.1 (load imbalance, application
//! emulation time, network emulation time in isolation).

use crate::scenario::BuiltScenario;
use massf_engine::{CostModel, EmulationReport};
use massf_mapping::Approach;
use massf_metrics::load_imbalance;
use massf_partition::Partitioning;

/// The outcome of evaluating one mapping approach on one scenario.
#[derive(Debug, Clone)]
pub struct ApproachResult {
    /// Which approach produced the partition.
    pub approach: Approach,
    /// The partition itself.
    pub partitioning: Partitioning,
    /// Normalized std-dev of per-engine kernel event rates (Figures 4/5).
    pub load_imbalance: f64,
    /// Modeled application emulation time in seconds (Figures 6/7).
    pub emulation_time_s: f64,
    /// Modeled isolated network-emulation (replay) time (Figures 9/10).
    pub replay_time_s: f64,
    /// The live-run report (window series etc. for Figures 2/8).
    pub report: EmulationReport,
}

impl BuiltScenario {
    /// Maps with `approach`, emulates live (with real-time pacing) and in
    /// replay mode, and gathers the metrics.
    pub fn run_approach(&self, approach: Approach) -> ApproachResult {
        let partitioning = self.study.map(approach, &self.predicted, &self.flows);
        let report = self
            .study
            .evaluate(&partitioning, &self.flows, CostModel::live_application());
        let replay = self.study.replay(&partitioning, &self.flows);
        ApproachResult {
            approach,
            load_imbalance: load_imbalance(&report.engine_events),
            emulation_time_s: report.emulation_time_s(),
            replay_time_s: replay.emulation_time_s(),
            partitioning,
            report,
        }
    }

    /// Runs all three approaches (TOP, PLACE, PROFILE).
    pub fn run_all(&self) -> Vec<ApproachResult> {
        Approach::ALL
            .iter()
            .map(|&a| self.run_approach(a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, Topology, Workload};

    fn quick() -> BuiltScenario {
        Scenario::new(Topology::Campus, Workload::Scalapack)
            .with_scale(0.08)
            .without_background()
            .build()
    }

    #[test]
    fn approach_result_is_complete() {
        let built = quick();
        let r = built.run_approach(Approach::Top);
        assert_eq!(r.approach, Approach::Top);
        assert_eq!(r.partitioning.nparts, 3);
        assert!(r.load_imbalance >= 0.0);
        assert!(r.emulation_time_s > 0.0);
        assert!(r.replay_time_s > 0.0);
        assert!(r.report.delivered > 0);
    }

    #[test]
    fn replay_never_slower_than_live() {
        let built = quick();
        for r in built.run_all() {
            assert!(
                r.replay_time_s <= r.emulation_time_s + 1e-9,
                "{}: replay {} vs live {}",
                r.approach.label(),
                r.replay_time_s,
                r.emulation_time_s
            );
        }
    }

    #[test]
    fn all_three_approaches_run() {
        let built = quick();
        let results = built.run_all();
        assert_eq!(results.len(), 3);
        let labels: Vec<_> = results.iter().map(|r| r.approach.label()).collect();
        assert_eq!(labels, vec!["TOP", "PLACE", "PROFILE"]);
        // Every approach delivers the same packet count: mapping must never
        // change what is emulated, only where.
        let d0 = results[0].report.delivered;
        assert!(results.iter().all(|r| r.report.delivered == d0));
    }
}
