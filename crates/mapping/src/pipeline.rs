//! The end-to-end mapping study: choose an approach, produce a partition,
//! evaluate it by emulation (Figure 1's process, §2.3).

use crate::place::map_place_obs;
use crate::profile::map_profile_obs;
use crate::top::map_top_obs;
use crate::MapperConfig;
use massf_engine::netflow::FlowRecord;
use massf_engine::{CostModel, EmulationConfig, EmulationReport, SchedulerKind, COUNTER_WINDOW_US};
use massf_obs::Recorder;
use massf_par::Parallelism;
use massf_partition::Partitioning;
use massf_routing::RoutingTables;
use massf_topology::Network;
use massf_traffic::{FlowSpec, PredictedFlow};

/// The three mapping approaches of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Topology-based (§3.1).
    Top,
    /// Application-placement-based (§3.2).
    Place,
    /// Profile-based (§3.3).
    Profile,
}

impl Approach {
    /// All three, in the paper's presentation order.
    pub const ALL: [Approach; 3] = [Approach::Top, Approach::Place, Approach::Profile];

    /// Label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            Approach::Top => "TOP",
            Approach::Place => "PLACE",
            Approach::Profile => "PROFILE",
        }
    }
}

/// One network + routing tables + mapper configuration, ready to map and
/// evaluate workloads.
pub struct MappingStudy {
    /// The emulated network.
    pub net: Network,
    /// Routing over it.
    pub tables: RoutingTables,
    /// Mapper configuration.
    pub cfg: MapperConfig,
    /// Virtual-time bucket width for fine-grained load series (default
    /// [`COUNTER_WINDOW_US`]).
    pub counter_window_us: u64,
}

impl MappingStudy {
    /// Builds routing tables (threaded per `cfg.parallelism`) and wraps
    /// everything up.
    pub fn new(net: Network, cfg: MapperConfig) -> Self {
        let tables = RoutingTables::build_kind(&net, cfg.routing, cfg.parallelism);
        Self {
            net,
            tables,
            cfg,
            counter_window_us: COUNTER_WINDOW_US,
        }
    }

    /// Produces the partition for `approach`.
    ///
    /// * `predicted` — placement-based traffic predictions (used by PLACE);
    /// * `flows` — the concrete schedule (used by PROFILE's profiling run).
    ///
    /// PROFILE runs a profiling emulation under the TOP partition with
    /// NetFlow enabled, then repartitions from the dumps — the full §3.3
    /// loop.
    pub fn map(
        &self,
        approach: Approach,
        predicted: &[PredictedFlow],
        flows: &[FlowSpec],
    ) -> Partitioning {
        self.map_obs(approach, predicted, flows, &mut Recorder::new())
    }

    /// [`MappingStudy::map`] with observability: pipeline stages record
    /// `mapping/*` spans, partitioner restart batches, and (for PROFILE)
    /// phase-detection telemetry on `rec`. Recording never changes the
    /// partition produced.
    pub fn map_obs(
        &self,
        approach: Approach,
        predicted: &[PredictedFlow],
        flows: &[FlowSpec],
        rec: &mut Recorder,
    ) -> Partitioning {
        match approach {
            Approach::Top => map_top_obs(&self.net, &self.cfg, rec),
            Approach::Place => map_place_obs(&self.net, &self.tables, predicted, &self.cfg, rec),
            Approach::Profile => {
                let initial = map_top_obs(&self.net, &self.cfg, rec);
                let span = rec.start();
                let records = self.profile_records(flows, &initial);
                rec.finish("mapping/profile/profiling_run", span);
                rec.add_counter("profile.netflow_records", records.len() as u64);
                map_profile_obs(&self.net, &self.tables, &records, &self.cfg, rec)
            }
        }
    }

    /// The engine configuration of every emulation this study runs: its
    /// counter window, engine capacities and worker threads
    /// (`cfg.parallelism`, at most one per CPU), under `partition`.
    pub(crate) fn emulation_config(
        &self,
        partition: &Partitioning,
        netflow: bool,
        cost: CostModel,
    ) -> EmulationConfig {
        EmulationConfig {
            partition: partition.part.clone(),
            nengines: partition.nparts,
            counter_window_us: self.counter_window_us,
            netflow,
            cost,
            engine_speeds: self.cfg.engine_capacities.clone(),
            scheduler: SchedulerKind::default(),
            workers: self
                .cfg
                .parallelism
                .capped(Parallelism::available().get())
                .get(),
        }
    }

    /// Runs the profiling emulation (NetFlow on) under `initial` and
    /// returns the merged dumps.
    pub fn profile_records(&self, flows: &[FlowSpec], initial: &Partitioning) -> Vec<FlowRecord> {
        let cfg = self.emulation_config(initial, true, CostModel::default());
        massf_engine::run(&self.net, &self.tables, flows, cfg).netflow
    }

    /// Evaluates a partition by emulating `flows` under it.
    pub fn evaluate(
        &self,
        partition: &Partitioning,
        flows: &[FlowSpec],
        cost: CostModel,
    ) -> EmulationReport {
        let cfg = self.emulation_config(partition, false, cost);
        massf_engine::run(&self.net, &self.tables, flows, cfg)
    }

    /// Replays `flows` "as fast as possible" (compressed schedule, no
    /// real-time pacing) under a partition — the paper's isolated network
    /// emulation time (§4.1.1, Figures 9/10).
    pub fn replay(&self, partition: &Partitioning, flows: &[FlowSpec]) -> EmulationReport {
        let compressed = massf_engine::trace::compress_for_replay(flows);
        self.evaluate(partition, &compressed, CostModel::replay())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::foreground_prediction;
    use massf_metrics::load_imbalance;
    use massf_topology::campus::campus;
    use massf_traffic::scalapack::{self, ScalapackConfig};

    fn study() -> MappingStudy {
        MappingStudy::new(campus(), MapperConfig::new(3))
    }

    fn workload(study: &MappingStudy) -> (Vec<FlowSpec>, Vec<PredictedFlow>) {
        let hosts = study.net.hosts();
        let placement: Vec<_> = hosts.iter().step_by(4).take(10).copied().collect();
        let cfg = ScalapackConfig {
            matrix_n: 600,
            ..Default::default()
        };
        let flows = scalapack::flows(&cfg, &placement);
        let predicted = foreground_prediction(&study.net, &placement);
        (flows, predicted)
    }

    #[test]
    fn all_approaches_yield_valid_partitions() {
        let s = study();
        let (flows, predicted) = workload(&s);
        for a in Approach::ALL {
            let p = s.map(a, &predicted, &flows);
            assert_eq!(p.nparts, 3, "{}", a.label());
            assert!(p.part_sizes().iter().all(|&x| x > 0), "{}", a.label());
        }
    }

    #[test]
    fn profile_improves_or_matches_top_imbalance() {
        let s = study();
        let (flows, predicted) = workload(&s);
        let top = s.map(Approach::Top, &predicted, &flows);
        let profile = s.map(Approach::Profile, &predicted, &flows);
        let r_top = s.evaluate(&top, &flows, CostModel::default());
        let r_prof = s.evaluate(&profile, &flows, CostModel::default());
        let i_top = load_imbalance(&r_top.engine_events);
        let i_prof = load_imbalance(&r_prof.engine_events);
        assert!(
            i_prof <= i_top * 1.10 + 0.02,
            "PROFILE {i_prof:.3} should not be clearly worse than TOP {i_top:.3}"
        );
    }

    #[test]
    fn replay_is_faster_than_live() {
        let s = study();
        let (flows, predicted) = workload(&s);
        let p = s.map(Approach::Top, &predicted, &flows);
        let live = s.evaluate(&p, &flows, CostModel::live_application());
        let replay = s.replay(&p, &flows);
        assert!(
            replay.emulation_time_s() < live.emulation_time_s(),
            "replay {} vs live {}",
            replay.emulation_time_s(),
            live.emulation_time_s()
        );
        assert_eq!(replay.delivered, live.delivered, "same packets either way");
    }

    #[test]
    fn profiling_run_produces_records() {
        let s = study();
        let (flows, _) = workload(&s);
        let initial = s.map(Approach::Top, &[], &flows);
        let records = s.profile_records(&flows, &initial);
        assert!(!records.is_empty());
        let total: u64 = records.iter().map(|r| r.packets).sum();
        assert!(total > 1000, "profiling saw {total} router-packets");
    }

    #[test]
    fn map_obs_records_telemetry_without_changing_results() {
        let s = study();
        let (flows, predicted) = workload(&s);
        let mut rec = Recorder::new();
        let p = s.map_obs(Approach::Profile, &predicted, &flows, &mut rec);
        assert_eq!(p, s.map(Approach::Profile, &predicted, &flows));

        let stages: Vec<&str> = rec.restarts().iter().map(|b| b.stage.as_str()).collect();
        assert!(stages.contains(&"top"), "{stages:?}");
        assert!(stages.contains(&"profile/latency"), "{stages:?}");
        assert!(stages.contains(&"profile/combined"), "{stages:?}");
        for batch in rec.restarts() {
            assert!((batch.winner as usize) < batch.outcomes.len().max(1));
        }
        let telemetry = rec.profile().expect("PROFILE sets phase telemetry");
        assert!(telemetry.nbuckets > 0);
        assert!(!telemetry.phases.is_empty());
        assert_eq!(
            telemetry.constraint_totals.len(),
            telemetry.constraints as usize
        );
        assert!(rec
            .spans()
            .iter()
            .any(|sp| sp.name == "mapping/profile/profiling_run"));
        assert!(rec.counters().contains_key("profile.netflow_records"));
    }

    #[test]
    fn approach_labels() {
        assert_eq!(Approach::Top.label(), "TOP");
        assert_eq!(Approach::Place.label(), "PLACE");
        assert_eq!(Approach::Profile.label(), "PROFILE");
    }
}
