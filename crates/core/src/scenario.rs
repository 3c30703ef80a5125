//! Experiment scenarios: the paper's topology × workload grid (§4.1).

use massf_mapping::{MapperConfig, MappingStudy, Parallelism};
use massf_topology::brite::{BriteConfig, BRITE_ENGINES, SCALEUP_ENGINES};
use massf_topology::campus::{campus, CAMPUS_ENGINES};
use massf_topology::teragrid::{teragrid, TERAGRID_ENGINES};
use massf_topology::{Network, NodeId};
use massf_traffic::gridnpb::{self, GridNpbConfig};
use massf_traffic::http::{self, HttpConfig};
use massf_traffic::scalapack::{self, ScalapackConfig};
use massf_traffic::{FlowSpec, PredictedFlow};

/// The evaluation topologies (Table 1 plus the §4.2.3 scale-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Campus: 20 routers / 40 hosts / 3 engines.
    Campus,
    /// TeraGrid: 27 routers / 150 hosts / 5 engines.
    TeraGrid,
    /// Brite: 160 routers / 132 hosts / 8 engines.
    Brite,
    /// The §4.2.3 scale-up: 200 routers / 364 hosts / 20 engines.
    BriteScaleup,
}

impl Topology {
    /// The Table 1 set (the scale-up is reported separately in Table 2).
    pub const TABLE1: [Topology; 3] = [Topology::Campus, Topology::TeraGrid, Topology::Brite];

    /// Builds the network.
    pub fn build(&self) -> Network {
        match self {
            Topology::Campus => campus(),
            Topology::TeraGrid => teragrid(),
            Topology::Brite => massf_topology::brite::generate(&BriteConfig::paper_brite()),
            Topology::BriteScaleup => {
                massf_topology::brite::generate(&BriteConfig::paper_scaleup())
            }
        }
    }

    /// Simulation-engine count the paper assigns to this topology.
    pub fn engines(&self) -> usize {
        match self {
            Topology::Campus => CAMPUS_ENGINES,
            Topology::TeraGrid => TERAGRID_ENGINES,
            Topology::Brite => BRITE_ENGINES,
            Topology::BriteScaleup => SCALEUP_ENGINES,
        }
    }

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Campus => "Campus",
            Topology::TeraGrid => "TeraGrid",
            Topology::Brite => "Brite",
            Topology::BriteScaleup => "Brite-200",
        }
    }
}

/// The foreground applications (§4.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// ScaLapack: regular block-cyclic solve on 10 nodes.
    Scalapack,
    /// GridNPB 3.0: HC + VP + MB workflow DAGs (irregular).
    GridNpb,
}

impl Workload {
    /// Both workloads, in the paper's order.
    pub const ALL: [Workload; 2] = [Workload::Scalapack, Workload::GridNpb];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Scalapack => "ScaLapack",
            Workload::GridNpb => "GridNPB",
        }
    }

    /// Number of hosts the application occupies.
    pub fn placement_size(&self) -> usize {
        match self {
            Workload::Scalapack => ScalapackConfig::default().processes(),
            Workload::GridNpb => gridnpb::SUITE_SLOTS,
        }
    }
}

/// A full experiment description: topology, foreground workload, background
/// traffic, and scaling knobs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which network.
    pub topology: Topology,
    /// Which application.
    pub workload: Workload,
    /// Background traffic (None disables it).
    pub background: Option<HttpConfig>,
    /// Problem-size scale factor in (0, 1]: 1.0 is the paper's size;
    /// smaller values shrink matrix/transfer sizes for quick runs.
    pub scale: f64,
    /// Mapper seed.
    pub seed: u64,
    /// Mapping-pipeline worker threads (routing tables, accumulation,
    /// partitioner restarts). Results are bit-identical at every setting;
    /// `Parallelism::serial()` runs the exact single-threaded paths.
    pub parallelism: Parallelism,
}

impl Scenario {
    /// The paper's setup for `topology` × `workload` with moderate
    /// background traffic.
    pub fn new(topology: Topology, workload: Workload) -> Self {
        Self {
            topology,
            workload,
            background: None,
            scale: 1.0,
            seed: 0x5c2003,
            parallelism: Parallelism::available(),
        }
        .with_moderate_background()
    }

    /// Replaces the background with the paper's "moderate" setting scaled
    /// to the topology's host count.
    pub fn with_moderate_background(mut self) -> Self {
        // Host counts per Table 1; the generator clamps anyway.
        let hosts = match self.topology {
            Topology::Campus => 40,
            Topology::TeraGrid => 150,
            Topology::Brite => 132,
            Topology::BriteScaleup => 364,
        };
        self.background = Some(HttpConfig::moderate_for(hosts));
        self
    }

    /// Disables background traffic.
    pub fn without_background(mut self) -> Self {
        self.background = None;
        self
    }

    /// Sets the problem-size scale factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        self.scale = scale;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mapping-pipeline thread count (`1` = exact serial paths).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = Parallelism::new(threads);
        self
    }

    /// Instantiates the network, routing, placement, flow schedule, and
    /// PLACE predictions.
    pub fn build(&self) -> BuiltScenario {
        let net = self.topology.build();
        let hosts = net.hosts();
        let placement = clustered_placement(&hosts, self.workload.placement_size());

        // Foreground flows + the PLACE foreground prediction.
        let mut flows = match self.workload {
            Workload::Scalapack => {
                let cfg = ScalapackConfig {
                    matrix_n: ((3000.0 * self.scale) as usize).max(200),
                    ..Default::default()
                };
                scalapack::flows(&cfg, &placement)
            }
            Workload::GridNpb => {
                let cfg = GridNpbConfig {
                    base_bytes: ((1_200_000.0 * self.scale) as u64).max(30_000),
                    ..Default::default()
                };
                gridnpb::flows(&cfg, &gridnpb::paper_suite(&cfg), &placement)
            }
        };
        let mut predicted = massf_mapping::place::foreground_prediction(&net, &placement);

        // Background over the foreground's horizon.
        if let Some(bg) = &self.background {
            let horizon = massf_traffic::flow::horizon_us(&flows).max(1_000_000);
            flows.extend(http::generate(&hosts, bg, horizon));
            predicted.extend(http::predict(&hosts, bg));
        }
        flows.sort_by_key(|f| (f.start_us, f.src, f.dst));

        let cfg = MapperConfig::new(self.topology.engines())
            .with_seed(self.seed)
            .with_parallelism(self.parallelism);
        BuiltScenario {
            scenario: self.clone(),
            study: MappingStudy::new(net, cfg),
            placement,
            flows,
            predicted,
        }
    }
}

/// A scenario with everything instantiated, ready to map and emulate.
pub struct BuiltScenario {
    /// The originating description.
    pub scenario: Scenario,
    /// Network + routing + mapper configuration.
    pub study: MappingStudy,
    /// Hosts running the foreground application.
    pub placement: Vec<NodeId>,
    /// The complete flow schedule (foreground + background).
    pub flows: Vec<FlowSpec>,
    /// PLACE's predicted flows (foreground uniform + background averages).
    pub predicted: Vec<PredictedFlow>,
}

impl BuiltScenario {
    /// Runs the `massf-lint` preflight over the instantiated scenario:
    /// network, engine count, flow schedule, and PLACE predictions all
    /// feed the request passes. Callers should refuse to emulate when
    /// [`massf_lint::Diagnostics::has_errors`] is true.
    pub fn lint(&self) -> massf_lint::Diagnostics {
        let mut input = massf_lint::LintInput::network(&self.study.net);
        input.engines = Some(self.study.cfg.engines);
        input.flows = &self.flows;
        input.predicted = &self.predicted;
        massf_lint::lint_scenario(&input)
    }

    /// Runs the post-pipeline artifact audit (MC013–MC020) over a concrete
    /// partitioning produced from this scenario; see
    /// [`crate::audit::audit_study`].
    pub fn audit(&self, partition: &massf_partition::Partitioning) -> massf_lint::Diagnostics {
        crate::audit::audit_study(&self.study, partition)
    }
}

/// Picks `n` hosts spread evenly through the host list (deterministic).
/// Useful as an idealized best-case placement; real deployments are
/// clustered — see [`clustered_placement`].
pub fn spread_placement(hosts: &[NodeId], n: usize) -> Vec<NodeId> {
    assert!(n <= hosts.len(), "not enough hosts for the application");
    let step = hosts.len() as f64 / n as f64;
    (0..n).map(|i| hosts[(i as f64 * step) as usize]).collect()
}

/// Picks `n` hosts as two contiguous clusters (first half of the pool and
/// from its middle) — how real grid applications are placed: ScaLapack over
/// MPICH-G ran on whole clusters at two sites, not on hosts scattered one
/// per subnet. Clustered injection points are what make topology-only
/// mapping (TOP) blind to the application's load (§3.1 vs §3.2).
pub fn clustered_placement(hosts: &[NodeId], n: usize) -> Vec<NodeId> {
    assert!(n <= hosts.len(), "not enough hosts for the application");
    let first = n.div_ceil(2);
    let second = n - first;
    let mid = hosts.len() / 2;
    let mut out: Vec<NodeId> = hosts[..first].to_vec();
    // If the pool is too small for a disjoint second cluster, keep going
    // contiguously after the first.
    if mid + second <= hosts.len() && mid >= first {
        out.extend_from_slice(&hosts[mid..mid + second]);
    } else {
        out.extend_from_slice(&hosts[first..n]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_topologies_have_paper_counts() {
        for (t, routers, hosts, engines) in [
            (Topology::Campus, 20, 40, 3),
            (Topology::TeraGrid, 27, 150, 5),
            (Topology::Brite, 160, 132, 8),
        ] {
            let net = t.build();
            assert_eq!(net.router_count(), routers, "{}", t.label());
            assert_eq!(net.host_count(), hosts, "{}", t.label());
            assert_eq!(t.engines(), engines, "{}", t.label());
        }
        let scale = Topology::BriteScaleup.build();
        assert_eq!(scale.router_count(), 200);
        assert_eq!(scale.host_count(), 364);
        assert_eq!(Topology::BriteScaleup.engines(), 20);
    }

    #[test]
    fn clustered_placement_forms_two_contiguous_groups() {
        let hosts: Vec<NodeId> = (100..140).collect();
        let p = clustered_placement(&hosts, 10);
        assert_eq!(p.len(), 10);
        // First cluster: hosts[0..5]; second: hosts[20..25].
        assert_eq!(&p[..5], &[100, 101, 102, 103, 104]);
        assert_eq!(&p[5..], &[120, 121, 122, 123, 124]);
        let mut q = p.clone();
        q.sort_unstable();
        q.dedup();
        assert_eq!(q.len(), 10, "no repeats");
    }

    #[test]
    fn clustered_placement_small_pool_falls_back_contiguously() {
        let hosts: Vec<NodeId> = (0..6).collect();
        let p = clustered_placement(&hosts, 5);
        assert_eq!(p.len(), 5);
        let mut q = p.clone();
        q.sort_unstable();
        q.dedup();
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn campus_clustered_placement_concentrates_in_buildings() {
        // The point of clustering: the app's hosts touch few buildings, so
        // topology-only mapping cannot see the load concentration.
        let net = Topology::Campus.build();
        let p = clustered_placement(&net.hosts(), 10);
        let buildings: std::collections::HashSet<String> = p
            .iter()
            .map(|&h| {
                let (r, _) = net.neighbors(h)[0];
                net.node(r)
                    .name
                    .split('-')
                    .next()
                    .unwrap_or("x")
                    .to_string()
            })
            .collect();
        assert!(buildings.len() <= 3, "placement too spread: {buildings:?}");
    }

    #[test]
    fn spread_placement_is_deterministic_and_distinct() {
        let hosts: Vec<NodeId> = (100..150).collect();
        let p = spread_placement(&hosts, 10);
        assert_eq!(p.len(), 10);
        let mut q = p.clone();
        q.dedup();
        assert_eq!(p, q, "placement must not repeat hosts");
        assert_eq!(p, spread_placement(&hosts, 10));
    }

    #[test]
    fn teragrid_placement_spans_sites() {
        let net = Topology::TeraGrid.build();
        let placement = spread_placement(&net.hosts(), 10);
        let sites: std::collections::HashSet<u32> =
            placement.iter().map(|&h| net.node(h).as_id).collect();
        assert!(sites.len() >= 4, "grid app should span sites: {sites:?}");
    }

    #[test]
    fn built_scenario_has_foreground_and_background() {
        let built = Scenario::new(Topology::Campus, Workload::Scalapack)
            .with_scale(0.1)
            .build();
        assert_eq!(built.placement.len(), 10);
        assert!(!built.flows.is_empty());
        assert!(!built.predicted.is_empty());
        // Background adds flows beyond the bare foreground.
        let bare = Scenario::new(Topology::Campus, Workload::Scalapack)
            .with_scale(0.1)
            .without_background()
            .build();
        assert!(built.flows.len() > bare.flows.len());
    }

    #[test]
    fn scale_shrinks_traffic() {
        let small = Scenario::new(Topology::Campus, Workload::GridNpb)
            .without_background()
            .with_scale(0.1)
            .build();
        let full = Scenario::new(Topology::Campus, Workload::GridNpb)
            .without_background()
            .build();
        let sp: u64 = massf_traffic::flow::total_packets(&small.flows);
        let fp: u64 = massf_traffic::flow::total_packets(&full.flows);
        assert!(sp < fp / 2, "scaled {sp} vs full {fp}");
    }

    #[test]
    fn built_scenarios_lint_clean_of_errors() {
        for t in [Topology::Campus, Topology::TeraGrid] {
            let built = Scenario::new(t, Workload::Scalapack)
                .with_scale(0.1)
                .build();
            let diags = built.lint();
            assert_eq!(
                diags.count(massf_lint::Severity::Error),
                0,
                "{}: {}",
                t.label(),
                diags.summary_line()
            );
        }
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        Scenario::new(Topology::Campus, Workload::Scalapack).with_scale(0.0);
    }
}
