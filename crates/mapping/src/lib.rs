//! # massf-mapping
//!
//! The paper's contribution: three approaches for constructing the graph
//! partitioner's input from an emulated network and whatever traffic
//! knowledge is available (§3).
//!
//! * [`top`] — **TOP**: topology only. Vertex weight = total in/out link
//!   bandwidth; the single objective maximizes cut link latency (encoded as
//!   minimizing `K / latency` edge weights).
//! * [`place`] — **PLACE**: topology + application placement. Background
//!   generators predict their average bandwidth per endpoint pair;
//!   foreground applications are assumed to saturate their injection
//!   points, talking evenly to all peers. Predicted flows are routed
//!   (traceroute-style) and accumulated per link/node; the §2.3
//!   multi-objective combination balances latency against cut traffic.
//! * [`profile`] — **PROFILE**: a profiling emulation with NetFlow
//!   recording yields measured per-router/per-link traffic; the §3.3
//!   clustering splits the run into load phases, each a constraint column
//!   of a multi-constraint partition.
//!
//! Each approach only computes weights: its vertex-weight columns and,
//! for PLACE and PROFILE, per-link traffic weights. All three then end in
//! one partition step in [`weights`], which appends the memory column
//! when [`MapperConfig::include_memory`] is set, builds the latency view
//! (and the traffic view beside it) and partitions them, alone for TOP,
//! by the §2.3 combination for PLACE and PROFILE, then polishes the
//! result with [`incremental`]'s descent. [`segments`] implements
//! the phase clustering; [`pipeline`] wires the full
//! profile-then-repartition loop.

//! ```
//! use massf_mapping::{Approach, MapperConfig, MappingStudy};
//! use massf_topology::campus::campus;
//!
//! let study = MappingStudy::new(campus(), MapperConfig::new(3));
//! let partition = study.map(Approach::Top, &[], &[]);
//! assert_eq!(partition.nparts, 3);
//! assert!(partition.part_sizes().iter().all(|&s| s > 0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// CSR-style code indexes several parallel arrays with one counter; the
// iterator rewrites clippy suggests are less clear there.
#![allow(clippy::needless_range_loop)]

pub mod incremental;
pub mod pipeline;
pub mod place;
pub mod profile;
pub mod segments;
pub mod top;
pub mod weights;

pub use incremental::{
    diffusive_sweep, run_online, IncrementalConfig, IncrementalOutcome, RebalanceMode,
};
pub use massf_engine::COUNTER_WINDOW_US;
pub use massf_par::Parallelism;
pub use massf_routing::RoutingKind;
pub use pipeline::{Approach, MappingStudy};

/// The partitioner imbalance tolerance of every mapping approach.
///
/// It is looser than METIS's classic 1.03: the emulation graphs are tiny
/// (tens of nodes per engine) with highly skewed traffic weights, and an
/// over-tight constraint forces the partitioner to cut low-latency access
/// links, destroying the conservative engine's lookahead — exactly the
/// §2.2.3 trade-off. The lint's feasibility passes judge against it too.
pub const UBFACTOR: f64 = 1.25;

/// Shared configuration of all mapping approaches.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Number of simulation engines (partition count).
    pub engines: usize,
    /// Latency-objective priority `p` of §2.3; the paper's default ratio is
    /// 6:4, i.e. `p = 0.6`.
    pub latency_priority: f64,
    /// Partitioner seed (all runs deterministic).
    pub seed: u64,
    /// Add the routing-table memory model as an extra balance constraint
    /// (§2.2.2 / §5 memory-weight "magic number" discussion).
    pub include_memory: bool,
    /// Relative capacity (CPU speed) per engine. `None` = homogeneous
    /// cluster, the paper's assumption (§5). When set, the partitioner
    /// targets weight shares proportional to capacity and the cost model
    /// scales per-engine event processing accordingly.
    pub engine_capacities: Option<Vec<f64>>,
    /// Worker threads for the mapping pipeline (routing-table build,
    /// traffic accumulation, partitioner restarts). Defaults to
    /// [`Parallelism::available`]; every stage is bit-identical at every
    /// thread count, and `Parallelism::serial()` runs the exact
    /// single-threaded reference paths.
    pub parallelism: Parallelism,
    /// When the pipeline's routing table fills its rows: all up front
    /// (compressed, the default) or each on first lookup (lazy). Both
    /// answer every query bit-identically, so this only moves when the
    /// memory is paid. No caller sets it: it stays because `benchmark/`
    /// reads it, and goes when that crate reads the run report instead
    /// (ROADMAP item 2).
    pub routing: RoutingKind,
}

impl MapperConfig {
    /// Defaults for `engines` engines (p = 0.6).
    pub fn new(engines: usize) -> Self {
        Self {
            engines,
            latency_priority: 0.6,
            seed: 0x6a55e,
            include_memory: false,
            engine_capacities: None,
            parallelism: Parallelism::available(),
            routing: RoutingKind::default(),
        }
    }

    /// Builder: set heterogeneous engine capacities (length = engines).
    pub fn with_engine_capacities(mut self, capacities: Vec<f64>) -> Self {
        assert_eq!(capacities.len(), self.engines);
        self.engine_capacities = Some(capacities);
        self
    }

    /// Builder: set the partitioner seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the pipeline parallelism directly.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Each engine's relative capacity: [`MapperConfig::engine_capacities`],
    /// or 1.0 each on a homogeneous cluster.
    pub(crate) fn capacities(&self) -> Vec<f64> {
        let uniform = || vec![1.0; self.engines];
        self.engine_capacities.clone().unwrap_or_else(uniform)
    }

    /// The underlying partitioner configuration.
    pub fn partition_config(&self) -> massf_partition::PartitionConfig {
        let cfg = massf_partition::PartitionConfig::new(self.engines)
            .with_seed(self.seed)
            .with_ubfactor(UBFACTOR)
            .with_threads(self.parallelism);
        match &self.engine_capacities {
            Some(caps) => cfg.with_capacities(caps),
            None => cfg,
        }
    }
}
