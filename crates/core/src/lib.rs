//! # massf-core
//!
//! Facade over the MaSSF reproduction stack (Liu & Chien, SC 2003,
//! "Traffic-based Load Balance for Scalable Network Emulation").
//!
//! ```
//! use massf_core::prelude::*;
//!
//! // The paper's Campus/ScaLapack experiment, scaled down for a doctest.
//! let scenario = Scenario::new(Topology::Campus, Workload::Scalapack).with_scale(0.1);
//! let built = scenario.build();
//! let result = built.run_approach(Approach::Profile);
//! assert!(result.load_imbalance >= 0.0);
//! ```
//!
//! Layers (one crate each, re-exported here):
//!
//! * [`massf_graph`] — CSR graph substrate;
//! * [`massf_partition`] — multilevel k-way partitioner (METIS substitute);
//! * [`massf_topology`] — network model + Campus/TeraGrid/BRITE generators;
//! * [`massf_routing`] — shortest-path tables, traceroute, memory model;
//! * [`massf_traffic`] — HTTP background + ScaLapack/GridNPB foreground;
//! * [`massf_engine`] — conservative parallel DES emulator with NetFlow;
//! * [`massf_mapping`] — the TOP / PLACE / PROFILE mapping approaches;
//! * [`massf_metrics`] — load-imbalance metrics and report tables;
//! * [`massf_obs`] — deterministic telemetry and the versioned run report.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audit;
pub mod experiment;
pub mod scenario;

pub use massf_engine as engine;
pub use massf_graph as graph;
pub use massf_mapping as mapping;
pub use massf_metrics as metrics;
pub use massf_obs as obs;
pub use massf_partition as partition;
pub use massf_routing as routing;
pub use massf_topology as topology;
pub use massf_traffic as traffic;

pub use experiment::{ApproachResult, ExperimentRun};
pub use scenario::{BuiltScenario, Scenario, Topology, Workload};

/// The common imports for examples and benches.
pub mod prelude {
    pub use crate::experiment::{ApproachResult, ExperimentRun};
    pub use crate::scenario::{BuiltScenario, Scenario, Topology, Workload};
    pub use massf_engine::{CostModel, EmulationConfig, EmulationReport};
    pub use massf_mapping::{
        Approach, IncrementalConfig, IncrementalOutcome, MapperConfig, MappingStudy, Parallelism,
        RebalanceMode, RoutingKind,
    };
    pub use massf_metrics::{improvement_pct, load_imbalance};
    pub use massf_obs::{report::RunReport, Recorder};
    pub use massf_partition::{partition_kway, PartitionConfig, Partitioning};
    pub use massf_topology::Network;
    pub use massf_traffic::{FlowSpec, PredictedFlow};
}
