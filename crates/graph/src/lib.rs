//! # massf-graph
//!
//! Compressed-sparse-row weighted graph substrate for the MaSSF
//! network-mapping reproduction (Liu & Chien, SC 2003).
//!
//! The paper models the emulated network as an undirected graph whose
//! vertices carry one or more balance weights (computation, memory, one
//! weight per profiled emulation phase) and whose edges carry a single
//! objective weight (latency- or traffic-derived). This crate provides that
//! graph: construction, validation, traversal, and the subgraph machinery
//! the multilevel partitioner needs.
//!
//! Vertices are dense `u32` ids. Multi-constraint vertex weights are stored
//! as a flattened row-major `[nvtxs * ncon]` array, mirroring the METIS
//! calling convention the paper relies on.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// CSR-style code indexes several parallel arrays with one counter; the
// iterator rewrites clippy suggests are less clear there.
#![allow(clippy::needless_range_loop)]

pub mod builder;
pub mod connectivity;
pub mod csr;
pub mod subgraph;
pub mod traversal;
pub mod validate;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;

/// Dense vertex identifier.
pub type VertexId = u32;

/// Weight type used for both vertex (constraint) and edge (objective)
/// weights. Signed so that refinement gain arithmetic cannot underflow.
pub type Weight = i64;

/// Errors produced while building or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex id `>= nvtxs`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices in the graph.
        nvtxs: usize,
    },
    /// A self-loop was supplied; the partitioning model forbids them.
    SelfLoop(VertexId),
    /// A negative weight was supplied.
    NegativeWeight,
    /// CSR structure is internally inconsistent (validation failure).
    Corrupt(&'static str),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, nvtxs } => {
                write!(f, "vertex {vertex} out of range (nvtxs = {nvtxs})")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v}"),
            GraphError::NegativeWeight => write!(f, "negative weight"),
            GraphError::Corrupt(msg) => write!(f, "corrupt graph: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}
