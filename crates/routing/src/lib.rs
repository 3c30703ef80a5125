//! # massf-routing
//!
//! Routing substrate for the MaSSF reproduction: shortest-path routing
//! tables over the virtual network, traceroute-style path discovery (the
//! PLACE approach runs `traceroute` against the emulator to learn routes,
//! §3.2), and the paper's routing-table memory model
//! (`m = 10 + x²` for a router in an AS of `x` routers, §5).
//!
//! Routes are latency-weighted shortest paths (ties broken by hop count,
//! then node id), computed by per-source Dijkstra and stored once, as
//! interval-compressed rows over the router core (a degree-1 host keeps
//! only its uplink and ranks with its parent), which break the O(n²) wall
//! (DESIGN.md §13). [`RoutingKind`] only picks when the rows are
//! filled — all up front, or each on its first lookup. The paper's n × n
//! table survives as an analytic model in [`memory`] and as a test-only
//! oracle (`src/tables/oracle.rs`), never as a shipped data structure.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hierarchy;
mod interval;
pub mod memory;
pub mod probes;
pub mod spf;
pub mod tables;
pub mod traceroute;

pub use memory::{RunStats, SliceResidency};
pub use tables::{RoutingKind, RoutingTables};
