//! # massf-routing
//!
//! Routing substrate for the MaSSF reproduction: shortest-path routing
//! tables over the virtual network, traceroute-style path discovery (the
//! PLACE approach runs `traceroute` against the emulator to learn routes,
//! §3.2), and the paper's routing-table memory model
//! (`m = 10 + x²` for a router in an AS of `x` routers, §5).
//!
//! Routes are latency-weighted shortest paths (ties broken by hop count,
//! then node id), computed by per-source Dijkstra. Two storage
//! representations answer the same queries bit-identically
//! ([`RoutingKind`]): dense `n × n` next-hop tables — the paper's
//! memory model verbatim — and interval-compressed rows with shared
//! host rows, which break the O(n²) wall (DESIGN.md §13).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hierarchy;
mod interval;
pub mod memory;
pub mod probes;
pub mod spf;
pub mod tables;
pub mod traceroute;

pub use memory::{LazyStats, RunStats, SliceResidency, SliceStats};
pub use tables::{LatenciesTo, RoutingKind, RoutingTables};
