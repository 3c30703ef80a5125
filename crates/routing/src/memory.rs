//! The paper's memory-requirement model (§2.2.2, §5).
//!
//! "The memory requirement is mainly based on the routing table size. The
//! routing table size is in the order of O(n²), where n is the number of
//! routers in an AS." And from §5: "we use m = 10 + x·x as the memory
//! requirement for a router, where x is the size of an AS."
//!
//! Here that is a *model*: it weighs nodes for the partitioner and gives
//! the analytic baseline ([`DENSE_ENTRY_BYTES`], [`predicted_table_bytes`],
//! [`RoutingTables::dense_bytes`]) that the measured side — the interval
//! table's resident bytes and row/run census, below — is reported against.
//! No n × n matrix is allocated anywhere in the library.

use crate::interval::{Demand, Row, RUN_BYTES};
use crate::tables::RoutingTables;
use massf_topology::{Network, NodeId, NodeKind};

/// Bytes one `(src, dst)` entry of a flat matrix would occupy: a `u32`
/// next hop, a `u64` latency, and a `u32` next link.
pub const DENSE_ENTRY_BYTES: u64 = 16;

/// Memory weight of a single router in an AS of `as_size` routers:
/// `m = 10 + x²`.
#[inline]
pub fn router_memory_weight(as_size: usize) -> i64 {
    10 + (as_size as i64) * (as_size as i64)
}

/// Memory weight of a host. Hosts keep only a default route; the constant
/// matches the paper's additive base term.
#[inline]
pub fn host_memory_weight() -> i64 {
    10
}

/// Per-node memory weights for the whole network, in node-id order.
pub fn memory_weights(net: &Network) -> Vec<i64> {
    let as_sizes = net.as_router_sizes();
    net.nodes()
        .iter()
        .map(|n| match n.kind {
            NodeKind::Router => router_memory_weight(*as_sizes.get(&n.as_id).unwrap_or(&1)),
            NodeKind::Host => host_memory_weight(),
        })
        .collect()
}

/// Routing-table bytes the paper's model predicts for `net`: the summed
/// per-node memory weights (`10 + x²` per router, `10` per host — table
/// *entries* in the paper's units) times [`DENSE_ENTRY_BYTES`]. Reported
/// next to [`RoutingTables::table_bytes`] in `massf report` so predicted
/// and measured footprints sit side by side.
pub fn predicted_table_bytes(net: &Network) -> u64 {
    memory_weights(net).iter().sum::<i64>() as u64 * DENSE_ENTRY_BYTES
}

/// Row/run-shape statistics of the routing table, surfaced in run reports
/// and `bench_routing`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Rows stored as a two-word leaf record (degree-1 nodes sharing
    /// their uplink).
    pub leaf_rows: usize,
    /// Rows stored as runs — one per non-leaf source: a run names a link
    /// incident to its source, so no two sources ever share a row.
    pub unique_rows: usize,
    /// Total runs across all rows.
    pub runs_total: usize,
    /// Largest run count of any row.
    pub runs_max_per_row: usize,
    /// Mean run count per row (0.0 when there are none).
    pub runs_mean_per_row: f64,
}

/// One engine's share of a lazy table: the structural residency facts.
/// Deliberately excludes cumulative counters so the emulation report can
/// carry it and stay schedule-replay-stable (the model checker re-runs
/// interleavings against shared tables and compares reports bit-for-bit;
/// the materialized *set* converges under identical demand, lookup
/// *counts* accumulate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceResidency {
    /// Engine index.
    pub engine: usize,
    /// Sources the partition assigns to this engine.
    pub sources: usize,
    /// Of those, rows materialized on demand.
    pub rows_materialized: usize,
    /// Bytes resident for this slice: the per-source fixed share of the
    /// base arrays plus this slice's materialized run bytes.
    pub resident_bytes: u64,
}

/// Fixed bytes per source: rank + leaf record + row once-cell, plus the
/// demand state's share in an on-demand table.
fn base_bytes_per_source(t: &RoutingTables) -> u64 {
    use massf_topology::LinkId;
    use std::sync::OnceLock;
    let demand = t.demand.as_ref().map_or(0, |_| Demand::BYTES_PER_SOURCE);
    let fixed =
        4 + std::mem::size_of::<Option<(NodeId, LinkId)>>() + std::mem::size_of::<OnceLock<Row>>();
    fixed as u64 + demand
}

/// What a table holds right now: the one census behind every size
/// question.
struct Census {
    leaf_rows: usize,
    filled_rows: usize,
    runs_total: usize,
    runs_max_per_row: usize,
}

fn census(t: &RoutingTables) -> Census {
    let mut c = Census {
        leaf_rows: t.leaf.iter().flatten().count(),
        filled_rows: 0,
        runs_total: 0,
        runs_max_per_row: 0,
    };
    for row in t.rows.iter().filter_map(|cell| cell.get()) {
        c.filled_rows += 1;
        c.runs_total += row.len();
        c.runs_max_per_row = c.runs_max_per_row.max(row.len());
    }
    c
}

impl RoutingTables {
    /// Measured bytes of the table payload as actually *resident*: rank +
    /// leaf records + row slots + latency snapshot plus the runs filled so
    /// far, which for lazy tables is the honest demand-driven footprint
    /// (DESIGN.md §16).
    pub fn table_bytes(&self) -> u64 {
        base_bytes_per_source(self) * self.rows.len() as u64
            + 8 * self.link_latency_us.len() as u64
            + RUN_BYTES * census(self).runs_total as u64
    }

    /// Bytes a flat `n × n` matrix of these routes would occupy:
    /// `n² ×` [`DENSE_ENTRY_BYTES`]. The analytic compression baseline —
    /// nothing allocates it.
    pub fn dense_bytes(&self) -> u64 {
        let n = self.node_count() as u64;
        n * n * DENSE_ENTRY_BYTES
    }

    /// Row/run statistics of the rows filled so far (every row-storing
    /// source, unless the tables are lazy).
    pub fn run_stats(&self) -> RunStats {
        let c = census(self);
        RunStats {
            leaf_rows: c.leaf_rows,
            unique_rows: c.filled_rows,
            runs_total: c.runs_total,
            runs_max_per_row: c.runs_max_per_row,
            runs_mean_per_row: if c.filled_rows == 0 {
                0.0
            } else {
                c.runs_total as f64 / c.filled_rows as f64
            },
        }
    }

    /// Row lookups a lazy table has answered so far (every non-diagonal
    /// `entry`, including leaf delegations); `None` unless the tables are
    /// lazy. The mapping stages ask per query; the emulation asks once per
    /// (engine, route, hop) and pins the answer, and NetFlow walks a route
    /// per record an ACK opens: lookups follow routes and records, never
    /// packets. Each row materializes on one of them, so `lookups −
    /// run_stats().unique_rows` were served from a resident (or leaf) row.
    pub fn lookups(&self) -> Option<u64> {
        let d = self.demand.as_ref()?;
        Some(
            (0..self.rows.len() as NodeId)
                .map(|v| d.lookups_for(v))
                .sum(),
        )
    }

    /// Per-engine residency of a lazy table under `assignment`
    /// (`assignment[node]` = owning engine, `< nengines`); `None` unless
    /// the tables are lazy. Accounting keys off the *current* partition,
    /// so after a live migration the moved nodes' rows are charged to
    /// their destination engine — the invalidate-or-transfer ownership
    /// rule falls out of re-sampling (DESIGN.md §16).
    pub fn slice_residency(
        &self,
        assignment: &[u32],
        nengines: usize,
    ) -> Option<Vec<SliceResidency>> {
        self.demand.as_ref()?;
        debug_assert_eq!(assignment.len(), self.rows.len());
        let base = base_bytes_per_source(self);
        let mut out: Vec<SliceResidency> = (0..nengines)
            .map(|engine| SliceResidency {
                engine,
                sources: 0,
                rows_materialized: 0,
                resident_bytes: 0,
            })
            .collect();
        for (v, &e) in assignment.iter().enumerate() {
            let s = &mut out[e as usize];
            s.sources += 1;
            s.resident_bytes += base;
            if let Some(row) = self.rows[v].get() {
                s.rows_materialized += 1;
                s.resident_bytes += RUN_BYTES * row.len() as u64;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::campus::campus;
    use massf_topology::teragrid::teragrid;

    #[test]
    fn paper_formula() {
        assert_eq!(router_memory_weight(0), 10);
        assert_eq!(router_memory_weight(5), 35);
        assert_eq!(router_memory_weight(200), 40_010);
    }

    #[test]
    fn teragrid_weights() {
        let net = teragrid();
        let w = memory_weights(&net);
        // Node 0 is a hub in the 2-router backbone AS: 10 + 4.
        assert_eq!(w[0], 14);
        // Node 2 is a site gateway in a 5-router AS: 10 + 25.
        assert_eq!(w[2], 35);
        // Hosts get the base weight.
        let host = net.hosts()[0];
        assert_eq!(w[host as usize], 10);
    }

    #[test]
    fn quadratic_growth_dominates_at_scale() {
        // The paper's stated limit: ~200 routers in one AS exhausts memory.
        let small = router_memory_weight(20);
        let large = router_memory_weight(200);
        assert!(large > 90 * small);
    }

    #[test]
    fn dense_bytes_are_the_matrix_size() {
        let net = campus();
        let n = net.node_count() as u64;
        for t in [RoutingTables::build(&net), RoutingTables::build_lazy(&net)] {
            assert_eq!(t.dense_bytes(), n * n * DENSE_ENTRY_BYTES);
        }
    }

    #[test]
    fn compressed_tables_beat_dense_bytes() {
        for net in [campus(), teragrid()] {
            let t = RoutingTables::build(&net);
            assert!(
                t.table_bytes() * 5 < t.dense_bytes(),
                "only {}x reduction on {} nodes",
                t.dense_bytes() / t.table_bytes().max(1),
                net.node_count()
            );
            let s = t.run_stats();
            assert!(s.leaf_rows > 0, "both fixtures have degree-1 hosts");
            assert_eq!(s.runs_total, s.runs_total.max(s.runs_max_per_row));
            assert!(s.runs_mean_per_row >= 1.0);
            assert!(
                s.leaf_rows + s.unique_rows == net.node_count(),
                "row classes must partition the sources"
            );
        }
    }

    #[test]
    fn lazy_resident_bytes_grow_with_demand() {
        let net = teragrid();
        let t = RoutingTables::build_lazy(&net);
        let empty = t.table_bytes();
        assert_eq!(t.lookups(), Some(0));
        assert_eq!(t.run_stats().unique_rows, 0, "nothing filled yet");

        let dst = net.node_count() as u32 - 1;
        let _ = t.path(0, dst).expect("teragrid connected");
        let s1 = t.run_stats();
        assert!(s1.unique_rows > 0);
        assert!(t.table_bytes() > empty, "demand must grow residency");
        assert!(t.lookups().unwrap() >= s1.unique_rows as u64);
        assert!(
            t.table_bytes() < RoutingTables::build(&net).table_bytes() + empty,
            "a few rows must stay far below the full eager pool plus base"
        );
        assert_eq!(RoutingTables::build(&net).lookups(), None);
    }

    #[test]
    fn slice_residency_partitions_the_total() {
        let net = campus();
        let t = RoutingTables::build_lazy(&net);
        // Exercise some demand from a few sources.
        let hosts = net.hosts();
        for &h in hosts.iter().take(4) {
            let _ = t.path(h, hosts[hosts.len() - 1]);
        }
        // Split nodes across 3 engines round-robin.
        let assignment: Vec<u32> = (0..net.node_count() as u32).map(|v| v % 3).collect();
        let slices = t.slice_residency(&assignment, 3).expect("lazy slices");
        assert_eq!(slices.len(), 3);
        assert_eq!(
            slices.iter().map(|s| s.sources).sum::<usize>(),
            net.node_count()
        );
        assert_eq!(
            slices.iter().map(|s| s.rows_materialized).sum::<usize>(),
            t.run_stats().unique_rows
        );
        // Per-slice resident bytes sum to the table total minus the
        // latency snapshot (shared, charged to no single engine).
        let sliced: u64 = slices.iter().map(|s| s.resident_bytes).sum();
        assert_eq!(sliced + 8 * net.links().len() as u64, t.table_bytes());
        // Prefilled tables have no slices.
        assert_eq!(
            RoutingTables::build(&net).slice_residency(&assignment, 3),
            None
        );
    }

    #[test]
    fn predicted_bytes_follow_the_paper_model() {
        let net = teragrid();
        let entries: i64 = memory_weights(&net).iter().sum();
        assert_eq!(
            predicted_table_bytes(&net),
            entries as u64 * DENSE_ENTRY_BYTES
        );
    }
}
