//! The pairwise reference the probes are checked against: one
//! `latency_us` chain walk per ordered pair, and again per neighbour —
//! what the probes were before they read latency columns.
//!
//! Never part of the library. `probes.rs` mounts it under `#[cfg(test)]`;
//! `tests/prop_probes.rs` and `massf-bench`'s `bench_routing` row mount
//! this same file with `#[path]`, so there is one oracle. Its names come
//! from the module that mounts it.

use super::{AsymmetricPair, EcmpSite, Network, NodeId, RoutingTables};

/// Shortest-path latency via the public API, with unreachable/self folded
/// to the sentinel convention the probes compare against.
fn lat(tables: &RoutingTables, src: NodeId, dst: NodeId) -> u64 {
    if src == dst {
        return 0;
    }
    tables.latency_us(src, dst).unwrap_or(u64::MAX)
}

/// Reference for `probes::sweep(..).asymmetric`.
pub fn asymmetric_latencies(tables: &RoutingTables, cap: usize) -> (Vec<AsymmetricPair>, usize) {
    let n = tables.node_count();
    let mut out = Vec::new();
    let mut total = 0usize;
    for a in 0..n as NodeId {
        for b in (a + 1)..n as NodeId {
            let ab = lat(tables, a, b);
            let ba = lat(tables, b, a);
            if ab != ba {
                total += 1;
                if out.len() < cap {
                    out.push(AsymmetricPair {
                        a,
                        b,
                        ab_us: ab,
                        ba_us: ba,
                    });
                }
            }
        }
    }
    (out, total)
}

/// Reference for `probes::sweep(..).ecmp`.
pub fn ecmp_sites(net: &Network, tables: &RoutingTables, cap: usize) -> (Vec<EcmpSite>, usize) {
    let n = tables.node_count();
    let mut out = Vec::new();
    let mut total = 0usize;
    let mut hops = Vec::new();
    for src in 0..n as NodeId {
        for dst in 0..n as NodeId {
            let dist = lat(tables, src, dst);
            if src == dst || dist == u64::MAX {
                continue;
            }
            hops.clear();
            for &(v, l) in net.neighbors(src) {
                let via = net.link(l).latency_us;
                let rest = lat(tables, v, dst);
                if rest != u64::MAX && via.saturating_add(rest) == dist {
                    hops.push(v);
                }
            }
            if hops.len() >= 2 {
                total += 1;
                if out.len() < cap {
                    hops.sort_unstable();
                    out.push(EcmpSite {
                        src,
                        dst,
                        next_hops: hops.clone(),
                    });
                }
            }
        }
    }
    (out, total)
}
