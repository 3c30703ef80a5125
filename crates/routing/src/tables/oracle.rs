//! The n × n reference the routing tables are checked against: one plain
//! Dijkstra tree per source written into flat matrices — what the dense
//! representation was before the interval table became the only one.
//!
//! Never part of the library. `tables.rs` mounts it under `#[cfg(test)]`;
//! `tests/prop_compressed.rs`, `tests/prop_lazy.rs` and `massf-bench`'s
//! `bench_routing` row mount this same file with `#[path]`, so there is
//! one oracle. Its names come from the module that mounts it.

use super::{shortest_paths, LinkId, Network, NodeId, RoutingTables};

/// `next_hop[src * n + dst]` (`NodeId::MAX` on the diagonal and where
/// unreachable) and `latency_us[src * n + dst]` (`u64::MAX` where
/// unreachable), straight from `shortest_paths(net, src)`.
pub struct Oracle<'n> {
    net: &'n Network,
    n: usize,
    next_hop: Vec<NodeId>,
    latency_us: Vec<u64>,
}

impl<'n> Oracle<'n> {
    pub fn build(net: &'n Network) -> Self {
        let n = net.node_count();
        let (mut next_hop, mut latency_us) = (Vec::new(), Vec::new());
        for src in 0..n as NodeId {
            let tree = shortest_paths(net, src);
            next_hop.extend(tree.first_hops());
            latency_us.extend(tree.dist_us);
        }
        Self {
            net,
            n,
            next_hop,
            latency_us,
        }
    }

    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let hop = self.next_hop[src as usize * self.n + dst as usize];
        (hop != NodeId::MAX).then_some(hop)
    }

    pub fn next_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        let hop = self.next_hop(src, dst)?;
        Some(self.net.link_between(src, hop).expect("hops are adjacent"))
    }

    pub fn latency_us(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let lat = self.latency_us[src as usize * self.n + dst as usize];
        (lat != u64::MAX).then_some(lat)
    }

    /// What `for_each_hop(src, dst, ..)` must visit, following the matrix
    /// hop by hop; `None` when `dst` is unreachable.
    pub fn visits(&self, src: NodeId, dst: NodeId) -> Option<Vec<(NodeId, Option<LinkId>)>> {
        self.latency_us(src, dst)?;
        let mut out = Vec::new();
        let mut cur = src;
        while cur != dst {
            out.push((cur, self.next_link(cur, dst)));
            cur = self
                .next_hop(cur, dst)
                .expect("prefix routes are consistent");
            assert!(out.len() <= self.n, "routing loop {src} -> {dst}");
        }
        out.push((dst, None));
        Some(out)
    }

    /// Every query of the public API on every ordered pair: next hop, next
    /// link (both the `Option` and raw forms), latency, and the hop-visitor
    /// trace (which also covers `path`/`path_links`).
    pub fn assert_answers(&self, tables: &RoutingTables, what: &str) {
        assert_eq!(tables.node_count(), self.n, "{what}: node count");
        for a in 0..self.n as NodeId {
            for b in 0..self.n as NodeId {
                let link = self.next_link(a, b);
                assert_eq!(
                    tables.next_hop(a, b),
                    self.next_hop(a, b),
                    "{what}: hop {a}->{b}"
                );
                assert_eq!(tables.next_link(a, b), link, "{what}: link {a}->{b}");
                assert_eq!(
                    tables.next_link_raw(a, b),
                    link.unwrap_or(RoutingTables::NO_ROUTE),
                    "{what}: raw link {a}->{b}"
                );
                assert_eq!(
                    tables.latency_us(a, b),
                    self.latency_us(a, b),
                    "{what}: latency {a}->{b}"
                );
                let mut seen = Vec::new();
                let reached = tables.for_each_hop(a, b, |node, link| seen.push((node, link)));
                // Unreachable means `false` and no visit at all.
                let want = self.visits(a, b);
                assert_eq!(reached, want.is_some(), "{what}: reachability {a}->{b}");
                assert_eq!(seen, want.unwrap_or_default(), "{what}: visits {a}->{b}");
            }
        }
    }
}
