//! The n × n reference the routing tables are checked against: one plain
//! Dijkstra tree per source written into flat matrices — what the dense
//! representation was before the interval table became the only one.
//!
//! Never part of the library. `tables.rs` mounts it under `#[cfg(test)]`;
//! `tests/prop_compressed.rs`, `tests/prop_lazy.rs` and `massf-bench`'s
//! `bench_routing` row mount this same file with `#[path]`, so there is
//! one oracle. Its names come from the module that mounts it.

use super::{LinkId, Network, NodeId, RoutingTables, SpfTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dijkstra from `source` in its textbook form: every node it reaches is
/// queued and settled, leaves included, where `SpfScratch::run` runs on
/// the router core alone and a leaf takes its parent's route. Same
/// `(latency, hops, node id)` tie-break, so the two must agree on every
/// dist, hop count and predecessor — and "tables ≡ oracle" compares two
/// independent Dijkstras.
pub fn plain_tree(net: &Network, source: NodeId) -> SpfTree {
    let n = net.node_count();
    let mut t = SpfTree {
        source,
        dist_us: vec![u64::MAX; n],
        hops: vec![u32::MAX; n],
        prev: vec![NodeId::MAX; n],
    };
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::from([Reverse((0u64, 0u32, source))]);
    (t.dist_us[source as usize], t.hops[source as usize]) = (0, 0);
    while let Some(Reverse((d, h, v))) = heap.pop() {
        if std::mem::replace(&mut done[v as usize], true) {
            continue;
        }
        for &(u, l) in net.neighbors(v) {
            let (nd, nh, i) = (d + net.link(l).latency_us, h + 1, u as usize);
            if !done[i] && (nd, nh, v) < (t.dist_us[i], t.hops[i], t.prev[i]) {
                (t.dist_us[i], t.hops[i], t.prev[i]) = (nd, nh, v);
                heap.push(Reverse((nd, nh, u)));
            }
        }
    }
    t
}

/// `next_hop[src * n + dst]` (`NodeId::MAX` on the diagonal and where
/// unreachable) and `latency_us[src * n + dst]` (`u64::MAX` where
/// unreachable), straight from `plain_tree(net, src)`.
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
            let tree = plain_tree(net, src);
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
