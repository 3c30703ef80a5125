//! The interval rows behind [`RoutingTables`] — the representation that
//! breaks the paper's O(n²) routing-table wall (DESIGN.md §13, §16): the
//! row encoding, the destination renumbering and the lookups every query
//! goes through. One structure, two fill policies:
//! [`RoutingTables::build_with`] encodes every row up front
//! (`RoutingKind::Compressed`), [`RoutingTables::build_lazy`] keeps the
//! encode inputs and fills a row on its first lookup (`RoutingKind::Lazy`).
//!
//! Two ideas compose:
//!
//! 1. **Run-length rows.** Destinations are renumbered so that nodes
//!    reached through the same egress sit next to each other
//!    ([`renumber`]: AS-grouped BFS order). A source's row then collapses
//!    to a handful of `(start_rank, next_hop, next_link)` runs ([`Row`]);
//!    lookup is an O(log runs) binary search.
//! 2. **Rows over the router core.** A degree-1 node (the common case: a
//!    host on its access router) is a leaf (`RoutingTables::leaf`), as the
//!    paper's hosts keep only a default route (§2.2.2). As a source it
//!    stores two words instead of a row: it routes *everything* over its
//!    uplink and reaches what its parent reaches. As a destination it has
//!    no column: it shares its parent's rank, the parent reaches it over
//!    the uplink and every other source the way it reaches the parent.
//!    Both are what a full row and column would have said under every
//!    builder, since every route to or from a leaf passes its parent, and
//!    `dist(h, d) = uplink + dist(parent, d)`. Rows therefore cover the
//!    core alone, O(routers²) as the paper sizes them.
//!
//! No two sources share a row: a run names the link `src → hop`, which is
//! incident to `src`, so rows of distinct sources differ as soon as either
//! reaches anything. Each row is therefore a pure function of
//! `(net, src, order)` held in its own once-cell, and the structure a
//! lookup observes is the same whichever policy filled it, in whatever
//! order, on however many threads; a race's loser is discarded, never
//! observed.
//!
//! Latencies are not stored per pair: a query walks the next-hop chain and
//! sums per-link latencies from a snapshot, which reproduces the Dijkstra
//! distance exactly (it *is* the sum of the links on that chain).
//! The audit's probes, which want every latency toward every core node,
//! read each row once per rank range of destinations instead
//! (`RoutingTables::row_entries`) and climb the columns from there.
//!
//! **Slicing.** A partitioned emulation only queries `entry(src, ·)` for
//! sources the querying engine owns (once per route reaching them), so an
//! on-demand table's filled set — and therefore resident bytes — follows
//! each engine's slice of the network for free. The one cross-slice exception is a leaf whose access
//! router lives on another engine: the leaf delegates to the parent's row,
//! filling it on the parent's behalf. That is still deterministic (same
//! demand set regardless of schedule) and is accounted to the row's owner
//! by `memory::slice_residency`.

use crate::spf::{SpfScratch, NO_PREV};
use crate::tables::{link_toward, RoutingTables, NO_LINK};
use massf_topology::{LinkId, Network, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bytes one run occupies in a [`Row`]: start rank, next hop, next link.
pub(crate) const RUN_BYTES: u64 = 12;

/// One source's encoded row: run `i` covers the destination ranks from
/// `start[i]` up to the next run's start (or the end of the row) and
/// leaves the source over `(hop[i], link[i])`; `hop == NodeId::MAX`
/// encodes an unreachable stretch. One allocation laid out
/// `starts | hops | links`, so the binary search stays cache-dense.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Row(Box<[u32]>);

impl Row {
    /// Number of runs.
    pub(crate) fn len(&self) -> usize {
        self.0.len() / 3
    }

    /// The run covering destination rank `r`.
    #[inline]
    fn lookup(&self, r: u32) -> (NodeId, LinkId) {
        let k = self.len();
        // Last run starting at or before rank r. The row covers every
        // core rank but the source's own, and callers answer that rank
        // (the diagonal, the source's leaves) before asking, so the search
        // never lands before the first run.
        let i = self.0[..k].partition_point(|&s| s <= r) - 1;
        (self.0[k + i], LinkId(self.0[2 * k + i]))
    }
}

/// What an on-demand table keeps to encode a row later, plus its demand
/// telemetry. A prefilled table carries none of it.
#[derive(Debug)]
pub(crate) struct Demand {
    /// Topology snapshot rows are encoded against.
    pub(crate) net: Network,
    /// The renumbered node order; its core is the rows' column order.
    pub(crate) order: Vec<NodeId>,
    /// Per-source lookup counters (relaxed; totals are deterministic
    /// because the demand multiset — one lookup per engine, route and
    /// owned hop, plus the mapping stages' queries — is fixed by the flow
    /// schedule and the partition, not the thread interleaving).
    pub(crate) lookups: Vec<AtomicU64>,
}

impl Demand {
    /// Fixed bytes per source: order entry + lookup counter. The topology
    /// snapshot is excluded from routing-byte accounting throughout — it
    /// is emulation state every build reads, not routing structure.
    pub(crate) const BYTES_PER_SOURCE: u64 = 4 + 8;

    /// Lookups charged to `src` so far.
    pub(crate) fn lookups_for(&self, src: NodeId) -> u64 {
        self.lookups[src as usize].load(Ordering::Relaxed)
    }
}

/// Destination order that maximizes run coalescing: ASes in ascending id
/// order; inside each AS a BFS over intra-AS links from the lowest-id
/// member, visiting neighbours in ascending node id. Hosts land directly
/// after their access router and whole subtrees stay contiguous, so a
/// distant source covers them with one run. Deterministic by construction.
pub(crate) fn renumber(net: &Network) -> Vec<NodeId> {
    let n = net.node_count();
    let mut by_as: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for node in net.nodes() {
        by_as.entry(node.as_id).or_default().push(node.id);
    }
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for (as_id, members) in &by_as {
        // Members arrive in ascending id (node iteration order), so each
        // connected component roots at its lowest id.
        for &root in members {
            if seen[root as usize] {
                continue;
            }
            seen[root as usize] = true;
            queue.push_back(root);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                let mut next: Vec<NodeId> = net
                    .neighbors(v)
                    .iter()
                    .map(|&(u, _)| u)
                    .filter(|&u| net.node(u).as_id == *as_id && !seen[u as usize])
                    .collect();
                next.sort_unstable();
                next.dedup();
                for u in next {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

impl RoutingTables {
    /// A table over `net` with every row slot empty and no encode inputs;
    /// the caller installs each row through [`install`](Self::install).
    /// Every [`Network::leaf_uplink`] leaf stores a leaf record and never a
    /// row. A leaf's parent is never a leaf, so a leaf delegates at most
    /// once. The core (every other node) is ranked in `order`; a leaf
    /// takes its parent's rank, so no row has a column of its own for it.
    pub(crate) fn empty(net: &Network, order: &[NodeId]) -> Self {
        let leaf: Vec<_> = (0..order.len() as NodeId)
            .map(|v| net.leaf_uplink(v))
            .collect();
        let mut rank = vec![0u32; order.len()];
        let core = order.iter().filter(|&&v| leaf[v as usize].is_none());
        for (pos, &v) in core.enumerate() {
            rank[v as usize] = pos as u32;
        }
        for (h, &up) in leaf.iter().enumerate() {
            if let Some((p, _)) = up {
                rank[h] = rank[p as usize];
            }
        }
        Self {
            rank,
            leaf,
            rows: order.iter().map(|_| OnceLock::new()).collect(),
            link_latency_us: net.links().iter().map(|l| l.latency_us).collect(),
            demand: None,
        }
    }

    /// Run-length-encodes `src`'s row: `route(dst)` for every core `dst`
    /// but `src` in `order`, each run starting at its first destination's
    /// rank. Neither the diagonal nor a leaf (which ranks with its parent)
    /// has a column, so neither splits a run: [`entry`](Self::entry)
    /// answers the diagonal and `run_entry` a leaf of `src` before any run
    /// is consulted.
    pub(crate) fn encode(
        &self,
        order: &[NodeId],
        src: NodeId,
        mut route: impl FnMut(NodeId) -> (NodeId, LinkId),
    ) -> Row {
        let mut runs: Vec<(u32, NodeId, LinkId)> = Vec::new();
        for &dst in order
            .iter()
            .filter(|&&d| d != src && self.leaf[d as usize].is_none())
        {
            let (hop, link) = route(dst);
            if runs.last().is_none_or(|r| (r.1, r.2) != (hop, link)) {
                runs.push((self.rank[dst as usize], hop, link));
            }
        }
        let starts = runs.iter().map(|r| r.0);
        let hops = runs.iter().map(|r| r.1);
        let links = runs.iter().map(|r| r.2 .0);
        Row(starts.chain(hops).chain(links).collect())
    }

    /// Encodes the full-SPF row for `src`: one Dijkstra run into the
    /// caller's reusable `scratch`, first hops in one pass, then
    /// [`encode`](Self::encode) over `order`. Unreachable stretches encode
    /// as `(NodeId::MAX, NO_LINK)` runs.
    pub(crate) fn encode_spf_row(
        &self,
        net: &Network,
        src: NodeId,
        order: &[NodeId],
        scratch: &mut SpfScratch,
    ) -> Row {
        scratch.run(net, src);
        let first = scratch.first_hops();
        let mut memo: Vec<(NodeId, LinkId)> = Vec::new();
        self.encode(order, src, |dst| match first[dst as usize] {
            NO_PREV => (NodeId::MAX, NO_LINK),
            hop => (hop, link_toward(net, src, hop, &mut memo)),
        })
    }

    /// Installs `src`'s row.
    ///
    /// # Panics
    /// Panics if `src` is a leaf or its row is already installed.
    pub(crate) fn install(&self, src: NodeId, row: Row) {
        assert!(
            self.leaf[src as usize].is_none(),
            "leaf {src} stores no row"
        );
        let fresh = self.rows[src as usize].set(row).is_ok();
        assert!(fresh, "row {src} installed twice");
    }

    /// Counts one lookup on `src` — on-demand tables only, so a prefilled
    /// table's hot path carries no atomic.
    #[inline]
    fn count(&self, src: NodeId) {
        if let Some(d) = &self.demand {
            d.lookups[src as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `src`'s row, filled first if this is its first demand. The winner
    /// of a race encodes; losers observe the winner's row — and every
    /// encoding of the same row is bit-identical anyway.
    #[inline]
    fn row(&self, src: NodeId) -> &Row {
        self.rows[src as usize].get_or_init(|| {
            let d = self
                .demand
                .as_ref()
                .expect("a table without encode inputs has every row installed");
            self.encode_spf_row(&d.net, src, &d.order, &mut SpfScratch::new())
        })
    }

    /// The non-leaf `src`'s entry toward `dst`, counted as one lookup
    /// (which fills the row if it is the first). A leaf of `src` is
    /// reached over its uplink; any other leaf the way its parent is,
    /// whose rank it shares.
    #[inline]
    fn run_entry(&self, src: NodeId, dst: NodeId) -> (NodeId, LinkId) {
        self.count(src);
        let row = self.row(src);
        match self.leaf[dst as usize] {
            Some((p, uplink)) if p == src => (dst, uplink),
            _ => row.lookup(self.rank[dst as usize]),
        }
    }

    /// Non-leaf `src`'s entries toward the ascending `ranks`, passed to
    /// `f` with their index: one binary search, then a walk over the
    /// runs. Counted and filled as one [`entry`](Self::entry) lookup;
    /// `src`'s own rank gets a neighbouring run's answer.
    pub(crate) fn row_entries(
        &self,
        src: NodeId,
        ranks: &[u32],
        mut f: impl FnMut(usize, (NodeId, LinkId)),
    ) {
        self.count(src);
        let row = self.row(src);
        let (starts, rest) = row.0.split_at(row.len());
        let (hops, links) = rest.split_at(row.len());
        let Some(&first) = ranks.first().filter(|_| !starts.is_empty()) else {
            return; // a one-node network's row holds nothing but the diagonal
        };
        let mut i = starts.partition_point(|&s| s <= first).saturating_sub(1);
        for (at, &r) in ranks.iter().enumerate() {
            while starts.get(i + 1).is_some_and(|&s| s <= r) {
                i += 1;
            }
            f(at, (hops[i], LinkId(links[i])));
        }
    }

    /// `(next_hop, next_link)` from `src` toward `dst`;
    /// `(NodeId::MAX, NO_LINK)` when `src == dst` or unreachable.
    #[inline]
    pub(crate) fn entry(&self, src: NodeId, dst: NodeId) -> (NodeId, LinkId) {
        if src == dst {
            return (NodeId::MAX, NO_LINK);
        }
        let Some(uplink) = self.leaf[src as usize] else {
            return self.run_entry(src, dst);
        };
        self.count(src);
        // Reachable from a leaf iff the parent is the destination or the
        // parent (never a leaf) reaches it. Asking counts a lookup on — and
        // may fill — the parent's row; that demand is part of routing for
        // this leaf.
        let parent = uplink.0;
        if parent != dst && self.run_entry(parent, dst).0 == NodeId::MAX {
            return (NodeId::MAX, NO_LINK);
        }
        uplink
    }

    /// The one chain walk: calls `f(node, link)` for every node of the
    /// routed path `src → dst` except `dst`, with the link it leaves over.
    /// Returns `false` when `dst` is unreachable. Every builder produces
    /// consistent prefix routes, so the first lookup settles that before
    /// `f` is ever called; a hand-installed row that dead-ends mid-path
    /// also answers `false`, after `f` has seen the nodes before it.
    #[inline]
    pub(crate) fn walk<F: FnMut(NodeId, LinkId)>(
        &self,
        src: NodeId,
        dst: NodeId,
        mut f: F,
    ) -> bool {
        let mut cur = src;
        let mut hops = 0usize;
        while cur != dst {
            let (hop, link) = self.entry(cur, dst);
            if hop == NodeId::MAX {
                return false;
            }
            f(cur, link);
            cur = hop;
            hops += 1;
            debug_assert!(hops <= self.rows.len(), "routing loop {src} -> {dst}");
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::campus::campus;
    use massf_topology::teragrid::teragrid;

    fn is_filled(t: &RoutingTables, v: NodeId) -> bool {
        t.rows[v as usize].get().is_some()
    }

    fn is_leaf(t: &RoutingTables, v: NodeId) -> bool {
        t.leaf[v as usize].is_some()
    }

    #[test]
    fn renumber_is_a_permutation_grouped_by_as() {
        for net in [campus(), teragrid()] {
            let order = renumber(&net);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), net.node_count(), "not a permutation");
            // AS blocks are contiguous: the AS id sequence never revisits
            // an earlier AS.
            let as_seq: Vec<u32> = order.iter().map(|&v| net.node(v).as_id).collect();
            let mut seen = std::collections::HashSet::new();
            let mut last = None;
            for a in as_seq {
                if Some(a) != last {
                    assert!(seen.insert(a), "AS {a} split into two blocks");
                    last = Some(a);
                }
            }
        }
    }

    #[test]
    fn hosts_are_leaves_on_campus() {
        let net = campus();
        let t = RoutingTables::build(&net);
        for h in net.hosts() {
            assert!(
                is_leaf(&t, h),
                "host {h} should share its access router's uplink"
            );
        }
    }

    #[test]
    fn runs_stay_far_below_dense_entries() {
        let net = teragrid();
        let t = RoutingTables::build(&net);
        let n = net.node_count();
        let runs: usize = t.rows.iter().filter_map(OnceLock::get).map(Row::len).sum();
        assert!(runs * 10 < n * n, "{runs} runs vs {} dense entries", n * n);
    }

    #[test]
    fn two_node_island_routes_between_its_ends() {
        // Both ends are degree 1, so neither is a leaf (the parent guard):
        // the pair must still route to each other and nowhere else.
        let mut net = campus();
        let a = net.add_router("island-a", 99);
        let b = net.add_router("island-b", 99);
        net.add_link(a, b, 100.0, 5);
        let t = RoutingTables::build(&net);
        assert_eq!(t.entry(a, b), (b, net.link_between(a, b).unwrap()));
        assert_eq!(t.entry(b, a).0, a);
        assert_eq!(t.latency_us(a, b), Some(5));
        assert_eq!(t.entry(a, 0).0, NodeId::MAX, "mainland unreachable");
        assert_eq!(t.entry(0, a).0, NodeId::MAX);
        assert_eq!(t.latency_us(0, a), None);
    }

    #[test]
    fn nothing_fills_until_demand() {
        let net = campus();
        let t = RoutingTables::build_lazy(&net);
        let n = net.node_count() as NodeId;
        assert!((0..n).all(|v| !is_filled(&t, v)));
        let d = t.demand.as_ref().unwrap();
        assert!((0..n).all(|v| d.lookups_for(v) == 0));
    }

    #[test]
    fn demand_fills_exactly_the_queried_rows() {
        let net = teragrid();
        let t = RoutingTables::build_lazy(&net);
        let (src, dst) = (0, net.node_count() as NodeId - 1);
        let eager = RoutingTables::build(&net);
        assert_eq!(t.entry(src, dst), eager.entry(src, dst));
        assert_eq!(t.latency_us(src, dst), eager.latency_us(src, dst));
        assert!(is_filled(&t, src) || is_leaf(&t, src));
        // Only rows on the walked chain (plus leaf parents) exist.
        let resident = (0..net.node_count() as NodeId)
            .filter(|&v| is_filled(&t, v))
            .count();
        assert!(
            resident < net.node_count() / 2,
            "{resident} rows resident after one pair"
        );
    }

    #[test]
    fn leaf_sources_never_own_a_row() {
        let net = campus();
        let t = RoutingTables::build_lazy(&net);
        let h = net.hosts()[0];
        let parent = t.leaf[h as usize].expect("hosts are leaves").0;
        let _ = t.entry(h, 0);
        assert!(!is_filled(&t, h), "leaf delegated, no row of its own");
        assert!(is_filled(&t, parent), "delegation filled the parent");
    }

    #[test]
    fn lookup_counters_track_demand() {
        let net = campus();
        let t = RoutingTables::build_lazy(&net);
        let d = t.demand.as_ref().unwrap();
        let h = net.hosts()[0];
        let parent = t.leaf[h as usize].expect("hosts are leaves").0;
        let _ = t.entry(h, 0);
        // One lookup on the leaf, one delegated to the parent.
        assert_eq!(d.lookups_for(h), 1);
        assert_eq!(d.lookups_for(parent), 1);
        let _ = t.entry(h, h);
        assert_eq!(d.lookups_for(h), 1, "diagonal is not a lookup");
    }
}
