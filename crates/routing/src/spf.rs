//! Per-source Dijkstra shortest-path-first computation over the router
//! core.
//!
//! Routes are computed between core nodes only — every node without a
//! [`Network::leaf_uplink`] leaf record (DESIGN.md §13). A simple path
//! never passes through a degree-1 node, so every path between two core
//! nodes stays inside the core, and a leaf needs no SPF state of its own:
//! the tables route it through its parent. `Core` holds the core once,
//! in the tables' rank order, as a CSR adjacency over ranks, and
//! `SpfScratch` runs Dijkstra over it with buffers of the core's size.
//! [`SpfTree`] is the full-network tree the test oracle builds.

use crate::tables::{RoutingTables, NO_LINK};
use massf_topology::{LinkId, Network, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of one SPF run from a source node.
#[derive(Debug, Clone)]
pub struct SpfTree {
    /// The source node.
    pub source: NodeId,
    /// Total latency (µs) from the source; `u64::MAX` when unreachable.
    pub dist_us: Vec<u64>,
    /// Hop count from the source; `u32::MAX` when unreachable.
    pub hops: Vec<u32>,
    /// Predecessor on the shortest path; `u32::MAX` for source/unreachable.
    pub prev: Vec<NodeId>,
}

/// Sentinel for "no predecessor".
pub const NO_PREV: NodeId = NodeId::MAX;

/// The router core in rank order: `nodes[r]` is the core node of rank
/// `r`, and `adj[start[r]..start[r + 1]]` holds its `(neighbour rank,
/// link)` entries toward other core nodes, in `Network::neighbors` order.
/// Of parallel links only the one `link_between` names is kept, so a
/// route's distance, its stored link and every later lookup count the
/// same link.
#[derive(Debug)]
pub(crate) struct Core {
    pub(crate) nodes: Vec<NodeId>,
    start: Vec<u32>,
    adj: Vec<(u32, LinkId)>,
}

impl Core {
    /// The core of `net` under `tables`' leaf records and ranks.
    pub(crate) fn new(net: &Network, tables: &RoutingTables) -> Self {
        let in_core = |v: usize| tables.leaf[v].is_none();
        let mut nodes = vec![0; (0..tables.leaf.len()).filter(|&v| in_core(v)).count()];
        for v in (0..tables.leaf.len()).filter(|&v| in_core(v)) {
            nodes[tables.rank[v] as usize] = v as NodeId;
        }
        let core_links = |v: NodeId| {
            let links = net.neighbors(v).iter();
            links.filter(move |&&(u, l)| in_core(u as usize) && net.link_between(v, u) == Some(l))
        };
        let mut start = Vec::with_capacity(nodes.len() + 1);
        let mut adj = Vec::with_capacity(nodes.iter().map(|&v| core_links(v).count()).sum());
        start.push(0);
        for &v in &nodes {
            adj.extend(core_links(v).map(|&(u, l)| (tables.rank[u as usize], l)));
            start.push(adj.len() as u32);
        }
        Self { nodes, start, adj }
    }

    /// The `(neighbour rank, link)` entries of rank `r`.
    pub(crate) fn adj(&self, r: u32) -> &[(u32, LinkId)] {
        &self.adj[self.start[r as usize] as usize..self.start[r as usize + 1] as usize]
    }
}

/// Reusable working state for repeated SPF runs over a [`Core`], every
/// buffer indexed by rank.
///
/// The table builders run one Dijkstra per source; allocating the working
/// vectors and heap per source is pure churn. A scratch is owned by one
/// worker and reused across every source that worker encodes. Results are
/// bit-identical to a fresh scratch's: the only difference is where the
/// buffers live.
#[derive(Debug, Default)]
pub(crate) struct SpfScratch {
    source: u32,
    dist_us: Vec<u64>,
    hops: Vec<u32>,
    prev: Vec<u32>,
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    first: Vec<(NodeId, LinkId)>,
    chain: Vec<u32>,
}

impl SpfScratch {
    /// An empty scratch; buffers grow on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Runs Dijkstra from rank `source` over the ranks `keep` admits
    /// (`latency_us` indexed by link id), then resolves every first hop.
    /// Both stay readable through [`dist_us`](Self::dist_us) and
    /// [`first_hops`](Self::first_hops) until the next `run`.
    ///
    /// Ties break by `(latency, hops, node id)`, comparing node ids, not
    /// ranks, so every result is what a Dijkstra over the whole network
    /// gives its core nodes.
    pub(crate) fn run(
        &mut self,
        core: &Core,
        latency_us: &[u64],
        source: u32,
        keep: impl Fn(u32) -> bool,
    ) {
        let c = core.nodes.len();
        self.source = source;
        self.dist_us.clear();
        self.dist_us.resize(c, u64::MAX);
        self.hops.clear();
        self.hops.resize(c, u32::MAX);
        self.prev.clear();
        self.prev.resize(c, NO_PREV);
        self.done.clear();
        self.done.resize(c, false);
        self.heap.clear();

        self.dist_us[source as usize] = 0;
        self.hops[source as usize] = 0;
        self.heap.push(Reverse((0, 0, source)));

        while let Some(Reverse((d, h, v))) = self.heap.pop() {
            if std::mem::replace(&mut self.done[v as usize], true) {
                continue;
            }
            for &(u, l) in core.adj(v) {
                let i = u as usize;
                if self.done[i] || !keep(u) {
                    continue;
                }
                let nd = d + latency_us[l.0 as usize];
                let nh = h + 1;
                let better = nd < self.dist_us[i]
                    || (nd == self.dist_us[i]
                        && (nh < self.hops[i]
                            || (nh == self.hops[i]
                                && core.nodes[v as usize] < core.nodes[self.prev[i] as usize])));
                if better {
                    self.dist_us[i] = nd;
                    self.hops[i] = nh;
                    self.prev[i] = v;
                    self.heap.push(Reverse((nd, nh, u)));
                }
            }
        }

        // The source's children leave over the one link the core keeps.
        let unset = (NodeId::MAX, NO_LINK);
        self.first.clear();
        self.first.resize(c, unset);
        for &(u, l) in core.adj(source) {
            if self.prev[u as usize] == source {
                self.first[u as usize] = (core.nodes[u as usize], l);
            }
        }
        climb(
            source,
            &self.dist_us,
            &self.prev,
            &mut self.first,
            unset,
            &mut self.chain,
        );
    }

    /// Distances of the last [`run`](Self::run) by rank; `u64::MAX` =
    /// unreachable.
    pub(crate) fn dist_us(&self) -> &[u64] {
        &self.dist_us
    }

    /// The `(hop, link)` out of the source toward every rank, from the
    /// last [`run`](Self::run); `(NodeId::MAX, NO_LINK)` for the source
    /// and unreachable ranks.
    pub(crate) fn first_hops(&self) -> &[(NodeId, LinkId)] {
        &self.first
    }
}

/// Resolves the first hop of every reachable node but the source in one
/// amortized-linear pass over the predecessor forest, the source's
/// children already set in `first` (`unset` elsewhere): each chain is
/// climbed until it reaches a resolved node and the answer is written
/// back along it, so no node is resolved twice.
fn climb<T: Copy + PartialEq>(
    source: u32,
    dist_us: &[u64],
    prev: &[u32],
    first: &mut [T],
    unset: T,
    chain: &mut Vec<u32>,
) {
    for dst in 0..prev.len() {
        if dst == source as usize || dist_us[dst] == u64::MAX || first[dst] != unset {
            continue;
        }
        let mut cur = dst as u32;
        while first[cur as usize] == unset {
            chain.push(cur);
            cur = prev[cur as usize];
            debug_assert_ne!(cur, source, "a child of the source is unresolved");
        }
        let hop = first[cur as usize];
        for &v in chain.iter() {
            first[v as usize] = hop;
        }
        chain.clear();
    }
}

impl SpfTree {
    /// The first hop out of the source toward every node, in one
    /// amortized-O(n) pass over the predecessor forest.
    ///
    /// `NO_PREV` marks the source itself and unreachable nodes.
    pub fn first_hops(&self) -> Vec<NodeId> {
        let mut first: Vec<NodeId> = (0..self.prev.len() as NodeId)
            .map(|v| {
                if self.prev[v as usize] == self.source {
                    v
                } else {
                    NO_PREV
                }
            })
            .collect();
        climb(
            self.source,
            &self.dist_us,
            &self.prev,
            &mut first,
            NO_PREV,
            &mut Vec::new(),
        );
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::renumber;
    use crate::tables::oracle::plain_tree;
    use massf_topology::Network;

    /// `net`'s core under the tables' own ranking, and its link latencies.
    fn core_of(net: &Network) -> (Core, Vec<u64>) {
        let tables = RoutingTables::empty(net, &renumber(net));
        (Core::new(net, &tables), tables.link_latency_us)
    }

    /// One core run from node `src`, spread back over node ids (leaves
    /// stay unreachable: no core run reaches them), with its first hops.
    fn shortest_paths(net: &Network, src: NodeId) -> (SpfTree, Vec<(NodeId, LinkId)>) {
        let (core, latency) = core_of(net);
        let r = core
            .nodes
            .iter()
            .position(|&v| v == src)
            .expect("a core source");
        let mut s = SpfScratch::new();
        s.run(&core, &latency, r as u32, |_| true);
        let n = net.node_count();
        let mut t = SpfTree {
            source: src,
            dist_us: vec![u64::MAX; n],
            hops: vec![u32::MAX; n],
            prev: vec![NO_PREV; n],
        };
        let mut first = vec![(NodeId::MAX, NO_LINK); n];
        for (q, &v) in core.nodes.iter().enumerate() {
            t.dist_us[v as usize] = s.dist_us[q];
            t.hops[v as usize] = s.hops[q];
            if s.prev[q] != NO_PREV {
                t.prev[v as usize] = core.nodes[s.prev[q] as usize];
            }
            first[v as usize] = s.first[q];
        }
        (t, first)
    }

    /// The node path `source → dst` (inclusive) read off the predecessor
    /// links, or `None` when `dst` is unreachable.
    fn path_to(t: &SpfTree, dst: NodeId) -> Option<Vec<NodeId>> {
        if t.dist_us[dst as usize] == u64::MAX {
            return None;
        }
        let mut path = vec![dst];
        while *path.last().unwrap() != t.source {
            path.push(t.prev[*path.last().unwrap() as usize]);
        }
        path.reverse();
        Some(path)
    }

    /// Diamond: 0-1-3 (fast), 0-2-3 (slow), plus direct 0-3 (slowest).
    fn diamond() -> Network {
        let mut net = Network::new();
        for i in 0..4 {
            net.add_router(format!("r{i}"), 0);
        }
        net.add_link(0, 1, 100.0, 10);
        net.add_link(1, 3, 100.0, 10);
        net.add_link(0, 2, 100.0, 50);
        net.add_link(2, 3, 100.0, 50);
        net.add_link(0, 3, 100.0, 1000);
        net
    }

    #[test]
    fn picks_lowest_latency_path() {
        let (t, _) = shortest_paths(&diamond(), 0);
        assert_eq!(t.dist_us[3], 20);
        assert_eq!(path_to(&t, 3), Some(vec![0, 1, 3]));
    }

    #[test]
    fn source_distance_is_zero() {
        let (t, _) = shortest_paths(&diamond(), 2);
        assert_eq!(t.dist_us[2], 0);
        assert_eq!(path_to(&t, 2), Some(vec![2]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut net = diamond();
        net.add_router("island", 0);
        let (t, _) = shortest_paths(&net, 0);
        assert_eq!(t.dist_us[4], u64::MAX);
        assert_eq!(path_to(&t, 4), None);
    }

    #[test]
    fn hop_tiebreak() {
        // Two equal-latency routes 0→3: 0-1-3 (20+20) vs 0-3 (40 direct).
        let mut net = Network::new();
        for i in 0..4 {
            net.add_router(format!("r{i}"), 0);
        }
        net.add_link(0, 1, 100.0, 20);
        net.add_link(1, 3, 100.0, 20);
        net.add_link(0, 3, 100.0, 40);
        net.add_link(0, 2, 100.0, 5);
        let (t, _) = shortest_paths(&net, 0);
        assert_eq!(t.dist_us[3], 40);
        assert_eq!(path_to(&t, 3), Some(vec![0, 3]), "fewer hops must win ties");
    }

    #[test]
    fn first_hops_match_per_destination_walks() {
        for (net, src) in [
            (diamond(), 0),
            (diamond(), 2),
            (massf_topology::teragrid::teragrid(), 0),
            (massf_topology::teragrid::teragrid(), 3),
        ] {
            let (t, first) = shortest_paths(&net, src);
            let tree_first = t.first_hops();
            for dst in 0..net.node_count() as NodeId {
                let want = match path_to(&t, dst) {
                    Some(p) if p.len() >= 2 => p[1],
                    _ => NO_PREV,
                };
                assert_eq!(tree_first[dst as usize], want, "tree: src {src} dst {dst}");
                assert_eq!(first[dst as usize].0, want, "scratch: src {src} dst {dst}");
            }
        }
    }

    #[test]
    fn first_hops_mark_source_and_unreachable() {
        let mut net = diamond();
        net.add_router("island", 0);
        let (_, first) = shortest_paths(&net, 1);
        assert_eq!(first[1], (NodeId::MAX, NO_LINK), "source has no first hop");
        assert_eq!(
            first[4],
            (NodeId::MAX, NO_LINK),
            "unreachable has no first hop"
        );
        assert_eq!(
            first[0],
            (0, LinkId(0)),
            "direct neighbour is its own first hop"
        );
    }

    /// The diamond plus the shapes a leaf meets: a host on a degree-2
    /// router, a router whose only neighbours are hosts, a host-only pair,
    /// a two-router island, an isolated node, a host alone in its own AS,
    /// and parallel router–router links of unequal latency, listed in
    /// either order.
    fn leafy() -> Network {
        let mut net = diamond();
        let stub = net.add_router("stub", 0);
        let host = net.add_host("h", 0);
        net.add_link(3, stub, 100.0, 7);
        net.add_link(stub, host, 100.0, 3);
        let hub = net.add_router("hub", 0);
        for i in 0..2 {
            let x = net.add_host(format!("x{i}"), 0);
            net.add_link(hub, x, 100.0, 4);
        }
        let (p, q) = (net.add_host("pair-p", 0), net.add_host("pair-q", 0));
        net.add_link(p, q, 100.0, 6);
        let a = net.add_router("island-a", 0);
        let b = net.add_router("island-b", 0);
        net.add_link(a, b, 100.0, 5);
        net.add_host("isolated", 0);
        let own = net.add_host("own-as", 7);
        net.add_link(own, 1, 100.0, 2);
        net.add_link(1, 2, 100.0, 9);
        net.add_link(1, 2, 100.0, 30);
        net.add_link(2, 3, 100.0, 8);
        net
    }

    /// Equal-cost paths 0-1-4-5 and 0-2-3-5 whose tie at 5 goes to the
    /// lower node id, 3, while the BFS ranking puts 4 (found from 1)
    /// before 3 (found from 2): a tie broken by rank would pick 4.
    fn crossed() -> Network {
        let mut net = Network::new();
        for i in 0..6 {
            net.add_router(format!("r{i}"), 0);
        }
        for (a, b) in [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)] {
            net.add_link(a, b, 100.0, 10);
        }
        net
    }

    #[test]
    fn core_runs_match_the_full_network_dijkstra() {
        // One scratch across every core source of every network must give
        // each core node the full-network Dijkstra's dist, hops and
        // predecessor, and each first hop the link `link_between` names.
        let mut scratch = SpfScratch::new();
        let nets = [
            diamond(),
            massf_topology::teragrid::teragrid(),
            crossed(),
            leafy(),
        ];
        for (i, net) in nets.iter().enumerate() {
            let (core, latency) = core_of(net);
            for (r, &src) in core.nodes.iter().enumerate() {
                let plain = plain_tree(net, src);
                let first = plain.first_hops();
                scratch.run(&core, &latency, r as u32, |_| true);
                for (q, &v) in core.nodes.iter().enumerate() {
                    let at = format!("net {i} src {src} dst {v}");
                    let prev = scratch.prev[q];
                    assert_eq!(scratch.dist_us()[q], plain.dist_us[v as usize], "{at}");
                    assert_eq!(scratch.hops[q], plain.hops[v as usize], "{at}");
                    assert_eq!(
                        (prev != NO_PREV).then(|| core.nodes[prev as usize]),
                        (plain.prev[v as usize] != NO_PREV).then_some(plain.prev[v as usize]),
                        "{at}"
                    );
                    let want = match first[v as usize] {
                        NO_PREV => (NodeId::MAX, NO_LINK),
                        hop => (hop, net.link_between(src, hop).unwrap()),
                    };
                    assert_eq!(scratch.first_hops()[q], want, "{at}");
                }
            }
        }
    }

    #[test]
    fn paths_are_consistent_with_distances() {
        let net = massf_topology::teragrid::teragrid();
        let (t, _) = shortest_paths(&net, 0);
        for dst in (0..net.node_count() as NodeId).filter(|&v| net.leaf_uplink(v).is_none()) {
            let path = path_to(&t, dst).expect("teragrid is connected");
            let mut lat = 0u64;
            for w in path.windows(2) {
                let l = net
                    .link_between(w[0], w[1])
                    .expect("consecutive nodes adjacent");
                lat += net.link(l).latency_us;
            }
            assert_eq!(
                lat, t.dist_us[dst as usize],
                "path latency mismatch for {dst}"
            );
        }
    }
}
