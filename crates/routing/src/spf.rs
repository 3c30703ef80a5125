//! Per-source Dijkstra shortest-path-first computation.

use massf_topology::{Network, NodeId};
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

/// Heap allocations one standalone SPF run performs that [`SpfScratch`]
/// amortizes away: the four node-indexed working vectors, the binary heap,
/// and the two first-hop buffers. `bench_slice` multiplies this by the
/// reused-run count to report allocations saved by scratch reuse.
pub const SPF_RUN_ALLOCS: u64 = 7;

/// Reusable working state for repeated SPF runs.
///
/// The eager table builders run one Dijkstra per source; allocating the
/// working vectors and heap per source is pure churn. A scratch is owned
/// by one worker, reused across every source that worker encodes, and
/// resized (cheaply, after the first run) when the network changes — the
/// hierarchical builder reuses one scratch across every per-AS
/// subnetwork. Results are bit-identical to a fresh scratch's: the only
/// difference is where the buffers live.
#[derive(Debug, Default)]
pub struct SpfScratch {
    source: NodeId,
    dist_us: Vec<u64>,
    hops: Vec<u32>,
    prev: Vec<NodeId>,
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, u32, NodeId)>>,
    first: Vec<NodeId>,
    chain: Vec<NodeId>,
    runs: u64,
}

impl SpfScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Dijkstra from `source`, reusing this scratch's buffers. The
    /// results stay readable through [`dist_us`](Self::dist_us) and
    /// [`first_hops`](Self::first_hops) until the next `run`.
    ///
    /// A degree-1 node other than the source never enters the heap: its
    /// one neighbour is the node being settled when it is first relaxed,
    /// so that relaxation is final, and settling it would relax nothing.
    /// Its dist/hops/prev are recorded there and then — on a host-heavy
    /// network the heap holds the router core only, and every result is
    /// what queueing each node would give.
    pub fn run(&mut self, net: &Network, source: NodeId) {
        let n = net.node_count();
        self.runs += 1;
        self.source = source;
        self.dist_us.clear();
        self.dist_us.resize(n, u64::MAX);
        self.hops.clear();
        self.hops.resize(n, u32::MAX);
        self.prev.clear();
        self.prev.resize(n, NO_PREV);
        self.done.clear();
        self.done.resize(n, false);
        self.heap.clear();

        self.dist_us[source as usize] = 0;
        self.hops[source as usize] = 0;
        self.heap.push(Reverse((0, 0, source)));

        while let Some(Reverse((d, h, v))) = self.heap.pop() {
            if self.done[v as usize] {
                continue;
            }
            self.done[v as usize] = true;
            for &(u, l) in net.neighbors(v) {
                if self.done[u as usize] {
                    continue;
                }
                let link = net.link(l);
                let nd = d + link.latency_us;
                let nh = h + 1;
                let better = nd < self.dist_us[u as usize]
                    || (nd == self.dist_us[u as usize]
                        && (nh < self.hops[u as usize]
                            || (nh == self.hops[u as usize] && v < self.prev[u as usize])));
                if better {
                    self.dist_us[u as usize] = nd;
                    self.hops[u as usize] = nh;
                    self.prev[u as usize] = v;
                    if net.degree(u) != 1 {
                        self.heap.push(Reverse((nd, nh, u)));
                    }
                }
            }
        }
    }

    /// Distances of the last [`run`](Self::run); `u64::MAX` = unreachable.
    pub fn dist_us(&self) -> &[u64] {
        &self.dist_us
    }

    /// First hops of the last [`run`](Self::run), computed into the
    /// scratch's own buffer (see [`SpfTree::first_hops`] for the
    /// algorithm). `NO_PREV` marks the source and unreachable nodes.
    pub fn first_hops(&mut self) -> &[NodeId] {
        first_hops_into(
            self.source,
            &self.dist_us,
            &self.prev,
            &mut self.first,
            &mut self.chain,
        );
        &self.first
    }

    /// How many SPF runs this scratch has served.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Heap allocations avoided so far by reusing this scratch instead of
    /// allocating per run: [`SPF_RUN_ALLOCS`] for every run after the
    /// first.
    pub fn allocs_saved(&self) -> u64 {
        self.runs.saturating_sub(1) * SPF_RUN_ALLOCS
    }
}

/// Runs Dijkstra from `source` with latency cost, deterministic
/// tie-breaking by `(latency, hops, node id)`, into a tree of its own: the
/// lockstep test reads the hop counts and predecessors through it.
#[cfg(test)]
fn shortest_paths(net: &Network, source: NodeId) -> SpfTree {
    let mut scratch = SpfScratch::new();
    scratch.run(net, source);
    SpfTree {
        source,
        dist_us: std::mem::take(&mut scratch.dist_us),
        hops: std::mem::take(&mut scratch.hops),
        prev: std::mem::take(&mut scratch.prev),
    }
}

/// The shared chain-climbing first-hop pass behind [`SpfTree::first_hops`]
/// and [`SpfScratch::first_hops`]: `first` is reset and filled, `chain` is
/// the reusable climb stack.
fn first_hops_into(
    source: NodeId,
    dist_us: &[u64],
    prev: &[NodeId],
    first: &mut Vec<NodeId>,
    chain: &mut Vec<NodeId>,
) {
    let n = prev.len();
    first.clear();
    first.resize(n, NO_PREV);
    chain.clear();
    for dst in 0..n as NodeId {
        if dst == source || dist_us[dst as usize] == u64::MAX || first[dst as usize] != NO_PREV {
            continue;
        }
        // Climb until the node directly below the source, or a node
        // whose first hop is already known.
        let mut cur = dst;
        while prev[cur as usize] != source && first[cur as usize] == NO_PREV {
            chain.push(cur);
            cur = prev[cur as usize];
            debug_assert_ne!(cur, NO_PREV);
        }
        let hop = if prev[cur as usize] == source {
            cur
        } else {
            first[cur as usize]
        };
        first[cur as usize] = hop;
        for &v in chain.iter() {
            first[v as usize] = hop;
        }
        chain.clear();
    }
}

impl SpfTree {
    /// The first hop out of the source toward every node, derived in one
    /// amortized-O(n) pass over the predecessor forest: each predecessor
    /// chain is climbed until it reaches the source (or an already-resolved
    /// node) and the answer is written back to every node on the chain, so
    /// no node is resolved twice. The per-destination `prev` re-walk this
    /// replaces was O(path length) per destination — quadratic on long
    /// paths.
    ///
    /// `NO_PREV` marks the source itself and unreachable nodes.
    pub fn first_hops(&self) -> Vec<NodeId> {
        let mut first = Vec::new();
        let mut chain = Vec::new();
        first_hops_into(
            self.source,
            &self.dist_us,
            &self.prev,
            &mut first,
            &mut chain,
        );
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::Network;

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
        let t = shortest_paths(&diamond(), 0);
        assert_eq!(t.dist_us[3], 20);
        assert_eq!(path_to(&t, 3), Some(vec![0, 1, 3]));
    }

    #[test]
    fn source_distance_is_zero() {
        let t = shortest_paths(&diamond(), 2);
        assert_eq!(t.dist_us[2], 0);
        assert_eq!(path_to(&t, 2), Some(vec![2]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut net = diamond();
        net.add_router("island", 0);
        let t = shortest_paths(&net, 0);
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
        let t = shortest_paths(&net, 0);
        assert_eq!(t.dist_us[3], 40);
        assert_eq!(path_to(&t, 3), Some(vec![0, 3]), "fewer hops must win ties");
    }

    #[test]
    fn first_hops_match_per_destination_walks() {
        for (net, src) in [
            (diamond(), 0),
            (diamond(), 2),
            (massf_topology::teragrid::teragrid(), 0),
            (massf_topology::teragrid::teragrid(), 33),
        ] {
            let t = shortest_paths(&net, src);
            let first = t.first_hops();
            for dst in 0..net.node_count() as NodeId {
                let want = match path_to(&t, dst) {
                    Some(p) if p.len() >= 2 => p[1],
                    _ => NO_PREV,
                };
                assert_eq!(first[dst as usize], want, "src {src} dst {dst}");
            }
        }
    }

    #[test]
    fn first_hops_mark_source_and_unreachable() {
        let mut net = diamond();
        net.add_router("island", 0);
        let t = shortest_paths(&net, 1);
        let first = t.first_hops();
        assert_eq!(first[1], NO_PREV, "source has no first hop");
        assert_eq!(first[4], NO_PREV, "unreachable has no first hop");
        assert_eq!(first[0], 0, "direct neighbour is its own first hop");
    }

    /// The diamond plus the shapes a settled degree-1 node meets: a host
    /// on a degree-2 router, a router whose only links are two hosts, a
    /// two-node island and an isolated node.
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
        let a = net.add_router("island-a", 0);
        let b = net.add_router("island-b", 0);
        net.add_link(a, b, 100.0, 5);
        net.add_host("isolated", 0);
        net
    }

    #[test]
    fn scratch_reuse_matches_standalone_runs() {
        // One scratch across every source *and* different networks (the
        // hierarchical builder's reuse pattern) must reproduce the
        // allocating path bit for bit, and both must equal the Dijkstra
        // that queues every node — degree-1 sources included.
        let mut scratch = SpfScratch::new();
        let nets = [
            diamond(),
            massf_topology::teragrid::teragrid(),
            diamond(),
            leafy(),
        ];
        for (i, net) in nets.iter().enumerate() {
            for src in 0..net.node_count() as NodeId {
                let tree = shortest_paths(net, src);
                let plain = crate::tables::oracle::plain_tree(net, src);
                assert_eq!(tree.dist_us, plain.dist_us, "net {i} src {src}");
                assert_eq!(tree.hops, plain.hops, "net {i} src {src}");
                assert_eq!(tree.prev, plain.prev, "net {i} src {src}");
                scratch.run(net, src);
                assert_eq!(scratch.dist_us(), &tree.dist_us[..], "net {i} src {src}");
                assert_eq!(
                    scratch.first_hops(),
                    &tree.first_hops()[..],
                    "net {i} src {src}"
                );
            }
        }
        let runs = nets.iter().map(|net| net.node_count() as u64).sum::<u64>();
        assert_eq!(scratch.runs(), runs);
        assert_eq!(scratch.allocs_saved(), (runs - 1) * SPF_RUN_ALLOCS);
    }

    #[test]
    fn paths_are_consistent_with_distances() {
        let net = massf_topology::teragrid::teragrid();
        let t = shortest_paths(&net, 0);
        for dst in 0..net.node_count() as NodeId {
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
