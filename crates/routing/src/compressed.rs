//! Interval-compressed routing rows with shared host rows — the
//! representation that breaks the paper's O(n²) routing-table wall
//! (DESIGN.md §13).
//!
//! Three ideas compose:
//!
//! 1. **Run-length rows.** Destinations are renumbered so that nodes
//!    reached through the same egress sit next to each other
//!    ([`renumber`]: AS-grouped BFS order). A source's row then collapses
//!    to a handful of `(start_rank, next_hop, next_link)` runs; lookup is
//!    an O(log runs) binary search.
//! 2. **Shared host rows.** A degree-1 node (the common case: a host on
//!    its access router) routes *everything* over its single uplink, so it
//!    stores two words instead of a row ([`RowRef::Leaf`]). Reachability
//!    and latency delegate to the parent's row, which is exactly what the
//!    dense Dijkstra row would have said: for a degree-1 source every
//!    shortest path starts with the uplink, and
//!    `dist(v, d) = uplink + dist(parent, d)`.
//! 3. **Canonical-row dedup.** Identical run vectors share one slot in the
//!    run pool, so structurally equivalent sources cost one row.
//!
//! Latencies are not stored per pair: a query walks the next-hop chain and
//! sums per-link latencies from a snapshot, which reproduces the dense
//! Dijkstra distance exactly (it *is* the sum of the links on that chain).
//! A caller that wants every latency toward one destination reads the
//! column through [`LatenciesTo`](crate::tables::LatenciesTo) instead,
//! which pays each shared chain tail once.
//!
//! The build is deterministic under parallelism with the same discipline
//! as the dense build: per-source encoding writes disjoint slots, and the
//! canonical pool is folded serially in source order afterwards.

use crate::spf::{SpfScratch, NO_PREV};
use crate::tables::{link_toward, NO_LINK};
use massf_par::Parallelism;
use massf_topology::{LinkId, Network, NodeId};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// One encoded run: every destination whose rank is in
/// `start ..` (up to the next run's start, or the end of the row) leaves
/// the source over `(hop, link)`. `hop == NodeId::MAX` encodes an
/// unreachable stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    /// First destination rank the run covers.
    pub(crate) start: u32,
    /// Next hop for every destination in the run.
    pub(crate) hop: NodeId,
    /// Link toward that hop.
    pub(crate) link: LinkId,
}

/// What a source's row is: a slice of the shared run pool, or a shared
/// leaf record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowRef {
    /// Canonical row `slot`: runs `row_bounds[slot] .. row_bounds[slot+1]`
    /// in the pool.
    Runs(u32),
    /// Degree-1 node: every route exits toward `parent` over `link`. The
    /// builder guarantees `parent` has degree ≥ 2 (so the parent's row is
    /// never itself a leaf and lookups recurse at most once).
    Leaf {
        /// The single neighbour.
        parent: NodeId,
        /// The uplink to it.
        link: LinkId,
    },
}

/// The compressed representation. All queries go through
/// [`CompressedTables::entry`]; `PartialEq` compares the full structure so
/// the determinism suite can assert parallel builds bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompressedTables {
    /// `rank[node]` = position of `node` in the renumbered destination
    /// order (the run coordinate space).
    pub(crate) rank: Vec<u32>,
    /// Per-source row reference.
    pub(crate) rows: Vec<RowRef>,
    /// Run pool, parallel arrays (structure-of-arrays keeps the binary
    /// search over `run_start` cache-dense).
    pub(crate) run_start: Vec<u32>,
    /// Next hop per pool run.
    pub(crate) run_hop: Vec<NodeId>,
    /// Next link per pool run.
    pub(crate) run_link: Vec<LinkId>,
    /// Canonical-row boundaries into the pool; `row_bounds.len() - 1`
    /// canonical rows exist.
    pub(crate) row_bounds: Vec<u32>,
    /// Per-link latency snapshot (indexed by `LinkId`) for
    /// latency-by-walking.
    pub(crate) link_latency_us: Vec<u64>,
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

/// Run-length-encodes one row over the renumbered destination order. The
/// diagonal (`dst == src`) is skipped entirely so it never splits a run —
/// [`CompressedTables::entry`] intercepts `src == dst` before any run is
/// consulted. Unreachable stretches encode as `(NodeId::MAX, NO_LINK)`
/// runs.
fn push_run(out: &mut Vec<Run>, pos: usize, hop: NodeId, link: LinkId) {
    match out.last() {
        Some(r) if r.hop == hop && r.link == link => {}
        _ => out.push(Run {
            start: pos as u32,
            hop,
            link,
        }),
    }
}

/// Encodes the full-SPF row for `src`: one Dijkstra run into the caller's
/// reusable `scratch`, first hops in one pass, then run-length encoding
/// over `order`. Shared by the eager parallel build (one scratch per
/// worker) and the lazy on-demand materializer — which is what makes lazy
/// rows bit-identical to eager ones.
pub(crate) fn encode_spf_row(
    net: &Network,
    src: NodeId,
    order: &[NodeId],
    out: &mut Vec<Run>,
    scratch: &mut SpfScratch,
) {
    scratch.run(net, src);
    let first = scratch.first_hops();
    let mut memo: Vec<(NodeId, LinkId)> = Vec::new();
    for (pos, &dst) in order.iter().enumerate() {
        if dst == src {
            continue;
        }
        let hop = first[dst as usize];
        if hop == NO_PREV {
            push_run(out, pos, NodeId::MAX, NO_LINK);
        } else {
            let link = link_toward(net, src, hop, &mut memo);
            push_run(out, pos, hop, link);
        }
    }
}

/// Serial fold that assembles a [`CompressedTables`] from per-source rows
/// delivered in a fixed order: leaves become [`RowRef::Leaf`], run vectors
/// dedup into the canonical pool. Used by both the flat builder (after the
/// parallel encode) and the hierarchical streaming builder.
pub(crate) struct RowEncoder {
    rank: Vec<u32>,
    order: Vec<NodeId>,
    rows: Vec<Option<RowRef>>,
    run_start: Vec<u32>,
    run_hop: Vec<NodeId>,
    run_link: Vec<LinkId>,
    row_bounds: Vec<u32>,
    canon: HashMap<Vec<(u32, u32, u32)>, u32>,
}

impl RowEncoder {
    /// Starts an encoder over `net`'s renumbered destination order.
    pub(crate) fn new(net: &Network) -> Self {
        let n = net.node_count();
        let order = renumber(net);
        let mut rank = vec![0u32; n];
        for (pos, &v) in order.iter().enumerate() {
            rank[v as usize] = pos as u32;
        }
        Self {
            rank,
            order,
            rows: vec![None; n],
            run_start: Vec::new(),
            run_hop: Vec::new(),
            run_link: Vec::new(),
            row_bounds: vec![0],
            canon: HashMap::new(),
        }
    }

    /// The destination order rows must be encoded against.
    pub(crate) fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Records `src` as a shared leaf row.
    pub(crate) fn set_leaf(&mut self, src: NodeId, parent: NodeId, link: LinkId) {
        self.rows[src as usize] = Some(RowRef::Leaf { parent, link });
    }

    /// Records `src`'s encoded run vector, deduplicating into the pool.
    /// Must be called in a deterministic source order — canonical slot
    /// numbering depends on first sight.
    pub(crate) fn set_runs(&mut self, src: NodeId, runs: &[Run]) {
        let key: Vec<(u32, u32, u32)> = runs.iter().map(|r| (r.start, r.hop, r.link.0)).collect();
        let slot = match self.canon.get(&key) {
            Some(&s) => s,
            None => {
                let s = (self.row_bounds.len() - 1) as u32;
                for r in runs {
                    self.run_start.push(r.start);
                    self.run_hop.push(r.hop);
                    self.run_link.push(r.link);
                }
                self.row_bounds.push(self.run_start.len() as u32);
                self.canon.insert(key, s);
                s
            }
        };
        self.rows[src as usize] = Some(RowRef::Runs(slot));
    }

    /// Finishes the table, snapshotting per-link latencies from `net`.
    ///
    /// # Panics
    /// Panics if any source row was never set.
    pub(crate) fn finish(self, net: &Network) -> CompressedTables {
        CompressedTables {
            rank: self.rank,
            rows: self
                .rows
                .into_iter()
                .map(|r| r.expect("every source row must be encoded"))
                .collect(),
            run_start: self.run_start,
            run_hop: self.run_hop,
            run_link: self.run_link,
            row_bounds: self.row_bounds,
            link_latency_us: net.links().iter().map(|l| l.latency_us).collect(),
        }
    }
}

impl CompressedTables {
    /// Builds the compressed tables for global shortest-path routing.
    ///
    /// Degree-1 nodes skip Dijkstra entirely (their row is the two-word
    /// leaf record); the remaining rows are encoded in parallel over
    /// disjoint slots and folded serially.
    pub(crate) fn build(net: &Network, par: Parallelism) -> Self {
        let n = net.node_count();
        let mut enc = RowEncoder::new(net);
        // Shared host rows: a degree-1 node forwards everything over its
        // uplink. The parent-degree guard keeps two-node islands (where
        // both ends are degree 1) on the run path, so leaf lookups recurse
        // into a run row at most once.
        let mut leaf: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        for (v, slot) in leaf.iter_mut().enumerate() {
            let nb = net.neighbors(v as NodeId);
            if nb.len() == 1 && net.degree(nb[0].0) >= 2 {
                *slot = Some(nb[0]);
            }
        }

        let mut encoded: Vec<Vec<Run>> = vec![Vec::new(); n];
        {
            let work: Vec<(usize, &mut Vec<Run>)> = encoded
                .iter_mut()
                .enumerate()
                .filter(|(v, _)| leaf[*v].is_none())
                .collect();
            let order = enc.order();
            if n == 0 || par.capped(n).get() <= 1 {
                let mut scratch = SpfScratch::new();
                for (src, out) in work {
                    encode_spf_row(net, src as NodeId, order, out, &mut scratch);
                }
            } else {
                let queue = std::sync::Mutex::new(work);
                std::thread::scope(|scope| {
                    for _ in 0..par.capped(n).get() {
                        scope.spawn(|| {
                            // One scratch per worker, reused across every
                            // source this worker encodes.
                            let mut scratch = SpfScratch::new();
                            loop {
                                let item = queue.lock().expect("row queue").pop();
                                match item {
                                    Some((src, out)) => {
                                        encode_spf_row(net, src as NodeId, order, out, &mut scratch)
                                    }
                                    None => break,
                                }
                            }
                        });
                    }
                });
            }
        }

        for (v, (lf, runs)) in leaf.iter().zip(&encoded).enumerate() {
            match lf {
                Some((parent, link)) => enc.set_leaf(v as NodeId, *parent, *link),
                None => enc.set_runs(v as NodeId, runs),
            }
        }
        enc.finish(net)
    }

    /// `(next_hop, next_link)` from `src` toward `dst`;
    /// `(NodeId::MAX, NO_LINK)` when `src == dst` or unreachable —
    /// mirroring the dense sentinel entries exactly.
    #[inline]
    pub(crate) fn entry(&self, src: NodeId, dst: NodeId) -> (NodeId, LinkId) {
        if src == dst {
            return (NodeId::MAX, NO_LINK);
        }
        match self.rows[src as usize] {
            RowRef::Leaf { parent, link } => {
                // Reachable from a leaf iff the parent is the destination
                // or the parent (a non-leaf row) reaches it.
                if dst == parent || self.entry(parent, dst).0 != NodeId::MAX {
                    (parent, link)
                } else {
                    (NodeId::MAX, NO_LINK)
                }
            }
            RowRef::Runs(slot) => self.run_entry(slot, dst),
        }
    }

    /// The run of canonical row `slot` covering `dst`.
    #[inline]
    fn run_entry(&self, slot: u32, dst: NodeId) -> (NodeId, LinkId) {
        let lo = self.row_bounds[slot as usize] as usize;
        let hi = self.row_bounds[slot as usize + 1] as usize;
        let r = self.rank[dst as usize];
        // Last run starting at or before rank r. The row covers every
        // non-diagonal rank, and callers guard the diagonal, so the
        // search never lands before the first run.
        let i = lo + self.run_start[lo..hi].partition_point(|&s| s <= r) - 1;
        (self.run_hop[i], self.run_link[i])
    }

    /// One step of a climb toward `dst` (`src != dst`): [`entry`](Self::entry)
    /// without the leaf's reachability probe. A leaf answers its uplink
    /// unconditionally and with no binary search; whether `dst` is
    /// reachable is then the parent's answer, which a climb asks next
    /// anyway (`lat(leaf→dst) = uplink + lat(parent→dst)`).
    #[inline]
    pub(crate) fn climb_step(&self, src: NodeId, dst: NodeId) -> (NodeId, LinkId) {
        match self.rows[src as usize] {
            RowRef::Leaf { parent, link } => (parent, link),
            RowRef::Runs(slot) => self.run_entry(slot, dst),
        }
    }

    /// End-to-end latency by walking the next-hop chain and summing link
    /// latencies from the snapshot; `u64::MAX` when unreachable. Exactly
    /// the dense value: the dense table stores the Dijkstra distance,
    /// which is the integer sum of the links on this same chain.
    pub(crate) fn latency_us(&self, src: NodeId, dst: NodeId) -> u64 {
        if src == dst {
            return 0;
        }
        let n = self.rows.len();
        let mut cur = src;
        let mut lat = 0u64;
        let mut hops = 0usize;
        loop {
            let (hop, link) = self.entry(cur, dst);
            if hop == NodeId::MAX {
                return u64::MAX;
            }
            lat += self.link_latency_us[link.0 as usize];
            cur = hop;
            hops += 1;
            debug_assert!(hops <= n, "routing loop {src} -> {dst}");
            if cur == dst {
                return lat;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::campus::campus;
    use massf_topology::teragrid::teragrid;

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
        let t = CompressedTables::build(&net, Parallelism::serial());
        for h in net.hosts() {
            assert!(
                matches!(t.rows[h as usize], RowRef::Leaf { .. }),
                "host {h} should share its access router's uplink"
            );
        }
    }

    #[test]
    fn runs_stay_far_below_dense_entries() {
        let net = teragrid();
        let t = CompressedTables::build(&net, Parallelism::serial());
        let n = net.node_count();
        assert!(
            t.run_start.len() * 10 < n * n,
            "{} runs vs {} dense entries",
            t.run_start.len(),
            n * n
        );
    }

    #[test]
    fn two_node_island_routes_between_its_ends() {
        // Both ends are degree 1, so neither is a leaf (the parent guard):
        // the pair must still route to each other and nowhere else.
        let mut net = campus();
        let a = net.add_router("island-a", 99);
        let b = net.add_router("island-b", 99);
        net.add_link(a, b, 100.0, 5);
        let t = CompressedTables::build(&net, Parallelism::serial());
        assert_eq!(t.entry(a, b), (b, net.link_between(a, b).unwrap()));
        assert_eq!(t.entry(b, a).0, a);
        assert_eq!(t.latency_us(a, b), 5);
        assert_eq!(t.entry(a, 0).0, NodeId::MAX, "mainland unreachable");
        assert_eq!(t.entry(0, a).0, NodeId::MAX);
        assert_eq!(t.latency_us(0, a), u64::MAX);
    }
}
