//! All-pairs next-hop routing tables: the dense baseline representation
//! plus the dispatch over the interval-row table (DESIGN.md §13).

use crate::interval::IntervalTables;
use crate::spf::{SpfScratch, NO_PREV};
use massf_par::{par_for_each_init, Parallelism};
use massf_topology::{LinkId, Network, NodeId};

/// Which routing-table representation to build. Selectable through
/// `MapperConfig`, `Scenario`, and the CLI's `--routing` flag; every
/// representation answers every query bit-identically (same hops, links,
/// and latencies), which the equivalence suite and `bench_routing --smoke`
/// / `bench_slice --smoke` assert on every shipped scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingKind {
    /// Flat `n × n` matrices — 16 bytes per (src, dst) pair. Kept as the
    /// equivalence baseline and for tiny fixtures.
    Dense,
    /// Run-length/interval-encoded rows over a coalescing-friendly
    /// destination renumbering, with degree-1 hosts sharing their access
    /// router's uplink instead of materializing a row. The default: it is
    /// what makes large topologies affordable (the paper's O(n²) wall).
    #[default]
    Compressed,
    /// Compressed rows materialized on demand: the build keeps only the
    /// O(n + links) inputs (renumbering, leaf records, link-latency
    /// snapshot, topology snapshot) and encodes a source's row on its
    /// first lookup. With a partitioned emulation each engine only ever
    /// queries its own sources, so resident bytes follow the engine's
    /// slice of the network, not all n rows (DESIGN.md §16).
    Lazy,
}

impl RoutingKind {
    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingKind::Dense => "dense",
            RoutingKind::Compressed => "compressed",
            RoutingKind::Lazy => "lazy",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dense" => Some(RoutingKind::Dense),
            "compressed" => Some(RoutingKind::Compressed),
            "lazy" => Some(RoutingKind::Lazy),
            _ => None,
        }
    }
}

/// All-pairs routing state: for every `(src, dst)` the next hop out of
/// `src`, plus path latencies. Built once per topology ("we instantiate the
/// emulated network and detect the actual routes used", §3.2).
///
/// `PartialEq`/`Eq` compare the full tables; the determinism suite relies
/// on this to assert parallel and serial builds are identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTables {
    pub(crate) n: usize,
    pub(crate) repr: Repr,
}

/// The concrete representation behind a [`RoutingTables`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Repr {
    Dense(DenseTables),
    /// Prefilled for [`RoutingKind::Compressed`], filled on demand for
    /// [`RoutingKind::Lazy`].
    Interval(IntervalTables),
}

/// The flat `n × n` matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DenseTables {
    /// `next_hop[src * n + dst]`; `NodeId::MAX` when `src == dst` or
    /// unreachable.
    pub(crate) next_hop: Vec<NodeId>,
    /// `latency_us[src * n + dst]`; `u64::MAX` when unreachable.
    pub(crate) latency_us: Vec<u64>,
    /// `next_link[src * n + dst]`: the link to the next hop.
    pub(crate) next_link: Vec<LinkId>,
}

/// Sentinel link id stored where no next hop exists.
pub(crate) const NO_LINK: LinkId = LinkId(u32::MAX);

/// Resolves the link `src → hop`, memoizing per distinct hop: one row's
/// first hops are all neighbours of `src`, so the memo stays a handful of
/// entries and the `link_between` scan runs once per neighbour instead of
/// once per destination.
pub(crate) fn link_toward(
    net: &Network,
    src: NodeId,
    hop: NodeId,
    memo: &mut Vec<(NodeId, LinkId)>,
) -> LinkId {
    if let Some(&(_, l)) = memo.iter().find(|(h, _)| *h == hop) {
        return l;
    }
    let l = net
        .link_between(src, hop)
        .expect("next hop must be adjacent");
    memo.push((hop, l));
    l
}

/// Fills the `src` row of each table slice (`n` entries per slice) from
/// one Dijkstra tree. Rows are independent, which is what makes the
/// parallel build trivially deterministic: each worker writes a disjoint
/// row range and never reads another row.
fn fill_row(
    net: &Network,
    src: NodeId,
    hops: &mut [NodeId],
    lats: &mut [u64],
    links: &mut [LinkId],
    scratch: &mut SpfScratch,
) {
    scratch.run(net, src);
    lats.copy_from_slice(scratch.dist_us());
    let first = scratch.first_hops();
    let mut memo: Vec<(NodeId, LinkId)> = Vec::new();
    for dst in 0..hops.len() {
        let hop = first[dst];
        if hop == NO_PREV {
            continue; // src itself, or unreachable
        }
        hops[dst] = hop;
        links[dst] = link_toward(net, src, hop, &mut memo);
    }
}

impl RoutingTables {
    /// Computes dense routing tables for the whole network (n Dijkstra
    /// runs) on a single thread. Equivalent to
    /// [`build_with`](Self::build_with)`(net, Parallelism::serial())`.
    pub fn build(net: &Network) -> Self {
        Self::build_with(net, Parallelism::serial())
    }

    /// Computes dense routing tables with up to `par` worker threads, one
    /// Dijkstra source per work item.
    ///
    /// Each source's results occupy one row of the flat `n × n` tables,
    /// so workers write disjoint ranges and the output is bit-identical
    /// for every thread count. `Parallelism::serial()` runs the plain
    /// loop with no thread machinery.
    pub fn build_with(net: &Network, par: Parallelism) -> Self {
        let n = net.node_count();
        let mut next_hop = vec![NodeId::MAX; n * n];
        let mut latency_us = vec![u64::MAX; n * n];
        let mut next_link = vec![NO_LINK; n * n];
        let width = n.max(1); // `chunks_mut(0)` panics; an empty table has no rows anyway
        let rows = next_hop
            .chunks_mut(width)
            .zip(latency_us.chunks_mut(width))
            .zip(next_link.chunks_mut(width))
            .enumerate()
            .collect();
        // One scratch per worker, reused across its rows.
        par_for_each_init(
            par,
            rows,
            SpfScratch::new,
            |scratch, (src, ((hops, lats), links))| {
                fill_row(net, src as NodeId, hops, lats, links, scratch)
            },
        );
        Self {
            n,
            repr: Repr::Dense(DenseTables {
                next_hop,
                latency_us,
                next_link,
            }),
        }
    }

    /// Computes compressed routing tables on a single thread. Equivalent
    /// to [`build_compressed_with`](Self::build_compressed_with)`(net,
    /// Parallelism::serial())`.
    pub fn build_compressed(net: &Network) -> Self {
        Self::build_compressed_with(net, Parallelism::serial())
    }

    /// Computes compressed routing tables with up to `par` worker threads.
    /// Every source's row is encoded into its own slot, so the output is
    /// bit-identical for every thread count.
    pub fn build_compressed_with(net: &Network, par: Parallelism) -> Self {
        Self {
            n: net.node_count(),
            repr: Repr::Interval(IntervalTables::prefilled(net, par)),
        }
    }

    /// Builds lazy on-demand tables: only the O(n + links) inputs are
    /// computed here (renumbering, leaf records, latency snapshot); rows
    /// materialize on first lookup, bit-identical to the eager compressed
    /// encoding regardless of lookup order or thread count. The build is
    /// already sub-linear in total row work, so there is no parallel
    /// variant — `build_kind` accepts (and ignores) the parallelism knob.
    pub fn build_lazy(net: &Network) -> Self {
        Self {
            n: net.node_count(),
            repr: Repr::Interval(IntervalTables::on_demand(net)),
        }
    }

    /// Builds the representation `kind` selects.
    pub fn build_kind(net: &Network, kind: RoutingKind, par: Parallelism) -> Self {
        match kind {
            RoutingKind::Dense => Self::build_with(net, par),
            RoutingKind::Compressed => Self::build_compressed_with(net, par),
            RoutingKind::Lazy => Self::build_lazy(net),
        }
    }

    /// Which representation these tables use.
    pub fn kind(&self) -> RoutingKind {
        match &self.repr {
            Repr::Dense(_) => RoutingKind::Dense,
            Repr::Interval(t) if t.demand.is_some() => RoutingKind::Lazy,
            Repr::Interval(_) => RoutingKind::Compressed,
        }
    }

    /// Number of nodes the tables cover.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Next hop from `src` toward `dst`, or `None` at destination /
    /// unreachable.
    #[inline]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let h = match &self.repr {
            Repr::Dense(d) => d.next_hop[src as usize * self.n + dst as usize],
            Repr::Interval(t) => t.entry(src, dst).0,
        };
        (h != NodeId::MAX).then_some(h)
    }

    /// Sentinel returned by [`next_link_raw`](Self::next_link_raw) where
    /// no route exists (destination reached, or unreachable).
    pub const NO_ROUTE: LinkId = NO_LINK;

    /// The link carrying traffic from `src` toward `dst`.
    #[inline]
    pub fn next_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        let l = self.next_link_raw(src, dst);
        (l != NO_LINK).then_some(l)
    }

    /// [`next_link`](Self::next_link) without the `Option` wrapper: returns
    /// [`NO_ROUTE`](Self::NO_ROUTE) instead. An engine calls this the
    /// first time a route reaches one of its hops and pins the answer;
    /// dense answers with a single load, compressed with an O(log runs)
    /// binary search over the source's row.
    #[inline]
    pub fn next_link_raw(&self, src: NodeId, dst: NodeId) -> LinkId {
        match &self.repr {
            Repr::Dense(d) => d.next_link[src as usize * self.n + dst as usize],
            Repr::Interval(t) => t.entry(src, dst).1,
        }
    }

    /// End-to-end latency (µs) of the routed path, `None` if unreachable.
    ///
    /// Dense stores the Dijkstra distance; compressed walks the next-hop
    /// chain summing per-link latencies, which is the same integer sum.
    /// For many sources toward one destination use
    /// [`latencies_to`](Self::latencies_to).
    #[inline]
    pub fn latency_us(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let l = match &self.repr {
            Repr::Dense(d) => d.latency_us[src as usize * self.n + dst as usize],
            Repr::Interval(t) => t.latency_us(src, dst),
        };
        (l != u64::MAX).then_some(l)
    }

    /// Walks the routed path `src → dst` once, calling
    /// `f(node, link_toward_dst)` for every node in path order. The link
    /// is the one leaving `node` toward `dst`; at `dst` itself (and for
    /// `src == dst`) it is `None`.
    ///
    /// Returns `false` without calling `f` when `dst` is unreachable (a
    /// hand-installed interval row that dead-ends mid-path also returns
    /// `false`, after the nodes before the dead end were visited — no
    /// builder produces one). This is the allocation-free primitive behind [`path`](Self::path),
    /// [`path_links`](Self::path_links), and the traffic-weight
    /// accumulators, which previously each re-walked the tables.
    #[inline]
    pub fn for_each_hop<F: FnMut(NodeId, Option<LinkId>)>(
        &self,
        src: NodeId,
        dst: NodeId,
        mut f: F,
    ) -> bool {
        if src == dst {
            f(src, None);
            return true;
        }
        match &self.repr {
            Repr::Dense(d) => {
                if d.latency_us[src as usize * self.n + dst as usize] == u64::MAX {
                    return false;
                }
                let mut cur = src;
                let mut hops = 0usize;
                while cur != dst {
                    let idx = cur as usize * self.n + dst as usize;
                    f(cur, Some(d.next_link[idx]));
                    cur = d.next_hop[idx];
                    hops += 1;
                    debug_assert!(hops <= self.n, "routing loop detected");
                }
                f(dst, None);
                true
            }
            Repr::Interval(t) => {
                let reached = t.walk(src, dst, |node, link| f(node, Some(link)));
                if reached {
                    f(dst, None);
                }
                reached
            }
        }
    }

    /// The full node path `src → dst` (inclusive), following next hops.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut path = Vec::new();
        self.for_each_hop(src, dst, |node, _| path.push(node))
            .then_some(path)
    }

    /// The links along the routed path `src → dst` (single table walk,
    /// one allocation).
    pub fn path_links(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let mut links = Vec::new();
        self.for_each_hop(src, dst, |_, link| links.extend(link))
            .then_some(links)
    }
}

/// A memoized climb toward one destination: every source's latency to
/// `dst`, each resolved at most once per [`retarget`](Self::retarget).
///
/// All routes toward one destination share their tails, so for the
/// compressed and lazy kinds `lat(s→dst) = link(s, hop) + lat(hop→dst)` is
/// computed once per node and remembered in epoch-stamped arrays: a full
/// column costs n single lookups instead of n chain walks, a leaf source
/// costs no binary search at all (its value is its parent's plus the
/// uplink), and retargeting is O(1). Dense tables answer from the stored
/// matrix, so a hand-corrupted latency cell is read, not recomputed.
///
/// Answers equal [`RoutingTables::latency_us`] with `None` folded to
/// `u64::MAX`. Created by [`RoutingTables::latencies_to`]; nothing is
/// allocated after that.
#[derive(Debug)]
pub struct LatenciesTo<'t> {
    tables: &'t RoutingTables,
    dst: NodeId,
    /// `val[v]` is `lat(v→dst)` where `stamp[v] == epoch`.
    val: Vec<u64>,
    /// Empty for dense tables, which need no memo.
    stamp: Vec<u32>,
    epoch: u32,
    /// The unresolved part of the chain being climbed: `(node, latency of
    /// the link it leaves over)`.
    stack: Vec<(NodeId, u64)>,
}

impl RoutingTables {
    /// A reusable latency-column reader over these tables; call
    /// [`retarget`](LatenciesTo::retarget) before the first query.
    pub fn latencies_to(&self) -> LatenciesTo<'_> {
        let memo = !matches!(self.repr, Repr::Dense(_));
        LatenciesTo {
            tables: self,
            dst: NodeId::MAX,
            val: vec![0; self.n],
            stamp: vec![0; if memo { self.n } else { 0 }],
            epoch: 1,
            stack: Vec::new(),
        }
    }
}

impl<'t> LatenciesTo<'t> {
    /// Points the reader at `dst`, forgetting the previous column in O(1).
    pub fn retarget(&mut self, dst: NodeId) {
        assert!((dst as usize) < self.tables.n, "destination out of range");
        self.dst = dst;
        if self.stamp.is_empty() {
            return;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 2³² retargets ago would read as current.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.val[dst as usize] = 0;
        self.stamp[dst as usize] = self.epoch;
    }

    fn target(&self) -> (&'t RoutingTables, NodeId) {
        assert!(self.dst != NodeId::MAX, "LatenciesTo::retarget first");
        (self.tables, self.dst)
    }

    /// Latency `src → dst` in microseconds; `u64::MAX` when unreachable.
    ///
    /// # Panics
    /// Panics if no destination was set, or `src` is out of range.
    #[inline]
    pub fn from(&mut self, src: NodeId) -> u64 {
        let (tables, dst) = self.target();
        match &tables.repr {
            Repr::Dense(d) => d.latency_us[src as usize * tables.n + dst as usize],
            Repr::Interval(t) => self.climb(src, &t.link_latency_us, |s| t.climb_step(s, dst)),
        }
    }

    /// Resolves every source and returns the whole column, indexed by
    /// node id.
    ///
    /// # Panics
    /// Panics if no destination was set.
    pub fn all(&mut self) -> &[u64] {
        let (tables, dst) = self.target();
        match &tables.repr {
            Repr::Dense(d) => {
                let column = d.latency_us.iter().skip(dst as usize).step_by(tables.n);
                for (slot, &lat) in self.val.iter_mut().zip(column) {
                    *slot = lat;
                }
            }
            _ => {
                for src in 0..tables.n as NodeId {
                    self.from(src);
                }
            }
        }
        &self.val
    }

    /// Walks `src`'s next-hop chain until it meets a node already resolved
    /// this epoch (`dst` itself at the latest), then unwinds, resolving
    /// every node it passed.
    #[inline]
    fn climb(
        &mut self,
        src: NodeId,
        link_latency_us: &[u64],
        step: impl Fn(NodeId) -> (NodeId, LinkId),
    ) -> u64 {
        let mut cur = src;
        let mut lat = loop {
            if self.stamp[cur as usize] == self.epoch {
                break self.val[cur as usize];
            }
            let (hop, link) = step(cur);
            if hop == NodeId::MAX {
                self.val[cur as usize] = u64::MAX;
                self.stamp[cur as usize] = self.epoch;
                break u64::MAX;
            }
            self.stack.push((cur, link_latency_us[link.0 as usize]));
            debug_assert!(self.stack.len() <= self.val.len(), "routing loop detected");
            cur = hop;
        };
        while let Some((node, via)) = self.stack.pop() {
            if lat != u64::MAX {
                lat += via;
            }
            self.val[node as usize] = lat;
            self.stamp[node as usize] = self.epoch;
        }
        lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::campus::campus;
    use massf_topology::Network;

    fn line() -> Network {
        let mut net = Network::new();
        for i in 0..4 {
            net.add_router(format!("r{i}"), 0);
        }
        net.add_link(0, 1, 100.0, 10);
        net.add_link(1, 2, 100.0, 10);
        net.add_link(2, 3, 100.0, 10);
        net
    }

    /// Every representation of the same network, for paired assertions.
    fn both(net: &Network) -> [RoutingTables; 3] {
        [
            RoutingTables::build(net),
            RoutingTables::build_compressed(net),
            RoutingTables::build_lazy(net),
        ]
    }

    #[test]
    fn next_hops_follow_the_line() {
        for t in both(&line()) {
            assert_eq!(t.next_hop(0, 3), Some(1), "{:?}", t.kind());
            assert_eq!(t.next_hop(1, 3), Some(2));
            assert_eq!(t.next_hop(2, 3), Some(3));
            assert_eq!(t.next_hop(3, 3), None);
        }
    }

    #[test]
    fn path_and_latency() {
        for t in both(&line()) {
            assert_eq!(t.path(0, 3), Some(vec![0, 1, 2, 3]), "{:?}", t.kind());
            assert_eq!(t.latency_us(0, 3), Some(30));
            assert_eq!(t.path(2, 0), Some(vec![2, 1, 0]));
        }
    }

    #[test]
    fn path_links_match_path() {
        let net = line();
        for t in both(&net) {
            let links = t.path_links(0, 3).unwrap();
            assert_eq!(links.len(), 3);
            let path = t.path(0, 3).unwrap();
            for (i, l) in links.iter().enumerate() {
                let link = net.link(*l);
                let (a, b) = (path[i], path[i + 1]);
                assert!(
                    (link.a == a && link.b == b) || (link.a == b && link.b == a),
                    "link {i} does not join {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn self_path_is_singleton() {
        for t in both(&line()) {
            assert_eq!(t.path(2, 2), Some(vec![2]), "{:?}", t.kind());
            assert_eq!(t.path_links(2, 2), Some(vec![]));
            assert_eq!(t.latency_us(2, 2), Some(0));
        }
    }

    #[test]
    fn unreachable_gives_none() {
        let mut net = line();
        net.add_host("island", 0);
        // Can't add a link: host must stay isolated for this test.
        for t in both(&net) {
            assert_eq!(t.path(0, 4), None, "{:?}", t.kind());
            assert_eq!(t.latency_us(0, 4), None);
            assert_eq!(t.next_hop(0, 4), None);
            assert_eq!(t.path(4, 0), None);
            assert_eq!(t.latency_us(4, 0), None);
        }
    }

    #[test]
    fn a_route_that_dead_ends_mid_path_is_unreachable() {
        use crate::interval::Row;
        // Node 0 says "toward 3, leave for 1"; node 1 says "3? no route".
        // No builder produces such rows; every reader must still agree on
        // "unreachable" — and not index row `NodeId::MAX` in release.
        let net = line();
        let order: Vec<NodeId> = (0..4).collect();
        let t = IntervalTables::empty(&net, &order, false);
        let honest = RoutingTables::build(&net);
        for src in 0..4 {
            t.install(
                src,
                Row::encode(&order, src, |dst| match (src, dst) {
                    (1, 3) => (NodeId::MAX, NO_LINK),
                    _ => (
                        honest.next_hop(src, dst).unwrap(),
                        honest.next_link_raw(src, dst),
                    ),
                }),
            );
        }
        let t = RoutingTables {
            n: 4,
            repr: Repr::Interval(t),
        };
        assert_eq!(t.next_hop(0, 3), Some(1), "the first hop exists");
        assert_eq!(t.path(0, 3), None);
        assert_eq!(t.path_links(0, 3), None);
        assert_eq!(t.latency_us(0, 3), None);
        assert_eq!(t.path(0, 2), Some(vec![0, 1, 2]), "other routes intact");
    }

    #[test]
    fn parallel_build_matches_serial() {
        for net in [line(), campus()] {
            for kind in [
                RoutingKind::Dense,
                RoutingKind::Compressed,
                RoutingKind::Lazy,
            ] {
                let serial = RoutingTables::build_kind(&net, kind, Parallelism::serial());
                for threads in [2, 3, 8] {
                    let par = RoutingTables::build_kind(&net, kind, Parallelism::new(threads));
                    assert_eq!(serial, par, "{kind:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn compressed_equals_dense_on_every_pair() {
        for net in [line(), campus()] {
            let dense = RoutingTables::build(&net);
            let comp = RoutingTables::build_compressed(&net);
            let n = net.node_count() as NodeId;
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(dense.next_hop(a, b), comp.next_hop(a, b), "hop {a}->{b}");
                    assert_eq!(dense.next_link(a, b), comp.next_link(a, b), "link {a}->{b}");
                    assert_eq!(
                        dense.latency_us(a, b),
                        comp.latency_us(a, b),
                        "latency {a}->{b}"
                    );
                    assert_eq!(dense.path(a, b), comp.path(a, b), "path {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn kind_round_trips_through_labels() {
        for kind in [
            RoutingKind::Dense,
            RoutingKind::Compressed,
            RoutingKind::Lazy,
        ] {
            assert_eq!(RoutingKind::parse(kind.label()), Some(kind));
            let t = RoutingTables::build_kind(&line(), kind, Parallelism::serial());
            assert_eq!(t.kind(), kind);
        }
        assert_eq!(RoutingKind::parse("sparse"), None);
        assert_eq!(RoutingKind::default(), RoutingKind::Compressed);
    }

    #[test]
    fn for_each_hop_visits_path_and_links() {
        let net = line();
        for t in both(&net) {
            let mut nodes = Vec::new();
            let mut links = Vec::new();
            assert!(t.for_each_hop(0, 3, |n, l| {
                nodes.push(n);
                links.extend(l);
            }));
            assert_eq!(nodes, t.path(0, 3).unwrap());
            assert_eq!(links, t.path_links(0, 3).unwrap());
            assert_eq!(links.len(), nodes.len() - 1);
        }
    }

    #[test]
    fn for_each_hop_self_and_unreachable() {
        let mut net = line();
        net.add_host("island", 0);
        for t in both(&net) {
            let mut visits = Vec::new();
            assert!(t.for_each_hop(2, 2, |n, l| visits.push((n, l))));
            assert_eq!(visits, vec![(2, None)]);
            assert!(!t.for_each_hop(0, 4, |_, _| panic!("unreachable must not visit")));
        }
    }

    #[test]
    fn campus_all_pairs_reachable_and_symmetric_latency() {
        let net = campus();
        for t in both(&net) {
            let n = net.node_count() as NodeId;
            for a in 0..n {
                for b in 0..n {
                    let lat_ab = t.latency_us(a, b).expect("campus connected");
                    let lat_ba = t.latency_us(b, a).expect("campus connected");
                    assert_eq!(lat_ab, lat_ba, "latency asymmetry {a}<->{b}");
                }
            }
        }
    }

    #[test]
    fn routes_are_consistent_prefixes() {
        // Routing consistency: if path(a,c) passes through b, then the
        // suffix from b equals path(b,c). Guaranteed by deterministic
        // Dijkstra tie-breaking; the emulator relies on it for hop-by-hop
        // forwarding.
        let net = campus();
        for t in both(&net) {
            let hosts = net.hosts();
            for &a in hosts.iter().take(6) {
                for &c in hosts.iter().rev().take(6) {
                    if a == c {
                        continue;
                    }
                    let path = t.path(a, c).unwrap();
                    for (i, &b) in path.iter().enumerate() {
                        let sub = t.path(b, c).unwrap();
                        assert_eq!(&path[i..], &sub[..], "suffix mismatch at {b}");
                    }
                }
            }
        }
    }
}
