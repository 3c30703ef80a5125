//! All-pairs next-hop routing tables: the public query API over the one
//! interval-row table (DESIGN.md §13), and the two policies that fill it.

use crate::interval::IntervalTables;
use massf_par::Parallelism;
use massf_topology::{LinkId, Network, NodeId};

/// How the routing table's rows get filled. Both policies fill the same
/// structure and answer every query bit-identically (same hops, links,
/// and latencies), which the equivalence suite and `bench_routing
/// --smoke` / `bench_slice --smoke` assert on every shipped scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingKind {
    /// Run-length/interval-encoded rows over a coalescing-friendly
    /// destination renumbering, with degree-1 hosts sharing their access
    /// router's uplink instead of materializing a row, every row encoded
    /// up front. The default: it is what makes large topologies affordable
    /// (the paper's O(n²) wall).
    #[default]
    Compressed,
    /// The same rows materialized on demand: the build keeps only the
    /// O(n + links) inputs (renumbering, leaf records, link-latency
    /// snapshot, topology snapshot) and encodes a source's row on its
    /// first lookup. With a partitioned emulation each engine only ever
    /// queries its own sources, so resident bytes follow the engine's
    /// slice of the network, not all n rows (DESIGN.md §16).
    Lazy,
}

/// All-pairs routing state: for every `(src, dst)` the next hop out of
/// `src`, plus path latencies. Built once per topology ("we instantiate the
/// emulated network and detect the actual routes used", §3.2).
///
/// `PartialEq`/`Eq` compare the rows filled so far; the determinism suite
/// relies on this to assert parallel and serial builds are identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTables {
    pub(crate) interval: IntervalTables,
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

impl RoutingTables {
    /// Computes the routing tables for the whole network (one Dijkstra
    /// run per row-storing source) on a single thread. Equivalent to
    /// [`build_with`](Self::build_with)`(net, Parallelism::serial())`.
    pub fn build(net: &Network) -> Self {
        Self::build_with(net, Parallelism::serial())
    }

    /// Computes the routing tables with up to `par` worker threads, one
    /// Dijkstra source per work item. Every source's row is encoded into
    /// its own slot, so the output is bit-identical for every thread
    /// count. `Parallelism::serial()` runs the plain loop with no thread
    /// machinery.
    pub fn build_with(net: &Network, par: Parallelism) -> Self {
        Self {
            interval: IntervalTables::prefilled(net, par),
        }
    }

    /// Builds lazy on-demand tables: only the O(n + links) inputs are
    /// computed here (renumbering, leaf records, latency snapshot); rows
    /// materialize on first lookup, bit-identical to the eager encoding
    /// regardless of lookup order or thread count. The build is already
    /// sub-linear in total row work, so there is no parallel variant —
    /// `build_kind` accepts (and ignores) the parallelism knob.
    pub fn build_lazy(net: &Network) -> Self {
        Self {
            interval: IntervalTables::on_demand(net),
        }
    }

    /// Builds the tables under the fill policy `kind` selects.
    pub fn build_kind(net: &Network, kind: RoutingKind, par: Parallelism) -> Self {
        match kind {
            RoutingKind::Compressed => Self::build_with(net, par),
            RoutingKind::Lazy => Self::build_lazy(net),
        }
    }

    /// Which policy fills these tables.
    pub fn kind(&self) -> RoutingKind {
        if self.interval.demand.is_some() {
            RoutingKind::Lazy
        } else {
            RoutingKind::Compressed
        }
    }

    /// Number of nodes the tables cover.
    pub fn node_count(&self) -> usize {
        self.interval.rows.len()
    }

    /// Next hop from `src` toward `dst`, or `None` at destination /
    /// unreachable.
    #[inline]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let h = self.interval.entry(src, dst).0;
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
    /// first time a route reaches one of its hops and pins the answer: an
    /// O(log runs) binary search over the source's row.
    #[inline]
    pub fn next_link_raw(&self, src: NodeId, dst: NodeId) -> LinkId {
        self.interval.entry(src, dst).1
    }

    /// End-to-end latency (µs) of the routed path, `None` if unreachable:
    /// a walk of the next-hop chain summing per-link latencies, which is
    /// the Dijkstra distance (the same integer sum). For many sources
    /// toward one destination use [`latencies_to`](Self::latencies_to).
    #[inline]
    pub fn latency_us(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let l = self.interval.latency_us(src, dst);
        (l != u64::MAX).then_some(l)
    }

    /// Walks the routed path `src → dst` once, calling
    /// `f(node, link_toward_dst)` for every node in path order. The link
    /// is the one leaving `node` toward `dst`; at `dst` itself (and for
    /// `src == dst`) it is `None`.
    ///
    /// Returns `false` without calling `f` when `dst` is unreachable (a
    /// hand-installed row that dead-ends mid-path also returns `false`,
    /// after the nodes before the dead end were visited — no builder
    /// produces one). This is the allocation-free primitive behind
    /// [`path`](Self::path), [`path_links`](Self::path_links), and the
    /// traffic-weight accumulators, which previously each re-walked the
    /// tables.
    #[inline]
    pub fn for_each_hop<F: FnMut(NodeId, Option<LinkId>)>(
        &self,
        src: NodeId,
        dst: NodeId,
        mut f: F,
    ) -> bool {
        let reached = self
            .interval
            .walk(src, dst, |node, link| f(node, Some(link)));
        if reached {
            f(dst, None);
        }
        reached
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
/// All routes toward one destination share their tails, so
/// `lat(s→dst) = link(s, hop) + lat(hop→dst)` is computed once per node
/// and remembered in epoch-stamped arrays: a full column costs n single
/// lookups instead of n chain walks, a leaf source costs no binary search
/// at all (its value is its parent's plus the uplink), and retargeting is
/// O(1).
///
/// Answers equal [`RoutingTables::latency_us`] with `None` folded to
/// `u64::MAX`. Created by [`RoutingTables::latencies_to`]; nothing is
/// allocated after that.
#[derive(Debug)]
pub struct LatenciesTo<'t> {
    tables: &'t IntervalTables,
    dst: NodeId,
    /// `val[v]` is `lat(v→dst)` where `stamp[v] == epoch`.
    val: Vec<u64>,
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
        let n = self.node_count();
        LatenciesTo {
            tables: &self.interval,
            dst: NodeId::MAX,
            val: vec![0; n],
            stamp: vec![0; n],
            epoch: 1,
            stack: Vec::new(),
        }
    }
}

impl LatenciesTo<'_> {
    /// Points the reader at `dst`, forgetting the previous column in O(1).
    pub fn retarget(&mut self, dst: NodeId) {
        assert!((dst as usize) < self.val.len(), "destination out of range");
        self.dst = dst;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 2³² retargets ago would read as current.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.val[dst as usize] = 0;
        self.stamp[dst as usize] = self.epoch;
    }

    /// Latency `src → dst` in microseconds; `u64::MAX` when unreachable.
    /// Walks `src`'s next-hop chain until it meets a node already resolved
    /// this epoch (`dst` itself at the latest), then unwinds, resolving
    /// every node it passed.
    ///
    /// # Panics
    /// Panics if no destination was set, or `src` is out of range.
    #[inline]
    pub fn from(&mut self, src: NodeId) -> u64 {
        assert!(self.dst != NodeId::MAX, "LatenciesTo::retarget first");
        let mut cur = src;
        let mut lat = loop {
            if self.stamp[cur as usize] == self.epoch {
                break self.val[cur as usize];
            }
            let (hop, link) = self.tables.climb_step(cur, self.dst);
            if hop == NodeId::MAX {
                self.val[cur as usize] = u64::MAX;
                self.stamp[cur as usize] = self.epoch;
                break u64::MAX;
            }
            let via = self.tables.link_latency_us[link.0 as usize];
            self.stack.push((cur, via));
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

    /// Resolves every source and returns the whole column, indexed by
    /// node id.
    ///
    /// # Panics
    /// Panics if no destination was set.
    pub fn all(&mut self) -> &[u64] {
        for src in 0..self.val.len() as NodeId {
            self.from(src);
        }
        &self.val
    }
}

#[cfg(test)]
use crate::spf::SpfTree;

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
impl RoutingTables {
    /// A table whose rows are hand-installed from `route(src, dst)` — no
    /// builder in the way. `NodeId::MAX` is "no route"; the link is the
    /// one joining `src` to the hop. For tests that need rows no builder
    /// would produce. Without `leaves` every node gets a row; with it,
    /// degree-1 nodes keep the builders' leaf records (and `route` is
    /// never asked for their rows).
    pub(crate) fn hand_installed(
        net: &Network,
        leaves: bool,
        route: impl Fn(NodeId, NodeId) -> NodeId,
    ) -> Self {
        use crate::interval::Row;
        let order: Vec<NodeId> = (0..net.node_count() as NodeId).collect();
        let interval = IntervalTables::empty(net, &order, leaves);
        for &src in order
            .iter()
            .filter(|&&v| interval.leaf[v as usize].is_none())
        {
            let row = Row::encode(&order, src, |dst| match route(src, dst) {
                NodeId::MAX => (NodeId::MAX, NO_LINK),
                hop => (hop, net.link_between(src, hop).expect("hops are adjacent")),
            });
            interval.install(src, row);
        }
        Self { interval }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Oracle;
    use super::*;
    use massf_topology::campus::campus;

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

    /// The same network under both fill policies, for paired assertions.
    fn both(net: &Network) -> [RoutingTables; 2] {
        [RoutingTables::build(net), RoutingTables::build_lazy(net)]
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
        // Node 0 says "toward 3, leave for 1"; node 1 says "3? no route".
        // No builder produces such rows; every reader must still agree on
        // "unreachable" — and not index row `NodeId::MAX` in release.
        let net = line();
        let honest = RoutingTables::build(&net);
        let t = RoutingTables::hand_installed(&net, false, |src, dst| match (src, dst) {
            (1, 3) => NodeId::MAX,
            _ => honest.next_hop(src, dst).unwrap(),
        });
        assert_eq!(t.next_hop(0, 3), Some(1), "the first hop exists");
        assert_eq!(t.path(0, 3), None);
        assert_eq!(t.path_links(0, 3), None);
        assert_eq!(t.latency_us(0, 3), None);
        assert_eq!(t.path(0, 2), Some(vec![0, 1, 2]), "other routes intact");
    }

    #[test]
    fn parallel_build_matches_serial() {
        for net in [line(), campus()] {
            for kind in [RoutingKind::Compressed, RoutingKind::Lazy] {
                let serial = RoutingTables::build_kind(&net, kind, Parallelism::serial());
                for threads in [2, 3, 8] {
                    let par = RoutingTables::build_kind(&net, kind, Parallelism::new(threads));
                    assert_eq!(serial, par, "{kind:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn both_policies_equal_the_oracle_on_every_pair() {
        let mut island = line();
        island.add_host("island", 0);
        for net in [line(), island, campus()] {
            let oracle = Oracle::build(&net);
            for t in both(&net) {
                oracle.assert_answers(&t, &format!("{:?}", t.kind()));
            }
        }
    }

    #[test]
    fn tables_report_the_kind_they_were_built_with() {
        for kind in [RoutingKind::Compressed, RoutingKind::Lazy] {
            let t = RoutingTables::build_kind(&line(), kind, Parallelism::serial());
            assert_eq!(t.kind(), kind);
        }
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
