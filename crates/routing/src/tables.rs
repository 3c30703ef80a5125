//! All-pairs next-hop routing tables: the one table type, its public query
//! API and the two policies that fill it. Its interval rows and the lookups
//! every query goes through are in `interval` (DESIGN.md §13).

use crate::interval::{renumber, Demand, Row};
use crate::spf::SpfScratch;
use massf_par::{par_for_each_init, Parallelism};
use massf_topology::{LinkId, Network, NodeId};
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// How the routing table's rows get filled. Both policies fill the same
/// structure and answer every query bit-identically (same hops, links,
/// and latencies), which the equivalence suite and `bench_routing
/// --smoke` / `bench_slice --smoke` assert on every shipped scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingKind {
    /// Run-length/interval-encoded rows over a coalescing-friendly
    /// destination renumbering, with degree-1 hosts keeping their access
    /// router's uplink instead of a row and a column, every row encoded
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
/// emulated network and detect the actual routes used", §3.2), as one
/// interval-encoded row per non-leaf source (DESIGN.md §13).
#[derive(Debug)]
pub struct RoutingTables {
    /// `rank[node]` = position of `node` among the core (the nodes without
    /// a leaf record) in the renumbered destination order; a leaf's is its
    /// parent's.
    pub(crate) rank: Vec<u32>,
    /// Degree-1 leaf records: `Some((parent, uplink))` means the node
    /// stores no row, every route exits over the uplink, and no row has a
    /// column for it (it is reached the way its parent is). The builder
    /// guarantees `parent` has degree ≥ 2, so the parent is never itself a
    /// leaf and lookups delegate at most once.
    pub(crate) leaf: Vec<Option<(NodeId, LinkId)>>,
    /// Per-source row slot, filled exactly once — up front or on first
    /// demand. Leaf sources leave theirs empty forever.
    pub(crate) rows: Vec<OnceLock<Row>>,
    /// Per-link latency snapshot (indexed by `LinkId`) for
    /// latency-by-walking.
    pub(crate) link_latency_us: Vec<u64>,
    /// `Some` for an on-demand table; `None` once every row is installed.
    pub(crate) demand: Option<Demand>,
}

/// Structural equality: renumbering, leaf records, the rows filled so far
/// and the latency snapshot — the determinism suite relies on it to assert
/// parallel and serial builds are identical. The encode inputs and
/// counters are excluded — `Network` carries f64 bandwidths that would
/// forfeit `Eq`, and a prefilled table equals an on-demand one whose every
/// row has been demanded.
impl PartialEq for RoutingTables {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
            && self.leaf == other.leaf
            && self.rows == other.rows
            && self.link_latency_us == other.link_latency_us
    }
}

impl Eq for RoutingTables {}

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
    /// Dijkstra source per work item (one scratch per worker); degree-1
    /// leaves skip Dijkstra entirely. Every source's row is encoded into
    /// its own slot, so the output is bit-identical for every thread
    /// count. `Parallelism::serial()` runs the plain loop with no thread
    /// machinery.
    pub fn build_with(net: &Network, par: Parallelism) -> Self {
        let order = renumber(net);
        let tables = Self::empty(net, &order);
        let sources: Vec<NodeId> = (0..order.len() as NodeId)
            .filter(|&v| tables.leaf[v as usize].is_none())
            .collect();
        par_for_each_init(par, sources, SpfScratch::new, |scratch, src| {
            tables.install(src, tables.encode_spf_row(net, src, &order, scratch));
        });
        tables
    }

    /// Builds lazy on-demand tables: only the O(n + links) inputs are
    /// computed here (renumbering, leaf records, latency snapshot); rows
    /// materialize on first lookup, bit-identical to the eager encoding
    /// regardless of lookup order or thread count. The build is already
    /// sub-linear in total row work, so there is no parallel variant —
    /// `build_kind` accepts (and ignores) the parallelism knob.
    pub fn build_lazy(net: &Network) -> Self {
        let order = renumber(net);
        let mut tables = Self::empty(net, &order);
        tables.demand = Some(Demand {
            net: net.clone(),
            lookups: order.iter().map(|_| AtomicU64::new(0)).collect(),
            order,
        });
        tables
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
        if self.demand.is_some() {
            RoutingKind::Lazy
        } else {
            RoutingKind::Compressed
        }
    }

    /// Number of nodes the tables cover.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Next hop from `src` toward `dst`, or `None` at destination /
    /// unreachable.
    #[inline]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let h = self.entry(src, dst).0;
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
        self.entry(src, dst).1
    }

    /// End-to-end latency (µs) of the routed path, `None` if unreachable:
    /// a walk of the next-hop chain summing per-link latencies, which is
    /// the Dijkstra distance (the same integer sum).
    #[inline]
    pub fn latency_us(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let mut lat = 0;
        self.walk(src, dst, |_, link| {
            lat += self.link_latency_us[link.0 as usize]
        })
        .then_some(lat)
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
        let reached = self.walk(src, dst, |node, link| f(node, Some(link)));
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

#[cfg(test)]
use crate::spf::SpfTree;

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
impl RoutingTables {
    /// A table whose rows are hand-installed from `route(src, dst)` — no
    /// builder in the way. `NodeId::MAX` is "no route"; the link is the
    /// one joining `src` to the hop. For tests that need rows no builder
    /// would produce. Without `leaves` every node gets a row and a column;
    /// with it, degree-1 nodes keep the builders' leaf records (and `route`
    /// is never asked for their rows or their columns).
    pub(crate) fn hand_installed(
        net: &Network,
        leaves: bool,
        route: impl Fn(NodeId, NodeId) -> NodeId,
    ) -> Self {
        let order: Vec<NodeId> = (0..net.node_count() as NodeId).collect();
        let mut tables = Self::empty(net, &order);
        if !leaves {
            tables.leaf.fill(None);
            tables.rank = order.clone();
        }
        for &src in order.iter().filter(|&&v| tables.leaf[v as usize].is_none()) {
            let row = tables.encode(&order, src, |dst| match route(src, dst) {
                NodeId::MAX => (NodeId::MAX, NO_LINK),
                hop => (hop, net.link_between(src, hop).expect("hops are adjacent")),
            });
            tables.install(src, row);
        }
        tables
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
