//! Static probes over built routing tables, consumed by the artifact
//! audit (`massf-lint` MC014/MC015). [`sweep`] runs both and returns
//! their [`Findings`]:
//!
//! * **asymmetry** — (src, dst) pairs whose A→B and B→A shortest-path
//!   latencies disagree. Links are bidirectional with one latency, so
//!   Dijkstra over an intact table is symmetric by construction;
//!   asymmetry means a corrupted or hand-edited table (or a future
//!   directed-link model leaking in) and breaks the conservative
//!   lookahead argument, which assumes the cut latency bounds *both*
//!   directions.
//! * **ECMP** — (src, dst) pairs with several equal-cost first hops.
//!   The Dijkstra tie-break (latency, then hop count, then node id) picks
//!   one deterministically, but the choice is an artifact of node
//!   numbering: renumbering the topology re-routes that traffic and shifts
//!   link load between engines. The audit surfaces how much of the route
//!   set rests on tie-breaks.
//!
//! The sweep covers the router core, not every node. A leaf (a degree-1
//! node with the tables' leaf record, hanging off parent `p` over an
//! uplink of latency `u`) is *folded* onto `p`: no row has a column for
//! it, every source but `p` reaches it the way it reaches `p`, `p` over
//! the uplink, and the leaf itself leaves over the uplink whatever the
//! destination. So `lat(x→h) = lat(x→p) + u` and `lat(h→x) = u + lat(p→x)`
//! hold by construction (`Fold::new` reads the leaf records alone);
//! tables without leaf records sweep every node. Each swept result then
//! stands for the folded pairs it implies, and every witness goes through
//! the same first-`cap` selection, so totals and witness lists are those
//! of a sweep over every pair.
//!
//! The swept nodes are taken in rank order, so a tile of destinations is
//! one rank range: each row is read once per tile (one binary search,
//! then a walk over its runs) into at most 1 MiB of scratch
//! (`SCRATCH_BYTES`), and the columns `lat(·→d)` are climbed from there.
//! While one is resident, the MC015 neighbour loop also checks Bellman's
//! inequality `lat(x→d) ≤ w(x,v) + lat(v→d)` at every swept `x`, for
//! every neighbour `v` but a folded leaf (which only leads back to `x`).
//! Links have strictly positive latency (`Network::add_link`), so a
//! shortest path's inner nodes have degree ≥ 2 and are swept: if no
//! column breaks the inequality, induction back from `d` along a shortest
//! path gives `lat(x→d) ≤ dist(x, d)`, every route is a shortest path,
//! and `dist` is symmetric. The tables are then
//! [certified](Findings::certified), with no asymmetric pair; only tables
//! that are not get the exact compare of resident columns against their
//! transposes.
//!
//! Both probes collect at most a caller-given number of witnesses and
//! return the exact total alongside, so lint reports stay bounded while
//! the summary stays truthful.

use crate::tables::NO_LINK;
use crate::RoutingTables;
use massf_topology::{LinkId, Network, NodeId};
use std::collections::BinaryHeap;
use std::ops::Range;

#[cfg(test)]
mod naive;

/// Most the sweep may hold at once: a tile of 8-byte row entries (for
/// tables that fail the certificate, half a tile beside half a tile of
/// resident latencies) plus its per-node arrays. The budget binds before
/// the `MIN_TILES` share does from about n = 2 000 nodes up.
const SCRATCH_BYTES: usize = 1 << 20;

/// A tile holds no more bytes than 1/32 of the n columns of n nodes
/// would, even when the budget allows more, so on a small network the
/// scratch stays in proportion to a run that itself peaks at a few MiB
/// (a budget-sized tile at n = 564 measured +0.4 MiB on a 5.2 MiB peak;
/// 1/32 of the columns, 80 KiB, measures +0).
const MIN_TILES: usize = 32;

/// The slot of a folded leaf, and the hop of a route that ends.
const NONE: u32 = u32::MAX;

/// The first `cap` witnesses in ascending key order, from sweeps that
/// meet them out of order (a max-heap of the `cap` smallest keys so far).
struct FirstK<T> {
    cap: usize,
    heap: BinaryHeap<((NodeId, NodeId), T)>,
}

impl<T: Ord> FirstK<T> {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            heap: BinaryHeap::new(),
        }
    }

    /// Keeps the witness at `key` (unique per sweep) if it is among the
    /// first `cap` so far; `witness` runs only then.
    fn offer(&mut self, key: (NodeId, NodeId), witness: impl FnOnce() -> T) {
        if self.heap.len() < self.cap {
            self.heap.push((key, witness()));
        } else if let Some(mut last) = self.heap.peek_mut() {
            if key < last.0 {
                *last = (key, witness());
            }
        }
    }

    fn into_sorted(self) -> impl Iterator<Item = ((NodeId, NodeId), T)> {
        self.heap.into_sorted_vec().into_iter()
    }
}

/// The swept nodes and the leaves folded onto each (see the module doc).
struct Fold {
    /// Every node without a leaf record, in destination rank order; a
    /// node's index here is its slot.
    swept: Vec<NodeId>,
    /// `slot[v]`: `v`'s index in `swept`, `NONE` for a folded leaf.
    slot: Vec<u32>,
    /// `group[i]` is `swept[i]` at shift 0, then each leaf folded onto it
    /// with its uplink latency: every member's latencies are `swept[i]`'s
    /// shifted by its own uplink.
    group: Vec<Vec<(NodeId, u64)>>,
}

impl Fold {
    fn new(t: &RoutingTables) -> Self {
        let mut swept: Vec<NodeId> = (0..t.leaf.len() as NodeId)
            .filter(|&v| t.leaf[v as usize].is_none())
            .collect();
        swept.sort_unstable_by_key(|&v| t.rank[v as usize]);
        let mut slot = vec![NONE; t.leaf.len()];
        for (j, &v) in swept.iter().enumerate() {
            slot[v as usize] = j as u32;
        }
        let mut group: Vec<_> = swept.iter().map(|&v| vec![(v, 0)]).collect();
        for (h, &leaf) in t.leaf.iter().enumerate() {
            if let Some((p, uplink)) = leaf {
                let u = t.link_latency_us[uplink.0 as usize];
                group[slot[p as usize] as usize].push((h as NodeId, u));
            }
        }
        Self { swept, slot, group }
    }
}

/// The latency columns toward the swept nodes, a tile of destination
/// slots at a time. Sources are the swept nodes only.
struct Columns<'t> {
    tables: &'t RoutingTables,
    fold: &'t Fold,
    /// `ranks[j]`: the destination rank of `fold.swept[j]`, ascending.
    ranks: Vec<u32>,
    /// `step[k][j]`: the hop (a slot, `NONE` where the route ends) and
    /// link out of slot `j` toward the tile's `k`-th destination. One
    /// allocation per column, small enough to reuse memory the routing
    /// build has returned, where one 1 MiB block is fresh pages on top of
    /// the run's peak RSS (measured: +1.0 MiB on 11.6).
    step: Vec<Vec<(u32, LinkId)>>,
    /// `val[j]` is `lat(swept[j] → d)` once `done[j]`.
    val: Vec<u64>,
    done: Vec<bool>,
    /// The unresolved part of the chain being climbed: `(slot, latency of
    /// the link it leaves over)`.
    stack: Vec<(u32, u64)>,
}

impl<'t> Columns<'t> {
    fn new(tables: &'t RoutingTables, fold: &'t Fold, width: usize) -> Self {
        let s = fold.swept.len();
        Self {
            tables,
            fold,
            ranks: fold
                .swept
                .iter()
                .map(|&v| tables.rank[v as usize])
                .collect(),
            step: (0..width).map(|_| vec![(NONE, NO_LINK); s]).collect(),
            val: vec![0; s],
            done: vec![false; s],
            stack: Vec::new(),
        }
    }

    /// Reads every swept row's entries toward the slots of `tile` (at
    /// most `step.len()` of them) in one pass over its runs.
    fn load(&mut self, tile: Range<usize>) {
        let (fold, ranks) = (self.fold, &self.ranks[tile]);
        for (j, &x) in fold.swept.iter().enumerate() {
            // A hop of `NodeId::MAX` is past the end of `slot`.
            self.tables.row_entries(x, ranks, |k, (hop, link)| {
                let hop = fold.slot.get(hop as usize).copied().unwrap_or(NONE);
                self.step[k][j] = (hop, link);
            });
        }
    }

    /// Fills `val` with the column toward slot `d`, the loaded tile's
    /// `k`-th, `u64::MAX` where unreachable: each source's chain is
    /// climbed until it meets a resolved node (`d` at the latest), then
    /// unwound, so every shared tail is paid once.
    fn climb(&mut self, k: usize, d: usize) {
        let step = &self.step[k];
        self.done.fill(false);
        (self.val[d], self.done[d]) = (0, true);
        for j in 0..self.val.len() {
            let mut cur = j;
            let mut lat = loop {
                if self.done[cur] {
                    break self.val[cur];
                }
                let (hop, link) = step[cur];
                if hop == NONE {
                    (self.val[cur], self.done[cur]) = (u64::MAX, true);
                    break u64::MAX;
                }
                let via = self.tables.link_latency_us[link.0 as usize];
                self.stack.push((cur as u32, via));
                debug_assert!(self.stack.len() <= self.val.len(), "routing loop detected");
                cur = hop as usize;
            };
            while let Some((node, via)) = self.stack.pop() {
                lat = lat.saturating_add(via);
                (self.val[node as usize], self.done[node as usize]) = (lat, true);
            }
        }
    }
}

/// One src/dst pair whose two directions disagree on shortest-path
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsymmetricPair {
    /// Pair endpoint with the lower node id.
    pub a: NodeId,
    /// Pair endpoint with the higher node id.
    pub b: NodeId,
    /// Latency a→b in microseconds (`u64::MAX` when unreachable).
    pub ab_us: u64,
    /// Latency b→a in microseconds (`u64::MAX` when unreachable).
    pub ba_us: u64,
}

/// One src/dst pair whose shortest path admits several equal-cost first
/// hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcmpSite {
    /// Route source.
    pub src: NodeId,
    /// Route destination.
    pub dst: NodeId,
    /// Every cost-optimal first hop out of `src`, ascending by node id.
    /// Always at least two entries.
    pub next_hops: Vec<NodeId>,
}

/// Both probes' findings: up to `cap` witnesses each in ascending key
/// order, with the exact total beside them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Findings {
    /// Pairs whose two directions disagree on latency, keyed `(a, b)`
    /// with `a < b`. One-way reachability (one direction `u64::MAX`)
    /// counts as asymmetry.
    pub asymmetric: (Vec<AsymmetricPair>, usize),
    /// Routes with several cost-optimal first hops, keyed `(src, dst)`:
    /// neighbour `v` of `src` is optimal toward `dst` when
    /// `link(src,v) + dist(v,dst) == dist(src,dst)`.
    pub ecmp: (Vec<EcmpSite>, usize),
    /// Every route is a shortest path, so none is asymmetric, proved
    /// without a compare (see the module doc). Shortest-path tables
    /// always certify; hierarchical ones may not.
    pub certified: bool,
}

/// Runs both probes in one sweep of the swept set's latency columns.
pub fn sweep(net: &Network, tables: &RoutingTables, cap: usize) -> Findings {
    let fold = Fold::new(tables);
    let (n, s) = (tables.node_count(), fold.swept.len().max(1));
    // 21 bytes per node are the sweep's own arrays: the slot map, then
    // each swept node's rank, latency and flag.
    let bytes = SCRATCH_BYTES
        .saturating_sub(21 * n)
        .min(8 * n * n.div_ceil(MIN_TILES));
    sweep_tiled(net, tables, &fold, cap, (bytes / (8 * s)).clamp(1, s))
}

/// The sweep over tiles of `width` destination slots: MC015 and the
/// certificate run over each column as it is climbed, and only tables
/// that fail the certificate go on to the exact compare.
fn sweep_tiled(
    net: &Network,
    tables: &RoutingTables,
    fold: &Fold,
    cap: usize,
    width: usize,
) -> Findings {
    debug_assert_eq!(tables.node_count(), net.node_count());
    let s = fold.swept.len();
    let mut cols = Columns::new(tables, fold, width);
    let mut ecmp = Ecmp {
        net,
        hops: Vec::new(),
        first: FirstK::new(cap),
        total: 0,
        certified: true,
    };
    for t0 in (0..s).step_by(width) {
        let tile = t0..(t0 + width).min(s);
        cols.load(tile.clone());
        for d in tile {
            cols.climb(d - t0, d);
            ecmp.toward(&cols, d);
        }
    }
    let (mut asym, mut asym_total) = (FirstK::new(cap), 0);
    if !ecmp.certified {
        asym_total = asymmetry(&mut cols, &mut asym);
    }
    let pairs = asym
        .into_sorted()
        .map(|((a, b), (ab_us, ba_us))| AsymmetricPair { a, b, ab_us, ba_us });
    let sites = ecmp
        .first
        .into_sorted()
        .map(|((src, dst), next_hops)| EcmpSite {
            src,
            dst,
            next_hops,
        });
    Findings {
        asymmetric: (pairs.collect(), asym_total),
        ecmp: (sites.collect(), ecmp.total),
        certified: ecmp.certified,
    }
}

/// MC014's exact compare, for tables that fail the certificate; returns
/// the total. Tiles are half the reader's width, so a resident tile and
/// the reader share its budget. Each swept pair is met once, `p` in the
/// resident tile and `q` at or after it: `lat(p→q)` from `q`'s column,
/// `lat(q→p)` from `p`'s. An asymmetric `(p, q)` stands for every pair
/// of their groups, each shifted by both members' uplinks; pairs inside
/// one group are symmetric (`u + u'` both ways).
fn asymmetry(cols: &mut Columns, first: &mut FirstK<(u64, u64)>) -> usize {
    let (fold, s) = (cols.fold, cols.val.len());
    let width = cols.step.len().div_ceil(2);
    cols.step.truncate(width);
    let mut tile: Vec<Vec<u64>> = (0..width).map(|_| vec![0; s]).collect();
    let mut total = 0;
    for a0 in (0..s).step_by(width) {
        let a1 = (a0 + width).min(s);
        cols.load(a0..a1);
        for (p, resident) in (a0..a1).zip(&mut tile) {
            cols.climb(p - a0, p);
            resident.copy_from_slice(&cols.val);
        }
        for b0 in (a0..s).step_by(width) {
            if b0 > a0 {
                cols.load(b0..(b0 + width).min(s));
            }
            for q in b0..(b0 + width).min(s) {
                cols.climb(q - b0, q);
                for (p, back) in (a0..a1.min(q)).zip(&tile) {
                    let (pq, qp) = (cols.val[p], back[q]);
                    if pq == qp {
                        continue;
                    }
                    for &(a, ua) in &fold.group[p] {
                        for &(b, ub) in &fold.group[q] {
                            let (ab, ba) = (pq.saturating_add(ua + ub), qp.saturating_add(ua + ub));
                            total += 1;
                            if a < b {
                                first.offer((a, b), || (ab, ba));
                            } else {
                                first.offer((b, a), || (ba, ab));
                            }
                        }
                    }
                }
            }
        }
    }
    total
}

/// MC015 and the certificate, over one column at a time.
struct Ecmp<'n> {
    net: &'n Network,
    hops: Vec<NodeId>,
    first: FirstK<Vec<NodeId>>,
    total: usize,
    /// No column so far breaks Bellman's inequality.
    certified: bool,
}

impl Ecmp<'_> {
    /// Runs over the column `cols.val` toward slot `d`. At every swept
    /// source, each neighbour but a folded leaf is held to Bellman's
    /// inequality and is an optimal first hop where it holds with
    /// equality. A site `(x, d)` stands for `(x, h)` with the same hops
    /// for every leaf `h` folded onto `d` (both sides of the test shift by
    /// `h`'s uplink). `(d, h)` itself never is one: any hop but `h` pays a
    /// positive link, then `h`'s uplink on top.
    fn toward(&mut self, cols: &Columns, d: usize) {
        let (lat, w, fold) = (&cols.val, &cols.tables.link_latency_us, cols.fold);
        // `None` for a folded leaf, whose slot `NONE` is past the end of `lat`.
        let through = |&(v, l): &(NodeId, LinkId)| {
            Some(w[l.0 as usize].saturating_add(*lat.get(fold.slot[v as usize] as usize)?))
        };
        for (x, &src) in fold.swept.iter().enumerate() {
            let dist = lat[x];
            let (mut fits, mut ties) = (true, 0);
            for t in self.net.neighbors(src).iter().filter_map(through) {
                fits &= dist <= t;
                ties += usize::from(t == dist);
            }
            self.certified &= fits;
            if ties >= 2 && x != d && dist != u64::MAX {
                self.hops.clear();
                let optimal = self
                    .net
                    .neighbors(src)
                    .iter()
                    .filter(|e| through(e) == Some(dist));
                self.hops.extend(optimal.map(|e| e.0));
                self.hops.sort_unstable();
                for &(h, _) in &fold.group[d] {
                    self.total += 1;
                    self.first.offer((src, h), || self.hops.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The damaged tables below are interval rows installed by hand
    //! ([`RoutingTables::hand_installed`]): a latency is the sum along the
    //! installed chain, so "corruption" is a route no builder would
    //! produce — a directed detour, a one-way dead end — never a poked
    //! cell. The one case the n × n matrix had and this table cannot
    //! express is a corrupted diagonal: `lat(v→v)` is not stored, so there
    //! is nothing to damage and no test for it.

    use super::*;
    use massf_topology::asys::assign_contiguous_ases;
    use massf_topology::brite::{generate, BriteConfig, GrowthModel};
    use massf_topology::teragrid::teragrid;
    use massf_topology::{Network, NodeKind};
    use proptest::prelude::*;

    /// Square r0-r1-r2-r3-r0 with equal link latencies: two equal-cost
    /// routes between opposite corners.
    fn square() -> Network {
        let mut net = Network::new();
        let r: Vec<_> = (0..4).map(|i| net.add_router(format!("r{i}"), 0)).collect();
        net.add_link(r[0], r[1], 1000.0, 100);
        net.add_link(r[1], r[2], 1000.0, 100);
        net.add_link(r[2], r[3], 1000.0, 100);
        net.add_link(r[3], r[0], 1000.0, 100);
        net
    }

    /// A small Barabási–Albert BRITE network; `tied` puts every link on
    /// the 100 µs floor.
    fn brite(routers: usize, hosts: usize, seed: u64, tied: bool) -> Network {
        let net = generate(&BriteConfig {
            routers,
            hosts,
            model: GrowthModel::BarabasiAlbert { m: 2 },
            seed,
        });
        if tied {
            on_the_floor(&net)
        } else {
            net
        }
    }

    /// `net` with every link re-added at the BRITE generator's 100 µs latency
    /// floor: hop-count routing, with equal-cost routes everywhere.
    fn on_the_floor(net: &Network) -> Network {
        let mut floor = Network::new();
        for n in net.nodes() {
            match n.kind {
                NodeKind::Router => floor.add_router(n.name.clone(), n.as_id),
                NodeKind::Host => floor.add_host(n.name.clone(), n.as_id),
            };
        }
        for l in net.links() {
            floor.add_link(l.a, l.b, l.bandwidth_mbps, 100);
        }
        floor
    }

    /// `net`'s shortest-path routes with `patch(src, dst)` overriding the
    /// next hop where it answers (`NodeId::MAX` = no route); with
    /// `leaves`, degree-1 nodes keep their leaf records.
    fn patched(
        net: &Network,
        leaves: bool,
        patch: impl Fn(NodeId, NodeId) -> Option<NodeId>,
    ) -> RoutingTables {
        let honest = RoutingTables::build(net);
        RoutingTables::hand_installed(net, leaves, |src, dst| {
            patch(src, dst).unwrap_or_else(|| honest.next_hop(src, dst).unwrap_or(NodeId::MAX))
        })
    }

    fn both(net: &Network) -> [RoutingTables; 2] {
        [RoutingTables::build(net), RoutingTables::build_lazy(net)]
    }

    type Probes = ((Vec<AsymmetricPair>, usize), (Vec<EcmpSite>, usize));

    /// The pairwise oracle's findings, beside the sweep's.
    fn oracle(net: &Network, tables: &RoutingTables, cap: usize) -> Probes {
        (
            naive::asymmetric_latencies(tables, cap),
            naive::ecmp_sites(net, tables, cap),
        )
    }

    fn probes(found: Findings) -> Probes {
        (found.asymmetric, found.ecmp)
    }

    #[test]
    fn intact_tables_are_symmetric_under_both_fill_policies() {
        let net = square();
        for tables in both(&net) {
            let found = sweep(&net, &tables, 8);
            assert!(found.certified);
            let (pairs, total) = found.asymmetric;
            assert!(pairs.is_empty(), "{pairs:?}");
            assert_eq!(total, 0);
        }
    }

    #[test]
    fn a_directed_detour_is_detected() {
        // 0→1 goes the long way round (0-3-2-1, 300 µs); 1→0 stays direct.
        let net = square();
        let tables = patched(&net, false, |src, dst| match (src, dst) {
            (0, 1) => Some(3),
            (3, 1) => Some(2),
            _ => None,
        });
        assert_eq!(tables.latency_us(0, 1), Some(300));
        assert_eq!(tables.latency_us(1, 0), Some(100));
        let found = sweep(&net, &tables, 8);
        assert!(!found.certified);
        let (pairs, total) = found.asymmetric;
        assert_eq!(total, 1);
        assert_eq!(
            pairs,
            [AsymmetricPair {
                a: 0,
                b: 1,
                ab_us: 300,
                ba_us: 100
            }]
        );
    }

    #[test]
    fn a_symmetric_detour_fails_the_certificate_but_is_not_asymmetric() {
        // 0→1 and 1→0 both go the long way round (300 µs each way): the
        // routes agree, but neither is a shortest path, so only the exact
        // compare can clear them.
        let net = square();
        let tables = patched(&net, false, |src, dst| match (src, dst) {
            (0, 1) => Some(3),
            (3, 1) | (1, 0) => Some(2),
            (2, 0) => Some(3),
            _ => None,
        });
        assert_eq!(tables.latency_us(0, 1), Some(300));
        assert_eq!(tables.latency_us(1, 0), Some(300));
        let found = sweep(&net, &tables, 32);
        assert!(!found.certified);
        assert_eq!(found.asymmetric, (vec![], 0));
        assert_eq!(probes(found), oracle(&net, &tables, 32));
    }

    #[test]
    fn a_dead_end_at_a_degree_one_node_with_its_own_row_is_reported() {
        // Host h hangs off r0; without leaf records it keeps its own row,
        // which has no route to r2. Its one neighbour reaches r2, so the
        // inequality breaks at a source MC015 never counts a site at.
        let mut net = square();
        let h = net.add_host("h", 0);
        net.add_link(0, h, 1000.0, 10);
        let tables = patched(&net, false, |src, dst| {
            (src, dst).eq(&(h, 2)).then_some(NodeId::MAX)
        });
        let found = sweep(&net, &tables, 8);
        assert!(!found.certified);
        assert_eq!(
            found.asymmetric,
            (
                vec![AsymmetricPair {
                    a: 2,
                    b: h,
                    ab_us: 210,
                    ba_us: u64::MAX
                }],
                1
            )
        );
        assert_eq!(probes(found), oracle(&net, &tables, 8));
    }

    #[test]
    fn one_way_reachability_counts_as_asymmetry() {
        // 0 has no route to 3 (and 1 is kept off it), 3 still reaches 0.
        let net = square();
        let tables = patched(&net, false, |src, dst| match (src, dst) {
            (0, 3) => Some(NodeId::MAX),
            (1, 3) => Some(2),
            _ => None,
        });
        let (pairs, total) = sweep(&net, &tables, 8).asymmetric;
        assert_eq!(total, 1);
        assert_eq!((pairs[0].a, pairs[0].b), (0, 3));
        assert_eq!(pairs[0].ab_us, u64::MAX);
        assert_eq!(pairs[0].ba_us, tables.latency_us(3, 0).unwrap());
    }

    #[test]
    fn cap_bounds_witnesses_but_not_the_total() {
        // 0 routes nowhere; 1 and 3 reach each other through 2.
        let net = square();
        let tables = patched(&net, false, |src, dst| match (src, dst) {
            (0, _) => Some(NodeId::MAX),
            (1, 3) | (3, 1) => Some(2),
            _ => None,
        });
        let (pairs, total) = sweep(&net, &tables, 2).asymmetric;
        assert_eq!(total, 3);
        assert_eq!(pairs.len(), 2);
        assert!(pairs
            .windows(2)
            .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b)));
    }

    #[test]
    fn square_has_ecmp_between_opposite_corners() {
        let net = square();
        for tables in both(&net) {
            let (sites, total) = sweep(&net, &tables, 32).ecmp;
            // 0↔2 and 1↔3 are ambiguous in both directions: 4 ordered pairs.
            assert_eq!(total, 4);
            let site = sites
                .iter()
                .find(|s| s.src == 0 && s.dst == 2)
                .expect("0->2 is ambiguous");
            assert_eq!(site.next_hops, vec![1, 3]);
        }
    }

    #[test]
    fn a_destination_among_the_optimal_hops_costs_nothing_more() {
        // a-b direct costs what a-c-b costs, so a→b has two optimal first
        // hops, one of them b itself: its `rest` is dist(b, b) = 0.
        let mut net = Network::new();
        let r: Vec<_> = (0..3).map(|i| net.add_router(format!("r{i}"), 0)).collect();
        net.add_link(r[0], r[1], 1000.0, 200);
        net.add_link(r[0], r[2], 1000.0, 100);
        net.add_link(r[2], r[1], 1000.0, 100);
        let tables = RoutingTables::build(&net);
        let got = probes(sweep(&net, &tables, 8));
        assert_eq!(got, oracle(&net, &tables, 8));
        assert_eq!(got.1 .0[0].next_hops, vec![1, 2]);
    }

    #[test]
    fn a_line_has_no_ecmp() {
        let mut net = Network::new();
        let a = net.add_router("a", 0);
        let b = net.add_router("b", 0);
        let c = net.add_router("c", 0);
        net.add_link(a, b, 1000.0, 100);
        net.add_link(b, c, 1000.0, 150);
        for tables in both(&net) {
            let (sites, total) = sweep(&net, &tables, 32).ecmp;
            assert!(sites.is_empty());
            assert_eq!(total, 0);
        }
    }

    #[test]
    fn hierarchical_routes_get_the_oracles_findings_certified_or_not() {
        // Hot-potato inter-AS routes can be longer than shortest paths:
        // TeraGrid's are not, so its tables certify; a six-AS BRITE
        // network's are, so its tables fail the certificate and the exact
        // compare finds the asymmetry.
        let six = assign_contiguous_ases(&brite(24, 30, 3, false), 6);
        for (net, certified) in [(teragrid(), true), (six, false)] {
            let tables = crate::hierarchy::build_hierarchical(&net);
            let found = sweep(&net, &tables, 8);
            assert_eq!(found.certified, certified);
            assert_eq!(found.asymmetric.1 > 0, !certified);
            assert_eq!(probes(found), oracle(&net, &tables, 8));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// 1–8 entries of an honest table set to "no route" (loop-free by
        /// construction: removing a hop cannot close a cycle) dead-end
        /// every route through them, one direction only. With leaf
        /// records an entry toward a leaf is not stored, so cutting one is
        /// a no-op, and cutting its parent's cuts it too. With and without
        /// leaf records, both probes report the damage exactly as the
        /// pairwise oracle does, at every cap and at tile widths that do
        /// and do not divide the swept count.
        #[test]
        fn dead_ended_entries_match_the_oracle(
            (routers, hosts, seed, tied) in (4usize..14, 0usize..10, any::<u64>(), prop::bool::ANY),
            cells in prop::collection::vec((any::<usize>(), any::<usize>()), 1..9),
            leaves in prop::bool::ANY,
            width in 1usize..9,
        ) {
            let net = brite(routers, hosts, seed, tied);
            let n = net.node_count();
            let cut: Vec<(NodeId, NodeId)> = cells
                .into_iter()
                .map(|(src, dst)| ((src % n) as NodeId, (dst % n) as NodeId))
                .collect();
            let tables = patched(&net, leaves, |src, dst| cut.contains(&(src, dst)).then_some(NodeId::MAX));
            let fold = Fold::new(&tables);
            let width = width.min(fold.swept.len());
            let totals = oracle(&net, &tables, 0);
            for cap in [0, 1, 3, totals.0 .1 + 5, totals.1 .1 + 5] {
                let want = oracle(&net, &tables, cap);
                prop_assert_eq!(&probes(sweep(&net, &tables, cap)), &want);
                prop_assert_eq!(&probes(sweep_tiled(&net, &tables, &fold, cap, width)), &want);
            }
        }

        /// Shortest-path routes always certify, so the exact compare never
        /// runs: eager and lazy tables, tied and untied planes, and the
        /// same routes hand-installed with and without leaf records.
        #[test]
        fn shortest_path_tables_always_certify(
            (routers, hosts, seed, tied) in (4usize..14, 0usize..10, any::<u64>(), prop::bool::ANY),
        ) {
            let net = brite(routers, hosts, seed, tied);
            let [eager, lazy] = both(&net);
            let installed = [true, false].map(|leaves| patched(&net, leaves, |_, _| None));
            for tables in [eager, lazy].iter().chain(&installed) {
                let found = sweep(&net, tables, 8);
                prop_assert!(found.certified);
                prop_assert_eq!(probes(found), oracle(&net, tables, 8));
            }
        }

        /// The column reader's every column equals `latency_us` (unreachable
        /// as `u64::MAX`) from every swept source, at every tile width —
        /// those that divide the swept count and those that leave a ragged
        /// last tile — on networks with a node nothing reaches and a
        /// two-node island, over eager and lazy tables.
        #[test]
        fn column_reader_equals_latency_us_at_every_tile_width(
            (routers, hosts, seed, tied) in (4usize..14, 0usize..10, any::<u64>(), prop::bool::ANY),
        ) {
            let mut net = brite(routers, hosts, seed, tied);
            net.add_host("isolated", 0);
            let a = net.add_router("island-a", 99);
            let b = net.add_router("island-b", 99);
            net.add_link(a, b, 100.0, 5);
            for tables in both(&net) {
                let fold = Fold::new(&tables);
                let s = fold.swept.len();
                for width in 1..=s {
                    let mut cols = Columns::new(&tables, &fold, width);
                    for t0 in (0..s).step_by(width) {
                        let tile = t0..(t0 + width).min(s);
                        cols.load(tile.clone());
                        for d in tile {
                            cols.climb(d - t0, d);
                            let dst = fold.swept[d];
                            for (j, &src) in fold.swept.iter().enumerate() {
                                let want = tables.latency_us(src, dst).unwrap_or(u64::MAX);
                                prop_assert_eq!(cols.val[j], want, "{:?} width {} {}->{}", tables.kind(), width, src, dst);
                            }
                        }
                    }
                }
            }
        }
    }
}
