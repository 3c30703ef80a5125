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
//! uplink of latency `u`) is *folded* onto `p` when the tables prove
//! `lat(x→h) = lat(x→p) + u` for every `x`: every non-leaf row sends `h`
//! the same `(hop, link)` as `p`, and `p`'s row sends `h` over the uplink
//! — one in-order pass over each row's runs (`Fold::new`).
//! `lat(h→x) = u + lat(p→x)` holds by construction (a leaf row delegates
//! to its parent's). A leaf that fails the check is swept like any core
//! node, so a damaged table is reported pair by pair, exactly; tables
//! without leaf records sweep every node. Each swept result then stands
//! for the folded pairs it implies, and every witness goes through the
//! same first-`cap` selection, so totals and witness lists are those of a
//! sweep over every pair.
//!
//! The columns come through [`LatenciesTo`](crate::LatenciesTo) — one
//! memoized lookup per node per destination — each is read once and
//! feeds both probes, and the sweep holds at most 1 MiB of scratch
//! (`SCRATCH_BYTES`): never an n × n matrix.
//!
//! Both probes collect at most a caller-given number of witnesses and
//! return the exact total alongside, so lint reports stay bounded while
//! the summary stays truthful.

use crate::RoutingTables;
use massf_topology::{Network, NodeId};
use std::collections::BinaryHeap;

#[cfg(test)]
mod naive;

/// Most the sweep may hold at once: its tile of resident columns plus
/// the climb's own arrays. A column holds one latency per swept node;
/// the budget binds before the `MIN_TILES` share does from about
/// n = 2 020 nodes up.
const SCRATCH_BYTES: usize = 1 << 20;

/// A tile holds no more bytes than 1/32 of the n columns of n nodes
/// would, even when the budget allows more, so on a small network the
/// scratch stays in proportion to a run that itself peaks at a few MiB
/// (a budget-sized tile at n = 564 measured +0.4 MiB on a 5.2 MiB peak;
/// 1/32 of the columns, 80 KiB, measures +0).
const MIN_TILES: usize = 32;

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
    /// Every node without a leaf record, and every leaf that failed the
    /// check, ascending.
    swept: Vec<NodeId>,
    /// `group[i]` is `swept[i]` at shift 0, then each leaf folded onto it
    /// with its uplink latency: every member's latencies are `swept[i]`'s
    /// shifted by its own uplink.
    group: Vec<Vec<(NodeId, u64)>>,
}

impl Fold {
    fn new(t: &RoutingTables) -> Self {
        // `folds[h]`: `h` is a leaf and every row read so far agrees.
        let mut folds: Vec<bool> = t.leaf.iter().map(Option::is_some).collect();
        let mut row = Vec::new();
        for x in (0..t.leaf.len() as NodeId).filter(|&x| t.leaf[x as usize].is_none()) {
            t.decode_row(x, &mut row);
            for (h, leaf) in t.leaf.iter().enumerate() {
                if let &Some((p, uplink)) = leaf {
                    let want = if p == x {
                        (h as NodeId, uplink)
                    } else {
                        row[t.rank[p as usize] as usize]
                    };
                    folds[h] &= row[t.rank[h] as usize] == want;
                }
            }
        }
        let swept: Vec<NodeId> = (0..folds.len() as NodeId)
            .filter(|&v| !folds[v as usize])
            .collect();
        let mut group: Vec<_> = swept.iter().map(|&v| vec![(v, 0)]).collect();
        for (h, leaf) in t.leaf.iter().enumerate().filter(|&(h, _)| folds[h]) {
            let (p, uplink) = leaf.expect("only leaves fold");
            let i = swept.binary_search(&p).expect("a leaf's parent is swept");
            group[i].push((h as NodeId, t.link_latency_us[uplink.0 as usize]));
        }
        Self { swept, group }
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
}

/// Runs both probes in one sweep of the swept set's latency columns.
pub fn sweep(net: &Network, tables: &RoutingTables, cap: usize) -> Findings {
    let fold = Fold::new(tables);
    let (n, s) = (tables.node_count(), fold.swept.len().max(1));
    // 12 bytes per node are the climb's value and stamp arrays.
    let bytes = SCRATCH_BYTES
        .saturating_sub(12 * n)
        .min(8 * n * n.div_ceil(MIN_TILES));
    sweep_tiled(net, tables, &fold, cap, (bytes / (8 * s)).clamp(1, s))
}

/// The swept nodes are taken `width` at a time. Each one's whole column
/// is read once: MC015 runs over it there and then, and its swept
/// entries (`lat(q→p)` for every swept `q`) stay resident for MC014,
/// which then climbs toward each `q` from the tile's nodes only — their
/// chains merge on the way to `q`, and the memo pays each shared tail
/// once. An asymmetric `(p, q)` stands for every pair of their groups,
/// each shifted by both members' uplinks; pairs inside one group are
/// symmetric (`u + u'` both ways).
fn sweep_tiled(
    net: &Network,
    tables: &RoutingTables,
    fold: &Fold,
    cap: usize,
    width: usize,
) -> Findings {
    debug_assert_eq!(tables.node_count(), net.node_count());
    let (swept, s) = (&fold.swept, fold.swept.len());
    let (mut asym, mut asym_total) = (FirstK::new(cap), 0usize);
    let mut ecmp = Ecmp {
        net,
        // Degree-1 sources are skipped: one neighbour never gives two hops.
        sources: swept
            .iter()
            .copied()
            .filter(|&v| net.degree(v) >= 2)
            .collect(),
        hops: Vec::new(),
        first: FirstK::new(cap),
        total: 0,
    };
    let mut col = tables.latencies_to();
    // `tile[k][j]` is `lat(swept[j] → swept[i0 + k])`. One allocation per
    // column: each is small enough to be served from memory the routing
    // build has already returned, where a single 1 MiB block is fresh
    // pages on top of the run's peak RSS (measured: +1.0 MiB on 11.6).
    let mut tile: Vec<Vec<u64>> = (0..width).map(|_| vec![0u64; s]).collect();
    for i0 in (0..s).step_by(width) {
        let i1 = (i0 + width).min(s);
        for (i, column) in (i0..i1).zip(&mut tile) {
            col.retarget(swept[i]);
            let lat = col.all();
            ecmp.toward(&fold.group[i], lat);
            for (back, &q) in column.iter_mut().zip(swept) {
                *back = lat[q as usize];
            }
        }
        // Pairs are unordered: only `q` above the tile's first node is
        // ever compared, and a `q` inside the tile has its column there.
        for j in i0 + 1..s {
            if j >= i1 {
                col.retarget(swept[j]);
            }
            for (i, back) in (i0..).zip(&tile[..i1.min(j) - i0]) {
                let pq = if j < i1 {
                    tile[j - i0][i]
                } else {
                    col.from(swept[i])
                };
                let qp = back[j];
                if pq == qp {
                    continue;
                }
                for &(a, ua) in &fold.group[i] {
                    for &(b, ub) in &fold.group[j] {
                        let (ab, ba) = (pq.saturating_add(ua + ub), qp.saturating_add(ua + ub));
                        asym_total += 1;
                        if a < b {
                            asym.offer((a, b), || (ab, ba));
                        } else {
                            asym.offer((b, a), || (ba, ab));
                        }
                    }
                }
            }
        }
    }
    let pairs = asym.into_sorted();
    let sites = ecmp.first.into_sorted();
    Findings {
        asymmetric: (
            pairs
                .map(|((a, b), (ab_us, ba_us))| AsymmetricPair { a, b, ab_us, ba_us })
                .collect(),
            asym_total,
        ),
        ecmp: (
            sites
                .map(|((src, dst), next_hops)| EcmpSite {
                    src,
                    dst,
                    next_hops,
                })
                .collect(),
            ecmp.total,
        ),
    }
}

/// The MC015 half of the sweep.
struct Ecmp<'n> {
    net: &'n Network,
    /// The swept nodes of degree ≥ 2.
    sources: Vec<NodeId>,
    hops: Vec<NodeId>,
    first: FirstK<Vec<NodeId>>,
    total: usize,
}

impl Ecmp<'_> {
    /// Every site toward the swept `group[0]` and the leaves folded onto
    /// it, from its whole column `lat`. A site `(x, p)` stands for
    /// `(x, h)` with the same hops for every leaf `h` folded onto `p`
    /// (both sides of the test shift by `h`'s uplink); `(p, h)` itself is
    /// tested over `p`'s neighbours, whose `rest` is the column's shifted
    /// the same way.
    fn toward(&mut self, group: &[(NodeId, u64)], lat: &[u64]) {
        let dst = group[0].0;
        for i in 0..self.sources.len() {
            let src = self.sources[i];
            let dist = lat[src as usize];
            if src != dst && dist != u64::MAX && self.optimal(src, dist, |v| lat[v as usize]) {
                for &(d, _) in group {
                    self.total += 1;
                    self.first.offer((src, d), || self.hops.clone());
                }
            }
        }
        for &(h, u) in &group[1..] {
            let rest = |v| {
                if v == h {
                    0
                } else {
                    lat[v as usize].saturating_add(u)
                }
            };
            if self.optimal(dst, u, rest) {
                self.total += 1;
                self.first.offer((dst, h), || self.hops.clone());
            }
        }
    }

    /// Fills `hops` with the neighbours `v` of `src` on a route of latency
    /// `dist`, `rest(v)` being the latency on from `v`, ascending; true
    /// when there are several.
    fn optimal(&mut self, src: NodeId, dist: u64, rest: impl Fn(NodeId) -> u64) -> bool {
        self.hops.clear();
        for &(v, l) in self.net.neighbors(src) {
            let rest = rest(v);
            if rest != u64::MAX && self.net.link(l).latency_us.saturating_add(rest) == dist {
                self.hops.push(v);
            }
        }
        self.hops.sort_unstable();
        self.hops.len() >= 2
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
    use massf_topology::brite::{generate, BriteConfig, GrowthModel};
    use massf_topology::Network;
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

    /// The pairwise oracle's findings, in the sweep's shape.
    fn oracle(net: &Network, tables: &RoutingTables, cap: usize) -> Findings {
        Findings {
            asymmetric: naive::asymmetric_latencies(tables, cap),
            ecmp: naive::ecmp_sites(net, tables, cap),
        }
    }

    #[test]
    fn intact_tables_are_symmetric_under_both_fill_policies() {
        let net = square();
        for tables in both(&net) {
            let (pairs, total) = sweep(&net, &tables, 8).asymmetric;
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
        let (pairs, total) = sweep(&net, &tables, 8).asymmetric;
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
        let got = sweep(&net, &tables, 8);
        assert_eq!(got, oracle(&net, &tables, 8));
        assert_eq!(got.ecmp.0[0].next_hops, vec![1, 2]);
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
    fn a_damaged_uplink_entry_unfolds_its_leaf() {
        // r0-r1-r2 with host h on r1: r0, r2 and h are all leaves of r1.
        // r1 losing its route to h fails h's check, so h is swept, and
        // the one swept asymmetry (r1, h) stands for r0's and r2's too.
        let mut net = Network::new();
        let r: Vec<_> = (0..3).map(|i| net.add_router(format!("r{i}"), 0)).collect();
        let h = net.add_host("h", 0);
        net.add_link(r[0], r[1], 1000.0, 100);
        net.add_link(r[1], r[2], 1000.0, 100);
        net.add_link(r[1], h, 1000.0, 10);
        let tables = patched(&net, true, |src, dst| {
            (src, dst).eq(&(1, h)).then_some(NodeId::MAX)
        });
        let fold = Fold::new(&tables);
        assert_eq!(fold.swept, [1, h]);
        assert_eq!(fold.group[0], [(1, 0), (0, 100), (2, 100)]);
        let got = sweep(&net, &tables, 8);
        assert_eq!(got, oracle(&net, &tables, 8));
        let back: Vec<_> = got
            .asymmetric
            .0
            .iter()
            .map(|p| (p.a, p.ab_us, p.ba_us))
            .collect();
        assert_eq!(
            back,
            [(0, u64::MAX, 110), (1, u64::MAX, 10), (2, u64::MAX, 110)]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// 1–8 entries of an honest table set to "no route" (loop-free by
        /// construction: removing a hop cannot close a cycle) dead-end
        /// every route through them, one direction only; up to three more
        /// are aimed at the fold — in a non-leaf row `x`, the entry toward
        /// a leaf `h`, toward its parent `p`, both, or `p`'s uplink entry
        /// toward `h`. With and without leaf records, both probes report
        /// the damage exactly as the pairwise oracle does, at every cap
        /// and at tile widths that do and do not divide the swept count.
        #[test]
        fn dead_ended_entries_match_the_oracle(
            (routers, hosts, seed, tied) in (4usize..14, 0usize..10, any::<u64>(), prop::bool::ANY),
            cells in prop::collection::vec((any::<usize>(), any::<usize>()), 1..9),
            aimed in prop::collection::vec((any::<usize>(), any::<usize>(), 0u8..4), 0..4),
            leaves in prop::bool::ANY,
            width in 1usize..9,
        ) {
            let net = generate(&BriteConfig {
                routers,
                hosts,
                model: GrowthModel::BarabasiAlbert { m: 2 },
                // A plane this small puts every link on the 100 µs floor:
                // hop-count routing, equal-cost routes everywhere.
                plane: if tied { 5.0 } else { 1000.0 },
                seed,
                ..BriteConfig::paper_brite()
            });
            let n = net.node_count();
            let mut cut: Vec<(NodeId, NodeId)> = cells
                .into_iter()
                .map(|(src, dst)| ((src % n) as NodeId, (dst % n) as NodeId))
                .collect();
            let leaf = RoutingTables::build(&net).leaf;
            let rows: Vec<NodeId> = (0..n as NodeId).filter(|&v| leaf[v as usize].is_none()).collect();
            let leaf: Vec<(NodeId, NodeId)> = (0..n as NodeId)
                .filter_map(|h| leaf[h as usize].map(|(p, _)| (h, p)))
                .collect();
            for (l, x, what) in aimed.into_iter().filter(|_| !leaf.is_empty()) {
                let ((h, p), x) = (leaf[l % leaf.len()], rows[x % rows.len()]);
                match what {
                    0 => cut.push((x, h)),
                    1 => cut.push((x, p)),
                    2 => cut.extend([(x, h), (x, p)]),
                    _ => cut.push((p, h)),
                }
            }
            let tables = patched(&net, leaves, |src, dst| cut.contains(&(src, dst)).then_some(NodeId::MAX));
            let fold = Fold::new(&tables);
            let width = width.min(fold.swept.len());
            let totals = oracle(&net, &tables, 0);
            for cap in [0, 1, 3, totals.asymmetric.1 + 5, totals.ecmp.1 + 5] {
                let want = oracle(&net, &tables, cap);
                prop_assert_eq!(&sweep(&net, &tables, cap), &want);
                prop_assert_eq!(&sweep_tiled(&net, &tables, &fold, cap, width), &want);
            }
        }
    }
}
