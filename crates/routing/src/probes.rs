//! Static probes over built routing tables, consumed by the artifact
//! audit (`massf-lint` MC014/MC015).
//!
//! * [`asymmetric_latencies`] — (src, dst) pairs whose A→B and B→A
//!   shortest-path latencies disagree. Links are bidirectional with one
//!   latency, so Dijkstra over an intact table is symmetric by
//!   construction; asymmetry means a corrupted or hand-edited table (or a
//!   future directed-link model leaking in) and breaks the conservative
//!   lookahead argument, which assumes the cut latency bounds *both*
//!   directions.
//! * [`ecmp_sites`] — (src, dst) pairs with several equal-cost first hops.
//!   The Dijkstra tie-break (latency, then hop count, then node id) picks
//!   one deterministically, but the choice is an artifact of node
//!   numbering: renumbering the topology re-routes that traffic and shifts
//!   link load between engines. The audit surfaces how much of the route
//!   set rests on tie-breaks.
//!
//! Both probes go through the public [`RoutingTables`] query API — never
//! the storage internals — so artifact audits run identically over
//! prefilled and lazy tables. They read whole latency columns through
//! [`LatenciesTo`](crate::LatenciesTo) — n memoized lookups per
//! destination — instead of walking a next-hop chain per pair, and hold at
//! most 1 MiB of scratch (`SCRATCH_BYTES`): never an n × n matrix.
//!
//! Both probes collect at most a caller-given number of witnesses and
//! return the exact total alongside, so lint reports stay bounded while
//! the summary stays truthful.

use crate::RoutingTables;
use massf_topology::{Network, NodeId};
use std::collections::BinaryHeap;

#[cfg(test)]
mod naive;

/// Most the asymmetry probe may hold at once: its tile of resident
/// columns plus the climb's own arrays. 1 MiB is 64 columns at n = 1 980;
/// it is the binding limit from n ≈ 2 050 up.
const SCRATCH_BYTES: usize = 1 << 20;

/// Fewest tiles a sweep is cut into: a tile is at most 1/32 of the
/// columns even when the budget would hold more, so on a small network
/// the scratch stays in proportion to a run that itself peaks at a few
/// MiB (a budget-sized tile at n = 564 measured +0.4 MiB on a 5.2 MiB
/// peak; 1/32 of the columns, 80 KiB, measures +0).
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

/// Scans the latency matrix for direction disagreements. Returns up to
/// `cap` witness pairs in ascending `(a, b)` order plus the total number
/// of asymmetric pairs. One-way reachability (one direction `u64::MAX`)
/// counts as asymmetry.
pub fn asymmetric_latencies(tables: &RoutingTables, cap: usize) -> (Vec<AsymmetricPair>, usize) {
    let n = tables.node_count().max(1);
    // 12 bytes per node are the climb's value and stamp arrays.
    let width = SCRATCH_BYTES.saturating_sub(12 * n) / (8 * n);
    asymmetric_tiled(tables, cap, width.clamp(1, n.div_ceil(MIN_TILES)))
}

/// The matrix is compared with its transpose one tile at a time: the
/// columns toward `width` consecutive nodes `a` stay resident (`lat(b→a)`
/// for every `b`), then each `b` is climbed toward from the tile's
/// sources only — their chains merge on the way to `b`, and the memo pays
/// each shared tail once.
fn asymmetric_tiled(
    tables: &RoutingTables,
    cap: usize,
    width: usize,
) -> (Vec<AsymmetricPair>, usize) {
    let n = tables.node_count();
    let mut first = FirstK::new(cap);
    let mut total = 0usize;
    let mut col = tables.latencies_to();
    // `tile[k][b]` is `lat(b → a0 + k)`. One allocation per column: each
    // is small enough to be served from memory the routing build has
    // already returned, where a single 1 MiB block is fresh pages on top
    // of the run's peak RSS (measured: +1.0 MiB on 11.6).
    let mut tile: Vec<Vec<u64>> = (0..width).map(|_| vec![0u64; n]).collect();
    for a0 in (0..n).step_by(width) {
        let a1 = (a0 + width).min(n);
        for (a, column) in (a0..a1).zip(&mut tile) {
            col.retarget(a as NodeId);
            // Pairs are unordered: only `b` above the tile's first node
            // is ever compared.
            for (b, back) in column.iter_mut().enumerate().skip(a0 + 1) {
                *back = col.from(b as NodeId);
            }
        }
        for b in a0 + 1..n {
            col.retarget(b as NodeId);
            for (a, back) in (a0 as NodeId..).zip(&tile[..a1.min(b) - a0]) {
                let (ab, ba) = (col.from(a), back[b]);
                if ab != ba {
                    total += 1;
                    first.offer((a, b as NodeId), || (ab, ba));
                }
            }
        }
    }
    let pairs = first
        .into_sorted()
        .map(|((a, b), (ab_us, ba_us))| AsymmetricPair { a, b, ab_us, ba_us })
        .collect();
    (pairs, total)
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

/// Finds routes with equal-cost next-hop alternatives: neighbor `v` of
/// `src` is cost-optimal toward `dst` when
/// `link(src,v) + dist(v,dst) == dist(src,dst)`. Returns up to `cap`
/// witness sites in ascending `(src, dst)` order plus the total count of
/// ambiguous pairs.
///
/// Sweeps destination-major: `dist` and every neighbour's `rest` come out
/// of the one resident column, O(n + links) per destination.
pub fn ecmp_sites(net: &Network, tables: &RoutingTables, cap: usize) -> (Vec<EcmpSite>, usize) {
    let n = tables.node_count();
    debug_assert_eq!(n, net.node_count());
    let mut first = FirstK::new(cap);
    let mut total = 0usize;
    let mut col = tables.latencies_to();
    for dst in 0..n as NodeId {
        col.retarget(dst);
        let lat = col.all();
        for src in 0..n as NodeId {
            let dist = lat[src as usize];
            if src == dst || dist == u64::MAX {
                continue;
            }
            let optimal_hops = || {
                net.neighbors(src).iter().filter_map(|&(v, l)| {
                    let rest = if v == dst { 0 } else { lat[v as usize] };
                    let optimal =
                        rest != u64::MAX && net.link(l).latency_us.saturating_add(rest) == dist;
                    optimal.then_some(v)
                })
            };
            if optimal_hops().count() >= 2 {
                total += 1;
                first.offer((src, dst), || {
                    let mut hops: Vec<NodeId> = optimal_hops().collect();
                    hops.sort_unstable();
                    hops
                });
            }
        }
    }
    let sites = first
        .into_sorted()
        .map(|((src, dst), next_hops)| EcmpSite {
            src,
            dst,
            next_hops,
        })
        .collect();
    (sites, total)
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
    /// next hop where it answers (`NodeId::MAX` = no route).
    fn patched(net: &Network, patch: impl Fn(NodeId, NodeId) -> Option<NodeId>) -> RoutingTables {
        let honest = RoutingTables::build(net);
        RoutingTables::hand_installed(net, |src, dst| {
            patch(src, dst).unwrap_or_else(|| honest.next_hop(src, dst).unwrap_or(NodeId::MAX))
        })
    }

    fn both(net: &Network) -> [RoutingTables; 2] {
        [RoutingTables::build(net), RoutingTables::build_lazy(net)]
    }

    #[test]
    fn intact_tables_are_symmetric_under_both_fill_policies() {
        for tables in both(&square()) {
            let (pairs, total) = asymmetric_latencies(&tables, 8);
            assert!(pairs.is_empty(), "{pairs:?}");
            assert_eq!(total, 0);
        }
    }

    #[test]
    fn a_directed_detour_is_detected() {
        // 0→1 goes the long way round (0-3-2-1, 300 µs); 1→0 stays direct.
        let tables = patched(&square(), |src, dst| match (src, dst) {
            (0, 1) => Some(3),
            (3, 1) => Some(2),
            _ => None,
        });
        assert_eq!(tables.latency_us(0, 1), Some(300));
        assert_eq!(tables.latency_us(1, 0), Some(100));
        let (pairs, total) = asymmetric_latencies(&tables, 8);
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
        let tables = patched(&square(), |src, dst| match (src, dst) {
            (0, 3) => Some(NodeId::MAX),
            (1, 3) => Some(2),
            _ => None,
        });
        let (pairs, total) = asymmetric_latencies(&tables, 8);
        assert_eq!(total, 1);
        assert_eq!((pairs[0].a, pairs[0].b), (0, 3));
        assert_eq!(pairs[0].ab_us, u64::MAX);
        assert_eq!(pairs[0].ba_us, tables.latency_us(3, 0).unwrap());
    }

    #[test]
    fn cap_bounds_witnesses_but_not_the_total() {
        // 0 routes nowhere; 1 and 3 reach each other through 2.
        let tables = patched(&square(), |src, dst| match (src, dst) {
            (0, _) => Some(NodeId::MAX),
            (1, 3) | (3, 1) => Some(2),
            _ => None,
        });
        let (pairs, total) = asymmetric_latencies(&tables, 2);
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
            let (sites, total) = ecmp_sites(&net, &tables, 32);
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
        let got = ecmp_sites(&net, &tables, 8);
        assert_eq!(got, naive::ecmp_sites(&net, &tables, 8));
        assert_eq!(got.0[0].next_hops, vec![1, 2]);
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
            let (sites, total) = ecmp_sites(&net, &tables, 32);
            assert!(sites.is_empty());
            assert_eq!(total, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// 1–8 entries of an honest table set to "no route" (loop-free by
        /// construction: removing a hop cannot close a cycle) dead-end
        /// every route through them, one direction only. Both probes
        /// report the damage exactly as the pairwise oracle does, at every
        /// cap and at tile widths that do and do not divide n.
        #[test]
        fn dead_ended_entries_match_the_oracle(
            (routers, hosts, seed, tied) in (4usize..14, 0usize..10, any::<u64>(), prop::bool::ANY),
            cells in prop::collection::vec((any::<usize>(), any::<usize>()), 1..9),
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
            let cut: Vec<(NodeId, NodeId)> = cells
                .into_iter()
                .map(|(src, dst)| ((src % n) as NodeId, (dst % n) as NodeId))
                .collect();
            let tables = patched(&net, |src, dst| cut.contains(&(src, dst)).then_some(NodeId::MAX));
            let asym_total = naive::asymmetric_latencies(&tables, 0).1;
            for cap in [0, 1, 3, asym_total + 5] {
                let want = naive::asymmetric_latencies(&tables, cap);
                prop_assert_eq!(&asymmetric_latencies(&tables, cap), &want);
                prop_assert_eq!(&asymmetric_tiled(&tables, cap, width.min(n)), &want);
            }
            let ecmp_total = naive::ecmp_sites(&net, &tables, 0).1;
            for cap in [0, 1, 3, ecmp_total + 5] {
                prop_assert_eq!(
                    ecmp_sites(&net, &tables, cap),
                    naive::ecmp_sites(&net, &tables, cap)
                );
            }
        }
    }
}
