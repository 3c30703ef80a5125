//! Two-level (AS-aware) routing — the structure behind the paper's memory
//! model.
//!
//! The paper sizes routing tables by `O(n²)` *per AS* (§2.2.2) because
//! real networks route hierarchically: full shortest-path state inside an
//! autonomous system, and BGP-style gateway routes between systems. This
//! module builds routing tables with exactly that structure:
//!
//! * **intra-AS**: latency-shortest paths restricted to the AS's own core
//!   nodes;
//! * **inter-AS**: shortest paths on the AS-level graph (one vertex per AS,
//!   edges = inter-AS links weighted by latency); a node routes toward its
//!   AS's egress gateway for the destination AS, crosses the inter-AS link,
//!   and the next AS takes over — classic hot-potato forwarding.
//!
//! Like the other builders it works on the router core alone (the nodes
//! without a leaf record, `spf::Core`): a leaf's only link leads to its
//! parent, so no route between core nodes passes one, and the tables
//! route a leaf through its parent, whichever AS it is labelled with.
//! Each source runs one Dijkstra over its AS's core members and picks one
//! border per destination AS; its row goes straight into the interval
//! table's slot, so the builder holds no all-pairs state at all.
//! Every consumer (engine, traceroute, mappers) works unchanged.
//! Hierarchical paths can be *longer* than global SPF paths (the
//! well-known path stretch of policy routing); [`path_stretch`]
//! quantifies it.

use crate::interval::{renumber, Row};
use crate::spf::{Core, SpfScratch};
use crate::tables::{RoutingTables, NO_LINK};
use massf_topology::{LinkId, Network, NodeId};
use std::collections::BTreeMap;

/// An inter-AS adjacency: one border link between two ASes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Border {
    /// Rank of the node inside the source AS.
    egress: u32,
    /// Node inside the neighbouring AS.
    ingress: NodeId,
    /// The border link.
    link: LinkId,
    /// Its latency.
    latency_us: u64,
}

/// The AS-level structure of the core: AS membership, every border link
/// per AS pair, and AS-graph shortest-path next hops.
struct HierPlan {
    /// Dense AS index per core rank.
    as_of: Vec<usize>,
    /// Original AS ids, for diagnostics.
    as_ids: Vec<u32>,
    /// Border links per directed AS pair, sorted by `(latency, link id)`.
    borders: BTreeMap<(usize, usize), Vec<Border>>,
    /// `as_hop[a][b]` = next AS from `a` toward `b` on the AS graph.
    as_hop: Vec<Vec<Option<usize>>>,
}

fn plan(net: &Network, core: &Core, latency_us: &[u64]) -> HierPlan {
    // Dense AS indexing over the core.
    let as_id = |r: usize| net.node(core.nodes[r]).as_id;
    let mut as_ids: Vec<u32> = (0..core.nodes.len()).map(as_id).collect();
    as_ids.sort_unstable();
    as_ids.dedup();
    let as_index: BTreeMap<u32, usize> = as_ids.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    let nas = as_ids.len();
    let as_of: Vec<usize> = (0..core.nodes.len()).map(|r| as_index[&as_id(r)]).collect();

    // *All* border links between AS pairs (real hot-potato picks the
    // nearest of several egress points), plus the cheapest per pair for the
    // AS-level shortest paths. Each core link is listed at both ends, so
    // this sees it once per direction.
    let mut borders: BTreeMap<(usize, usize), Vec<Border>> = BTreeMap::new();
    for r in 0..core.nodes.len() as u32 {
        for &(q, link) in core.adj(r) {
            let (from, to) = (as_of[r as usize], as_of[q as usize]);
            if from != to {
                borders.entry((from, to)).or_default().push(Border {
                    egress: r,
                    ingress: core.nodes[q as usize],
                    link,
                    latency_us: latency_us[link.0 as usize],
                });
            }
        }
    }
    for v in borders.values_mut() {
        v.sort_by_key(|b| (b.latency_us, b.link.0));
    }

    // AS-level shortest paths (Dijkstra over the AS graph, each AS pair
    // weighted by its cheapest border). as_hop[a][b] = next AS from a
    // toward b.
    let mut as_hop: Vec<Vec<Option<usize>>> = vec![vec![None; nas]; nas];
    for (src_as, row) in as_hop.iter_mut().enumerate() {
        let mut dist = vec![u64::MAX; nas];
        let mut first: Vec<Option<usize>> = vec![None; nas];
        let mut done = vec![false; nas];
        dist[src_as] = 0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, src_as)));
        while let Some(std::cmp::Reverse((d, a))) = heap.pop() {
            if done[a] {
                continue;
            }
            done[a] = true;
            for (&(from, to), bs) in borders.range((a, 0)..(a + 1, 0)) {
                debug_assert_eq!(from, a);
                let nd = d + bs[0].latency_us;
                if nd < dist[to] {
                    dist[to] = nd;
                    first[to] = if a == src_as { Some(to) } else { first[a] };
                    heap.push(std::cmp::Reverse((nd, to)));
                }
            }
        }
        *row = first;
    }

    HierPlan {
        as_of,
        as_ids,
        borders,
        as_hop,
    }
}

impl HierPlan {
    /// The hot-potato exit of rank `src` toward every AS, from `scratch`'s
    /// run over `src`'s AS: per destination AS the border to the next AS
    /// whose egress is nearest `src` (then the cheapest, then the lowest
    /// link id), left over that border when `src` is its egress and
    /// toward the egress otherwise. Unreachable ASes get
    /// `(NodeId::MAX, NO_LINK)`; `src`'s own AS is never asked.
    ///
    /// Loop-free: the intra-AS distance to the nearest egress strictly
    /// decreases hop by hop, whichever egress each router individually
    /// prefers.
    fn exits(&self, src: u32, scratch: &SpfScratch, via: &mut [(NodeId, LinkId)]) {
        let sa = self.as_of[src as usize];
        for (ta, exit) in via.iter_mut().enumerate() {
            *exit = (NodeId::MAX, NO_LINK);
            let Some(next_as) = self.as_hop[sa][ta] else {
                continue; // unreachable, or `src`'s own AS
            };
            let border = self.borders[&(sa, next_as)]
                .iter()
                .min_by_key(|b| (scratch.dist_us()[b.egress as usize], b.latency_us, b.link.0))
                .expect("at least one border to the next AS");
            *exit = if src == border.egress {
                (border.ingress, border.link)
            } else {
                scratch.first_hops()[border.egress as usize]
            };
        }
    }
}

/// Builds two-level routing tables for `net`, every row encoded up front
/// (each row needs only its own source's Dijkstra, so there is nothing to
/// defer to demand — DESIGN.md §16).
///
/// # Panics
/// Panics if the core of some AS is internally disconnected.
pub fn build_hierarchical(net: &Network) -> RoutingTables {
    let tables = RoutingTables::empty(net, &renumber(net));
    install_rows(net, &tables);
    tables
}

/// Installs the hot-potato row of every core node of `tables`.
fn install_rows(net: &Network, tables: &RoutingTables) {
    let core = Core::new(net, tables);
    let plan = plan(net, &core, &tables.link_latency_us);
    let mut scratch = SpfScratch::new();
    let mut via = vec![(NodeId::MAX, NO_LINK); plan.as_ids.len()];
    for src in 0..core.nodes.len() as u32 {
        let sa = plan.as_of[src as usize];
        let in_as = |r: u32| plan.as_of[r as usize] == sa;
        scratch.run(&core, &tables.link_latency_us, src, in_as);
        plan.exits(src, &scratch, &mut via);
        let first = scratch.first_hops();
        let row = Row::encode(src, core.nodes.len(), |r| {
            let ta = plan.as_of[r];
            if ta != sa {
                return via[ta];
            }
            assert_ne!(
                first[r].0,
                NodeId::MAX,
                "AS {} is internally disconnected — hierarchical routing impossible",
                plan.as_ids[sa]
            );
            first[r]
        });
        tables.install(core.nodes[src as usize], row);
    }
}

/// Mean multiplicative path stretch of `hier` over `flat` across all
/// reachable pairs (1.0 = no stretch).
pub fn path_stretch(flat: &RoutingTables, hier: &RoutingTables) -> f64 {
    let n = flat.node_count();
    let mut sum = 0.0;
    let mut count = 0usize;
    for src in 0..n as NodeId {
        for dst in 0..n as NodeId {
            if src == dst {
                continue;
            }
            if let (Some(f), Some(h)) = (flat.latency_us(src, dst), hier.latency_us(src, dst)) {
                sum += h as f64 / f.max(1) as f64;
                count += 1;
            }
        }
    }
    if count == 0 {
        1.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::asys::assign_contiguous_ases;
    use massf_topology::brite::{generate, BriteConfig, GrowthModel};
    use massf_topology::campus::campus;
    use massf_topology::teragrid::teragrid;

    #[test]
    fn single_as_matches_flat_routing() {
        // Campus is one AS: hierarchical must equal global SPF exactly.
        let net = campus();
        let flat = RoutingTables::build(&net);
        let hier = build_hierarchical(&net);
        let n = net.node_count() as NodeId;
        for a in 0..n {
            for b in 0..n {
                assert_eq!(flat.latency_us(a, b), hier.latency_us(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn teragrid_all_pairs_reachable_and_loop_free() {
        let net = teragrid();
        let hier = build_hierarchical(&net);
        let n = net.node_count() as NodeId;
        for a in 0..n {
            for b in 0..n {
                let path = hier.path(a, b).expect("hierarchical must reach everything");
                assert!(path.len() <= net.node_count());
                assert_eq!(*path.last().unwrap(), b);
            }
        }
    }

    #[test]
    fn intra_as_paths_equal_flat_spf() {
        let net = teragrid();
        let flat = RoutingTables::build(&net);
        let hier = build_hierarchical(&net);
        // Two hosts in the same site route identically under both schemes.
        let hosts = net.hosts();
        let (a, b) = (hosts[0], hosts[20]); // both NCSA
        assert_eq!(net.node(a).as_id, net.node(b).as_id);
        assert_eq!(flat.latency_us(a, b), hier.latency_us(a, b));
    }

    #[test]
    fn inter_as_stretch_is_bounded() {
        let net = teragrid();
        let flat = RoutingTables::build(&net);
        let hier = build_hierarchical(&net);
        let s = path_stretch(&flat, &hier);
        assert!(s >= 1.0 - 1e-9, "stretch below 1: {s}");
        assert!(
            s < 1.5,
            "hot-potato stretch should be modest on TeraGrid: {s}"
        );
    }

    #[test]
    fn paths_cross_exactly_the_chosen_gateways() {
        let net = teragrid();
        let hier = build_hierarchical(&net);
        // NCSA host -> SDSC host must pass both site gateways.
        let hosts = net.hosts();
        let (a, b) = (hosts[0], hosts[40]);
        let path = hier.path(a, b).unwrap();
        let names: Vec<&str> = path.iter().map(|&v| net.node(v).name.as_str()).collect();
        assert!(
            names.iter().any(|s| s.ends_with("-gw")),
            "no gateway in {names:?}"
        );
        assert!(
            names.iter().any(|s| s.starts_with("hub-")),
            "no backbone hub in {names:?}"
        );
    }

    /// Campus (one AS), TeraGrid (border choices) and TeraGrid plus an
    /// unreachable island AS with a host and a host alone in its own AS on
    /// a backbone hub, `ablate_routing`'s Brite/6-AS overlay, and small
    /// Brite networks of both growth models at k ∈ {2, 3, 6} imposed ASes.
    fn as_networks() -> Vec<Network> {
        let mut island = teragrid();
        let a = island.add_router("island-a", 99);
        let b = island.add_router("island-b", 99);
        let h = island.add_host("island-h", 99);
        let own = island.add_host("own-as-h", 77);
        island.add_link(a, b, 100.0, 5);
        island.add_link(h, a, 100.0, 5);
        island.add_link(own, 0, 100.0, 5);
        let mut nets = vec![
            campus(),
            teragrid(),
            island,
            assign_contiguous_ases(&generate(&BriteConfig::paper_brite()), 6),
        ];
        let models = [
            GrowthModel::BarabasiAlbert { m: 2 },
            GrowthModel::Waxman {
                alpha: 0.2,
                beta: 0.15,
            },
        ];
        for (seed, model) in (1..=3).flat_map(|s| models.map(|m| (s, m))) {
            let net = generate(&BriteConfig {
                routers: 24,
                hosts: 30,
                model,
                seed,
            });
            nets.extend([2, 3, 6].map(|k| assign_contiguous_ases(&net, k)));
        }
        nets
    }

    /// Every ordered pair is answered alike by `a` and `b`.
    fn assert_same_routes(a: &RoutingTables, b: &RoutingTables, nodes: &[NodeId], what: &str) {
        for &src in nodes {
            for &dst in nodes {
                let got = (a.next_hop(src, dst), a.next_link_raw(src, dst));
                let want = (b.next_hop(src, dst), b.next_link_raw(src, dst));
                assert_eq!(got, want, "{what}: {src}->{dst}");
            }
        }
    }

    /// Walks every reachable pair, so a loop fails in release too.
    fn assert_loop_free(hier: &RoutingTables) {
        let n = hier.node_count() as NodeId;
        for a in 0..n {
            for b in (0..n).filter(|&b| hier.next_hop(a, b).is_some()) {
                let (mut cur, mut walked) = (a, 0);
                while cur != b {
                    cur = hier
                        .next_hop(cur, b)
                        .expect("a reachable route never dead-ends");
                    walked += 1;
                    assert!(walked <= n, "routing loop {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn core_rows_route_as_hot_potato_over_every_node_does() {
        // The same hot-potato rule with every node a core node (a row and
        // a column each, leaves as members of their ASes and their links
        // as borders) must answer every query as the core rows and leaf
        // records do: no route between core nodes passes a leaf, and a
        // leaf is reached, and leaves, the way its parent does — one host
        // sits alone in its own AS, so its route crosses a border.
        let mut alone = 0;
        for net in as_networks() {
            let hier = build_hierarchical(&net);
            assert!(hier.leaf.iter().any(Option::is_some), "no leaf to check");
            alone += (0..net.node_count() as NodeId)
                .filter_map(|h| Some((h, net.leaf_uplink(h)?.0)))
                .filter(|&(h, p)| net.node(h).as_id != net.node(p).as_id)
                .count();
            let every = RoutingTables::without_leaves(&net);
            install_rows(&net, &every);
            let nodes: Vec<NodeId> = (0..net.node_count() as NodeId).collect();
            assert_same_routes(&hier, &every, &nodes, "core vs every node");
            assert_loop_free(&hier);
        }
        assert!(alone > 0, "no leaf alone in its AS");
    }

    #[test]
    fn a_leaf_homed_in_a_foreign_as_routes_through_its_parent() {
        // AS 55 holds two routers and a host whose only link goes to a
        // backbone hub of another AS: the AS is connected only through
        // its core, and the host is reached, and leaves, through the hub.
        let mut net = teragrid();
        let r1 = net.add_router("as55-r1", 55);
        let r2 = net.add_router("as55-r2", 55);
        net.add_link(r1, r2, 100.0, 5);
        net.add_link(r1, 0, 100.0, 5);
        let without = net.clone();
        let h = net.add_host("as55-h", 55);
        let uplink = net.add_link(h, 0, 100.0, 5);
        assert_eq!(net.leaf_uplink(h), Some((0, uplink)));

        let hier = build_hierarchical(&net);
        let others: Vec<NodeId> = (0..h).collect();
        assert_same_routes(
            &hier,
            &build_hierarchical(&without),
            &others,
            "the host moves nothing",
        );
        for x in others {
            assert_eq!(hier.next_link_raw(h, x), uplink, "{h}->{x}");
            let toward = match x {
                0 => (Some(h), uplink),
                _ => (hier.next_hop(x, 0), hier.next_link_raw(x, 0)),
            };
            assert_eq!(
                (hier.next_hop(x, h), hier.next_link_raw(x, h)),
                toward,
                "{x}->{h}"
            );
        }
        assert_loop_free(&hier);
    }
}
