//! Two-level (AS-aware) routing — the structure behind the paper's memory
//! model.
//!
//! The paper sizes routing tables by `O(n²)` *per AS* (§2.2.2) because
//! real networks route hierarchically: full shortest-path state inside an
//! autonomous system, and BGP-style gateway routes between systems. This
//! module builds routing tables with exactly that structure:
//!
//! * **intra-AS**: latency-shortest paths restricted to the AS's own nodes;
//! * **inter-AS**: shortest paths on the AS-level graph (one vertex per AS,
//!   edges = inter-AS links weighted by latency); a node routes toward its
//!   AS's egress gateway for the destination AS, crosses the inter-AS link,
//!   and the next AS takes over — classic hot-potato forwarding.
//!
//! Rows are produced AS at a time from per-AS state that is only
//! `O(Σ mᵢ²)` (`mᵢ` = AS size) and stream straight into the interval
//! table's row slots, so peak memory is one AS's state plus the encoded
//! output. Every consumer (engine, traceroute, mappers) works unchanged.
//! Hierarchical paths can be *longer* than global SPF paths (the
//! well-known path stretch of policy routing); [`path_stretch`]
//! quantifies it.

use crate::interval::renumber;
use crate::spf::{self, SpfScratch};
use crate::tables::{link_toward, RoutingTables, NO_LINK};
use massf_topology::{LinkId, Network, NodeId};
use std::collections::BTreeMap;

/// An inter-AS adjacency: the chosen border link between two ASes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Border {
    /// Node inside the source AS.
    egress: NodeId,
    /// Node inside the neighbouring AS.
    ingress: NodeId,
    /// The border link.
    link: LinkId,
    /// Its latency.
    latency_us: u64,
}

/// The AS-level structure: AS membership, every
/// border link per AS pair, and AS-graph shortest-path next hops.
struct HierPlan {
    /// Number of distinct ASes.
    nas: usize,
    /// Dense AS index per node.
    as_of: Vec<usize>,
    /// Original AS ids, for diagnostics.
    as_ids: Vec<u32>,
    /// Node ids per AS index, ascending.
    members: Vec<Vec<NodeId>>,
    /// Border links per directed AS pair, sorted by `(latency, link id)`.
    borders: BTreeMap<(usize, usize), Vec<Border>>,
    /// `as_hop[a][b]` = next AS from `a` toward `b` on the AS graph.
    as_hop: Vec<Vec<Option<usize>>>,
}

fn plan(net: &Network) -> HierPlan {
    let n = net.node_count();

    // Dense AS indexing.
    let as_ids: Vec<u32> = {
        let mut ids: Vec<u32> = net.nodes().iter().map(|nd| nd.as_id).collect::<Vec<_>>();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let as_index: BTreeMap<u32, usize> = as_ids.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    let nas = as_ids.len();
    let as_of: Vec<usize> = net.nodes().iter().map(|nd| as_index[&nd.as_id]).collect();

    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); nas];
    for v in 0..n {
        members[as_of[v]].push(v as NodeId);
    }

    // *All* border links between AS pairs (real hot-potato picks the
    // nearest of several egress points), plus the cheapest per pair for the
    // AS-level shortest paths.
    let mut borders: BTreeMap<(usize, usize), Vec<Border>> = BTreeMap::new();
    for (li, l) in net.links().iter().enumerate() {
        let (aa, ab) = (as_of[l.a as usize], as_of[l.b as usize]);
        if aa == ab {
            continue;
        }
        for (from, egress, ingress) in [(aa, l.a, l.b), (ab, l.b, l.a)] {
            let to = if from == aa { ab } else { aa };
            borders.entry((from, to)).or_default().push(Border {
                egress,
                ingress,
                link: LinkId(li as u32),
                latency_us: l.latency_us,
            });
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
        nas,
        as_of,
        as_ids,
        members,
        borders,
        as_hop,
    }
}

/// Intra-AS routing state for one AS, in member-local coordinates:
/// `m × m` first hops, first links, and shortest-path distances. This is
/// the only all-pairs state the hierarchical builder ever holds, and it is
/// per-AS — the paper's `O(n²)`-per-AS bound, not global `O(n²)`.
struct IntraAs {
    /// Global node ids of the AS members, ascending.
    members: Vec<NodeId>,
    /// Member-local index per global node (`u32::MAX` for non-members).
    local_of: Vec<u32>,
    /// `first_hop[si * m + di]`: global id of the first hop from member
    /// `si` toward member `di`; `NodeId::MAX` on the diagonal.
    first_hop: Vec<NodeId>,
    /// Link to that first hop.
    first_link: Vec<LinkId>,
    /// Intra-AS shortest-path latency between members.
    dist: Vec<u64>,
}

/// Builds the intra-AS state for AS index `a` by running SPF over the
/// induced member subnetwork.
///
/// # Panics
/// Panics if the AS is internally disconnected (every AS must be routable
/// on its own, as in real networks).
fn intra_for(net: &Network, plan: &HierPlan, a: usize, scratch: &mut SpfScratch) -> IntraAs {
    let mem = plan.members[a].clone();
    let m = mem.len();
    let mut local_of = vec![u32::MAX; net.node_count()];
    for (i, &v) in mem.iter().enumerate() {
        local_of[v as usize] = i as u32;
    }

    // Induced sub-network over the members; links resolve back through the
    // full network when first hops are materialized.
    let mut sub = Network::new();
    for &v in &mem {
        match net.node(v).kind {
            massf_topology::NodeKind::Router => sub.add_router(net.node(v).name.clone(), 0),
            massf_topology::NodeKind::Host => sub.add_host(net.node(v).name.clone(), 0),
        };
    }
    for l in net.links() {
        if local_of[l.a as usize] != u32::MAX && local_of[l.b as usize] != u32::MAX {
            sub.add_link(
                local_of[l.a as usize] as NodeId,
                local_of[l.b as usize] as NodeId,
                l.bandwidth_mbps,
                l.latency_us,
            );
        }
    }
    assert!(
        sub.is_connected(),
        "AS {} is internally disconnected — hierarchical routing impossible",
        plan.as_ids[a]
    );

    let mut first_hop = vec![NodeId::MAX; m * m];
    let mut first_link = vec![NO_LINK; m * m];
    let mut dist = vec![u64::MAX; m * m];
    for (si, &sv) in mem.iter().enumerate() {
        // One caller-owned scratch across every member of every AS —
        // distances are copied out before `first_hops` reborrows it.
        scratch.run(&sub, si as NodeId);
        dist[si * m..(si + 1) * m].copy_from_slice(scratch.dist_us());
        let first = scratch.first_hops();
        let mut memo: Vec<(NodeId, LinkId)> = Vec::new();
        for di in 0..m {
            let hop_local = first[di];
            if hop_local == spf::NO_PREV {
                continue; // the diagonal: the AS is connected
            }
            let hop = mem[hop_local as usize];
            first_hop[si * m + di] = hop;
            first_link[si * m + di] = link_toward(net, sv, hop, &mut memo);
        }
    }

    IntraAs {
        members: mem,
        local_of,
        first_hop,
        first_link,
        dist,
    }
}

/// Fills the full next-hop/next-link row for `src` into `n`-length scratch
/// slices (which the caller pre-reset to `NodeId::MAX` / [`NO_LINK`]):
/// intra-AS destinations from the member SPF state, inter-AS destinations
/// via one hot-potato border choice per destination AS.
///
/// Loop-free: the intra-AS distance to the nearest egress strictly
/// decreases hop by hop, whichever egress each router individually
/// prefers.
fn fill_row(
    plan: &HierPlan,
    intra: &IntraAs,
    src: NodeId,
    hops: &mut [NodeId],
    links: &mut [LinkId],
) {
    let sa = plan.as_of[src as usize];
    let m = intra.members.len();
    let si = intra.local_of[src as usize] as usize;

    for di in 0..m {
        if di == si {
            continue;
        }
        let dv = intra.members[di] as usize;
        hops[dv] = intra.first_hop[si * m + di];
        links[dv] = intra.first_link[si * m + di];
    }

    for ta in 0..plan.nas {
        if ta == sa {
            continue;
        }
        let Some(next_as) = plan.as_hop[sa][ta] else {
            continue; // unreachable AS: row entries stay sentinel
        };
        let candidates = &plan.borders[&(sa, next_as)];
        let border = candidates
            .iter()
            .min_by_key(|b| {
                let d = if b.egress == src {
                    0
                } else {
                    intra.dist[si * m + intra.local_of[b.egress as usize] as usize]
                };
                (d, b.latency_us, b.link.0)
            })
            .expect("at least one border to the next AS");
        let (hop, link) = if src == border.egress {
            (border.ingress, border.link)
        } else {
            // Follow the intra-AS route toward the egress gateway.
            let ei = intra.local_of[border.egress as usize] as usize;
            (intra.first_hop[si * m + ei], intra.first_link[si * m + ei])
        };
        for &dv in &plan.members[ta] {
            hops[dv as usize] = hop;
            links[dv as usize] = link;
        }
    }
}

/// Builds two-level routing tables for `net`, every row encoded up front
/// (hierarchical rows already stream AS at a time with per-AS peak memory,
/// so there is nothing to defer to demand — DESIGN.md §16).
///
/// # Panics
/// Panics if some AS is internally disconnected.
pub fn build_hierarchical(net: &Network) -> RoutingTables {
    let plan = plan(net);
    let n = net.node_count();
    let order = renumber(net);
    // Leaves store leaf records, as under the other builders: a leaf's only
    // exit is its uplink, and it reaches what its parent reaches (the
    // parent shares its AS, or borders the leaf's one-node AS).
    let tables = RoutingTables::empty(net, &order);
    // One scratch row, reset per source.
    let mut hops = vec![NodeId::MAX; n];
    let mut links = vec![NO_LINK; n];
    let mut scratch = SpfScratch::new();
    for a in 0..plan.nas {
        let intra = intra_for(net, &plan, a, &mut scratch);
        for &src in plan.members[a]
            .iter()
            .filter(|&&v| tables.leaf[v as usize].is_none())
        {
            hops.fill(NodeId::MAX);
            links.fill(NO_LINK);
            fill_row(&plan, &intra, src, &mut hops, &mut links);
            let row = tables.encode(&order, src, |dst| (hops[dst as usize], links[dst as usize]));
            tables.install(src, row);
        }
    }
    tables
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
                ..BriteConfig::paper_brite()
            });
            nets.extend([2, 3, 6].map(|k| assign_contiguous_ases(&net, k)));
        }
        nets
    }

    #[test]
    fn fill_row_routes_every_leaf_as_its_parent_from_every_other_source() {
        // Rows have no column for a leaf: `entry(x, h)` is the uplink from
        // the parent and the parent's entry from anywhere else. `fill_row`
        // must already write exactly that, or dropping the column would
        // move a hierarchical route. One host sits alone in its own AS, so
        // its route crosses a border rather than its parent's AS.
        let mut alone = 0;
        for net in as_networks() {
            let p = plan(&net);
            let n = net.node_count();
            let leaves: Vec<_> = (0..n as NodeId)
                .filter_map(|h| Some((h, net.leaf_uplink(h)?)))
                .collect();
            alone += leaves
                .iter()
                .filter(|l| p.members.contains(&vec![l.0]))
                .count();
            let mut scratch = SpfScratch::new();
            for a in 0..p.nas {
                let intra = intra_for(&net, &p, a, &mut scratch);
                for &src in &p.members[a] {
                    let mut hops = vec![NodeId::MAX; n];
                    let mut links = vec![NO_LINK; n];
                    fill_row(&p, &intra, src, &mut hops, &mut links);
                    for &(h, (parent, uplink)) in leaves.iter().filter(|l| l.0 != src) {
                        let want = if parent == src {
                            (h, uplink)
                        } else {
                            (hops[parent as usize], links[parent as usize])
                        };
                        assert_eq!((hops[h as usize], links[h as usize]), want, "{src}->{h}");
                    }
                }
            }
        }
        assert!(alone > 0, "no leaf alone in its AS");
    }

    #[test]
    fn installed_rows_answer_what_fill_row_wrote() {
        // Every source, leaf records included: a leaf answers "uplink iff
        // the parent reaches the destination", which must be exactly the
        // row `fill_row` writes for it.
        for net in as_networks() {
            let hier = build_hierarchical(&net);
            assert!(hier.leaf.iter().any(Option::is_some), "no leaf to check");
            let p = plan(&net);
            let n = net.node_count();
            let mut scratch = SpfScratch::new();
            for a in 0..p.nas {
                let intra = intra_for(&net, &p, a, &mut scratch);
                for &src in &p.members[a] {
                    let mut hops = vec![NodeId::MAX; n];
                    let mut links = vec![NO_LINK; n];
                    fill_row(&p, &intra, src, &mut hops, &mut links);
                    for dst in 0..n as NodeId {
                        let hop = hops[dst as usize];
                        assert_eq!(
                            hier.next_hop(src, dst),
                            (hop != NodeId::MAX).then_some(hop),
                            "hop {src}->{dst}"
                        );
                        assert_eq!(
                            hier.next_link_raw(src, dst),
                            links[dst as usize],
                            "link {src}->{dst}"
                        );
                    }
                }
            }
            // Loop-freedom, counted here so a loop fails in release too.
            for a in 0..n as NodeId {
                for b in (0..n as NodeId).filter(|&b| hier.next_hop(a, b).is_some()) {
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
    }
}
