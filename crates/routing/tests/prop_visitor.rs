//! Property tests for the allocation-free hop visitor: on arbitrary
//! generated networks, `for_each_hop` must visit exactly the nodes of
//! `path()` and the links of `path_links()`, in order, for every pair.

use massf_routing::RoutingTables;
use massf_topology::brite::{generate, BriteConfig, GrowthModel};
use massf_topology::{LinkId, Network, NodeId};
use proptest::prelude::*;

/// Arbitrary small BRITE-like network.
fn arb_network() -> impl Strategy<Value = Network> {
    (5usize..20, 0usize..12, any::<u64>(), prop::bool::ANY).prop_map(
        |(routers, hosts, seed, waxman)| {
            let model = if waxman {
                GrowthModel::Waxman {
                    alpha: 0.2,
                    beta: 0.15,
                }
            } else {
                GrowthModel::BarabasiAlbert { m: 2 }
            };
            generate(&BriteConfig {
                routers,
                hosts,
                model,
                seed,
            })
        },
    )
}

/// Replays the visitor into concrete node/link sequences, plus its
/// reachability verdict.
fn visit(tables: &RoutingTables, src: NodeId, dst: NodeId) -> (bool, Vec<NodeId>, Vec<LinkId>) {
    let mut nodes = Vec::new();
    let mut links = Vec::new();
    let reached = tables.for_each_hop(src, dst, |node, link| {
        nodes.push(node);
        links.extend(link);
    });
    (reached, nodes, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn visitor_matches_path_and_path_links(net in arb_network(), pick in any::<u64>()) {
        let tables = RoutingTables::build(&net);
        let n = net.node_count() as u64;
        let src = (pick % n) as NodeId;
        let dst = ((pick / n) % n) as NodeId;
        let (reached, nodes, links) = visit(&tables, src, dst);
        match tables.path(src, dst) {
            Some(path) => {
                prop_assert!(reached);
                prop_assert_eq!(&nodes, &path, "visited nodes differ from path()");
                let expected_links = tables.path_links(src, dst).expect("path exists");
                prop_assert_eq!(&links, &expected_links, "visited links differ");
                // One link per hop between consecutive path nodes.
                prop_assert_eq!(links.len() + 1, path.len().max(1));
            }
            None => {
                prop_assert!(!reached, "visitor reached an unreachable pair");
                prop_assert!(nodes.is_empty(), "visitor emitted nodes before failing");
                prop_assert!(links.is_empty());
            }
        }
    }

    #[test]
    fn visitor_covers_every_pair(net in arb_network()) {
        // Exhaustive over all pairs of a small net: the visitor agrees with
        // the allocating API everywhere, including src == dst.
        let tables = RoutingTables::build(&net);
        for src in 0..net.node_count() as NodeId {
            for dst in 0..net.node_count() as NodeId {
                let (reached, nodes, links) = visit(&tables, src, dst);
                prop_assert_eq!(reached, tables.path(src, dst).is_some());
                if reached {
                    prop_assert_eq!(Some(nodes), tables.path(src, dst));
                    prop_assert_eq!(Some(links), tables.path_links(src, dst));
                }
            }
        }
    }
}
