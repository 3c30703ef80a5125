//! Property tests for the audit's routing probes (`probes`, MC014/MC015):
//! on generated Waxman/Barabási–Albert networks — with an isolated node
//! and a two-node island added — over prefilled and lazy tables, both
//! probes return exactly the witnesses and total of the pairwise oracle at
//! every cap, and the tables certify. (The column reader and hand-installed
//! damaged rows need crate-private access; those properties live in
//! `probes.rs`.)

use massf_routing::probes::{self, AsymmetricPair, EcmpSite};
use massf_routing::RoutingTables;
use massf_topology::brite::{generate, BriteConfig, GrowthModel};
use massf_topology::{Network, NodeId, NodeKind};
use proptest::prelude::*;

/// The pairwise oracle the crate keeps for its own tests, mounted from
/// its source so there is one copy.
#[path = "../src/probes/naive.rs"]
mod naive;

/// `tied` puts every link on the generator's 100 µs floor
/// (distance-derived latencies almost never tie).
fn brite(routers: usize, hosts: usize, seed: u64, waxman: bool, tied: bool) -> Network {
    let model = if waxman {
        GrowthModel::Waxman {
            alpha: 0.2,
            beta: 0.15,
        }
    } else {
        GrowthModel::BarabasiAlbert { m: 2 }
    };
    let net = generate(&BriteConfig {
        routers,
        hosts,
        model,
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

/// A small BRITE network plus the two shapes routing special-cases: a
/// node nothing reaches, and a two-node island (both ends degree 1, so
/// neither is a shared leaf).
fn arb_network() -> impl Strategy<Value = Network> {
    (
        5usize..16,
        0usize..12,
        any::<u64>(),
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(|(routers, hosts, seed, waxman, tied)| {
            let mut net = brite(routers, hosts, seed, waxman, tied);
            net.add_host("isolated", 0);
            let a = net.add_router("island-a", 99);
            let b = net.add_router("island-b", 99);
            net.add_link(a, b, 100.0, 5);
            net
        })
}

fn every_kind(net: &Network) -> [RoutingTables; 2] {
    [RoutingTables::build(net), RoutingTables::build_lazy(net)]
}

/// Both probes against the oracle at caps 0, 1, 3 and beyond each total.
fn assert_probes_match_oracle(net: &Network, tables: &RoutingTables) {
    let kind = tables.kind();
    let asym_total = naive::asymmetric_latencies(tables, 0).1;
    let ecmp_total = naive::ecmp_sites(net, tables, 0).1;
    for cap in [0, 1, 3, asym_total + 5, ecmp_total + 5] {
        let got = probes::sweep(net, tables, cap);
        assert!(got.certified, "{kind:?} tables are shortest paths");
        assert_eq!(
            got.asymmetric,
            naive::asymmetric_latencies(tables, cap),
            "{kind:?} asymmetry, cap {cap}"
        );
        assert_eq!(
            got.ecmp,
            naive::ecmp_sites(net, tables, cap),
            "{kind:?} ECMP, cap {cap}"
        );
    }
}

/// The sweep covers the nodes without a leaf record (degree-1 nodes off a
/// degree ≥ 2 neighbour are folded) and reads their rows in tiles of as
/// many s-long columns as fit in the bytes of ⌈n / 32⌉ n-long ones: the
/// 130 routers and 2 isolated hosts of these 402 nodes are s = 132, so
/// tiles of 8·402·13 / (8·132) = 39 columns, three whole and a ragged one
/// of 15.
#[test]
fn probes_match_oracle_across_a_ragged_tile_boundary() {
    let mut net = brite(130, 270, 11, false, true);
    net.add_host("isolated", 0);
    net.add_host("isolated-too", 0);
    assert_eq!(net.node_count(), 402);
    let leaf = |v: NodeId| match net.neighbors(v) {
        &[(p, _)] => net.degree(p) >= 2,
        _ => false,
    };
    let swept = (0..402).filter(|&v| !leaf(v)).count();
    let width = 402 * 402usize.div_ceil(32) / swept;
    assert_eq!((swept, width, swept % width), (132, 39, 15));
    for tables in every_kind(&net) {
        assert_probes_match_oracle(&net, &tables);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn probes_match_oracle_on_generated_networks(net in arb_network()) {
        for tables in every_kind(&net) {
            assert_probes_match_oracle(&net, &tables);
        }
    }
}
