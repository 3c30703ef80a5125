//! Property tests for the interval-row routing table (DESIGN.md §13): on
//! arbitrary generated Waxman/Barabási–Albert networks with degree-1
//! shapes added — and the shipped `campus()` fixture plus a host-heavy
//! line — the prefilled tables must answer **every** routing query
//! exactly as the n × n oracle over a Dijkstra that queues every node
//! does, and a prefilled table must be structurally identical at every
//! thread count to a lazy table whose every row has been demanded (one
//! structure, two fill policies).

use massf_par::Parallelism;
use massf_routing::spf::SpfTree;
use massf_routing::{RoutingKind, RoutingTables};
use massf_topology::brite::{generate, BriteConfig, GrowthModel};
use massf_topology::campus::campus;
use massf_topology::{LinkId, Network, NodeId};
use proptest::prelude::*;

/// The n × n oracle the crate keeps for its own tests, mounted from its
/// source so there is one copy.
#[path = "../src/tables/oracle.rs"]
mod oracle;
use oracle::Oracle;

/// Arbitrary small BRITE-like network plus [`add_leafy_shapes`].
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
            let mut net = generate(&BriteConfig {
                routers,
                hosts,
                model,
                seed,
            });
            add_leafy_shapes(&mut net);
            net
        },
    )
}

/// Adds the leafy shapes to `net` (whose node 0 is a router): a host on a
/// degree-2 router, a router whose only neighbours are hosts, a host-only
/// pair, a two-router island, an isolated node, a host alone in its own
/// AS, and two routers each joined to node 0 by two parallel links of
/// unequal latency, one listing the faster link first and one the slower.
/// (Every node is a source, degree-1 ones included.)
fn add_leafy_shapes(net: &mut Network) {
    let stub = net.add_router("stub", 0);
    let host = net.add_host("stub-host", 0);
    net.add_link(0, stub, 1000.0, 120);
    net.add_link(stub, host, 100.0, 10);
    let hub = net.add_router("hub", 98);
    for i in 0..2 {
        let x = net.add_host(format!("hub-host{i}"), 98);
        net.add_link(hub, x, 100.0, 10);
    }
    let (p, q) = (net.add_host("pair-p", 97), net.add_host("pair-q", 97));
    net.add_link(p, q, 100.0, 6);
    let a = net.add_router("island-a", 99);
    let b = net.add_router("island-b", 99);
    net.add_link(a, b, 100.0, 5);
    net.add_host("isolated", 0);
    let own = net.add_host("own-as", 96);
    net.add_link(own, 0, 100.0, 15);
    let twin = net.add_router("twin", 0);
    net.add_link(0, twin, 1000.0, 20);
    net.add_link(0, twin, 1000.0, 70);
    net.add_link(twin, stub, 1000.0, 30);
    let slow_first = net.add_router("slow-first", 0);
    net.add_link(0, slow_first, 1000.0, 70);
    net.add_link(0, slow_first, 1000.0, 20);
    net.add_link(slow_first, stub, 1000.0, 30);
}

/// A router line with a few hosts hanging off each router — the
/// leaf-row-heavy shape the row-sharing optimization targets.
fn hosty_line() -> Network {
    let mut net = Network::new();
    let routers: Vec<NodeId> = (0..5).map(|i| net.add_router(format!("r{i}"), 0)).collect();
    for w in routers.windows(2) {
        net.add_link(w[0], w[1], 1000.0, 50);
    }
    for (i, &r) in routers.iter().enumerate() {
        for j in 0..3 {
            let h = net.add_host(format!("h{i}-{j}"), 0);
            net.add_link(r, h, 100.0, 10);
        }
    }
    net
}

/// Structural equality, not just query equality: the slots the eager
/// parallel fill installs are the ones demand would have filled.
fn prefilled_matches_demanded(net: &Network) -> bool {
    let lazy = RoutingTables::build_lazy(net);
    let n = net.node_count() as NodeId;
    for src in 0..n {
        for dst in 0..n {
            lazy.next_hop(src, dst);
        }
    }
    [1, 2, 4].into_iter().all(|threads| {
        let par = Parallelism::new(threads);
        RoutingTables::build_kind(net, RoutingKind::Compressed, par) == lazy
    })
}

#[test]
fn prefilled_equals_fully_demanded_lazy_on_fixtures() {
    for net in [campus(), hosty_line()] {
        assert!(prefilled_matches_demanded(&net));
    }
    // A pending row is a structural difference.
    let net = campus();
    assert_ne!(RoutingTables::build(&net), RoutingTables::build_lazy(&net));
}

#[test]
fn prefilled_equals_the_oracle_on_fixtures() {
    for net in [campus(), hosty_line()] {
        Oracle::build(&net).assert_answers(&RoutingTables::build(&net), "prefilled");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prefilled_equals_the_oracle_on_generated_networks(net in arb_network()) {
        Oracle::build(&net).assert_answers(&RoutingTables::build(&net), "prefilled");
    }

    #[test]
    fn prefilled_equals_fully_demanded_lazy_at_any_thread_count(net in arb_network()) {
        prop_assert!(prefilled_matches_demanded(&net));
    }
}
