//! Property tests for the compressed interval-row representation
//! (DESIGN.md §13): on arbitrary generated Waxman/Barabási–Albert
//! networks — and the shipped `campus()` fixture plus a host-heavy line —
//! the compressed tables must answer **every** routing query
//! bit-identically to the dense baseline, and a prefilled table must be
//! structurally identical at every thread count to a lazy table whose
//! every row has been demanded (one structure, two fill policies).

use massf_par::Parallelism;
use massf_routing::{RoutingKind, RoutingTables};
use massf_topology::brite::{generate, BriteConfig, GrowthModel};
use massf_topology::campus::campus;
use massf_topology::{Network, NodeId};
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
                ..BriteConfig::paper_brite()
            })
        },
    )
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

/// Every query of the public API must agree on every pair: next hop, next
/// link (both the `Option` and raw forms), latency, and the hop-visitor
/// trace (which also covers `path`/`path_links`).
fn assert_equivalent(net: &Network, dense: &RoutingTables, comp: &RoutingTables) {
    let n = net.node_count() as NodeId;
    for a in 0..n {
        for b in 0..n {
            assert_eq!(dense.next_hop(a, b), comp.next_hop(a, b), "hop {a}->{b}");
            assert_eq!(dense.next_link(a, b), comp.next_link(a, b), "link {a}->{b}");
            assert_eq!(
                dense.next_link_raw(a, b),
                comp.next_link_raw(a, b),
                "raw link {a}->{b}"
            );
            assert_eq!(
                dense.latency_us(a, b),
                comp.latency_us(a, b),
                "latency {a}->{b}"
            );
            let mut dv = Vec::new();
            let mut cv = Vec::new();
            let dr = dense.for_each_hop(a, b, |node, link| dv.push((node, link)));
            let cr = comp.for_each_hop(a, b, |node, link| cv.push((node, link)));
            assert_eq!(dr, cr, "reachability {a}->{b}");
            assert_eq!(dv, cv, "visit order {a}->{b}");
        }
    }
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
    assert_ne!(
        RoutingTables::build_compressed(&net),
        RoutingTables::build_lazy(&net)
    );
}

#[test]
fn compressed_equals_dense_on_fixtures() {
    for net in [campus(), hosty_line()] {
        let dense = RoutingTables::build(&net);
        let comp = RoutingTables::build_compressed(&net);
        assert_equivalent(&net, &dense, &comp);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compressed_equals_dense_on_generated_networks(net in arb_network()) {
        let dense = RoutingTables::build(&net);
        let comp = RoutingTables::build_compressed(&net);
        assert_equivalent(&net, &dense, &comp);
    }

    #[test]
    fn prefilled_equals_fully_demanded_lazy_at_any_thread_count(net in arb_network()) {
        prop_assert!(prefilled_matches_demanded(&net));
    }
}
