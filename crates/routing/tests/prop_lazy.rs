//! Property tests for lazy on-demand row materialization (DESIGN.md
//! §16): on arbitrary generated Waxman/Barabási–Albert networks the lazy
//! tables must answer **every** routing query exactly as the n × n
//! Dijkstra oracle does, the materialized structure must be
//! independent of the demand order (including concurrent demand), and
//! the per-engine slice accounting must partition the total resident
//! footprint exactly under any assignment.

use massf_routing::spf::SpfTree;
use massf_routing::RoutingTables;
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
                ..BriteConfig::paper_brite()
            });
            add_leafy_shapes(&mut net);
            net
        },
    )
}

/// Adds the leafy shapes to `net` (whose node 0 is a router): a host on a
/// degree-2 router, a router whose only neighbours are hosts, a host-only
/// pair, a two-router island, an isolated node, a host alone in its own
/// AS, and a router joined to node 0 by two parallel links of unequal
/// latency. (Every node is a source, degree-1 ones included.)
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
}

/// All (src, dst) pairs of `net`, permuted by a seeded Fisher–Yates so
/// two demand orders over the same pair set can be compared.
fn shuffled_pairs(net: &Network, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = net.node_count() as NodeId;
    let mut pairs: Vec<(NodeId, NodeId)> =
        (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect();
    let mut state = seed | 1;
    for i in (1..pairs.len()).rev() {
        // Deterministic splitmix-style step; quality is irrelevant here,
        // only that different seeds give different orders.
        state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
        pairs.swap(i, (state % (i as u64 + 1)) as usize);
    }
    pairs
}

#[test]
fn lazy_equals_the_oracle_on_campus() {
    let net = campus();
    Oracle::build(&net).assert_answers(&RoutingTables::build_lazy(&net), "lazy");
}

#[test]
fn concurrent_demand_is_bit_identical_to_serial() {
    let net = campus();
    let serial = RoutingTables::build_lazy(&net);
    let pairs = shuffled_pairs(&net, 7);
    for &(s, d) in &pairs {
        serial.latency_us(s, d);
    }

    let racy = RoutingTables::build_lazy(&net);
    std::thread::scope(|scope| {
        for chunk in pairs.chunks(pairs.len().div_ceil(4)) {
            let racy = &racy;
            scope.spawn(move || {
                for &(s, d) in chunk {
                    racy.latency_us(s, d);
                }
            });
        }
    });
    // Rows materialize through shared once-cells; whichever thread wins
    // the race must install the same structure the serial demand did.
    assert_eq!(serial, racy);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lazy_equals_the_oracle_on_generated_networks(net in arb_network()) {
        Oracle::build(&net).assert_answers(&RoutingTables::build_lazy(&net), "lazy");
    }

    #[test]
    fn materialization_order_never_changes_the_structure(
        net in arb_network(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = RoutingTables::build_lazy(&net);
        let b = RoutingTables::build_lazy(&net);
        for (s, d) in shuffled_pairs(&net, seed_a) {
            a.latency_us(s, d);
        }
        for (s, d) in shuffled_pairs(&net, seed_b) {
            b.latency_us(s, d);
        }
        // Same demanded pair set, arbitrary orders: every row is a pure
        // function of (network, source), so the tables compare equal.
        prop_assert_eq!(a, b);
    }

    #[test]
    fn slices_partition_the_resident_footprint(
        net in arb_network(),
        nengines in 1usize..5,
        seed in any::<u64>(),
    ) {
        let lazy = RoutingTables::build_lazy(&net);
        // Demand a pseudo-random half of all pairs.
        for (i, (s, d)) in shuffled_pairs(&net, seed).into_iter().enumerate() {
            if i % 2 == 0 {
                lazy.latency_us(s, d);
            }
        }
        let n = net.node_count();
        let assignment: Vec<u32> = (0..n).map(|v| (v * nengines / n) as u32).collect();
        let slices = lazy.slice_residency(&assignment, nengines).expect("lazy has slices");
        let unique_rows = lazy.run_stats().unique_rows;

        prop_assert_eq!(slices.len(), nengines);
        let sources: usize = slices.iter().map(|s| s.sources).sum();
        prop_assert_eq!(sources, n);
        let rows: usize = slices.iter().map(|s| s.rows_materialized).sum();
        prop_assert_eq!(rows, unique_rows);
        let bytes: u64 = slices.iter().map(|s| s.resident_bytes).sum();
        // Slices exclude only the shared link-latency snapshot.
        prop_assert_eq!(bytes + 8 * net.links().len() as u64, lazy.table_bytes());
        // Every materialized row was filled by a counted lookup, so
        // `lookups − unique_rows` (bench_slice's demand hits) never wraps.
        let lookups = lazy.lookups().expect("lazy tables count");
        prop_assert!(lookups >= unique_rows as u64, "{} lookups < {} rows", lookups, unique_rows);
    }
}
