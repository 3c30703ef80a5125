//! Property-based end-to-end invariants: for arbitrary generated
//! topologies, workloads, and partitions, the emulator must conserve
//! packets, keep imbalance within its mathematical bounds, and stay
//! deterministic.

use massf_core::engine::run_sequential;
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::brite::{generate, BriteConfig, GrowthModel};
use proptest::prelude::*;

/// Arbitrary small BRITE-like network.
fn arb_network() -> impl Strategy<Value = Network> {
    (6usize..24, 4usize..16, any::<u64>(), prop::bool::ANY).prop_map(
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

/// Arbitrary flow schedule between hosts of `net`.
fn arb_flows(net: &Network, seed: u64, count: usize) -> Vec<FlowSpec> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let hosts = net.hosts();
    (0..count)
        .filter_map(|_| {
            let src = hosts[rng.gen_range(0..hosts.len())];
            let dst = hosts[rng.gen_range(0..hosts.len())];
            (src != dst).then(|| FlowSpec {
                src,
                dst,
                start_us: rng.gen_range(0..2_000_000),
                packets: rng.gen_range(1..40),
                bytes: rng.gen_range(100..60_000),
                packet_interval_us: rng.gen_range(1..2_000),
                window: None,
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packets_are_conserved(net in arb_network(), fseed in any::<u64>(), k in 1usize..5) {
        let tables = RoutingTables::build(&net);
        let flows = arb_flows(&net, fseed, 25);
        let injected: u64 = flows.iter().map(|f| f.packets).sum();
        let g = net.to_unit_graph();
        prop_assume!(k <= g.nvtxs());
        let p = partition_kway(&g, &PartitionConfig::new(k));
        let cfg = EmulationConfig::new(p.part, k);
        let r = run_sequential(&net, &tables, &flows, &cfg);
        prop_assert_eq!(r.delivered + r.dropped, injected, "packets lost or duplicated");
        prop_assert_eq!(r.dropped, 0, "connected network must deliver everything");
    }

    #[test]
    fn event_count_is_partition_invariant(net in arb_network(), fseed in any::<u64>()) {
        let tables = RoutingTables::build(&net);
        let flows = arb_flows(&net, fseed, 20);
        let g = net.to_unit_graph();
        let mut totals = Vec::new();
        for k in [1usize, 2, 3] {
            let p = partition_kway(&g, &PartitionConfig::new(k));
            let cfg = EmulationConfig::new(p.part, k);
            let r = run_sequential(&net, &tables, &flows, &cfg);
            totals.push((r.total_events(), r.delivered, r.latency_sum_us));
        }
        prop_assert!(totals.windows(2).all(|w| w[0] == w[1]), "totals differ: {totals:?}");
    }

    #[test]
    fn imbalance_within_bounds(net in arb_network(), fseed in any::<u64>(), k in 2usize..6) {
        let tables = RoutingTables::build(&net);
        let flows = arb_flows(&net, fseed, 25);
        let g = net.to_unit_graph();
        prop_assume!(k <= g.nvtxs());
        let p = partition_kway(&g, &PartitionConfig::new(k));
        let cfg = EmulationConfig::new(p.part, k);
        let r = run_sequential(&net, &tables, &flows, &cfg);
        let imb = load_imbalance(&r.engine_events);
        // Normalized std-dev of n non-negative numbers is at most sqrt(n-1).
        prop_assert!(imb >= 0.0 && imb <= ((k - 1) as f64).sqrt() + 1e-9, "imb {imb}");
    }

    #[test]
    fn mapping_approaches_accept_any_topology(net in arb_network(), fseed in any::<u64>()) {
        let flows = arb_flows(&net, fseed, 15);
        let study = MappingStudy::new(net, MapperConfig::new(3));
        let hosts = study.net.hosts();
        prop_assume!(hosts.len() >= 4);
        let predicted = massf_core::mapping::place::foreground_prediction(
            &study.net,
            &hosts[..4.min(hosts.len())],
        );
        for a in Approach::ALL {
            let p = study.map(a, &predicted, &flows);
            prop_assert_eq!(p.nparts, 3);
            prop_assert!(p.part_sizes().iter().all(|&s| s > 0), "{}", a.label());
        }
    }

    #[test]
    fn netflow_totals_match_router_work(net in arb_network(), fseed in any::<u64>()) {
        let tables = RoutingTables::build(&net);
        let flows = arb_flows(&net, fseed, 20);
        let cfg = EmulationConfig::new(vec![0; net.node_count()], 1).with_netflow();
        let r = run_sequential(&net, &tables, &flows, &cfg);
        // Router events = total events - host events (1 inject + 1 deliver
        // per packet). NetFlow must have recorded exactly the router hops.
        let injected: u64 = flows.iter().map(|f| f.packets).sum();
        let recorded: u64 = r.netflow.iter().map(|f| f.packets).sum();
        prop_assert_eq!(recorded, r.total_events() - 2 * injected);
    }
}
