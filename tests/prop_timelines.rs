//! Property-based consistency checks for the observability series the run
//! report is built from: on arbitrary networks, flows, and partitions, the
//! per-engine virtual-time timelines must sum to the final counters, the
//! cross-engine send/receive ledger must balance, and the parallel
//! executor must produce exactly the sequential executor's series.

mod common;

use common::run_on_workers;
use massf_core::engine::run_sequential;
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::brite::{generate, BriteConfig, GrowthModel};
use proptest::prelude::*;

/// Arbitrary small BRITE-like network.
fn arb_network() -> impl Strategy<Value = Network> {
    (6usize..20, 4usize..14, any::<u64>(), prop::bool::ANY).prop_map(
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
                packets: rng.gen_range(1..30),
                bytes: rng.gen_range(100..60_000),
                packet_interval_us: rng.gen_range(1..2_000),
                window: None,
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn timeline_sums_equal_counter_totals(
        net in arb_network(),
        fseed in any::<u64>(),
        k in 1usize..5,
    ) {
        let tables = RoutingTables::build(&net);
        let flows = arb_flows(&net, fseed, 20);
        prop_assume!(!flows.is_empty());
        let g = net.to_unit_graph();
        prop_assume!(k <= g.nvtxs());
        let p = partition_kway(&g, &PartitionConfig::new(k));
        let cfg = EmulationConfig::new(p.part, k);
        let r = run_sequential(&net, &tables, &flows, &cfg);

        for e in 0..r.nengines {
            prop_assert_eq!(
                r.window_series[e].iter().sum::<u64>(),
                r.engine_events[e],
                "engine {} event timeline does not sum to its counter", e
            );
            prop_assert_eq!(
                r.stall_series[e].iter().sum::<u64>(),
                r.engine_stalls[e],
                "engine {} stall timeline does not sum to its counter", e
            );
            prop_assert_eq!(
                r.recv_series[e].iter().sum::<u64>(),
                r.engine_remote_recv[e],
                "engine {} recv timeline does not sum to its counter", e
            );
        }
        // Every cross-engine shipment is sent exactly once and received
        // exactly once.
        let sent: u64 = r.engine_remote_sent.iter().sum();
        let recv: u64 = r.engine_remote_recv.iter().sum();
        prop_assert_eq!(sent, recv, "send/receive ledger out of balance");
        prop_assert_eq!(sent, r.remote_messages);
        // All timeline rows are aligned to the same bucket count.
        for series in [&r.window_series, &r.stall_series, &r.recv_series] {
            for row in series.iter() {
                prop_assert_eq!(row.len(), r.window_series[0].len());
            }
        }
    }

    #[test]
    fn parallel_executor_reproduces_sequential_series(
        net in arb_network(),
        fseed in any::<u64>(),
        k in 2usize..5,
    ) {
        let tables = RoutingTables::build(&net);
        let flows = arb_flows(&net, fseed, 15);
        prop_assume!(!flows.is_empty());
        let g = net.to_unit_graph();
        prop_assume!(k <= g.nvtxs());
        let p = partition_kway(&g, &PartitionConfig::new(k));
        let cfg = EmulationConfig::new(p.part, k);
        let seq = run_sequential(&net, &tables, &flows, &cfg);
        let par = run_on_workers(&net, &tables, &flows, &cfg);
        prop_assert_eq!(&seq.engine_events, &par.engine_events);
        prop_assert_eq!(&seq.engine_stalls, &par.engine_stalls);
        prop_assert_eq!(&seq.engine_remote_sent, &par.engine_remote_sent);
        prop_assert_eq!(&seq.engine_remote_recv, &par.engine_remote_recv);
        prop_assert_eq!(&seq.window_series, &par.window_series);
        prop_assert_eq!(&seq.stall_series, &par.stall_series);
        prop_assert_eq!(&seq.recv_series, &par.recv_series);
    }
}
