//! Property-based tests for the stepping/migration substrate: migrating
//! nodes at arbitrary instants, to arbitrary valid partitions, must never
//! change the discrete outcome of the emulation.

use massf_core::engine::stepping::SteppableEmulation;
use massf_core::engine::{run_sequential, EmulationConfig};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::brite::{generate, BriteConfig, GrowthModel};
use massf_core::topology::NodeId;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn small_net(seed: u64) -> Network {
    generate(&BriteConfig {
        routers: 10,
        hosts: 8,
        model: GrowthModel::BarabasiAlbert { m: 2 },
        seed,
    })
}

fn random_flows(net: &Network, seed: u64, count: usize) -> Vec<FlowSpec> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let hosts = net.hosts();
    (0..count)
        .filter_map(|_| {
            let src = hosts[rng.gen_range(0..hosts.len())];
            let dst = hosts[rng.gen_range(0..hosts.len())];
            (src != dst).then(|| FlowSpec {
                src,
                dst,
                start_us: rng.gen_range(0..1_500_000),
                packets: rng.gen_range(1..30),
                bytes: rng.gen_range(200..45_000),
                packet_interval_us: rng.gen_range(1..1_500),
                window: if rng.gen_bool(0.3) {
                    Some(rng.gen_range(1..6))
                } else {
                    None
                },
            })
        })
        .collect()
}

fn random_partition_vec<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<u32> {
    let mut part: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k) as u32).collect();
    for p in 0..k {
        part[p % n] = p as u32; // every engine owns something
    }
    part
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn migrations_never_change_the_emulation(
        net_seed in any::<u64>(),
        flow_seed in any::<u64>(),
        remap_seed in any::<u64>(),
        k in 2usize..4,
        nremaps in 1usize..4,
    ) {
        let net = small_net(net_seed);
        let tables = RoutingTables::build(&net);
        let flows = random_flows(&net, flow_seed, 15);
        prop_assume!(!flows.is_empty());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(remap_seed);
        let n = net.node_count();

        // Reference: a plain batch run under the initial partition.
        let initial = random_partition_vec(n, k, &mut rng);
        let reference = run_sequential(
            &net,
            &tables,
            &flows,
            &EmulationConfig::new(initial.clone(), k),
        );

        // Stepped run with random mid-flight remaps.
        let horizon = massf_core::traffic::flow::horizon_us(&flows) + 1;
        let mut emu = SteppableEmulation::new(
            &net,
            &tables,
            &flows,
            EmulationConfig::new(initial, k),
        );
        // The first remap comes while the last flow has yet to start: it
        // waits in a start cursor and follows its source.
        let last_start = flows.iter().map(|f| f.start_us).max().unwrap_or(0);
        for remap in 0..nremaps {
            let before = if remap == 0 { last_start } else { horizon };
            let t = rng.gen_range(1..before.max(2));
            emu.run_until(t);
            prop_assert!(!emu.finished() || t > last_start);
            let next = random_partition_vec(n, k, &mut rng);
            emu.repartition(next);
        }
        emu.run_to_completion();
        let report = emu.finish();

        // Discrete outcomes are partition-independent, hence also
        // migration-independent.
        prop_assert_eq!(report.delivered, reference.delivered);
        prop_assert_eq!(report.dropped, reference.dropped);
        prop_assert_eq!(report.total_events(), reference.total_events());
        prop_assert_eq!(report.latency_sum_us, reference.latency_sum_us);
        prop_assert_eq!(report.virtual_end_us, reference.virtual_end_us);
    }

    /// Engines pin each route's next link on first sighting. Whatever the
    /// table representation behind that one lookup, and wherever a remap
    /// re-homes the hops, the same links are taken — in both directions of
    /// a windowed flow — and a lazy table is asked for exactly the rows on
    /// the routes.
    #[test]
    fn pinned_forwarding_is_the_same_under_every_table_kind(
        net_seed in any::<u64>(),
        flow_seed in any::<u64>(),
        remap_seed in any::<u64>(),
        k in 2usize..4,
    ) {
        let mut net = small_net(net_seed);
        let island = net.add_host("island", 0);
        let mut flows = random_flows(&net, flow_seed, 15);
        flows.retain(|f| f.src != island && f.dst != island);
        prop_assume!(!flows.is_empty());
        flows[0].window = Some(2); // at least one ACK direction
        let lost_packets = 7;
        flows.push(FlowSpec {
            dst: island,
            packets: lost_packets,
            window: None,
            ..flows[0]
        });
        let n = net.node_count();
        let horizon = massf_core::traffic::flow::horizon_us(&flows) + 1;

        let run = |tables: &RoutingTables| -> EmulationReport {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(remap_seed);
            let initial = random_partition_vec(n, k, &mut rng);
            let mut emu =
                SteppableEmulation::new(&net, tables, &flows, EmulationConfig::new(initial, k));
            emu.run_until(rng.gen_range(1..horizon));
            emu.repartition(random_partition_vec(n, k, &mut rng));
            emu.run_to_completion();
            emu.finish()
        };
        let par = Parallelism::serial();
        let compressed = RoutingTables::build_kind(&net, RoutingKind::Compressed, par);
        let lazy = RoutingTables::build_kind(&net, RoutingKind::Lazy, par);
        let report = run(&compressed);
        prop_assert_eq!(report.dropped, lost_packets);
        prop_assert_eq!(&run(&lazy), &report);

        // Rows a lazy table holds afterwards: every forwarding node of
        // every route that stores a row (a degree-1 leaf stores none and
        // asks its access router, which is the next node of the route).
        let stores_row = |v: NodeId| match net.neighbors(v) {
            &[(parent, _)] => net.degree(parent) < 2,
            _ => true,
        };
        let mut expected = vec![false; n];
        for f in flows.iter().filter(|f| f.dst != island) {
            let there = compressed.path(f.src, f.dst).expect("BRITE networks are connected");
            let back = f.window.map(|_| compressed.path(f.dst, f.src).expect("and symmetric"));
            for path in std::iter::once(there).chain(back) {
                for &v in &path[..path.len() - 1] {
                    expected[v as usize] = stores_row(v);
                }
            }
        }
        let each_alone: Vec<u32> = (0..n as u32).collect();
        let materialized: Vec<bool> = lazy
            .slice_residency(&each_alone, n)
            .expect("lazy tables")
            .iter()
            .map(|s| s.rows_materialized == 1)
            .collect();
        prop_assert_eq!(materialized, expected);
    }

    #[test]
    fn stepping_in_arbitrary_increments_matches_batch(
        net_seed in any::<u64>(),
        flow_seed in any::<u64>(),
        step_us in 1_000u64..400_000,
    ) {
        let net = small_net(net_seed);
        let tables = RoutingTables::build(&net);
        let flows = random_flows(&net, flow_seed, 12);
        prop_assume!(!flows.is_empty());
        let part = vec![0u32; net.node_count()];
        let cfg = EmulationConfig::new(part, 1).with_netflow();

        let batch = run_sequential(&net, &tables, &flows, &cfg);
        let mut emu = SteppableEmulation::new(&net, &tables, &flows, cfg);
        let last_start = flows.iter().map(|f| f.start_us).max().unwrap_or(0);
        let mut t = step_us;
        while !emu.finished() {
            emu.run_until(t);
            // Not done while a flow has yet to start, in flight or not.
            prop_assert!(!emu.finished() || t > last_start);
            t += step_us;
        }
        let stepped = emu.finish();
        prop_assert_eq!(stepped.engine_events, batch.engine_events);
        prop_assert_eq!(stepped.delivered, batch.delivered);
        prop_assert_eq!(stepped.latency_sum_us, batch.latency_sum_us);
        prop_assert_eq!(stepped.netflow, batch.netflow);
    }
}
