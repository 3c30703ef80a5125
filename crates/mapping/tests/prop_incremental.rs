//! Property-based tests for the incremental rebalancer: a diffusive sweep
//! must never increase the measured load imbalance (the gain formula only
//! accepts strictly positive `Δimbalance − λ·cost` moves), must respect
//! its migration budget counted per moved node, must never strand a leaf
//! that shared its parent's engine, and must be a pure function of its
//! inputs — the determinism the run report's epoch block relies on.

use massf_mapping::incremental::{run_online, IncrementalConfig, RebalanceMode};
use massf_mapping::{diffusive_sweep, MapperConfig, MappingStudy, Parallelism};
use massf_metrics::load_imbalance;
use massf_topology::campus::campus;
use massf_topology::Network;
use massf_traffic::gridnpb::{self, GridNpbConfig};
use proptest::prelude::*;

/// Sums `loads` per engine under `partition`.
fn engine_loads(partition: &[u32], loads: &[u64], nengines: usize) -> Vec<u64> {
    let mut out = vec![0u64; nengines];
    for (v, &p) in partition.iter().enumerate() {
        out[p as usize] += loads[v];
    }
    out
}

/// The leaves that share their parent's engine under `partition`.
fn leaves_beside_parent(net: &Network, partition: &[u32]) -> Vec<u32> {
    (0..net.node_count() as u32)
        .filter(|&v| {
            net.leaf_uplink(v)
                .is_some_and(|(p, _)| partition[p as usize] == partition[v as usize])
        })
        .collect()
}

/// A random connected router graph (a random tree plus a few chords) with
/// zero to three hosts hung off each router on 100 µs access links.
fn network_with_hosts(rng: &mut impl rand::Rng) -> Network {
    let mut net = Network::new();
    let routers = rng.gen_range(2..12u32);
    for r in 0..routers {
        net.add_router(format!("r{r}"), 0);
    }
    for r in 1..routers {
        net.add_link(r, rng.gen_range(0..r), 1000.0, rng.gen_range(200..2000));
    }
    for _ in 0..rng.gen_range(0..routers) {
        let (a, b) = (rng.gen_range(0..routers), rng.gen_range(0..routers));
        if a != b {
            net.add_link(a, b, 1000.0, rng.gen_range(200..2000));
        }
    }
    for r in 0..routers {
        for i in 0..rng.gen_range(0..4) {
            let h = net.add_host(format!("h{r}.{i}"), 0);
            net.add_link(r, h, 100.0, 100);
        }
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweep_never_increases_imbalance(
        seed in any::<u64>(),
        nengines in 2usize..6,
        lambda_cost in 0.0f64..0.5,
        budget in 0usize..20,
    ) {
        use rand::{Rng, SeedableRng};
        let net = campus();
        let n = net.node_count();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
        let mut part: Vec<u32> = (0..n).map(|_| rng.gen_range(0..nengines as u32)).collect();
        let before = load_imbalance(&engine_loads(&part, &loads, nengines));

        let moves = diffusive_sweep(&net, &mut part, nengines, &loads, lambda_cost, budget);

        let after = load_imbalance(&engine_loads(&part, &loads, nengines));
        prop_assert!(after <= before + 1e-12,
            "imbalance rose {before} -> {after} over {} moves", moves.len());
        prop_assert!(moves.len() <= budget, "budget exceeded");
        // Every recorded move is a real relabeling onto a valid engine.
        for &(node, from, to) in &moves {
            prop_assert!(from != to);
            prop_assert!((to as usize) < nengines);
            prop_assert!((node as usize) < n);
        }
        // No engine that held nodes before is empty afterwards.
        let mut sizes = vec![0usize; nengines];
        for &p in &part {
            sizes[p as usize] += 1;
        }
        for &(_, from, _) in &moves {
            prop_assert!(sizes[from as usize] >= 1, "engine {from} was emptied");
        }
    }

    #[test]
    fn sweep_is_a_pure_function_of_its_inputs(
        seed in any::<u64>(),
        budget in 1usize..12,
    ) {
        use rand::{Rng, SeedableRng};
        let net = campus();
        let n = net.node_count();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..500)).collect();
        let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        let ma = diffusive_sweep(&net, &mut a, 3, &loads, 0.01, budget);
        let mb = diffusive_sweep(&net, &mut b, 3, &loads, 0.01, budget);
        prop_assert_eq!(ma, mb);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn no_move_strands_a_leaf(
        seed in any::<u64>(),
        nengines in 2usize..5,
        lambda_cost in 0.0f64..0.2,
        budget in 0usize..12,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let net = network_with_hosts(&mut rng);
        let n = net.node_count();
        let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
        let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..nengines as u32)).collect();
        let mut part = base.clone();
        let moves = diffusive_sweep(&net, &mut part, nengines, &loads, lambda_cost, budget);

        for v in leaves_beside_parent(&net, &base) {
            let (p, _) = net.leaf_uplink(v).unwrap();
            prop_assert_eq!(part[v as usize], part[p as usize], "leaf {} stranded", v);
        }
        let before = load_imbalance(&engine_loads(&base, &loads, nengines));
        let after = load_imbalance(&engine_loads(&part, &loads, nengines));
        prop_assert!(after <= before + 1e-12, "imbalance rose {} -> {}", before, after);
        prop_assert!(moves.len() <= budget, "budget exceeded");
        for &(node, from, to) in &moves {
            prop_assert!(from != to && (to as usize) < nengines && (node as usize) < n);
            prop_assert!(part.contains(&from), "engine {} was emptied", from);
        }
        let mut again = base.clone();
        prop_assert_eq!(
            diffusive_sweep(&net, &mut again, nengines, &loads, lambda_cost, budget),
            moves
        );
        prop_assert_eq!(again, part);
    }
}

/// Phase-shifting foreground mirroring the unit tests: enough traffic to
/// make epochs meaningful while staying fast.
fn shifting_study_and_flows(threads: usize) -> (MappingStudy, Vec<massf_traffic::FlowSpec>) {
    let net = campus();
    let hosts = net.hosts();
    let placement: Vec<_> = hosts.iter().copied().step_by(4).take(9).collect();
    let cfg = GridNpbConfig {
        base_bytes: 400_000,
        ..Default::default()
    };
    let flows = gridnpb::flows(&cfg, &gridnpb::paper_suite(&cfg), &placement);
    let study = MappingStudy::new(
        net,
        MapperConfig::new(3).with_parallelism(Parallelism::new(threads)),
    );
    (study, flows)
}

/// The epoch block is a function of virtual time: every measured load,
/// drift value, and boundary decision must be bit-identical between the
/// serial reference path and a parallel mapping pipeline.
#[test]
fn online_epochs_are_identical_across_thread_counts() {
    let cfg = IncrementalConfig::default();
    let (s1, flows) = shifting_study_and_flows(1);
    let base = run_online(&s1, &flows, &[], &cfg, RebalanceMode::Incremental);
    for threads in [2, 4] {
        let (st, flows_t) = shifting_study_and_flows(threads);
        let other = run_online(&st, &flows_t, &[], &cfg, RebalanceMode::Incremental);
        assert_eq!(
            base.epoch_stats, other.epoch_stats,
            "epoch stats vary at {threads} threads"
        );
        assert_eq!(base.migrated_nodes, other.migrated_nodes);
        for (a, b) in base.epoch_partitions.iter().zip(&other.epoch_partitions) {
            assert_eq!(a.part, b.part, "partitions vary at {threads} threads");
        }
    }
    // No boundary separates a leaf from the parent it shared an engine with.
    for pair in base.epoch_partitions.windows(2) {
        for v in leaves_beside_parent(&s1.net, &pair[0].part) {
            let (p, _) = s1.net.leaf_uplink(v).unwrap();
            assert_eq!(
                pair[1].part[v as usize], pair[1].part[p as usize],
                "leaf {v} stranded"
            );
        }
    }
    // And the documented invariant holds on the real run too: no epoch's
    // rebalance ever leaves the measured loads worse than it found them.
    for e in &base.epoch_stats {
        assert!(
            e.imbalance_after <= e.imbalance_before + 1e-12,
            "epoch {} worsened imbalance",
            e.epoch
        );
    }
}
