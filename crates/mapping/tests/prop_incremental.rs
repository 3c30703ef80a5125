//! Property-based tests for the incremental rebalancer: every move a
//! diffusive sweep applies must lower the potential
//! `Φ = imbalance + c_sync / lookahead` by more than its migration charge
//! (the sweep descends nothing else), the sweep must stop where no move
//! pays, must never strand a leaf that shared its parent's engine, must
//! never leave the lookahead below the floor it is given, and must be a
//! pure function of its inputs — the determinism the run report's epoch
//! block relies on.

use massf_engine::engine::lookahead_us;
use massf_engine::CostModel;
use massf_mapping::incremental::{run_online, IncrementalConfig, RebalanceMode};
use massf_mapping::{diffusive_sweep, MapperConfig, MappingStudy, Parallelism};
use massf_topology::campus::campus;
use massf_topology::Network;
use massf_traffic::gridnpb;
use proptest::prelude::*;

/// The per-window synchronization cost `run_online` prices the lookahead
/// with.
fn sync_cost_us() -> f64 {
    CostModel::live_application().sync_cost_us
}

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

/// Splits a sweep's per-node moves into its group moves: a head, then the
/// leaves of that head that left the head's engine with it. (A leaf of the
/// head moving next on its own came from another engine.)
fn group_moves<'m>(net: &Network, moves: &'m [(u32, u32, u32)]) -> Vec<&'m [(u32, u32, u32)]> {
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 1..=moves.len() {
        let (head, from, _) = moves[start];
        let joins = moves.get(i).is_some_and(|&(u, f, _)| {
            f == from && net.leaf_uplink(u).is_some_and(|(p, _)| p == head)
        });
        if !joins {
            groups.push(&moves[start..i]);
            start = i;
        }
    }
    groups
}

/// The sweep's imbalance: `load_imbalance`'s std/mean of each engine's
/// load per unit of its capacity.
fn imbalance(partition: &[u32], loads: &[u64], capacities: &[f64]) -> f64 {
    let per_engine = engine_loads(partition, loads, capacities.len());
    let per_unit: Vec<f64> = per_engine
        .iter()
        .zip(capacities)
        .map(|(&l, &c)| l as f64 / c)
        .collect();
    let n = per_unit.len() as f64;
    let mean = per_unit.iter().sum::<f64>() / n;
    let var = per_unit.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if mean == 0.0 {
        0.0
    } else {
        var.sqrt() / mean
    }
}

/// Replays `moves` group by group from `base` and checks that each one
/// lowered `Φ = imbalance + sync / lookahead_us` by more than
/// `lambda_cost` per moved node, in the sweep's own arithmetic, and left
/// the lookahead at `floor` or above. The sweep prices the lookahead from
/// counts it updates move by move (and debug-asserts them against
/// `lookahead_us` after each); here the lookahead is `lookahead_us`
/// itself. Returns the replayed partition.
fn check_descent(
    net: &Network,
    base: &[u32],
    moves: &[(u32, u32, u32)],
    loads: &[u64],
    capacities: &[f64],
    (lambda_cost, sync, floor): (f64, f64, u64),
) -> Result<Vec<u32>, TestCaseError> {
    let mut part = base.to_vec();
    for group in group_moves(net, moves) {
        let imbalance_before = imbalance(&part, loads, capacities);
        let lookahead_before = lookahead_us(net, &part);
        for &(u, from, to) in group {
            prop_assert!(from != to && (to as usize) < capacities.len());
            prop_assert_eq!(part[u as usize], from);
            part[u as usize] = to;
        }
        let imbalance_after = imbalance(&part, loads, capacities);
        let lookahead_after = lookahead_us(net, &part);
        prop_assert!(
            lookahead_after >= floor,
            "group {group:?} left {lookahead_after} < {floor}"
        );
        let gain = (imbalance_before - imbalance_after)
            + sync * (1.0 / lookahead_before as f64 - 1.0 / lookahead_after as f64)
            - lambda_cost * group.len() as f64;
        prop_assert!(
            gain > 0.0,
            "group {group:?} gained {gain} (imbalance {imbalance_before} -> {imbalance_after}, \
             lookahead {lookahead_before} -> {lookahead_after})"
        );
    }
    Ok(part)
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
    fn every_applied_move_lowers_the_potential(
        seed in any::<u64>(),
        nengines in 2usize..6,
        lambda_cost in 0.0f64..0.1,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let net = network_with_hosts(&mut rng);
        let n = net.node_count();
        let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
        // Most leaves beside their parent, so the lookahead is mostly a
        // router link's and moves do change it.
        let mut base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..nengines as u32)).collect();
        for v in 0..n as u32 {
            match net.leaf_uplink(v) {
                Some((p, _)) if rng.gen_range(0..4) > 0 => base[v as usize] = base[p as usize],
                _ => {}
            }
        }
        let mut part = base.clone();
        let sync = sync_cost_us();

        let uniform = vec![1.0; nengines];
        let moves = diffusive_sweep(&net, &mut part, &uniform, &loads, lambda_cost, sync, 1);

        let replayed = check_descent(&net, &base, &moves, &loads, &uniform, (lambda_cost, sync, 1))?;
        prop_assert_eq!(&replayed, &part);
        // The sweep stopped because no move pays: sweeping again moves nothing.
        let mut again = part.clone();
        prop_assert!(diffusive_sweep(&net, &mut again, &uniform, &loads, lambda_cost, sync, 1).is_empty());
        // No engine that held nodes before is empty afterwards.
        for &(node, from, _) in &moves {
            prop_assert!((node as usize) < n);
            prop_assert!(part.contains(&from), "engine {} was emptied", from);
        }
    }

    #[test]
    fn a_floored_sweep_keeps_the_lookahead_it_was_given(
        seed in any::<u64>(),
        nengines in 2usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let net = network_with_hosts(&mut rng);
        let n = net.node_count();
        let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
        let capacities: Vec<f64> = (0..nengines).map(|_| rng.gen_range(1..4) as f64).collect();
        let mut base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..nengines as u32)).collect();
        for v in 0..n as u32 {
            match net.leaf_uplink(v) {
                Some((p, _)) if rng.gen_range(0..4) > 0 => base[v as usize] = base[p as usize],
                _ => {}
            }
        }
        // The static polish: nothing migrates, and the floor is the
        // lookahead the partition came with.
        let floor = lookahead_us(&net, &base);
        let sync = CostModel::default().sync_cost_us;
        let mut part = base.clone();

        let moves = diffusive_sweep(&net, &mut part, &capacities, &loads, 0.0, sync, floor);

        let replayed = check_descent(&net, &base, &moves, &loads, &capacities, (0.0, sync, floor))?;
        prop_assert_eq!(&replayed, &part);
        prop_assert!(lookahead_us(&net, &part) >= floor);
        for e in 0..nengines as u32 {
            prop_assert_eq!(base.contains(&e), part.contains(&e), "engine {} emptied", e);
        }
        let mut again = part.clone();
        prop_assert!(diffusive_sweep(&net, &mut again, &capacities, &loads, 0.0, sync, floor).is_empty());
    }

    #[test]
    fn sweep_is_a_pure_function_of_its_inputs(
        seed in any::<u64>(),
        sync in 0.0f64..200.0,
    ) {
        use rand::{Rng, SeedableRng};
        let net = campus();
        let n = net.node_count();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..500)).collect();
        let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        let ma = diffusive_sweep(&net, &mut a, &[1.0; 3], &loads, 0.01, sync, 1);
        let mb = diffusive_sweep(&net, &mut b, &[1.0; 3], &loads, 0.01, sync, 1);
        prop_assert_eq!(ma, mb);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn no_move_strands_a_leaf(
        seed in any::<u64>(),
        nengines in 2usize..5,
        lambda_cost in 0.0f64..0.2,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let net = network_with_hosts(&mut rng);
        let n = net.node_count();
        let loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
        let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0..nengines as u32)).collect();
        let mut part = base.clone();
        let sync = sync_cost_us();
        let uniform = vec![1.0; nengines];
        let moves = diffusive_sweep(&net, &mut part, &uniform, &loads, lambda_cost, sync, 1);

        for v in leaves_beside_parent(&net, &base) {
            let (p, _) = net.leaf_uplink(v).unwrap();
            prop_assert_eq!(part[v as usize], part[p as usize], "leaf {} stranded", v);
        }
        // A group move uncutting a 100 µs host link may raise the
        // imbalance; what it may not do is fail to lower the potential.
        let replayed = check_descent(&net, &base, &moves, &loads, &uniform, (lambda_cost, sync, 1))?;
        prop_assert_eq!(&replayed, &part);
        for &(node, from, _) in &moves {
            prop_assert!((node as usize) < n);
            prop_assert!(part.contains(&from), "engine {} was emptied", from);
        }
        let mut again = base.clone();
        prop_assert_eq!(
            diffusive_sweep(&net, &mut again, &uniform, &loads, lambda_cost, sync, 1),
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
    let flows = gridnpb::flows(&gridnpb::paper_suite(400_000), &placement);
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
    // And the documented invariant holds on the real run too: every
    // boundary that moved nodes left the potential lower than it found it.
    let phi = |imbalance: f64, part: &[u32]| {
        imbalance + sync_cost_us() / lookahead_us(&s1.net, part) as f64
    };
    for (e, pair) in base
        .epoch_stats
        .iter()
        .zip(base.epoch_partitions.windows(2))
    {
        let before = phi(e.imbalance_before, &pair[0].part);
        let after = phi(e.imbalance_after, &pair[1].part);
        assert!(
            !e.applied || after < before,
            "epoch {} raised the potential",
            e.epoch
        );
    }
}
