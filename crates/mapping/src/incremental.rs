//! Online repartitioning — the paper's §6 direction, implemented: one
//! epoch driver, [`run_online`], with one remap policy.
//!
//! "Load imbalance happens due to burst/variation of traffic injected from
//! the application. Static partitions are fundamentally limited for large
//! emulation if traffic varies widely. … Dynamic remapping the virtual
//! network during the emulation is the only solution."
//!
//! [`RebalanceMode::Incremental`] answers that call with **diffusive
//! vertex migration** (Kurve et al.), migrations charged against the
//! potential they save (Räcke/Schmid/Zabrodin) — see PAPERS.md.
//!
//! ## The algorithm (DESIGN.md §15)
//!
//! At each epoch boundary the engine-side feed
//! ([`massf_engine::stepping::SteppableEmulation::netflow_epoch_slice`])
//! yields the epoch's own NetFlow records; [`crate::weights::
//! accumulate_measured_with`] converts them into per-node measured loads
//! and per-link (cut) traffic. [`diffusive_sweep`] then walks *boundary*
//! nodes — nodes with a neighbor on another engine — in ascending node-id
//! order. A boundary node moves as a **group** with every leaf
//! ([`Network::leaf_uplink`], e.g. a host) on its engine; a leaf beside
//! its parent is never a candidate on its own, while a leaf stranded on
//! another engine may rejoin its parent. Each group evaluates moving to
//! each neighboring engine (ascending engine id) and computes the local
//! gain
//!
//! ```text
//! gain = Δimbalance + c_sync · (1/L_before − 1/L_after) − λ · migration_cost · group size
//! ```
//!
//! where `Δimbalance` is the drop in the coefficient-of-variation load
//! imbalance if the group moved; `L` is the partition's lookahead, the
//! minimum cut latency and so the length of every conservative window,
//! and `c_sync` the cost model's per-window synchronization, so
//! `c_sync / L` is the share of the epoch's wall time spent on sync; and
//! `λ · migration_cost` ([`LAMBDA`] times [`MIGRATION`]'s per-node stall
//! as a fraction of the epoch it disrupts) prices the move. The best
//! strictly positive gain is applied immediately (ties break to the
//! lowest engine id). Every applied move lowers the potential
//! `Φ = imbalance + c_sync / L` by more than its charge, so the sweep
//! repeats passes until one applies no move, and it always gets there:
//! no budget bounds it. A quiet epoch is one where no move pays.
//!
//! The delta-partition is handed to the existing [`SteppableEmulation::
//! repartition`] migration path; no METIS-style restart ever runs
//! mid-emulation. The same sweep, at λ = 0 and never below the
//! partitioner's lookahead, ends every static partition ([`crate::weights`]).
//!
//! ## Drift (MC019 / MC020)
//!
//! Every epoch records the [`massf_metrics::drift`] total-variation
//! distance of its measured per-engine load shares against the previous
//! epoch's (the MC020 metric; the first epoch compares against the
//! balanced target shares) and against the PLACE-predicted shares (the
//! MC019 metric), for the run report and the lint passes. Neither decides
//! whether a boundary sweeps.
//!
//! ## Determinism
//!
//! Epoch loads are functions of virtual time only: the NetFlow slices,
//! the blocked accumulation, and the fixed-order sweep are all
//! bit-identical at every `--threads` setting, so a run report's epoch
//! block is byte-identical across thread counts (pinned by the golden
//! tests).
//!
//! ```
//! use massf_mapping::incremental::{run_online, IncrementalConfig, RebalanceMode};
//! use massf_mapping::{MapperConfig, MappingStudy};
//! use massf_topology::campus::campus;
//! use massf_traffic::gridnpb;
//!
//! // GridNPB's staged DAGs shift load between host groups over time.
//! let study = MappingStudy::new(campus(), MapperConfig::new(3));
//! let hosts = study.net.hosts();
//! let placement: Vec<_> = hosts.iter().step_by(4).take(9).copied().collect();
//! let flows = gridnpb::flows(&gridnpb::paper_suite(200_000), &placement);
//!
//! let online = IncrementalConfig::default();
//! let out = run_online(&study, &flows, &[], &online, RebalanceMode::Incremental);
//! assert_eq!(out.epoch_stats.len(), online.epochs);
//! for e in &out.epoch_stats {
//!     // A boundary either applied the moves that pay or found none.
//!     assert_eq!(e.applied, e.moves > 0);
//! }
//! ```

use crate::top::map_top;
use crate::weights;
use crate::MappingStudy;
use massf_engine::engine::lookahead_us;
use massf_engine::stepping::{SteppableEmulation, MIGRATION};
use massf_engine::{CostModel, EmulationReport};
use massf_metrics::drift::{load_drift, load_drift_u64};
use massf_metrics::load_imbalance;
use massf_obs::report::EpochRow;
use massf_partition::Partitioning;
use massf_topology::{Network, NodeId};
use massf_traffic::flow::horizon_us;
use massf_traffic::{FlowSpec, PredictedFlow};
use std::collections::BTreeMap;

/// How (and whether) an epoch boundary rebalances the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceMode {
    /// Measure drift at every boundary but never move a node.
    Off,
    /// Local diffusive boundary-node migration ([`diffusive_sweep`]).
    Incremental,
}

impl RebalanceMode {
    /// Parses the CLI spelling (`off` / `incremental`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(RebalanceMode::Off),
            "incremental" => Some(RebalanceMode::Incremental),
            _ => None,
        }
    }

    /// The stable lower-case label (also the CLI spelling).
    pub fn label(&self) -> &'static str {
        match self {
            RebalanceMode::Off => "off",
            RebalanceMode::Incremental => "incremental",
        }
    }
}

/// Configuration of an online-rebalancing run.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Number of epochs (1 = static, no boundaries to rebalance at).
    pub epochs: usize,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self { epochs: 4 }
    }
}

/// Outcome of an online-rebalancing run.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The final emulation report (covers the whole run).
    pub report: EmulationReport,
    /// Per-epoch measurements and decisions, in epoch order: the run
    /// report's `rebalance.epochs` rows.
    pub epoch_stats: Vec<EpochRow>,
    /// Partition in force during each epoch.
    pub epoch_partitions: Vec<Partitioning>,
    /// Total nodes migrated.
    pub migrated_nodes: usize,
    /// Remaps actually applied (skipped boundaries excluded).
    pub remaps_applied: usize,
    /// PLACE's prediction summed per engine under the initial partition:
    /// the MC019 baseline the measured epochs are compared against.
    pub predicted_engine_loads: Vec<f64>,
}

/// Migration-cost weight λ in the gain: the per-node migration stall,
/// expressed as a fraction of the epoch length, scaled by λ before it is
/// charged against the potential a move saves. At λ = 1 `ablate_online`'s
/// incremental imbalance rose from 0.133 to 0.360.
pub const LAMBDA: f64 = 0.5;

/// One deterministic diffusive descent over `partition` in place: boundary
/// nodes (ascending node id), each with the leaves on its engine, evaluate
/// moving to each neighboring engine (ascending engine id), and the best
/// gain (the module docs' formula, `sync_cost_us` as `c_sync`) is applied
/// immediately when strictly positive. The imbalance is that of each
/// engine's load divided by its entry of `capacities` (one per engine;
/// equal entries score the raw loads), and a move that would leave the
/// lookahead below `floor_us` is never taken. Every applied move lowers
/// `Φ = imbalance + sync_cost_us / lookahead` by more than its charge, so
/// passes repeat until one applies nothing, and one does. A leaf beside
/// its parent only moves with it, and a source engine is never emptied.
/// Returns the applied moves as `(node, from, to)`, one per moved node.
///
/// Pure and engine-free: callable on any load vector, which is what the
/// property tests exploit.
pub fn diffusive_sweep(
    net: &Network,
    partition: &mut [u32],
    capacities: &[f64],
    node_loads: &[u64],
    lambda_cost: f64,
    sync_cost_us: f64,
    floor_us: u64,
) -> Vec<(NodeId, u32, u32)> {
    let n = net.node_count();
    let nengines = capacities.len();
    assert_eq!(partition.len(), n, "partition length mismatch");
    assert_eq!(node_loads.len(), n, "load length mismatch");
    assert!(lambda_cost >= 0.0 && sync_cost_us >= 0.0);
    // `load_imbalance`'s std/mean, of load per unit of capacity.
    let imbalance = |loads: &[u64]| {
        let x = |e: usize| loads[e] as f64 / capacities[e];
        let mean = (0..nengines).map(x).sum::<f64>() / nengines as f64;
        let var = (0..nengines).map(|e| (x(e) - mean).powi(2)).sum::<f64>();
        (var / nengines as f64).sqrt() / mean.max(f64::MIN_POSITIVE)
    };
    let mut engine_loads = vec![0u64; nengines];
    let mut engine_sizes = vec![0usize; nengines];
    for v in 0..n {
        engine_loads[partition[v] as usize] += node_loads[v];
        engine_sizes[partition[v] as usize] += 1;
    }
    // Cut links per latency: the least key is the lookahead, so pricing a
    // group costs O(its degree), not `lookahead_us`'s O(links).
    let mut cut: BTreeMap<u64, usize> = BTreeMap::new();
    for l in net.links() {
        if partition[l.a as usize] != partition[l.b as usize] {
            *cut.entry(l.latency_us).or_default() += 1;
        }
    }
    let lookahead = |cut: &BTreeMap<u64, usize>| {
        cut.keys()
            .next()
            .map_or(u64::MAX / 4, |&l| l.clamp(1, u64::MAX / 4))
    };
    // A group move from `from` to `to` (`by` = 1; -1 undoes it) flips the
    // head's outer links, `(latency, far engine)`: a grouped leaf has no
    // other link.
    let flip = |cut: &mut BTreeMap<u64, usize>, outer: &[(u64, u32)], from, to, by: isize| {
        for &(latency, far) in outer.iter().filter(|&&(_, far)| far == from || far == to) {
            let count = cut.entry(latency).or_default();
            *count = count.wrapping_add_signed(if far == from { by } else { -by });
            if *count == 0 {
                cut.remove(&latency);
            }
        }
    };
    let mut moves = Vec::new();
    let (mut candidates, mut group, mut outer) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let mut moved_this_pass = false;
        for v in 0..n as NodeId {
            let from = partition[v as usize];
            if net
                .leaf_uplink(v)
                .is_some_and(|(p, _)| partition[p as usize] == from)
            {
                continue; // a leaf beside its parent moves only with it
            }
            group.clear();
            group.push(v);
            candidates.clear();
            outer.clear();
            for &(nb, link) in net.neighbors(v) {
                let far = partition[nb as usize];
                if far != from {
                    candidates.push(far);
                } else if net.leaf_uplink(nb).is_some() {
                    group.push(nb); // a leaf's one neighbour is its parent
                    continue;
                }
                outer.push((net.link(link).latency_us, far));
            }
            let size = group.len();
            if candidates.is_empty() || engine_sizes[from as usize] <= size {
                continue; // interior, or would empty its engine
            }
            candidates.sort_unstable();
            candidates.dedup();
            let load: u64 = group.iter().map(|&u| node_loads[u as usize]).sum();
            let cur = imbalance(&engine_loads);
            let sync_now = 1.0 / lookahead(&cut) as f64;
            let mut best: Option<(f64, u32)> = None;
            for &to in &candidates {
                engine_loads[from as usize] -= load;
                engine_loads[to as usize] += load;
                let moved = imbalance(&engine_loads);
                engine_loads[to as usize] -= load;
                engine_loads[from as usize] += load;
                flip(&mut cut, &outer, from, to, 1);
                let then = lookahead(&cut);
                flip(&mut cut, &outer, from, to, -1);
                let gain = (cur - moved) + sync_cost_us * (sync_now - 1.0 / then as f64)
                    - lambda_cost * size as f64;
                // Strict `>` twice: only positive gains move, and a tie
                // keeps the earlier (lowest-id) target engine.
                if then >= floor_us && gain > 0.0 && best.is_none_or(|(b, _)| gain > b) {
                    best = Some((gain, to));
                }
            }
            if let Some((_, to)) = best {
                engine_loads[from as usize] -= load;
                engine_loads[to as usize] += load;
                engine_sizes[from as usize] -= size;
                engine_sizes[to as usize] += size;
                flip(&mut cut, &outer, from, to, 1);
                for &u in &group {
                    partition[u as usize] = to;
                    moves.push((u, from, to));
                }
                debug_assert_eq!(lookahead(&cut), lookahead_us(net, partition));
                moved_this_pass = true;
            }
        }
        if !moved_this_pass {
            return moves;
        }
    }
}

/// Runs `flows` with online rebalancing in `mode`. The initial epoch uses
/// the TOP partition (nothing has been measured yet); every boundary
/// measures the epoch's NetFlow slice, computes the MC019/MC020 drift
/// values, and — unless `mode` is [`RebalanceMode::Off`] — runs one
/// [`diffusive_sweep`]. The emulation runs under
/// [`CostModel::live_application`], whose `sync_cost_us` prices the
/// lookahead in the sweep's gain.
/// `predicted` feeds the MC019 comparison (PLACE's prediction); pass
/// `&[]` when no prediction exists and the predicted drift reads 0.
pub fn run_online(
    study: &MappingStudy,
    flows: &[FlowSpec],
    predicted: &[PredictedFlow],
    cfg: &IncrementalConfig,
    mode: RebalanceMode,
) -> IncrementalOutcome {
    assert!(cfg.epochs >= 1);
    let n = study.net.node_count();
    let initial = map_top(&study.net, &study.cfg);
    let horizon = horizon_us(flows).saturating_add(1);
    let epoch_len = (horizon / cfg.epochs as u64).max(1);

    // PLACE's predicted per-node loads, the MC019 baseline. An empty
    // prediction accumulates to all zeros, which drifts by 0 from
    // everything (an absent prediction cannot be wrong).
    let (_, predicted_node) = weights::accumulate_predicted_with(
        &study.net,
        &study.tables,
        predicted,
        study.cfg.parallelism,
    );
    let per_engine = |p: &Partitioning| {
        let mut loads = vec![0.0f64; p.nparts];
        for (v, load) in predicted_node.iter().enumerate() {
            loads[p.part[v] as usize] += load;
        }
        loads
    };
    let predicted_engine_loads = per_engine(&initial);

    // NetFlow on: live profiling is what enables rebalancing.
    let emu_cfg = study.emulation_config(&initial, true, CostModel::live_application());
    let sync = emu_cfg.cost.sync_cost_us;
    let mut emu = SteppableEmulation::new(&study.net, &study.tables, flows, emu_cfg);

    let lambda_cost = LAMBDA * (MIGRATION.per_node_us / epoch_len as f64);
    let capacities = study.cfg.capacities();
    let mut epoch_partitions = vec![initial.clone()];
    let mut current = initial;
    let mut epoch_stats: Vec<EpochRow> = Vec::new();
    let mut prev_engine_loads: Option<Vec<u64>> = None;
    for epoch in 1..=cfg.epochs as u64 {
        let now = epoch * epoch_len;
        emu.run_until(now);
        // The slice dies here, before the sweep and the remap: a migration
        // reuses its memory instead of growing the heap past it.
        let (per_link, per_node) = weights::accumulate_measured_with(
            &study.net,
            &study.tables,
            &emu.netflow_epoch_slice(),
            study.cfg.parallelism,
        );

        let mut engine_loads = vec![0u64; current.nparts];
        for v in 0..n {
            engine_loads[current.part[v] as usize] += per_node[v];
        }
        let cut_packets: u64 = study
            .net
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| current.part[l.a as usize] != current.part[l.b as usize])
            .map(|(i, _)| per_link[i])
            .sum();
        let measured_f: Vec<f64> = engine_loads.iter().map(|&l| l as f64).collect();
        let drift_measured = match &prev_engine_loads {
            Some(prev) => load_drift_u64(prev, &engine_loads),
            // Epoch 1 has no history: drift vs. the balanced target
            // shares (capacity-proportional; uniform by default), i.e.
            // "how far from balanced did the first epoch land".
            None => load_drift(&capacities, &measured_f),
        };
        let drift_predicted = load_drift(&per_engine(&current), &measured_f);

        let imbalance_before = load_imbalance(&engine_loads);
        let mut st = EpochRow {
            epoch,
            end_us: now.min(horizon),
            engine_loads: engine_loads.clone(),
            cut_packets,
            drift_measured,
            drift_predicted,
            applied: false,
            skipped: false,
            moves: 0,
            cost_us: 0.0,
            imbalance_before,
            imbalance_after: imbalance_before,
            lookahead_us: 0,
        };

        let boundary = epoch < cfg.epochs as u64 && !emu.finished();
        if boundary && mode == RebalanceMode::Incremental {
            let mut part = current.part.clone();
            // A quiet epoch is one where no move pays. Any lookahead may
            // be traded (floor 1): `c_sync / L` prices it.
            let (net, caps) = (&study.net, &capacities);
            if diffusive_sweep(net, &mut part, caps, &per_node, lambda_cost, sync, 1).is_empty() {
                st.skipped = true;
            } else {
                let moved = emu.repartition(part.clone());
                st.applied = true;
                st.moves = moved as u64;
                st.cost_us = MIGRATION.stall_us(moved);
                current = Partitioning {
                    part,
                    nparts: current.nparts,
                };
                let mut after = vec![0u64; current.nparts];
                for v in 0..n {
                    after[current.part[v] as usize] += per_node[v];
                }
                st.imbalance_after = load_imbalance(&after);
            }
        }
        st.lookahead_us = emu.lookahead_us();
        prev_engine_loads = Some(engine_loads);
        epoch_stats.push(st);
        if epoch < cfg.epochs as u64 {
            epoch_partitions.push(current.clone());
        }
    }
    emu.run_to_completion();
    let migrated_nodes = emu.migrated_nodes;
    let remaps_applied = emu.remaps;
    IncrementalOutcome {
        report: emu.finish(),
        epoch_stats,
        epoch_partitions,
        migrated_nodes,
        remaps_applied,
        predicted_engine_loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapperConfig;
    use massf_topology::campus::campus;
    use massf_traffic::gridnpb;

    fn study() -> MappingStudy {
        MappingStudy::new(campus(), MapperConfig::new(3))
    }

    fn phase_shifting_flows(study: &MappingStudy) -> Vec<FlowSpec> {
        // GridNPB's staged DAGs shift load between host groups over time.
        let hosts = study.net.hosts();
        let placement: Vec<_> = hosts.iter().step_by(4).take(9).copied().collect();
        gridnpb::flows(&gridnpb::paper_suite(400_000), &placement)
    }

    fn incremental(
        s: &MappingStudy,
        flows: &[FlowSpec],
        cfg: &IncrementalConfig,
    ) -> IncrementalOutcome {
        run_online(s, flows, &[], cfg, RebalanceMode::Incremental)
    }

    #[test]
    fn incremental_run_conserves_packets() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let injected: u64 = flows.iter().map(|f| f.packets).sum();
        let out = incremental(&s, &flows, &IncrementalConfig::default());
        assert_eq!(out.report.delivered, injected);
        assert_eq!(out.report.dropped, 0);
        assert_eq!(out.epoch_stats.len(), 4);
    }

    #[test]
    fn one_epoch_is_static_top() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let cfg = IncrementalConfig { epochs: 1 };
        let out = incremental(&s, &flows, &cfg);
        assert_eq!(out.remaps_applied, 0);
        assert_eq!(out.epoch_partitions.len(), 1);
        // Same events as evaluating TOP statically.
        let top = s.map(crate::Approach::Top, &[], &flows);
        let static_report = s.evaluate(&top, &flows, CostModel::live_application());
        assert_eq!(out.report.total_events(), static_report.total_events());
    }

    #[test]
    fn epochs_never_increase_the_potential() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let out = incremental(&s, &flows, &IncrementalConfig::default());
        let sync = CostModel::live_application().sync_cost_us;
        let phi = |imbalance: f64, p: &Partitioning| {
            imbalance + sync / lookahead_us(&s.net, &p.part) as f64
        };
        // Partition in force during epoch e, then during epoch e + 1.
        for (e, parts) in out.epoch_stats.iter().zip(out.epoch_partitions.windows(2)) {
            let before = phi(e.imbalance_before, &parts[0]);
            let after = phi(e.imbalance_after, &parts[1]);
            assert_eq!(e.lookahead_us, lookahead_us(&s.net, &parts[1].part));
            if e.applied {
                assert!(
                    after < before,
                    "epoch {} went {before:.4} -> {after:.4}",
                    e.epoch
                );
                assert!(e.moves > 0);
                assert!(e.cost_us > 0.0);
                assert!(!e.skipped);
            } else {
                assert_eq!(e.moves, 0);
                assert_eq!(e.cost_us, 0.0);
                assert_eq!(e.imbalance_after, e.imbalance_before);
                assert_eq!(parts[0], parts[1]);
            }
        }
    }

    #[test]
    fn off_mode_measures_but_never_moves() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let out = run_online(
            &s,
            &flows,
            &[],
            &IncrementalConfig::default(),
            RebalanceMode::Off,
        );
        assert_eq!(out.migrated_nodes, 0);
        assert_eq!(out.remaps_applied, 0);
        assert!(out.epoch_stats.iter().all(|e| !e.applied && !e.skipped));
        // Drift is still measured: shifting traffic must register.
        assert!(out.epoch_stats.iter().any(|e| e.drift_measured > 0.0));
    }

    #[test]
    fn sweep_is_deterministic_and_gain_positive() {
        let s = study();
        // A deliberately skewed synthetic load: everything on engine 0.
        let n = s.net.node_count();
        let nengines = 3;
        let base: Vec<u32> = (0..n).map(|v| (v % nengines) as u32).collect();
        let loads: Vec<u64> = (0..n).map(|v| if base[v] == 0 { 100 } else { 1 }).collect();
        let before = {
            let mut el = vec![0u64; nengines];
            for v in 0..n {
                el[base[v] as usize] += loads[v];
            }
            load_imbalance(&el)
        };
        let mut a = base.clone();
        let mut b = base.clone();
        // No sync cost: the sweep descends the imbalance alone.
        let moves_a = diffusive_sweep(&s.net, &mut a, &[1.0; 3], &loads, 0.0, 0.0, 1);
        let moves_b = diffusive_sweep(&s.net, &mut b, &[1.0; 3], &loads, 0.0, 0.0, 1);
        assert_eq!(a, b, "fixed sweep order is deterministic");
        assert_eq!(moves_a, moves_b);
        assert!(!moves_a.is_empty(), "skewed load must yield moves");
        let after = {
            let mut el = vec![0u64; nengines];
            for v in 0..n {
                el[a[v] as usize] += loads[v];
            }
            load_imbalance(&el)
        };
        assert!(
            after < before,
            "sweep must reduce imbalance: {before} -> {after}"
        );
        // No engine was emptied.
        for e in 0..nengines {
            assert!(a.iter().any(|&p| p as usize == e));
        }
    }

    #[test]
    fn a_router_moves_with_its_hosts() {
        // r0 (+ host a) on engine 0; r1 (+ hosts b, c) and r2 (+ host d)
        // on engine 1. Moving r1 alone would strand b and c behind two
        // 100 µs cut links.
        let mut net = Network::new();
        let [r0, r1, r2] = ["r0", "r1", "r2"].map(|r| net.add_router(r, 0));
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|h| net.add_host(h, 0));
        net.add_link(r0, r1, 1000.0, 1000);
        net.add_link(r1, r2, 1000.0, 1000);
        for (r, h) in [(r0, a), (r1, b), (r1, c), (r2, d)] {
            net.add_link(r, h, 100.0, 100);
        }
        let mut part = vec![0, 1, 1, 0, 1, 1, 1];
        let loads = [0, 10, 10, 0, 10, 10, 0];
        let moves = diffusive_sweep(&net, &mut part, &[1.0; 2], &loads, 0.0, 0.0, 1);
        assert_eq!(moves, vec![(r1, 1, 0), (b, 1, 0), (c, 1, 0)]);
        assert_eq!(part, vec![0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn a_balance_neutral_move_that_uncuts_the_short_link_pays() {
        // r0 — r1 ═ r2 — r3, a host on each router but r2: engine 0 holds
        // r0, r1 and their hosts, engine 1 the rest, and the cut is the
        // 200 µs link ═. The unloaded group {r1, h} changes no engine's
        // load by moving over, and moves the cut to a 1 000 µs link.
        let mut net = Network::new();
        let [r0, r1, r2, r3] = ["r0", "r1", "r2", "r3"].map(|r| net.add_router(r, 0));
        let [h0, h, h3] = ["h0", "h", "h3"].map(|h| net.add_host(h, 0));
        net.add_link(r0, r1, 1000.0, 1000);
        net.add_link(r1, r2, 1000.0, 200);
        net.add_link(r2, r3, 1000.0, 1000);
        for (r, h) in [(r0, h0), (r1, h), (r3, h3)] {
            net.add_link(r, h, 100.0, 100);
        }
        let base = vec![0, 0, 1, 1, 0, 0, 1];
        let loads = [0, 0, 0, 0, 10, 0, 10];
        let sync = CostModel::live_application().sync_cost_us;
        assert_eq!(lookahead_us(&net, &base), 200);

        let mut part = base.clone();
        let moves = diffusive_sweep(&net, &mut part, &[1.0; 2], &loads, 0.01, sync, 1);
        assert_eq!(moves, vec![(r1, 0, 1), (h, 0, 1)]);
        assert_eq!(lookahead_us(&net, &part), 1000);
        // Balance alone sees nothing to gain and pays the migration charge.
        let mut part = base.clone();
        assert!(diffusive_sweep(&net, &mut part, &[1.0; 2], &loads, 0.01, 0.0, 1).is_empty());
    }

    #[test]
    fn the_floor_refuses_a_balancing_move_that_shortens_the_lookahead() {
        // A triangle: engine 0 holds the unloaded a, engine 1 the loaded
        // b and c, and both cut links are 1 000 µs. Moving b (or c)
        // balances the loads but cuts the 300 µs link b — c.
        let mut net = Network::new();
        let [a, b, c] = ["a", "b", "c"].map(|r| net.add_router(r, 0));
        net.add_link(a, b, 1000.0, 1000);
        net.add_link(b, c, 1000.0, 300);
        net.add_link(c, a, 1000.0, 1000);
        let base = vec![0, 1, 1];
        let loads = [0, 10, 10];
        let sync = CostModel::default().sync_cost_us;
        let floor = lookahead_us(&net, &base);
        assert_eq!(floor, 1000);

        let mut part = base.clone();
        assert!(diffusive_sweep(&net, &mut part, &[1.0; 2], &loads, 0.0, sync, floor).is_empty());
        assert_eq!(part, base);
        let moves = diffusive_sweep(&net, &mut part, &[1.0; 2], &loads, 0.0, sync, 1);
        assert_eq!(moves, vec![(b, 1, 0)]);
        assert_eq!(lookahead_us(&net, &part), 300);
    }

    #[test]
    fn capacities_weigh_the_loads() {
        // Engine 0 is three times as fast: 30 vs 10 is balanced there, and
        // the move that evens the raw loads is refused.
        let mut net = Network::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|r| net.add_router(r, 0));
        for (x, y) in [(a, b), (b, c), (c, d), (d, a)] {
            net.add_link(x, y, 1000.0, 1000);
        }
        let loads = [10, 10, 10, 10];
        let mut part = vec![0, 0, 0, 1];
        let sweep = |part: &mut [u32], capacities: &[f64]| {
            diffusive_sweep(&net, part, capacities, &loads, 0.0, 0.0, 1)
        };
        assert!(sweep(&mut part, &[3.0, 1.0]).is_empty());
        assert_eq!(sweep(&mut part, &[1.0, 1.0]), vec![(a, 0, 1)]);
    }

    #[test]
    fn infinite_lambda_cost_freezes_the_sweep() {
        let s = study();
        let n = s.net.node_count();
        let mut part: Vec<u32> = (0..n).map(|v| (v % 3) as u32).collect();
        let loads: Vec<u64> = (0..n as u64).collect();
        let moves = diffusive_sweep(&s.net, &mut part, &[1.0; 3], &loads, f64::INFINITY, 50.0, 1);
        assert!(moves.is_empty(), "no gain can beat an infinite cost");
    }

    #[test]
    fn deterministic_across_runs() {
        let s = study();
        let flows = phase_shifting_flows(&s);
        let cfg = IncrementalConfig::default();
        let (a, b) = (incremental(&s, &flows, &cfg), incremental(&s, &flows, &cfg));
        assert_eq!(a.report.engine_events, b.report.engine_events);
        assert_eq!(a.migrated_nodes, b.migrated_nodes);
        assert_eq!(a.epoch_stats, b.epoch_stats);
        assert_eq!(a.epoch_partitions, b.epoch_partitions);
    }

    #[test]
    fn mode_labels_round_trip() {
        for m in [RebalanceMode::Off, RebalanceMode::Incremental] {
            assert_eq!(RebalanceMode::parse(m.label()), Some(m));
        }
        assert_eq!(RebalanceMode::parse("global"), None);
        assert_eq!(RebalanceMode::parse("metis"), None);
    }
}
