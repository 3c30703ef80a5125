//! The profile-based mapping approach — PROFILE (§3.3).
//!
//! An initial emulation run (under any partition, typically TOP's) records
//! NetFlow dumps on every router. From them we build:
//!
//! * measured per-link traffic (in packets) — the traffic objective,
//!   combined with the latency objective per §2.3;
//! * per-node load curves over time, clustered into phases (§3.3); each
//!   phase contributes one multi-constraint vertex-weight column so the
//!   partitioner balances *every* phase, not just the average.

use crate::segments::{cluster_segments, segment_vertex_weights};
use crate::top::map_top_obs;
use crate::weights::{
    append_memory_constraint, latency_graph, measured_traffic_graph_with, node_time_loads,
    with_vertex_weights,
};
use crate::{MapperConfig, UBFACTOR};
use massf_engine::netflow::FlowRecord;
use massf_obs::{PhaseInfo, ProfileTelemetry, Recorder};
use massf_partition::multiobjective::combine_and_partition;
use massf_partition::Partitioning;
use massf_routing::RoutingTables;
use massf_topology::Network;

/// Smoothing window (buckets) for the dominating-node curve.
const SMOOTH_BUCKETS: usize = 3;

/// Number of time buckets the profile is digested into before clustering.
pub const PROFILE_BUCKETS: u64 = 24;

/// Buckets with fewer total packet events than this are idle to the phase
/// clustering; the lint's MC008 warns when no bucket reaches it.
pub const MIN_BUCKET_EVENTS: u64 = 16;

/// Maps the network using NetFlow records from a profiling run.
///
/// Falls back to [`crate::top::map_top`] when the profile is empty
/// (nothing was recorded — e.g. a pure-compute workload).
pub fn map_profile(
    net: &Network,
    tables: &RoutingTables,
    records: &[FlowRecord],
    cfg: &MapperConfig,
) -> Partitioning {
    map_profile_obs(net, tables, records, cfg, &mut Recorder::new())
}

/// [`map_profile`] with observability: records `mapping/profile/*` spans,
/// the `profile/{latency,bandwidth,combined}` restart batches, and the
/// phase-detection telemetry ([`ProfileTelemetry`]: bucket layout, phase
/// boundaries with their dominating nodes, and the per-constraint column
/// totals handed to the partitioner) on `rec`.
pub fn map_profile_obs(
    net: &Network,
    tables: &RoutingTables,
    records: &[FlowRecord],
    cfg: &MapperConfig,
    rec: &mut Recorder,
) -> Partitioning {
    if records.is_empty() {
        return map_top_obs(net, cfg, rec);
    }
    let horizon = records
        .iter()
        .map(|r| r.last_us)
        .max()
        .expect("records non-empty");
    let bucket_us = (horizon / PROFILE_BUCKETS).max(1);

    let span = rec.start();
    let loads = node_time_loads(net, records, bucket_us);
    let segments = cluster_segments(&loads, MIN_BUCKET_EVENTS, SMOOTH_BUCKETS, cfg.max_segments);
    rec.finish("mapping/profile/segments", span);
    let span = rec.start();
    // Constraint 0 is always the *total* measured load — the quantity the
    // paper's imbalance metric scores. Each detected phase adds a column so
    // stage-local imbalance is bounded too (§3.3); with a single phase the
    // segment column would duplicate the total, so it is dropped.
    let (mut ncon, mut vwgt) = {
        let nvtxs = net.node_count();
        let totals: Vec<i64> = loads
            .iter()
            .map(|row| 1 + row.iter().sum::<u64>() as i64)
            .collect();
        if segments.len() <= 1 {
            (1, totals)
        } else {
            let seg_w = segment_vertex_weights(&loads, &segments);
            let ncon = 1 + segments.len();
            let mut w = Vec::with_capacity(nvtxs * ncon);
            for v in 0..nvtxs {
                w.push(totals[v]);
                w.extend_from_slice(&seg_w[v * segments.len()..(v + 1) * segments.len()]);
            }
            (ncon, w)
        }
    };
    if cfg.include_memory {
        let appended = append_memory_constraint(net, ncon, &vwgt);
        ncon = appended.0;
        vwgt = appended.1;
    }
    rec.set_profile(profile_telemetry(bucket_us, &loads, &segments, ncon, &vwgt));
    rec.finish("mapping/profile/constraints", span);

    let span = rec.start();
    let traffic = measured_traffic_graph_with(net, tables, records, cfg.parallelism);
    let latency = with_vertex_weights(&latency_graph(net), ncon, vwgt.clone());
    let traffic = with_vertex_weights(&traffic, ncon, vwgt);
    rec.finish("mapping/profile/traffic_graph", span);

    // Keep the total-load constraint tight but give the phase (and memory)
    // columns extra slack: phases are noisy estimates, and over-constraining
    // them forces low-latency cuts that hurt more than phase skew does.
    let mut pcfg = cfg.partition_config();
    let mut ubs = vec![UBFACTOR; ncon];
    for ub in ubs.iter_mut().skip(1) {
        *ub = UBFACTOR + 0.35;
    }
    pcfg.ub_vec = Some(ubs);

    combine_and_partition(
        &latency,
        &traffic,
        cfg.latency_priority,
        &pcfg,
        "profile",
        rec,
    )
    .partitioning
}

/// Digests the load curves and constraint columns into the telemetry the
/// run report carries: per-phase dominating nodes (argmax of raw load over
/// the phase's buckets; `None` for all-idle phases) and the column sums of
/// the vertex-weight matrix handed to the partitioner.
fn profile_telemetry(
    bucket_us: u64,
    loads: &[Vec<u64>],
    segments: &[(usize, usize)],
    ncon: usize,
    vwgt: &[i64],
) -> ProfileTelemetry {
    let nbuckets = loads.first().map(Vec::len).unwrap_or(0);
    let phases = segments
        .iter()
        .map(|&(start, end)| {
            let mut dominating = None;
            let mut best = 0u64;
            let mut events = 0u64;
            for (node, row) in loads.iter().enumerate() {
                let load: u64 = row[start..end.min(row.len())].iter().sum();
                events += load;
                if load > best {
                    best = load;
                    dominating = Some(node as u64);
                }
            }
            PhaseInfo {
                start_bucket: start as u64,
                end_bucket: end as u64,
                dominating_node: dominating,
                events,
            }
        })
        .collect();
    let mut constraint_totals = vec![0i64; ncon];
    for (i, &w) in vwgt.iter().enumerate() {
        constraint_totals[i % ncon] += w;
    }
    ProfileTelemetry {
        bucket_us,
        nbuckets: nbuckets as u64,
        constraints: ncon as u64,
        constraint_totals,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::campus::campus;
    use massf_topology::NodeId;

    fn record(
        router: NodeId,
        flow: u32,
        src: NodeId,
        dst: NodeId,
        packets: u64,
        t0: u64,
        t1: u64,
    ) -> FlowRecord {
        FlowRecord {
            router,
            flow,
            src,
            dst,
            packets,
            bytes: packets * 1500,
            first_us: t0,
            last_us: t1,
        }
    }

    #[test]
    fn empty_profile_falls_back_to_top() {
        let net = campus();
        let cfg = MapperConfig::new(3);
        let tables = RoutingTables::build(&net);
        let p = map_profile(&net, &tables, &[], &cfg);
        assert_eq!(p, crate::top::map_top(&net, &cfg));
    }

    #[test]
    fn profile_partition_is_valid() {
        let net = campus();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        // Two flows through real routers of the campus topology.
        let r0 = net.routers()[5];
        let records = vec![
            record(r0, 0, hosts[0], hosts[20], 500, 0, 1_000_000),
            record(r0, 1, hosts[1], hosts[30], 300, 2_000_000, 3_000_000),
        ];
        let p = map_profile(&net, &tables, &records, &MapperConfig::new(3));
        assert_eq!(p.nparts, 3);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn hot_pair_is_not_split_when_balance_allows() {
        // Heavy measured traffic between two hosts behind one router, plus
        // enough background load elsewhere that collocating the hot subtree
        // on one engine is balance-feasible. PROFILE must then keep the hot
        // flow inside one partition ("it attempts to limit a large traffic
        // flow to small number of partitions", §5).
        let net = campus();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        let (a, b) = (hosts[0], hosts[1]); // attached to the same dept router
        let path = tables.path(a, b).unwrap();
        assert_eq!(path.len(), 3, "expected a-router-b, got {path:?}");
        let router = path[1];
        let mut records = vec![record(router, 0, a, b, 3_000, 0, 5_000_000)];
        // Background: moderate flows between far-apart hosts, observed at
        // their routers, so total load dwarfs the hot pair.
        for (i, w) in [
            (10usize, 35usize),
            (12, 30),
            (14, 25),
            (16, 38),
            (20, 28),
            (22, 33),
        ]
        .iter()
        .enumerate()
        {
            let (src, dst) = (hosts[w.0], hosts[w.1]);
            let p = tables.path(src, dst).unwrap();
            for &n in &p[1..p.len() - 1] {
                records.push(record(n, i as u32 + 1, src, dst, 2_000, 0, 5_000_000));
            }
        }
        let p = map_profile(&net, &tables, &records, &MapperConfig::new(3));
        assert_eq!(p.part[a as usize], p.part[b as usize], "hot pair split");
        assert_eq!(
            p.part[a as usize], p.part[router as usize],
            "host split from router"
        );
    }

    #[test]
    fn profile_cuts_less_measured_traffic_than_top() {
        let net = campus();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        // Irregular measured load across several subtrees.
        let mut records = Vec::new();
        for (i, w) in [
            (0usize, 39usize),
            (3, 20),
            (7, 31),
            (11, 15),
            (18, 36),
            (25, 5),
        ]
        .iter()
        .enumerate()
        {
            let (src, dst) = (hosts[w.0], hosts[w.1]);
            let p = tables.path(src, dst).unwrap();
            let pkts = 1_000 + 700 * i as u64;
            for &n in &p[1..p.len() - 1] {
                records.push(record(n, i as u32, src, dst, pkts, 0, 4_000_000));
            }
        }
        let cfg = MapperConfig::new(3);
        let top = crate::top::map_top(&net, &cfg);
        let prof = map_profile(&net, &tables, &records, &cfg);
        let g = crate::weights::measured_traffic_graph(&net, &tables, &records);
        let cut_top = massf_partition::quality::edge_cut(&g, &top.part);
        let cut_prof = massf_partition::quality::edge_cut(&g, &prof.part);
        assert!(
            cut_prof <= cut_top,
            "PROFILE measured-traffic cut {cut_prof} vs TOP {cut_top}"
        );
    }

    #[test]
    fn deterministic() {
        let net = campus();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        let records = vec![record(net.routers()[2], 0, hosts[0], hosts[10], 50, 0, 100)];
        let cfg = MapperConfig::new(3);
        assert_eq!(
            map_profile(&net, &tables, &records, &cfg),
            map_profile(&net, &tables, &records, &cfg)
        );
    }

    #[test]
    fn memory_constraint_composes_with_segments() {
        let net = campus();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        let records = vec![
            record(net.routers()[2], 0, hosts[0], hosts[10], 500, 0, 1_000_000),
            record(
                net.routers()[8],
                1,
                hosts[12],
                hosts[30],
                400,
                3_000_000,
                4_000_000,
            ),
        ];
        let cfg = MapperConfig::new(3).with_memory_constraint(true);
        let p = map_profile(&net, &tables, &records, &cfg);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }
}
