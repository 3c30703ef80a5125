//! The partitioner's weighted input graphs (§2.2) and the one partition
//! step all three approaches end in (§2.3).
//!
//! Every graph built here has one structure — vertex `i` is network node
//! `i`, one edge per link — so the §2.3 multi-objective combination can
//! mix their edge weights. They differ only in weights:
//!
//! * **latency view** — edge weight `K / latency`: the partitioner
//!   minimizes cut weight, so cheap-to-cut edges are the high-latency ones,
//!   which *maximizes* cut latency and hence conservative lookahead;
//! * **predicted-traffic view** (PLACE) — edge weight ∝ predicted Mbps
//!   crossing the link, vertex weight ∝ predicted traffic through the node;
//! * **measured-traffic view** (PROFILE) — the same quantities from
//!   NetFlow records, in packets ("we use the number of packets in a flow,
//!   since the real load in the emulator depends on the number of packets
//!   it processes", §3.3).
//!
//! An approach computes only its vertex-weight columns (and, for PLACE and
//! PROFILE, per-link traffic weights) and hands them to `partition_views`,
//! which appends the memory column, builds the views and partitions them.

use crate::incremental::diffusive_sweep;
use crate::{MapperConfig, UBFACTOR};
use massf_engine::engine::lookahead_us;
use massf_engine::netflow::FlowRecord;
use massf_engine::CostModel;
use massf_graph::{CsrGraph, GraphBuilder, Weight};
use massf_obs::{ProfileTelemetry, Recorder, SpanStart};
use massf_par::{par_indexed_map, Parallelism};
use massf_partition::multiobjective::combine_and_partition;
use massf_partition::{partition_kway_obs, Partitioning};
use massf_routing::RoutingTables;
use massf_topology::{Network, NodeId, NodeKind};
use massf_traffic::{FlowSpec, PredictedFlow};
use std::collections::BTreeMap;

/// Flows per work block when fanning accumulation over threads.
///
/// Accumulators always process flows in fixed blocks of this size and
/// merge the per-block partial sums in ascending block order, so the
/// floating-point reduction tree — and therefore the bit pattern of every
/// `f64` total — is a function of the input alone, never of the thread
/// count or scheduling.
const FLOW_BLOCK: usize = 4096;

/// Numerator for the latency objective: `w = LATENCY_SCALE / latency_us`.
pub const LATENCY_SCALE: f64 = 1_000_000.0;

/// Fixed-point multiplier when quantizing Mbps to integer edge weights.
pub const MBPS_SCALE: f64 = 16.0;

/// Builds the shared graph skeleton: vertex `v` weighs row `v` of `rows`
/// (`ncon` columns each), link `i` weighs `edge_weight(i)`.
pub(crate) fn build_graph<R: AsRef<[Weight]>>(
    net: &Network,
    ncon: usize,
    rows: impl Iterator<Item = R>,
    edge_weight: impl Fn(usize) -> Weight,
) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(ncon, net.node_count(), net.link_count());
    for row in rows {
        b.add_vertex(row.as_ref());
    }
    assert_eq!(b.nvtxs(), net.node_count());
    for (i, l) in net.links().iter().enumerate() {
        b.add_edge(l.a, l.b, edge_weight(i))
            .expect("network links are valid edges");
    }
    b.build().expect("network graph valid")
}

/// The latency objective's edge weight for a link of `latency_us`.
#[inline]
pub fn latency_weight(latency_us: u64) -> Weight {
    ((LATENCY_SCALE / latency_us as f64).round() as Weight).max(1)
}

/// TOP's input graph: vertex weight = total incident bandwidth (Mbps,
/// rounded, ≥ 1); edge weight = the latency objective (§3.1).
pub fn latency_graph(net: &Network) -> CsrGraph {
    let rows = net.nodes().iter().map(|n| [bandwidth_weight(net, n.id)]);
    build_graph(net, 1, rows, |i| latency_weight(net.links()[i].latency_us))
}

/// TOP's vertex weight: total incident bandwidth (Mbps, rounded, ≥ 1).
pub(crate) fn bandwidth_weight(net: &Network, node: NodeId) -> Weight {
    (net.total_bandwidth(node).round() as Weight).max(1)
}

/// Fans `items` over threads in fixed [`FLOW_BLOCK`]-sized blocks; each
/// block produces partial `(per_link, per_node)` vectors via `accumulate`
/// and the partials are merged in ascending block order with `merge`.
/// Serial and parallel runs share the identical blocked reduction
/// structure, so results are bit-identical at every thread count.
fn blocked_accumulate<T, L, N>(
    par: Parallelism,
    items: &[T],
    nlinks: usize,
    nnodes: usize,
    accumulate: impl Fn(&T, &mut [L], &mut [N]) + Sync,
    merge: impl Fn(&mut L, &L) + Copy,
    merge_node: impl Fn(&mut N, &N) + Copy,
) -> (Vec<L>, Vec<N>)
where
    T: Sync,
    L: Clone + Default + Send + Sync,
    N: Clone + Default + Send + Sync,
{
    let nblocks = items.len().div_ceil(FLOW_BLOCK).max(1);
    let partials = par_indexed_map(par, nblocks, |b| {
        let mut link = vec![L::default(); nlinks];
        let mut node = vec![N::default(); nnodes];
        let lo = b * FLOW_BLOCK;
        let hi = items.len().min(lo + FLOW_BLOCK);
        for item in &items[lo..hi] {
            accumulate(item, &mut link, &mut node);
        }
        (link, node)
    });
    let mut per_link = vec![L::default(); nlinks];
    let mut per_node = vec![N::default(); nnodes];
    for (link, node) in partials {
        for (acc, p) in per_link.iter_mut().zip(&link) {
            merge(acc, p);
        }
        for (acc, p) in per_node.iter_mut().zip(&node) {
            merge_node(acc, p);
        }
    }
    (per_link, per_node)
}

/// Routes every predicted flow and accumulates per-link and per-node Mbps,
/// fanned over up to `par` threads. Returns `(per_link, per_node)`; a flow
/// contributes to every node on its path, endpoints included. The blocked
/// in-order merge keeps every `f64` sum bit-identical across thread
/// counts, so `Parallelism::serial()` is the single-threaded reference.
pub fn accumulate_predicted_with(
    net: &Network,
    tables: &RoutingTables,
    flows: &[PredictedFlow],
    par: Parallelism,
) -> (Vec<f64>, Vec<f64>) {
    blocked_accumulate(
        par,
        flows,
        net.link_count(),
        net.node_count(),
        |f: &PredictedFlow, per_link: &mut [f64], per_node: &mut [f64]| {
            if f.src == f.dst {
                return;
            }
            tables.for_each_hop(f.src, f.dst, |n, link| {
                per_node[n as usize] += f.bandwidth_mbps;
                if let Some(l) = link {
                    per_link[l.0 as usize] += f.bandwidth_mbps;
                }
            });
        },
        |a, b| *a += *b,
        |a, b| *a += *b,
    )
}

/// One NetFlow flow reduced across every router that observed it: the
/// packet count is the maximum seen at any single router (the flow's true
/// count, robust to partial paths) and the activity window spans all
/// sightings. This single aggregation pass feeds both
/// [`accumulate_measured_with`] and [`node_time_loads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowAggregate {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Packets (max over routers).
    pub packets: u64,
    /// Earliest sighting (µs).
    pub first_us: u64,
    /// Latest sighting (µs).
    pub last_us: u64,
}

/// Groups NetFlow records by flow id into per-flow aggregates, sorted
/// deterministically (by `(src, dst, packets, first_us, last_us)`).
pub fn aggregate_flows(records: &[FlowRecord]) -> Vec<FlowAggregate> {
    // BTreeMap: into_values() below then yields flow-id order before the
    // final sort, so ties in the aggregate ordering cannot be broken by
    // hasher order (srclint SA001).
    let mut per_flow: BTreeMap<u32, FlowAggregate> = BTreeMap::new();
    for r in records {
        let e = per_flow.entry(r.flow).or_insert(FlowAggregate {
            src: r.src,
            dst: r.dst,
            packets: 0,
            first_us: r.first_us,
            last_us: r.last_us,
        });
        e.packets = e.packets.max(r.packets);
        e.first_us = e.first_us.min(r.first_us);
        e.last_us = e.last_us.max(r.last_us);
    }
    let mut v: Vec<_> = per_flow.into_values().collect();
    v.sort_unstable();
    v
}

/// Accumulates measured per-link and per-node *packet* counts from NetFlow
/// dumps, fanned over up to `par` threads. Router loads come straight from
/// the records; host endpoint loads and link crossings are reconstructed
/// by routing each flow (the expensive part; the raw router-load scan
/// stays serial). Counts are integers, but the same blocked in-order merge
/// is used so the code path mirrors the predicted accumulator exactly.
pub fn accumulate_measured_with(
    net: &Network,
    tables: &RoutingTables,
    records: &[FlowRecord],
    par: Parallelism,
) -> (Vec<u64>, Vec<u64>) {
    let aggregates = aggregate_flows(records);
    let (per_link, mut per_node) = blocked_accumulate(
        par,
        &aggregates,
        net.link_count(),
        net.node_count(),
        |a: &FlowAggregate, per_link: &mut [u64], per_node: &mut [u64]| {
            // Endpoint hosts process one event per packet (inject / deliver).
            per_node[a.src as usize] += a.packets;
            per_node[a.dst as usize] += a.packets;
            if a.src != a.dst {
                tables.for_each_hop(a.src, a.dst, |_, link| {
                    if let Some(l) = link {
                        per_link[l.0 as usize] += a.packets;
                    }
                });
            }
        },
        |acc, p| *acc += *p,
        |acc, p| *acc += *p,
    );
    for r in records {
        per_node[r.router as usize] += r.packets;
    }
    (per_link, per_node)
}

/// PROFILE's traffic view from NetFlow dumps: weights in packets.
pub fn measured_traffic_graph(
    net: &Network,
    tables: &RoutingTables,
    records: &[FlowRecord],
) -> CsrGraph {
    let (per_link, per_node) =
        accumulate_measured_with(net, tables, records, Parallelism::serial());
    let rows = per_node.iter().map(|&p| [packets(p)]);
    build_graph(net, 1, rows, |i| packets(per_link[i]))
}

/// Per-node load over virtual-time buckets, `[node][bucket]`, spreading
/// each record's packets uniformly over its observed duration. Feeds the
/// §3.3 phase clustering.
pub fn node_time_loads(net: &Network, records: &[FlowRecord], bucket_us: u64) -> Vec<Vec<u64>> {
    let bucket_us = bucket_us.max(1);
    let nbuckets = records
        .iter()
        .map(|r| (r.last_us / bucket_us) as usize + 1)
        .max()
        .unwrap_or(0);
    let mut loads = vec![vec![0u64; nbuckets]; net.node_count()];
    let mut spread = |node: NodeId, packets: u64, first: u64, last: u64| {
        let b0 = (first / bucket_us) as usize;
        let b1 = (last / bucket_us) as usize;
        let n = (b1 - b0 + 1) as u64;
        for b in b0..=b1 {
            loads[node as usize][b] += packets / n;
        }
        loads[node as usize][b0] += packets % n;
    };
    for r in records {
        spread(r.router, r.packets, r.first_us, r.last_us);
    }
    // Endpoint hosts mirror their flows' activity windows.
    for a in aggregate_flows(records) {
        if net.node(a.src).kind == NodeKind::Host {
            spread(a.src, a.packets, a.first_us, a.last_us);
        }
        if net.node(a.dst).kind == NodeKind::Host {
            spread(a.dst, a.packets, a.first_us, a.last_us);
        }
    }
    loads
}

/// Static per-node load series `[node][bucket]` predicted from a flow
/// schedule alone: each flow's packets are spread uniformly over its
/// injection window and charged to both endpoints (injection at `src`,
/// delivery at `dst`). The schedule-time analogue of [`node_time_loads`] —
/// what PROFILE's phase detection would see before any emulation runs,
/// minus router transit load (which needs routing). Flows with zero
/// packets or out-of-range endpoints are skipped; the preflight linter
/// reports those separately.
pub fn flow_node_loads(net: &Network, flows: &[FlowSpec], bucket_us: u64) -> Vec<Vec<u64>> {
    let bucket_us = bucket_us.max(1);
    let n = net.node_count();
    let valid = |f: &&FlowSpec| f.packets > 0 && (f.src as usize) < n && (f.dst as usize) < n;
    let nbuckets = flows
        .iter()
        .filter(valid)
        .map(|f| (f.end_us() / bucket_us) as usize + 1)
        .max()
        .unwrap_or(0);
    let mut loads = vec![vec![0u64; nbuckets]; n];
    for f in flows.iter().filter(valid) {
        let b0 = (f.start_us / bucket_us) as usize;
        let b1 = (f.end_us() / bucket_us) as usize;
        let nb = (b1 - b0 + 1) as u64;
        for node in [f.src, f.dst] {
            let row = &mut loads[node as usize];
            for b in b0..=b1 {
                row[b] += f.packets / nb;
            }
            row[b0] += f.packets % nb;
        }
    }
    loads
}

/// Appends the memory-model weights (§5, `m = 10 + x²`) as an extra
/// constraint column to a flattened weight matrix.
fn append_memory_constraint(net: &Network, ncon: usize, vwgt: &[Weight]) -> (usize, Vec<Weight>) {
    let mem = massf_routing::memory::memory_weights(net);
    let n = net.node_count();
    assert_eq!(vwgt.len(), n * ncon);
    let mut out = Vec::with_capacity(n * (ncon + 1));
    for v in 0..n {
        out.extend_from_slice(&vwgt[v * ncon..(v + 1) * ncon]);
        out.push(mem[v]);
    }
    (ncon + 1, out)
}

/// The partition step every approach ends in (§2.3). `vwgt` holds the
/// approach's `ncon` vertex-weight columns, row-major; the memory column
/// (§5) is appended when `cfg.include_memory` is set. Without `traffic`
/// the latency view is partitioned alone, as restart batch `stage` (TOP).
/// With per-link `traffic` weights, a traffic view carrying the same
/// vertex weights is built beside it and [`combine_and_partition`] weighs
/// latency against cut traffic (`{stage}/{latency,bandwidth,combined}`).
/// `phases` is PROFILE's telemetry: it is recorded with the final column
/// count and totals, and the columns past the first (phases, memory) get
/// extra slack. The caller's open span closes once the views are built.
/// The result is then polished by [`diffusive_sweep`] on column 0's loads
/// (`mapping/{stage}/polish`), which never shortens its lookahead; a
/// partition that balances memory too is left as the partitioner made it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn partition_views(
    net: &Network,
    cfg: &MapperConfig,
    (ncon, vwgt): (usize, Vec<Weight>),
    traffic: Option<Vec<Weight>>,
    phases: Option<ProfileTelemetry>,
    stage: &str,
    (span_name, span): (&str, SpanStart),
    rec: &mut Recorder,
) -> Partitioning {
    let (ncon, vwgt) = if cfg.include_memory {
        append_memory_constraint(net, ncon, &vwgt)
    } else {
        (ncon, vwgt)
    };
    let mut pcfg = cfg.partition_config();
    if let Some(mut telemetry) = phases {
        // Keep the total-load constraint tight but give the phase (and
        // memory) columns extra slack: phases are noisy estimates, and
        // over-constraining them forces low-latency cuts that hurt more
        // than phase skew does.
        let mut ubs = vec![UBFACTOR + 0.35; ncon];
        ubs[0] = UBFACTOR;
        pcfg.ub_vec = Some(ubs);
        let mut totals = vec![0; ncon];
        for (i, &w) in vwgt.iter().enumerate() {
            totals[i % ncon] += w;
        }
        telemetry.constraints = ncon as u64;
        telemetry.constraint_totals = totals;
        rec.set_profile(telemetry);
    }
    let rows = || vwgt.chunks_exact(ncon);
    let latency = build_graph(net, ncon, rows(), |i| {
        latency_weight(net.links()[i].latency_us)
    });
    let traffic = traffic.map(|t| build_graph(net, ncon, rows(), |i| t[i]));
    let loads: Vec<u64> = vwgt.iter().step_by(ncon).map(|&w| w as u64).collect();
    drop(vwgt);
    rec.finish(span_name, span);
    let mut p = match traffic {
        None => partition_kway_obs(&latency, &pcfg, stage, rec),
        Some(traffic) => {
            combine_and_partition(&latency, &traffic, cfg.latency_priority, &pcfg, stage, rec)
        }
    };
    // Polish: the rebalancer's descent on column 0, nothing migrating
    // (λ = 0), never below the lookahead the partitioner chose. It sees
    // no other column, so it would undo a memory balance: none runs then.
    if !cfg.include_memory {
        let span = rec.start();
        let (caps, sync) = (cfg.capacities(), CostModel::default().sync_cost_us);
        let (floor, before) = (lookahead_us(net, &p.part), p.part.clone());
        diffusive_sweep(net, &mut p.part, &caps, &loads, 0.0, sync, floor);
        rec.finish(&format!("mapping/{stage}/polish"), span);
        rec.record_polish(before.iter().zip(&p.part).filter(|(a, b)| a != b).count());
    }
    p
}

/// A predicted rate as an integer weight (fixed point, floor 1, so idle
/// regions remain partitionable).
pub(crate) fn quantize(mbps: f64) -> Weight {
    ((mbps * MBPS_SCALE).round() as Weight).max(1)
}

/// A measured packet count as an integer weight (floor 1).
pub(crate) fn packets(count: u64) -> Weight {
    (count as Weight).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::campus::campus;
    use massf_topology::Network;

    fn line() -> Network {
        let mut net = Network::new();
        let h0 = net.add_host("h0", 0);
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 0);
        let h1 = net.add_host("h1", 0);
        net.add_link(h0, r0, 100.0, 10);
        net.add_link(r0, r1, 1000.0, 5000);
        net.add_link(r1, h1, 100.0, 10);
        net
    }

    #[test]
    fn latency_graph_inverts_latency() {
        let net = line();
        let g = latency_graph(&net);
        // Host link: 1e6/10 = 100000; core link: 1e6/5000 = 200.
        assert_eq!(g.edge_weight_between(0, 1), Some(100_000));
        assert_eq!(g.edge_weight_between(1, 2), Some(200));
        // Cutting the high-latency core link is cheapest — by design.
    }

    #[test]
    fn latency_graph_vertex_weight_is_bandwidth() {
        let net = line();
        let g = latency_graph(&net);
        assert_eq!(g.vertex_weight0(1), 1100); // 100 + 1000
        assert_eq!(g.vertex_weight0(0), 100);
    }

    #[test]
    fn predicted_accumulation_routes_flows() {
        let net = line();
        let tables = RoutingTables::build(&net);
        let flows = vec![
            PredictedFlow {
                src: 0,
                dst: 3,
                bandwidth_mbps: 10.0,
            },
            PredictedFlow {
                src: 3,
                dst: 0,
                bandwidth_mbps: 2.5,
            },
        ];
        let (per_link, per_node) =
            accumulate_predicted_with(&net, &tables, &flows, Parallelism::serial());
        for l in 0..3 {
            assert!((per_link[l] - 12.5).abs() < 1e-9, "link {l}");
        }
        for n in 0..4 {
            assert!((per_node[n] - 12.5).abs() < 1e-9, "node {n}");
        }
    }

    #[test]
    fn predicted_graph_quantizes_with_floor() {
        let net = line();
        let tables = RoutingTables::build(&net);
        let (per_link, per_node) =
            accumulate_predicted_with(&net, &tables, &[], Parallelism::serial());
        let rows = per_node.iter().map(|&m| [quantize(m)]);
        let g = build_graph(&net, 1, rows, |i| quantize(per_link[i]));
        // No traffic: all weights floor at 1.
        assert_eq!(g.edge_weight_between(0, 1), Some(1));
        assert_eq!(g.vertex_weight0(2), 1);
        // Structure matches the latency view for multi-objective mixing.
        assert_eq!(g.adjncy(), latency_graph(&net).adjncy());
    }

    #[test]
    fn measured_accumulation_uses_max_router_count() {
        let net = line();
        let tables = RoutingTables::build(&net);
        let rec = |router: NodeId, flow: u32, packets: u64| FlowRecord {
            router,
            flow,
            src: 0,
            dst: 3,
            packets,
            bytes: packets * 1500,
            first_us: 0,
            last_us: 1000,
        };
        // Flow 0 seen at both routers (10 packets each).
        let records = vec![rec(1, 0, 10), rec(2, 0, 10)];
        let (per_link, per_node) =
            accumulate_measured_with(&net, &tables, &records, Parallelism::serial());
        assert_eq!(per_node[1], 10);
        assert_eq!(per_node[2], 10);
        assert_eq!(per_node[0], 10, "source host endpoint load");
        assert_eq!(per_node[3], 10, "destination host endpoint load");
        assert_eq!(per_link, vec![10, 10, 10]);
    }

    #[test]
    fn node_time_loads_spread_over_duration() {
        let net = line();
        let records = vec![FlowRecord {
            router: 1,
            flow: 0,
            src: 0,
            dst: 3,
            packets: 10,
            bytes: 0,
            first_us: 0,
            last_us: 4999,
        }];
        let loads = node_time_loads(&net, &records, 1000);
        assert_eq!(loads[1].len(), 5);
        assert_eq!(loads[1].iter().sum::<u64>(), 10);
        assert!(loads[1].iter().all(|&x| x >= 2), "roughly uniform spread");
        // Host endpoints mirrored.
        assert_eq!(loads[0].iter().sum::<u64>(), 10);
        assert_eq!(loads[3].iter().sum::<u64>(), 10);
        // The untouched router has zeros.
        assert_eq!(loads[2].iter().sum::<u64>(), 0);
    }

    #[test]
    fn flow_node_loads_mirror_schedule() {
        let net = line();
        let flows = vec![
            // 10 packets over [0, 4500µs): buckets 0..=4 at 1000 µs width.
            FlowSpec {
                src: 0,
                dst: 3,
                start_us: 0,
                packets: 10,
                bytes: 15_000,
                packet_interval_us: 500,
                window: None,
            },
            // Skipped: zero packets and a foreign endpoint.
            FlowSpec {
                src: 0,
                dst: 3,
                start_us: 0,
                packets: 0,
                bytes: 0,
                packet_interval_us: 1,
                window: None,
            },
            FlowSpec {
                src: 0,
                dst: 99,
                start_us: 0,
                packets: 5,
                bytes: 0,
                packet_interval_us: 1,
                window: None,
            },
        ];
        let loads = flow_node_loads(&net, &flows, 1000);
        assert_eq!(loads.len(), net.node_count());
        assert_eq!(loads[0].len(), 5);
        assert_eq!(loads[0].iter().sum::<u64>(), 10, "src charged once");
        assert_eq!(loads[3].iter().sum::<u64>(), 10, "dst charged once");
        assert_eq!(loads[1].iter().sum::<u64>(), 0, "no transit load");
        assert!(loads[0].iter().all(|&x| x >= 2), "roughly uniform spread");
    }

    #[test]
    fn flow_node_loads_empty_schedule() {
        let net = line();
        let loads = flow_node_loads(&net, &[], 1000);
        assert!(loads.iter().all(Vec::is_empty));
    }

    #[test]
    fn memory_constraint_appends_column() {
        let net = campus();
        let n = net.node_count();
        let base = vec![1 as Weight; n];
        let (ncon, w) = append_memory_constraint(&net, 1, &base);
        assert_eq!(ncon, 2);
        assert_eq!(w.len(), 2 * n);
        // Routers in the 20-router AS get 10 + 400.
        let router = net.routers()[0] as usize;
        assert_eq!(w[router * 2 + 1], 410);
        let host = net.hosts()[0] as usize;
        assert_eq!(w[host * 2 + 1], 10);
    }
}
