//! Per-layer metrics, taken from outside the program: the staged pipeline's
//! spans give each layer's time inside a real run, and direct calls into the
//! crates' public functions — on the workload's own network, tables, schedule
//! and partition — give the figures a run does not expose by itself.

use crate::alloc::allocations;
use crate::child::RunSample;
use crate::report::Metrics;
use crate::span::{self, Span};
use crate::staged::Staged;
use crate::workload::{Inputs, Schedule, SplitMix64, THREADS};
use massf_core::engine::{
    run_parallel, run_sequential, EmulationConfig, SchedulerKind, SteppableEmulation,
};
use massf_core::mapping::weights::{
    accumulate_predicted_with, aggregate_flows, latency_graph, measured_traffic_graph,
    node_time_loads,
};
use massf_core::mapping::{run_online, IncrementalConfig};
use massf_core::partition::quality::{edge_cut, worst_balance};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::{brite, dml};
use massf_core::traffic::flow::horizon_us;
use massf_core::traffic::tracefile;
use std::hint::black_box;
use std::time::Instant;

/// Kernel events the engine variants replay: about a second of work each, so
/// five variants fit beside a full run.
const VARIANT_EVENTS: f64 = 6e6;

/// Random node pairs behind `routing.lookup_ns` / `routing.latency_query_ns`.
const LOOKUP_PAIRS: usize = 1 << 20;

/// Calls `f`; returns the seconds it took and its result.
fn once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Calls `f` once, and four more times when a call takes under a second;
/// returns the median time in seconds and the last result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let (first, mut out) = once(&mut f);
    let mut times = vec![first];
    if first < 1.0 {
        for _ in 0..4 {
            let (t, o) = once(&mut f);
            times.push(t);
            out = o;
        }
    }
    (
        crate::stats::median(&times).expect("at least one call was timed"),
        out,
    )
}

/// The schedule cut off at `cutoff_us`: flows that start later are dropped,
/// flows that straddle it keep the packets they would have sent by then.
fn truncate_flows(flows: &[FlowSpec], cutoff_us: u64) -> Vec<FlowSpec> {
    flows
        .iter()
        .filter(|f| f.start_us < cutoff_us)
        .map(|f| {
            let fits = (cutoff_us - f.start_us).div_ceil(f.packet_interval_us.max(1));
            let packets = f.packets.min(fits.max(1));
            FlowSpec {
                packets,
                bytes: (f.bytes * packets).div_ceil(f.packets).max(1),
                ..f.clone()
            }
        })
        .collect()
}

fn events_per_s(report: &EmulationReport, seconds: f64) -> f64 {
    report.total_events() as f64 / seconds
}

/// Fills `m` with every per-layer metric of one workload.
pub fn measure(
    inputs: &Inputs,
    seed: u64,
    staged: &Staged,
    plain: &RunSample,
    with_report: &RunSample,
    m: &mut Metrics,
) -> Result<(), String> {
    let spans: &[Span] = &staged.spans;
    let span_s = |name: &str| span::duration_s(spans, name);
    let study = &staged.study;
    let (net, tables) = (&study.net, &study.tables);
    let serial = Parallelism::serial();
    let threaded = Parallelism::new(THREADS);

    // cli: what the spans leave unexplained of a real run. The report is
    // rendered only under `--report`, which the plain run did not pass.
    let attributed_us: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.layer() != "obs")
        .map(Span::duration_us)
        .sum();
    m.put(
        "cli.unattributed_s",
        plain.wall_s - attributed_us as f64 / 1e6,
    );
    m.put("cli.cpu_s", plain.cpu_s);

    // topology
    m.put(
        "topology.generate_s",
        timed(|| brite::generate(&inputs.topology)).0,
    );
    let dml_text = dml::write(net);
    m.put("topology.dml_parse_s", timed(|| dml::parse(&dml_text)).0);
    m.put("topology.nodes", net.node_count() as f64);

    // traffic
    m.put(
        "traffic.generate_s",
        timed(|| inputs.schedule.generate(net)).0,
    );
    let trace_text = match inputs.schedule {
        Schedule::Scalapack { .. } => std::fs::read_to_string(&inputs.traffic_path)
            .map_err(|e| format!("cannot read {}: {e}", inputs.traffic_path.display()))?,
        Schedule::Spec { .. } => tracefile::write(&staged.flows),
    };
    let (parse_s, parsed) = timed(|| tracefile::parse_trace(&trace_text));
    if parsed.map_err(|e| e.to_string())?.flows != staged.flows {
        return Err("the schedule does not survive the trace format".to_string());
    }
    m.put("traffic.trace_parse_s", parse_s);
    m.put("traffic.flows", staged.flows.len() as f64);

    // lint
    let preflight_s: f64 = spans
        .iter()
        .filter(|s| s.name == "lint.preflight" || s.name == "lint.trace_audit")
        .map(|s| s.duration_us() as f64 / 1e6)
        .sum();
    let audit_s = span_s("lint.audit").ok_or("no lint.audit span")?;
    m.put("lint.preflight_s", preflight_s);
    m.put("lint.audit_s", audit_s);
    m.put("lint.audit_share", audit_s / plain.wall_s);

    // routing
    let kind = study.cfg.routing;
    let build_s = timed(|| RoutingTables::build_kind(net, kind, serial)).0;
    let build_t2_s = timed(|| RoutingTables::build_kind(net, kind, threaded)).0;
    m.put("routing.build_s", build_s);
    m.put("routing.build_t2_s", build_t2_s);
    m.put("routing.build_speedup_t2", build_s / build_t2_s);
    m.put("routing.table_bytes", tables.table_bytes() as f64);
    let mut rng = SplitMix64(seed);
    let n = net.node_count();
    let pairs: Vec<(u32, u32)> = (0..LOOKUP_PAIRS)
        .map(|_| {
            let src = rng.below(n);
            let dst = (src + 1 + rng.below(n - 1)) % n;
            (src as u32, dst as u32)
        })
        .collect();
    let per_pair_ns = |seconds: f64| seconds * 1e9 / LOOKUP_PAIRS as f64;
    let lookup_s = timed(|| {
        pairs.iter().fold(0u64, |acc, &(s, d)| {
            acc ^ u64::from(tables.next_link_raw(s, d).0)
        })
    })
    .0;
    m.put("routing.lookup_ns", per_pair_ns(lookup_s));
    let latency_s = timed(|| {
        pairs.iter().fold(0u64, |acc, &(s, d)| {
            acc.wrapping_add(tables.latency_us(s, d).unwrap_or(0))
        })
    })
    .0;
    m.put("routing.latency_query_ns", per_pair_ns(latency_s));

    // graph
    let (csr_s, graph) = timed(|| latency_graph(net));
    m.put("graph.csr_build_s", csr_s);

    // partition: the k-way call TOP makes, on TOP's graph.
    let kway = study.cfg.partition_config();
    let (kway_s, top) = timed(|| partition_kway(&graph, &kway.clone().with_threads(serial)));
    let (kway_t2_s, top_t2) =
        timed(|| partition_kway(&graph, &kway.clone().with_threads(threaded)));
    if top != top_t2 {
        return Err("partition_kway differs between 1 and 2 threads".to_string());
    }
    m.put("partition.kway_s", kway_s);
    m.put("partition.kway_t2_s", kway_t2_s);
    m.put("partition.edge_cut", edge_cut(&graph, &top.part) as f64);
    m.put(
        "partition.max_part_ratio",
        worst_balance(&graph, &top.part, top.nparts),
    );

    // engine: the full run's own figures ...
    let online_s = span_s("mapping.run_online");
    let emulate_s = span_s("engine.emulate")
        .or(online_s)
        .ok_or("no emulation span")?;
    let report = &staged.report;
    m.put("engine.emulate_s", emulate_s);
    m.put("engine.events", report.total_events() as f64);
    m.put("engine.events_per_s", events_per_s(report, emulate_s));
    m.put("engine.rounds", report.rounds as f64);
    m.put("engine.remote_messages", report.remote_messages as f64);
    m.put(
        "engine.queue_peak",
        report.engine_queue_peak.iter().copied().max().unwrap_or(0) as f64,
    );

    // ... and the executors the CLI never calls, on a prefix of the schedule
    // under the run's partition and the default cost model.
    let share = (VARIANT_EVENTS / report.total_events().max(1) as f64).min(1.0);
    let prefix = truncate_flows(
        &staged.flows,
        (horizon_us(&staged.flows) as f64 * share) as u64 + 1,
    );
    let cfg = EmulationConfig {
        counter_window_us: study.counter_window_us,
        ..EmulationConfig::new(staged.partition.part.clone(), staged.partition.nparts)
    };

    let allocs_before = allocations();
    let (seq_s, seq) = once(|| run_sequential(net, tables, &prefix, &cfg));
    let allocs = allocations() - allocs_before;
    let kevents = seq.total_events().max(1) as f64 / 1e3;
    let seq_rate = events_per_s(&seq, seq_s);
    m.put("engine.allocs_per_kevent", allocs as f64 / kevents);
    m.put(
        "engine.reallocs_per_kevent",
        seq.engine_reallocs.iter().sum::<u64>() as f64 / kevents,
    );

    let heap_cfg = cfg.clone().with_scheduler(SchedulerKind::Heap);
    let (heap_s, heap) = once(|| run_sequential(net, tables, &prefix, &heap_cfg));
    if heap.engine_events != seq.engine_events || heap.wall != seq.wall {
        return Err("heap and calendar schedulers disagree".to_string());
    }
    m.put("engine.heap_ratio", seq_rate / events_per_s(&heap, heap_s));

    let (par_s, par) = once(|| run_parallel(net, tables, &prefix, &cfg));
    if par != seq {
        return Err("run_parallel and run_sequential disagree".to_string());
    }
    let par_rate = events_per_s(&par, par_s);
    m.put("engine.par_events_per_s", par_rate);
    m.put("engine.par_speedup", par_rate / seq_rate);

    let netflow_cfg = cfg.clone().with_netflow();
    let (netflow_s, profiled) = once(|| run_sequential(net, tables, &prefix, &netflow_cfg));
    m.put(
        "engine.netflow_events_per_s",
        events_per_s(&profiled, netflow_s),
    );
    m.put("engine.netflow_records", profiled.netflow.len() as f64);

    // The epoch-sliced executor as `run_online` drives it, without remaps.
    let epochs = IncrementalConfig::default().epochs as u64;
    let epoch_len = (horizon_us(&prefix) / epochs).max(1);
    let (step_s, stepped) = once(|| {
        let mut emu = SteppableEmulation::new(net, tables, &prefix, netflow_cfg.clone());
        for epoch in 1..=epochs {
            emu.run_until(epoch * epoch_len);
            black_box(emu.netflow_epoch_slice());
        }
        emu.run_to_completion();
        emu.finish()
    });
    if stepped.engine_events != seq.engine_events {
        return Err("the epoch-sliced executor counts other events".to_string());
    }
    m.put("engine.step_events_per_s", events_per_s(&stepped, step_s));

    // mapping
    m.put(
        "mapping.map_s",
        span_s("mapping.map").ok_or("no mapping.map span")?,
    );
    m.put(
        "mapping.accumulate_s",
        timed(|| accumulate_predicted_with(net, tables, &inputs.predicted, threaded)).0,
    );
    let records = &profiled.netflow;
    m.put(
        "mapping.profile_aggregate_s",
        timed(|| {
            black_box(aggregate_flows(records));
            black_box(node_time_loads(net, records, study.counter_window_us));
            black_box(measured_traffic_graph(net, tables, records));
        })
        .0,
    );
    match (online_s, staged.migrated_nodes) {
        (Some(s), Some(migrated)) => {
            m.put("mapping.run_online_s", s);
            m.put("mapping.migrated_nodes", migrated as f64);
        }
        _ => {
            let start = Instant::now();
            let outcome = run_online(
                study,
                &prefix,
                &inputs.predicted,
                &IncrementalConfig::default(),
                RebalanceMode::Incremental,
            );
            m.put("mapping.run_online_s", start.elapsed().as_secs_f64());
            m.put("mapping.migrated_nodes", outcome.migrated_nodes as f64);
        }
    }

    // obs
    let (json_s, json) = timed(|| staged.run_report.to_json());
    m.put("obs.report_json_s", json_s);
    m.put("obs.report_bytes", json.len() as f64);
    m.put("obs.report_overhead_s", with_report.wall_s - plain.wall_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_keeps_what_was_sent_by_the_cutoff() {
        let flows = vec![
            FlowSpec::from_bytes(0, 1, 0, 15_000, 12.0), // 10 packets, 1000 µs apart
            FlowSpec::from_bytes(1, 0, 9_500, 1_500, 12.0),
        ];
        assert_eq!(flows[0].packets, 10);
        assert_eq!(flows[0].packet_interval_us, 1_000);
        let cut = truncate_flows(&flows, 4_500);
        assert_eq!(cut.len(), 1);
        assert_eq!(cut[0].packets, 5); // sent at 0, 1000, ..., 4000
        assert_eq!(cut[0].bytes, 7_500);
        assert_eq!(truncate_flows(&flows, 100_000), flows);
        assert!(truncate_flows(&flows, 0).is_empty());
    }

    #[test]
    fn timed_repeats_fast_calls_five_times() {
        let mut calls = 0;
        let (t, out) = timed(|| {
            calls += 1;
            calls
        });
        assert_eq!((calls, out), (5, 5));
        assert!(t >= 0.0);
    }
}
