//! The request passes, MC001–MC012: what the user *asked for* — the
//! network, the partition request, the traffic spec, the flow schedule
//! and the PLACE predictions of a [`LintInput`].
//!
//! Each pass is a plain function from a [`LintInput`] to zero or more
//! diagnostics. Passes never mutate the input and never depend on thread
//! count or wall-clock time, so a report is a pure function of the
//! scenario — the property the byte-deterministic JSON renderer relies on.
//! A pass whose part is absent emits nothing, which is how one catalog
//! serves bare-topology lints and full scenario preflights alike.

use crate::{Code, Diagnostics, LintInput, Location, Severity};
use massf_graph::connectivity::connected_components;
use massf_mapping::profile::MIN_BUCKET_EVENTS;
use massf_mapping::weights::{self, MBPS_SCALE};
use massf_mapping::UBFACTOR;
use massf_topology::{Network, NodeId, NodeKind};
use massf_traffic::spec::TrafficKind;
use std::collections::BTreeSet;

/// Router-router links below this latency (µs) are flagged by `MC003`:
/// if the partitioner cuts such a link, the conservative engines' lookahead
/// collapses to its latency and they synchronize in near-lock-step. The
/// shipped generators keep a 100 µs switching floor, so 50 µs separates
/// real hazards from normal topologies.
pub const LOOKAHEAD_HAZARD_US: u64 = 50;

/// Virtual-time bucket width (µs) of the static phase-detection preview
/// in `MC008`: the emulation's fine-grained counter window.
pub const PROFILE_BUCKET_US: u64 = massf_mapping::COUNTER_WINDOW_US;

/// Flows injecting past this horizon (µs, ~11.6 days of virtual time) are
/// treated as implausible: `MC006` warns and `MC008` skips its bucket
/// preview rather than allocating a bucket per 2 s of a bogus schedule.
pub const MAX_PLAUSIBLE_HORIZON_US: u64 = 1_000_000_000_000;

pub(crate) fn node_loc(net: &Network, id: NodeId) -> Location {
    Location::Node {
        id,
        name: net.node(id).name.clone(),
    }
}

/// MC001 — the network must be one connected component.
pub(crate) fn connectivity(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let net = input.net;
    if net.node_count() == 0 {
        diags.push(
            Code::Mc001,
            Severity::Error,
            Location::Network,
            "network has no nodes; nothing to emulate".into(),
        );
        return;
    }
    let comps = connected_components(&net.to_unit_graph());
    if comps.count > 1 {
        diags.push(
            Code::Mc001,
            Severity::Error,
            Location::Network,
            format!(
                "network has {} connected components (largest holds {} of {} nodes); \
                 one emulation cannot span disconnected islands",
                comps.count,
                comps.largest(),
                net.node_count()
            ),
        );
    }
}

/// MC002 — the partitioner's input graph must satisfy all CSR invariants
/// (`massf-graph`'s `validate`, reported as a finding).
pub(crate) fn csr_invariants(input: &LintInput<'_>, diags: &mut Diagnostics) {
    if input.net.node_count() == 0 {
        return; // MC001 already rejected the empty network.
    }
    if let Err(e) = massf_graph::validate::validate(&weights::latency_graph(input.net)) {
        diags.push(
            Code::Mc002,
            Severity::Error,
            Location::Network,
            format!("partitioner input graph violates CSR invariants: {e}"),
        );
    }
}

/// MC003 — near-zero-latency router-router links are lookahead hazards.
pub(crate) fn lookahead_hazard(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let net = input.net;
    for (i, l) in net.links().iter().enumerate() {
        let both_routers =
            net.node(l.a).kind == NodeKind::Router && net.node(l.b).kind == NodeKind::Router;
        if both_routers && l.latency_us < LOOKAHEAD_HAZARD_US {
            diags.push(
                Code::Mc003,
                Severity::Warn,
                Location::Link {
                    id: i as u32,
                    a: l.a,
                    b: l.b,
                },
                format!(
                    "router-router link with {} µs latency: if the partitioner cuts it, \
                     conservative lookahead collapses to {} µs and the engines \
                     synchronize in near-lock-step (hazard threshold {} µs)",
                    l.latency_us, l.latency_us, LOOKAHEAD_HAZARD_US
                ),
            );
        }
    }
}

/// MC004 — predicted PLACE demand must fit the access-link capacity.
pub(crate) fn oversubscribed_injection(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let net = input.net;
    let n = net.node_count();
    if input.predicted.is_empty() || n == 0 {
        return;
    }
    let mut out = vec![0.0f64; n];
    let mut inbound = vec![0.0f64; n];
    for f in input.predicted {
        if !f.bandwidth_mbps.is_finite() || f.bandwidth_mbps < 0.0 {
            continue; // MC006 reports these.
        }
        if (f.src as usize) < n && (f.dst as usize) < n && f.src != f.dst {
            out[f.src as usize] += f.bandwidth_mbps;
            inbound[f.dst as usize] += f.bandwidth_mbps;
        }
    }
    for id in 0..n {
        let demand = out[id].max(inbound[id]);
        if demand <= 0.0 {
            continue;
        }
        let cap = net.total_bandwidth(id as NodeId);
        if demand > cap * (1.0 + 1e-6) {
            diags.push(
                Code::Mc004,
                Severity::Warn,
                node_loc(net, id as NodeId),
                format!(
                    "predicted demand {demand:.1} Mbps exceeds the node's {cap:.1} Mbps \
                     access capacity; real flows will throttle and the PLACE weights \
                     overstate this node's load"
                ),
            );
        }
    }
}

/// MC005 — every injection point must reach at least one other one.
pub(crate) fn unreachable_injection(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let net = input.net;
    let n = net.node_count();
    let mut points: BTreeSet<NodeId> = BTreeSet::new();
    for (src, dst) in input
        .predicted
        .iter()
        .map(|f| (f.src, f.dst))
        .chain(input.flows.iter().map(|f| (f.src, f.dst)))
    {
        if (src as usize) < n {
            points.insert(src);
        }
        if (dst as usize) < n {
            points.insert(dst);
        }
    }
    if points.len() < 2 {
        return;
    }
    let comps = connected_components(&net.to_unit_graph());
    if comps.count <= 1 {
        return;
    }
    let mut per_comp = vec![0usize; comps.count];
    for &p in &points {
        per_comp[comps.labels[p as usize] as usize] += 1;
    }
    for &p in &points {
        if per_comp[comps.labels[p as usize] as usize] == 1 {
            diags.push(
                Code::Mc005,
                Severity::Error,
                node_loc(net, p),
                "injection point cannot reach any other injection point; \
                 its traffic is undeliverable"
                    .into(),
            );
        }
    }
}

/// MC006 — weights must be finite, non-negative, and safe to quantize.
pub(crate) fn weight_sanity(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let mut total_mbps = 0.0f64;
    for (i, f) in input.predicted.iter().enumerate() {
        if !f.bandwidth_mbps.is_finite() {
            diags.push(
                Code::Mc006,
                Severity::Error,
                Location::Flow(i),
                format!(
                    "predicted flow bandwidth is {}; weights must be finite before \
                     i64 quantization",
                    f.bandwidth_mbps
                ),
            );
        } else if f.bandwidth_mbps < 0.0 {
            diags.push(
                Code::Mc006,
                Severity::Error,
                Location::Flow(i),
                format!(
                    "negative predicted bandwidth {} Mbps would corrupt the \
                     partitioner's vertex weights",
                    f.bandwidth_mbps
                ),
            );
        } else {
            total_mbps += f.bandwidth_mbps;
        }
    }
    for (i, f) in input.flows.iter().enumerate() {
        if f.packets == 0 {
            diags.push(
                Code::Mc006,
                Severity::Error,
                Location::Flow(i),
                "flow schedules zero packets; end-time arithmetic underflows".into(),
            );
            continue;
        }
        if f.packet_interval_us == 0 {
            diags.push(
                Code::Mc006,
                Severity::Error,
                Location::Flow(i),
                "zero inter-packet interval; pacing requires at least 1 µs".into(),
            );
        } else if f.end_us() > MAX_PLAUSIBLE_HORIZON_US {
            diags.push(
                Code::Mc006,
                Severity::Warn,
                Location::Flow(i),
                format!(
                    "flow injects until {} µs, past the {} µs plausibility horizon; \
                     phase profiling is skipped for this schedule",
                    f.end_us(),
                    MAX_PLAUSIBLE_HORIZON_US
                ),
            );
        }
    }
    for (i, l) in input.net.links().iter().enumerate() {
        if !l.bandwidth_mbps.is_finite() {
            diags.push(
                Code::Mc006,
                Severity::Error,
                Location::Link {
                    id: i as u32,
                    a: l.a,
                    b: l.b,
                },
                format!(
                    "link bandwidth is {}; capacities must be finite",
                    l.bandwidth_mbps
                ),
            );
        }
    }
    if total_mbps * MBPS_SCALE > (1u64 << 60) as f64 {
        diags.push(
            Code::Mc006,
            Severity::Warn,
            Location::Network,
            format!(
                "total predicted traffic {total_mbps:.3e} Mbps risks i64 overflow when \
                 quantized at scale {MBPS_SCALE}; accumulated path weights may wrap"
            ),
        );
    }
}

/// MC007 — the partition request must be satisfiable.
pub(crate) fn partition_feasibility(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let Some(engines) = input.engines else {
        return;
    };
    let net = input.net;
    let loc = Location::Field("engines");
    if engines == 0 {
        diags.push(
            Code::Mc007,
            Severity::Error,
            loc,
            "requested zero engines; at least one is required".into(),
        );
        return;
    }
    if net.node_count() == 0 {
        return; // MC001 already rejected the empty network.
    }
    if engines > net.node_count() {
        diags.push(
            Code::Mc007,
            Severity::Error,
            loc,
            format!(
                "{engines} engines for {} nodes: some engines would own nothing",
                net.node_count()
            ),
        );
        return;
    }
    if engines > net.router_count().max(1) {
        diags.push(
            Code::Mc007,
            Severity::Warn,
            loc,
            format!(
                "{engines} engines but only {} routers; engines without a router \
                 carry no forwarding load and the balance objective degenerates",
                net.router_count()
            ),
        );
    }
    if engines > 1 {
        let g = weights::latency_graph(net);
        for inf in massf_partition::quality::infeasible_constraints(&g, engines, UBFACTOR) {
            diags.push(
                Code::Mc007,
                Severity::Warn,
                Location::Field("engines"),
                format!(
                    "balance constraint {}: heaviest vertex weight {} exceeds the \
                     per-engine capacity {:.1} at tolerance {:.2}; no {}-way partition \
                     can meet the balance target",
                    inf.constraint, inf.max_vertex_weight, inf.capacity, UBFACTOR, engines
                ),
            );
        }
    }
}

/// MC008 — PROFILE phase detection needs non-empty, non-zero load buckets.
pub(crate) fn degenerate_phases(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let loc = Location::Field("traffic");
    if input.flows.is_empty() {
        if input.predicted.is_empty() && input.traffic.is_none() {
            diags.push(
                Code::Mc008,
                Severity::Note,
                loc,
                "no traffic information; PROFILE and PLACE degenerate to TOP's \
                 topology-only weights"
                    .into(),
            );
        }
        return;
    }
    let horizon = input
        .flows
        .iter()
        .filter(|f| f.packets > 0)
        .map(|f| f.end_us())
        .max()
        .unwrap_or(0);
    if horizon > MAX_PLAUSIBLE_HORIZON_US {
        return; // MC006 warned; don't allocate buckets for a bogus horizon.
    }
    let loads = weights::flow_node_loads(input.net, input.flows, PROFILE_BUCKET_US);
    let nbuckets = loads.first().map(Vec::len).unwrap_or(0);
    if nbuckets == 0 {
        return;
    }
    let mut totals = vec![0u64; nbuckets];
    for row in &loads {
        for (b, &x) in row.iter().enumerate() {
            totals[b] += x;
        }
    }
    let max = totals.iter().copied().max().unwrap_or(0);
    if max < MIN_BUCKET_EVENTS {
        diags.push(
            Code::Mc008,
            Severity::Warn,
            loc,
            format!(
                "no {} s profiling bucket reaches {} packet events (peak {max}); \
                 PROFILE's phase detection will see a single flat phase and add \
                 no information over PLACE",
                PROFILE_BUCKET_US / 1_000_000,
                MIN_BUCKET_EVENTS
            ),
        );
    }
}

/// MC009 — flow endpoints must be in-range hosts, not routers/self-loops.
pub(crate) fn foreign_endpoints(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let net = input.net;
    let endpoints = input
        .predicted
        .iter()
        .enumerate()
        .map(|(i, f)| (i, f.src, f.dst, "predicted flow"))
        .chain(
            input
                .flows
                .iter()
                .enumerate()
                .map(|(i, f)| (i, f.src, f.dst, "flow")),
        );
    for (i, src, dst, what) in endpoints {
        let n = net.node_count();
        let mut in_range = true;
        for (role, id) in [("src", src), ("dst", dst)] {
            if (id as usize) >= n {
                in_range = false;
                diags.push(
                    Code::Mc009,
                    Severity::Error,
                    Location::Flow(i),
                    format!("{what} {role} node {id} does not exist (network has {n} nodes)"),
                );
            } else if net.node(id).kind == NodeKind::Router {
                diags.push(
                    Code::Mc009,
                    Severity::Warn,
                    Location::Flow(i),
                    format!(
                        "{what} {role} node {id} ({}) is a router; traffic should \
                         originate and terminate at hosts",
                        net.node(id).name
                    ),
                );
            }
        }
        if in_range && src == dst {
            diags.push(
                Code::Mc009,
                Severity::Warn,
                Location::Flow(i),
                format!(
                    "{what} has identical src and dst (node {src}); it generates no network load"
                ),
            );
        }
    }
}

/// MC010 — the background-traffic spec must fit the topology.
pub(crate) fn spec_topology_fit(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let Some(kind) = input.traffic else {
        return;
    };
    let hosts = input.net.host_count();
    let loc = Location::Field("traffic");
    if hosts < kind.min_hosts() {
        diags.push(
            Code::Mc010,
            Severity::Error,
            loc.clone(),
            format!(
                "{} traffic needs at least {} hosts; the topology has {hosts}",
                kind.label(),
                kind.min_hosts()
            ),
        );
    }
    if kind.is_empty() {
        diags.push(
            Code::Mc010,
            Severity::Warn,
            loc.clone(),
            format!("{} spec generates no sessions at all", kind.label()),
        );
    }
    match kind {
        TrafficKind::Http(cfg) => {
            if !(cfg.think_time_s.is_finite() && cfg.think_time_s >= 0.0) {
                diags.push(
                    Code::Mc010,
                    Severity::Error,
                    loc.clone(),
                    format!(
                        "think_time must be finite and non-negative, got {}",
                        cfg.think_time_s
                    ),
                );
            }
            if !(cfg.response_rate_mbps.is_finite() && cfg.response_rate_mbps > 0.0) {
                diags.push(
                    Code::Mc010,
                    Severity::Error,
                    loc.clone(),
                    format!(
                        "response rate must be finite and positive, got {} Mbps",
                        cfg.response_rate_mbps
                    ),
                );
            }
            if cfg.request_size_bytes == 0 {
                diags.push(
                    Code::Mc010,
                    Severity::Warn,
                    loc.clone(),
                    "request_size of 0 bytes: responses carry no payload".into(),
                );
            }
            if hosts >= kind.min_hosts() && cfg.server_count > hosts {
                diags.push(
                    Code::Mc010,
                    Severity::Note,
                    loc,
                    format!(
                        "server_number {} exceeds the host count; servers clamp to {hosts}",
                        cfg.server_count
                    ),
                );
            }
        }
        TrafficKind::Cbr(cfg) => {
            if !(cfg.rate_mbps.is_finite() && cfg.rate_mbps > 0.0) {
                diags.push(
                    Code::Mc010,
                    Severity::Error,
                    loc.clone(),
                    format!(
                        "rate_mbps must be finite and positive, got {}",
                        cfg.rate_mbps
                    ),
                );
            }
            // A config built in code is not held to the spec parser's
            // bound, so the doubling must not overflow.
            let endpoints = cfg.sessions.saturating_mul(2);
            if hosts >= kind.min_hosts() && endpoints > hosts {
                diags.push(
                    Code::Mc010,
                    Severity::Note,
                    loc,
                    format!(
                        "{} sessions want {endpoints} distinct endpoints but the topology has \
                         {hosts} hosts; pairs will share endpoints",
                        cfg.sessions
                    ),
                );
            }
        }
        TrafficKind::OnOff(cfg) => {
            if !(cfg.peak_mbps.is_finite() && cfg.peak_mbps > 0.0) {
                diags.push(
                    Code::Mc010,
                    Severity::Error,
                    loc.clone(),
                    format!(
                        "peak_mbps must be finite and positive, got {}",
                        cfg.peak_mbps
                    ),
                );
            }
            for (name, v) in [
                ("mean_on_ms", cfg.mean_on_us),
                ("mean_off_ms", cfg.mean_off_us),
            ] {
                if !(v.is_finite() && v > 0.0) {
                    diags.push(
                        Code::Mc010,
                        Severity::Error,
                        loc.clone(),
                        format!("{name} must be finite and positive, got {} µs", v),
                    );
                }
            }
        }
    }
}

/// MC011 — parallel links merge in the partitioner graph.
pub(crate) fn parallel_links(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let mut seen = BTreeSet::new();
    for (i, l) in input.net.links().iter().enumerate() {
        let key = (l.a.min(l.b), l.a.max(l.b));
        if !seen.insert(key) {
            diags.push(
                Code::Mc011,
                Severity::Warn,
                Location::Link {
                    id: i as u32,
                    a: l.a,
                    b: l.b,
                },
                format!(
                    "parallel link between nodes {} and {}; the partitioner graph \
                     merges them into one edge and per-link capacity semantics blur",
                    l.a.min(l.b),
                    l.a.max(l.b)
                ),
            );
        }
    }
}

/// MC012 — degree anomalies: isolated nodes and multihomed hosts.
pub(crate) fn degree_anomalies(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let net = input.net;
    for node in net.nodes() {
        let d = net.degree(node.id);
        if d == 0 {
            diags.push(
                Code::Mc012,
                Severity::Error,
                node_loc(net, node.id),
                "node has no links; it can neither send nor receive".into(),
            );
        } else if node.kind == NodeKind::Host && d > 1 {
            diags.push(
                Code::Mc012,
                Severity::Note,
                node_loc(net, node.id),
                format!(
                    "multihomed host ({d} links); TOP/PLACE attribute all access \
                     bandwidth to this single node"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_scenario;
    use massf_metrics::diag::Code as _;
    use massf_traffic::spec::parse_traffic;
    use massf_traffic::{FlowSpec, PredictedFlow};

    fn codes(d: &Diagnostics) -> Vec<(&'static str, &'static str)> {
        d.iter()
            .map(|x| (x.code.as_str(), x.severity.label()))
            .collect()
    }

    fn lint_topology(net: &Network) -> Diagnostics {
        lint_scenario(&LintInput::network(net))
    }

    fn lint_request(net: &Network, engines: usize) -> Diagnostics {
        lint_scenario(&LintInput::network(net).with_engines(engines))
    }

    fn has(d: &Diagnostics, code: &str, sev: Severity) -> bool {
        d.iter()
            .any(|x| x.code.as_str() == code && x.severity == sev)
    }

    /// h0 - r0 - r1 - h1 with sane capacities and latencies.
    fn line_net() -> Network {
        let mut net = Network::new();
        let h0 = net.add_host("h0", 0);
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 1);
        let h1 = net.add_host("h1", 1);
        net.add_link(h0, r0, 100.0, 100);
        net.add_link(r0, r1, 1000.0, 5000);
        net.add_link(r1, h1, 100.0, 100);
        net
    }

    #[test]
    fn disconnected_network_is_mc001_error() {
        let mut net = line_net();
        net.add_host("lonely", 0);
        let d = lint_topology(&net);
        assert!(has(&d, "MC001", Severity::Error), "{:?}", codes(&d));
        // The isolated node is also a degree anomaly.
        assert!(has(&d, "MC012", Severity::Error), "{:?}", codes(&d));
    }

    #[test]
    fn empty_network_is_mc001_error() {
        let d = lint_topology(&Network::new());
        assert!(has(&d, "MC001", Severity::Error));
    }

    #[test]
    fn low_latency_router_link_is_mc003_warn() {
        let mut net = line_net();
        let r2 = net.add_router("r2", 0);
        net.add_link(1, r2, 1000.0, LOOKAHEAD_HAZARD_US - 1);
        let d = lint_topology(&net);
        assert!(has(&d, "MC003", Severity::Warn), "{:?}", codes(&d));
        // Host access links at the same latency are fine (never cut hazards
        // in the same way; hosts follow their router).
        let clean = line_net(); // host links at 100 µs, core at 5000 µs
        assert!(!has(&lint_topology(&clean), "MC003", Severity::Warn));
    }

    #[test]
    fn oversubscribed_injection_is_mc004_warn() {
        let net = line_net();
        let demand = vec![PredictedFlow {
            src: 0,
            dst: 3,
            bandwidth_mbps: 250.0, // access link is 100 Mbps
        }];
        let input = LintInput {
            predicted: &demand,
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        assert!(has(&d, "MC004", Severity::Warn), "{:?}", codes(&d));
        // At exactly the access capacity there is no warning: PLACE's own
        // prediction saturates links by design.
        let exact = vec![PredictedFlow {
            src: 0,
            dst: 3,
            bandwidth_mbps: 100.0,
        }];
        let input = LintInput {
            predicted: &exact,
            ..LintInput::network(&net)
        };
        assert!(!has(&lint_scenario(&input), "MC004", Severity::Warn));
    }

    #[test]
    fn cross_component_injection_is_mc005_error() {
        let mut net = line_net();
        let r2 = net.add_router("r2", 2);
        let h2 = net.add_host("h2", 2);
        net.add_link(r2, h2, 100.0, 100);
        let flows = vec![FlowSpec::from_bytes(0, h2, 0, 3000, 10.0)];
        let input = LintInput {
            flows: &flows,
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        // Both endpoints are the sole injection point of their component.
        assert_eq!(
            d.iter()
                .filter(|x| x.code == Code::Mc005 && x.severity == Severity::Error)
                .count(),
            2,
            "{:?}",
            codes(&d)
        );
    }

    #[test]
    fn weight_sanity_catches_nan_and_zero_packets() {
        let net = line_net();
        let predicted = vec![
            PredictedFlow {
                src: 0,
                dst: 3,
                bandwidth_mbps: f64::NAN,
            },
            PredictedFlow {
                src: 3,
                dst: 0,
                bandwidth_mbps: -2.0,
            },
        ];
        let flows = vec![FlowSpec {
            src: 0,
            dst: 3,
            start_us: 0,
            packets: 0,
            bytes: 0,
            packet_interval_us: 1,
            window: None,
        }];
        let input = LintInput {
            predicted: &predicted,
            flows: &flows,
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        assert_eq!(
            d.iter()
                .filter(|x| x.code == Code::Mc006 && x.severity == Severity::Error)
                .count(),
            3,
            "{:?}",
            codes(&d)
        );
    }

    #[test]
    fn implausible_horizon_is_mc006_warn_and_skips_mc008() {
        let net = line_net();
        let flows = vec![FlowSpec {
            src: 0,
            dst: 3,
            start_us: MAX_PLAUSIBLE_HORIZON_US,
            packets: 2,
            bytes: 3000,
            packet_interval_us: 1000,
            window: None,
        }];
        let input = LintInput {
            flows: &flows,
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        assert!(has(&d, "MC006", Severity::Warn), "{:?}", codes(&d));
        assert!(!has(&d, "MC008", Severity::Warn));
    }

    #[test]
    fn infeasible_engine_counts_are_mc007() {
        let net = line_net();
        assert!(has(&lint_request(&net, 0), "MC007", Severity::Error));
        assert!(has(&lint_request(&net, 9), "MC007", Severity::Error));
        // 3 engines for 2 routers: legal but degenerate.
        assert!(has(&lint_request(&net, 3), "MC007", Severity::Warn));
        assert!(!lint_request(&net, 2).has_errors());
    }

    #[test]
    fn dominant_vertex_makes_balance_infeasible() {
        // A star: the hub holds ~half the total incident bandwidth, which
        // no 3-way split can balance within 1.25 (cap ≈ 0.42 · total).
        let mut net = Network::new();
        let hub = net.add_router("hub", 0);
        for i in 0..4 {
            let r = net.add_router(format!("r{i}"), 0);
            net.add_link(hub, r, 10_000.0, 1000);
            let h = net.add_host(format!("h{i}"), 0);
            net.add_link(r, h, 10.0, 100);
        }
        let d = lint_request(&net, 3);
        assert!(
            d.iter().any(|x| x.code == Code::Mc007
                && x.severity == Severity::Warn
                && x.message.contains("balance constraint")),
            "{:?}",
            codes(&d)
        );
    }

    #[test]
    fn sparse_schedule_is_mc008_warn() {
        let net = line_net();
        let flows = vec![FlowSpec::from_bytes(0, 3, 0, 3000, 10.0)]; // 2 packets
        let input = LintInput {
            flows: &flows,
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        assert!(has(&d, "MC008", Severity::Warn), "{:?}", codes(&d));
        // A dense schedule produces no warning.
        let busy = vec![FlowSpec::from_bytes(0, 3, 0, 150_000, 10.0)]; // 100 packets
        let input = LintInput {
            flows: &busy,
            ..LintInput::network(&net)
        };
        assert!(!has(&lint_scenario(&input), "MC008", Severity::Warn));
    }

    #[test]
    fn no_traffic_at_all_is_mc008_note() {
        let d = lint_topology(&line_net());
        assert!(has(&d, "MC008", Severity::Note));
    }

    #[test]
    fn foreign_endpoints_are_mc009() {
        let net = line_net();
        let flows = vec![
            FlowSpec::from_bytes(0, 99, 0, 3000, 10.0), // out of range: Error
            FlowSpec::from_bytes(0, 1, 0, 3000, 10.0),  // router dst: Warn
            FlowSpec::from_bytes(3, 3, 0, 3000, 10.0),  // self-loop: Warn
        ];
        let input = LintInput {
            flows: &flows,
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        assert!(has(&d, "MC009", Severity::Error), "{:?}", codes(&d));
        assert_eq!(
            d.iter()
                .filter(|x| x.code == Code::Mc009 && x.severity == Severity::Warn)
                .count(),
            2,
            "{:?}",
            codes(&d)
        );
    }

    #[test]
    fn spec_fit_needs_two_hosts() {
        let mut net = Network::new();
        let r = net.add_router("r", 0);
        let h = net.add_host("h", 0);
        net.add_link(r, h, 100.0, 100);
        let kind = parse_traffic("traffic { name CBR }").unwrap();
        let input = LintInput {
            traffic: Some(&kind),
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        assert!(has(&d, "MC010", Severity::Error), "{:?}", codes(&d));
    }

    #[test]
    fn empty_spec_is_mc010_warn() {
        let net = line_net();
        let kind = parse_traffic("traffic { name ONOFF\n sessions 0 }").unwrap();
        let input = LintInput {
            traffic: Some(&kind),
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        assert!(has(&d, "MC010", Severity::Warn), "{:?}", codes(&d));
    }

    #[test]
    fn overlapping_cbr_pairs_are_mc010_note() {
        let net = line_net(); // 2 hosts
        let kind = parse_traffic("traffic { name CBR\n sessions 5 }").unwrap();
        let input = LintInput {
            traffic: Some(&kind),
            ..LintInput::network(&net)
        };
        let d = lint_scenario(&input);
        assert!(has(&d, "MC010", Severity::Note), "{:?}", codes(&d));
        assert!(!d.has_errors());

        // The doubling saturates for a config no spec file can express.
        let huge = TrafficKind::Cbr(massf_traffic::cbr::CbrConfig {
            sessions: usize::MAX,
            ..Default::default()
        });
        let input = LintInput {
            traffic: Some(&huge),
            ..LintInput::network(&net)
        };
        assert!(has(&lint_scenario(&input), "MC010", Severity::Note));
    }

    #[test]
    fn parallel_links_are_mc011_warn() {
        let mut net = line_net();
        net.add_link(1, 2, 500.0, 4000); // duplicates the r0-r1 link
        let d = lint_topology(&net);
        assert!(has(&d, "MC011", Severity::Warn), "{:?}", codes(&d));
    }

    #[test]
    fn multihomed_host_is_mc012_note() {
        let mut net = line_net();
        net.add_link(0, 2, 100.0, 100); // h0 gains a second access link
        let d = lint_topology(&net);
        assert!(has(&d, "MC012", Severity::Note), "{:?}", codes(&d));
        assert!(!d.has_errors());
    }
}
