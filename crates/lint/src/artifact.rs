//! The artifact passes, MC013–MC020: what the pipeline *produced* —
//! concrete partitionings, built routing tables, recorded trace files and
//! measured loads. These are the properties the paper's quality story
//! rests on: cut latency is the conservative-PDES lookahead, part balance
//! is the load balance, and a recorded trace is only replayable if it is
//! internally consistent.
//!
//! The passes read the artifact parts of a [`LintInput`] and run through
//! [`crate::lint_artifacts`]. MC019/MC020 are the load-drift passes
//! (PLACE-predicted vs. NetFlow-measured per-engine load, and measured
//! load across epochs) that trigger the incremental rebalancer
//! (DESIGN.md §15). A trace file is no part of a `LintInput`:
//! [`lint_trace`] runs MC016 over a parse result, for callers with no
//! network in hand too.
//!
//! The CLI folds these reports into the request preflight with
//! [`crate::Diagnostics::merge`]; `partition`/`run`/`record`/`replay`
//! refuse past any Error, exactly like the preflight contract.

use crate::passes::{node_loc, LOOKAHEAD_HAZARD_US};
use crate::{Code, Diagnostics, LintInput, Location, Severity};
use massf_mapping::{weights, UBFACTOR};
use massf_partition::quality;
use massf_routing::probes;
use massf_traffic::tracefile::{Trace, TraceError};

/// Runs MC016 over a trace parse result: the one pass whose input is not a
/// [`LintInput`], so a trace checks with or without its network.
pub fn lint_trace(parsed: &Result<Trace, TraceError>) -> Diagnostics {
    let mut diags = Diagnostics::default();
    trace_checks(parsed, &mut diags);
    diags.passes_run = 1;
    diags.finish();
    diags
}

/// MC013 — partition-shape audit of a concrete partitioning: coverage,
/// label range, empty/singleton parts, per-part contiguity, and the
/// cut-latency floor that becomes the conservative lookahead.
pub(crate) fn partition_shape(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let Some(p) = input.partition else {
        return;
    };
    let net = input.net;
    if p.part.len() != net.node_count() || p.nparts == 0 {
        diags.push(
            Code::Mc013,
            Severity::Error,
            Location::Network,
            format!(
                "partitioning labels {} vertices into {} parts but the network has {} nodes; \
                 the artifact does not belong to this topology",
                p.part.len(),
                p.nparts,
                net.node_count()
            ),
        );
        return;
    }
    if let Some((v, &label)) = p
        .part
        .iter()
        .enumerate()
        .find(|(_, &label)| label as usize >= p.nparts)
    {
        diags.push(
            Code::Mc013,
            Severity::Error,
            node_loc(net, v as massf_topology::NodeId),
            format!(
                "part label {label} is out of range for a {}-way partitioning",
                p.nparts
            ),
        );
        return;
    }
    let mut sizes = vec![0usize; p.nparts];
    for &label in &p.part {
        sizes[label as usize] += 1;
    }
    let g = net.to_unit_graph();
    let components = quality::part_component_counts(&g, &p.part, p.nparts);
    for part in 0..p.nparts {
        if sizes[part] == 0 {
            diags.push(
                Code::Mc013,
                Severity::Error,
                Location::Part(part),
                format!("engine {part} owns no nodes; the partition wastes an engine"),
            );
        } else if sizes[part] == 1 {
            diags.push(
                Code::Mc013,
                Severity::Note,
                Location::Part(part),
                format!(
                    "engine {part} owns a single node; per-engine overhead dominates its useful work"
                ),
            );
        }
        if components[part] > 1 {
            // Note, not Warn: k-way partitioners (METIS included) do not
            // guarantee contiguity, and TOP fragments on the shipped
            // Campus/TeraGrid topologies. It costs cut latency but is an
            // expected partitioner property, not a pipeline defect.
            diags.push(
                Code::Mc013,
                Severity::Note,
                Location::Part(part),
                format!(
                    "engine {part}'s region splits into {} disconnected fragments; traffic \
                     between its own fragments crosses other engines and pays cut latency",
                    components[part]
                ),
            );
        }
    }
    // Cut-latency floor: the minimum-latency cut link bounds the sync
    // window for the whole run (the aggregate consequence of MC003).
    let mut floor: Option<(usize, u64)> = None;
    for (i, l) in net.links().iter().enumerate() {
        if p.part[l.a as usize] != p.part[l.b as usize]
            && floor.is_none_or(|(_, best)| l.latency_us < best)
        {
            floor = Some((i, l.latency_us));
        }
    }
    if let Some((i, latency)) = floor {
        if latency < LOOKAHEAD_HAZARD_US {
            let l = &net.links()[i];
            diags.push(
                Code::Mc013,
                Severity::Warn,
                Location::Link {
                    id: i as u32,
                    a: l.a,
                    b: l.b,
                },
                format!(
                    "the partition's cut-latency floor is {latency} µs (below {LOOKAHEAD_HAZARD_US} µs): \
                     this link caps the conservative sync window for every engine"
                ),
            );
        }
    }
}

/// MC014 — A→B vs. B→A shortest-path latency divergence. Links are
/// bidirectional with one latency, so intact tables are symmetric by
/// construction; any disagreement means corrupted tables and an unsound
/// lookahead bound.
pub(crate) fn routing_asymmetry(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let Some(probes::Findings {
        asymmetric: (pairs, total),
        ..
    }) = input.routing_probes()
    else {
        return;
    };
    let fmt_us = |us: u64| {
        if us == u64::MAX {
            "unreachable".to_string()
        } else {
            format!("{us} µs")
        }
    };
    for pair in pairs {
        diags.push(
            Code::Mc014,
            Severity::Error,
            Location::Route {
                src: pair.a,
                dst: pair.b,
            },
            format!(
                "shortest-path latency {} forward but {} back; symmetric links cannot \
                 produce asymmetric routes",
                fmt_us(pair.ab_us),
                fmt_us(pair.ba_us)
            ),
        );
    }
    if *total > pairs.len() {
        diags.push(
            Code::Mc014,
            Severity::Error,
            Location::Network,
            format!(
                "{total} node pairs route asymmetrically in total; first {} shown",
                pairs.len()
            ),
        );
    }
}

/// MC015 — equal-cost multi-path ambiguity: routes whose first hop is
/// chosen by the deterministic tie-break, not by cost. Renumbering the
/// topology re-routes this traffic, shifting link load between engines.
pub(crate) fn ecmp_ambiguity(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let Some(probes::Findings {
        ecmp: (sites, total),
        ..
    }) = input.routing_probes()
    else {
        return;
    };
    for site in sites {
        let hops: Vec<String> = site.next_hops.iter().map(|h| h.to_string()).collect();
        diags.push(
            Code::Mc015,
            Severity::Note,
            Location::Route {
                src: site.src,
                dst: site.dst,
            },
            format!(
                "{} equal-cost first hops (nodes {}); the chosen route is a node-id tie-break",
                site.next_hops.len(),
                hops.join(", ")
            ),
        );
    }
    if *total > sites.len() {
        diags.push(
            Code::Mc015,
            Severity::Note,
            Location::Network,
            format!(
                "{total} routes have equal-cost alternatives in total; first {} shown",
                sites.len()
            ),
        );
    }
}

/// MC016 — trace-file lint: parse/version failures, empty schedules,
/// non-monotonic timestamps, and flows outside the declared duration.
fn trace_checks(parsed: &Result<Trace, TraceError>, diags: &mut Diagnostics) {
    let loc = Location::Field("trace");
    let trace = match parsed {
        Err(e) => {
            diags.push(
                Code::Mc016,
                Severity::Error,
                loc,
                format!("trace rejected: {e}"),
            );
            return;
        }
        Ok(t) => t,
    };
    if trace.flows.is_empty() {
        diags.push(
            Code::Mc016,
            Severity::Error,
            loc,
            "trace contains no flows".into(),
        );
        return;
    }
    // Recorded traces are written in schedule order; report the first
    // regression only — one out-of-order splice produces one finding, not
    // one per subsequent flow.
    if let Some(i) =
        (1..trace.flows.len()).find(|&i| trace.flows[i].start_us < trace.flows[i - 1].start_us)
    {
        diags.push(
            Code::Mc016,
            Severity::Note,
            Location::Flow(i),
            format!(
                "flow starts at {} µs, before the preceding flow's {} µs; recorded traces \
                 are time-ordered",
                trace.flows[i].start_us,
                trace.flows[i - 1].start_us
            ),
        );
    }
    if let Some(duration) = trace.declared_duration_us {
        let mut tail_overrun: Option<u64> = None;
        for (i, f) in trace.flows.iter().enumerate() {
            if f.start_us >= duration {
                diags.push(
                    Code::Mc016,
                    Severity::Warn,
                    Location::Flow(i),
                    format!(
                        "flow starts at {} µs, at or past the declared duration {duration} µs; \
                         it can never run",
                        f.start_us
                    ),
                );
            } else {
                let end = f.start_us.saturating_add(
                    f.packets
                        .saturating_sub(1)
                        .saturating_mul(f.packet_interval_us),
                );
                if end > duration {
                    tail_overrun = Some(tail_overrun.map_or(end, |m| m.max(end)));
                }
            }
        }
        if let Some(horizon) = tail_overrun {
            diags.push(
                Code::Mc016,
                Severity::Note,
                loc,
                format!(
                    "schedule horizon {horizon} µs exceeds the declared duration {duration} µs; \
                     the emulation truncates the tail"
                ),
            );
        }
    }
}

/// The target shares a capacity vector normalizes to (`c / Σc`), or `None`
/// unless every entry and every share is positive and finite. Entries near
/// the ends of the `f64` range pass an entry-by-entry check and still
/// overflow the sum or underflow a share; the partitioner asserts on both,
/// so a caller maps with the vector only when this answers `Some`.
pub fn capacity_shares(caps: &[f64]) -> Option<Vec<f64>> {
    let usable = |x: &f64| x.is_finite() && *x > 0.0;
    let total: f64 = caps.iter().sum();
    let shares: Vec<f64> = caps.iter().map(|c| c / total).collect();
    (caps.iter().all(usable) && shares.iter().all(usable)).then_some(shares)
}

/// MC017 — heterogeneous engine-capacity feasibility: MC007 generalized
/// to per-engine capacity vectors (`PartitionConfig::with_capacities`).
pub(crate) fn capacity_feasibility(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let Some(caps) = input.engine_capacities else {
        return;
    };
    let loc = Location::Field("capacities");
    if let Some(engines) = input.engines {
        if caps.len() != engines {
            diags.push(
                Code::Mc017,
                Severity::Error,
                loc.clone(),
                format!(
                    "capacity vector has {} entries but {engines} engines are requested",
                    caps.len()
                ),
            );
            return;
        }
    }
    let mut invalid = false;
    for (i, &c) in caps.iter().enumerate() {
        if !c.is_finite() || c <= 0.0 {
            invalid = true;
            diags.push(
                Code::Mc017,
                Severity::Error,
                loc.clone(),
                format!("capacity entry {i} is {c}; entries must be positive and finite"),
            );
        }
    }
    if invalid || caps.is_empty() {
        return;
    }
    let Some(fractions) = capacity_shares(caps) else {
        diags.push(
            Code::Mc017,
            Severity::Error,
            loc,
            format!(
                "capacity entries sum to {:e}, which leaves some engine a share that is not \
                 positive and finite; entries must be within the f64 range of each other",
                caps.iter().sum::<f64>()
            ),
        );
        return;
    };
    if input.net.node_count() == 0 {
        return;
    }
    let g = weights::latency_graph(input.net);
    for inf in quality::infeasible_target_constraints(&g, &fractions, UBFACTOR) {
        diags.push(
            Code::Mc017,
            Severity::Warn,
            loc.clone(),
            format!(
                "balance constraint {}: heaviest vertex weight {} exceeds the largest \
                 target capacity {:.1} at tolerance {:.2}; no partition over this \
                 capacity vector can meet the balance target",
                inf.constraint, inf.max_vertex_weight, inf.capacity, UBFACTOR
            ),
        );
    }
}

/// MC018 — cross-AS aggregate lookahead: an AS whose every escape link is
/// below the lookahead-hazard threshold. MC003 flags individual fast
/// links; this is the aggregate form — any partition that puts such an AS
/// on its own engine gets a sync window capped by its fastest escape.
pub(crate) fn cross_as_lookahead(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let net = input.net;
    // max boundary-link latency per AS; absent key = no boundary links.
    let mut escape: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for l in net.links() {
        let (asa, asb) = (net.node(l.a).as_id, net.node(l.b).as_id);
        if asa != asb {
            for as_id in [asa, asb] {
                let e = escape.entry(as_id).or_insert(0);
                *e = (*e).max(l.latency_us);
            }
        }
    }
    for (as_id, max_latency) in escape {
        if max_latency < LOOKAHEAD_HAZARD_US {
            diags.push(
                Code::Mc018,
                Severity::Warn,
                Location::Network,
                format!(
                    "AS {as_id} reaches the rest of the network only through links under \
                     {LOOKAHEAD_HAZARD_US} µs (slowest escape {max_latency} µs); a partition \
                     isolating it collapses the sync window"
                ),
            );
        }
    }
}

/// Drift above this total-variation distance is worth a warning: a
/// quarter of the load sits on different engines than expected, the
/// regime where the paper measures 2–3× imbalance.
pub const DRIFT_WARN: f64 = 0.25;

/// Drift above this is a note — visible movement, not yet pathological.
/// Matches the incremental rebalancer's quiet-epoch threshold scale
/// (DESIGN.md §15).
pub const DRIFT_NOTE: f64 = 0.10;

fn drift_severity(drift: f64) -> Option<Severity> {
    if drift > DRIFT_WARN {
        Some(Severity::Warn)
    } else if drift > DRIFT_NOTE {
        Some(Severity::Note)
    } else {
        None
    }
}

/// MC019 — PLACE-predicted vs. NetFlow-measured per-engine load drift.
/// Large drift means the placement prediction mis-modeled the traffic:
/// the partition was optimized for loads that never materialized, and a
/// PROFILE (or online) remap is due.
pub(crate) fn predicted_load_drift(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let (Some(predicted), Some(epochs)) = (input.predicted_engine_loads, input.epoch_engine_loads)
    else {
        return;
    };
    let Some(first) = epochs.first() else {
        return;
    };
    if predicted.len() != first.len() {
        diags.push(
            Code::Mc019,
            Severity::Error,
            Location::Field("predicted_loads"),
            format!(
                "prediction covers {} engines but {} were measured; the artifacts \
                 do not belong to the same run",
                predicted.len(),
                first.len()
            ),
        );
        return;
    }
    // Whole-run measured load: the element-wise sum over epochs.
    let mut measured = vec![0.0f64; first.len()];
    for epoch in epochs {
        for (m, &l) in measured.iter_mut().zip(epoch) {
            *m += l as f64;
        }
    }
    if predicted.iter().sum::<f64>() <= 0.0 || measured.iter().sum::<f64>() <= 0.0 {
        return; // no prediction or an idle run: nothing to compare
    }
    let drift = massf_metrics::load_drift(predicted, &measured);
    if let Some(severity) = drift_severity(drift) {
        diags.push(
            Code::Mc019,
            severity,
            Location::Field("predicted_loads"),
            format!(
                "measured per-engine load drifted {:.0} % from the PLACE prediction \
                 (total-variation {drift:.3}); the partition was balanced for traffic \
                 that did not materialize",
                drift * 100.0
            ),
        );
    }
}

/// MC020 — measured per-engine load drift across epochs. Consecutive
/// epochs whose load shares move sharply mean no static partition fits
/// the whole run — the §6 regime where "dynamic remapping … is the only
/// solution", and the trigger condition of the incremental rebalancer.
pub(crate) fn measured_load_drift(input: &LintInput<'_>, diags: &mut Diagnostics) {
    let Some(epochs) = input.epoch_engine_loads else {
        return;
    };
    for (i, pair) in epochs.windows(2).enumerate() {
        if pair[0].len() != pair[1].len() {
            diags.push(
                Code::Mc020,
                Severity::Error,
                Location::Field("epoch_loads"),
                format!(
                    "epoch {} measured {} engines but epoch {} measured {}; epoch \
                     vectors must agree",
                    i + 1,
                    pair[0].len(),
                    i + 2,
                    pair[1].len()
                ),
            );
            return;
        }
        let drift = massf_metrics::load_drift_u64(&pair[0], &pair[1]);
        if let Some(severity) = drift_severity(drift) {
            diags.push(
                Code::Mc020,
                severity,
                Location::Field("epoch_loads"),
                format!(
                    "{:.0} % of the measured load changed engines between epoch {} and \
                     epoch {} (total-variation {drift:.3}); traffic this dynamic wants \
                     online rebalancing (`--rebalance incremental`)",
                    drift * 100.0,
                    i + 1,
                    i + 2
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_artifacts;
    use massf_partition::Partitioning;
    use massf_routing::RoutingTables;
    use massf_topology::Network;
    use massf_traffic::tracefile;
    use massf_traffic::FlowSpec;

    /// h0-r0-r1-h1 line, 5 ms backbone.
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

    fn flow(src: u32, dst: u32, start_us: u64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            start_us,
            packets: 10,
            bytes: 15_000,
            packet_interval_us: 100,
            window: None,
        }
    }

    #[test]
    fn clean_partition_audits_clean() {
        let net = line_net();
        let p = Partitioning {
            part: vec![0, 0, 1, 1],
            nparts: 2,
        };
        let input = LintInput::network(&net).with_partition(&p);
        let d = lint_artifacts(&input);
        assert!(d.iter().next().is_none(), "{d:?}");
        assert_eq!(d.passes_run, 8);
    }

    #[test]
    fn empty_part_is_an_error_and_singleton_a_note() {
        let net = line_net();
        let p = Partitioning {
            part: vec![0, 0, 0, 1],
            nparts: 3,
        };
        let d = lint_artifacts(&LintInput::network(&net).with_partition(&p));
        assert!(d.has_errors());
        assert!(d.iter().any(|x| x.code == Code::Mc013
            && x.severity == Severity::Error
            && x.location == Location::Part(2)));
        assert!(d.iter().any(|x| x.code == Code::Mc013
            && x.severity == Severity::Note
            && x.location == Location::Part(1)));
    }

    #[test]
    fn fragmented_part_is_a_note() {
        let net = line_net();
        // Part 0 owns both ends of the line but not the middle.
        let p = Partitioning {
            part: vec![0, 1, 1, 0],
            nparts: 2,
        };
        let d = lint_artifacts(&LintInput::network(&net).with_partition(&p));
        assert!(!d.has_errors(), "{d:?}");
        assert!(d.iter().any(|x| x.code == Code::Mc013
            && x.severity == Severity::Note
            && x.message.contains("2 disconnected fragments")));
    }

    #[test]
    fn low_latency_cut_floor_is_a_warning() {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 0);
        let h0 = net.add_host("h0", 0);
        let h1 = net.add_host("h1", 0);
        net.add_link(r0, r1, 1000.0, LOOKAHEAD_HAZARD_US - 10);
        net.add_link(h0, r0, 100.0, 100);
        net.add_link(h1, r1, 100.0, 100);
        let p = Partitioning {
            part: vec![0, 1, 0, 1],
            nparts: 2,
        };
        let d = lint_artifacts(&LintInput::network(&net).with_partition(&p));
        assert!(d.iter().any(|x| x.code == Code::Mc013
            && x.severity == Severity::Warn
            && x.message.contains("cut-latency floor")));
    }

    #[test]
    fn foreign_partition_is_an_error() {
        let net = line_net();
        let p = Partitioning {
            part: vec![0, 1],
            nparts: 2,
        };
        let d = lint_artifacts(&LintInput::network(&net).with_partition(&p));
        assert!(d.has_errors());
        assert!(d
            .iter()
            .any(|x| x.code == Code::Mc013 && x.message.contains("does not belong")));
    }

    #[test]
    fn intact_routing_tables_audit_clean_of_asymmetry() {
        let net = line_net();
        let tables = RoutingTables::build(&net);
        let d = lint_artifacts(&LintInput::network(&net).with_tables(&tables));
        assert!(!d.iter().any(|x| x.code == Code::Mc014), "{d:?}");
    }

    #[test]
    fn ecmp_square_is_noted() {
        let mut net = Network::new();
        let r: Vec<_> = (0..4).map(|i| net.add_router(format!("r{i}"), 0)).collect();
        net.add_link(r[0], r[1], 1000.0, 100);
        net.add_link(r[1], r[2], 1000.0, 100);
        net.add_link(r[2], r[3], 1000.0, 100);
        net.add_link(r[3], r[0], 1000.0, 100);
        let tables = RoutingTables::build(&net);
        let d = lint_artifacts(&LintInput::network(&net).with_tables(&tables));
        assert!(!d.has_errors(), "{d:?}");
        let notes: Vec<_> = d.iter().filter(|x| x.code == Code::Mc015).collect();
        assert_eq!(notes.len(), 4, "{notes:?}");
        assert!(notes[0].message.contains("equal-cost first hops"));
    }

    #[test]
    fn trace_parse_failure_and_empty_trace_are_errors() {
        let bad = tracefile::parse_trace("not a trace\n");
        let d = lint_trace(&bad);
        assert!(d.has_errors());
        assert!(d
            .iter()
            .any(|x| x.code == Code::Mc016 && x.message.contains("trace rejected")));

        let empty = tracefile::parse_trace(&tracefile::write(&[]));
        let d = lint_trace(&empty);
        assert!(d.has_errors());
        assert!(d
            .iter()
            .any(|x| x.message.contains("trace contains no flows")));
        assert_eq!(d.passes_run, 1);
    }

    #[test]
    fn non_monotonic_trace_is_noted_once() {
        let flows = vec![flow(0, 3, 500), flow(3, 0, 100), flow(0, 3, 50)];
        let parsed = tracefile::parse_trace(&tracefile::write(&flows));
        let d = lint_trace(&parsed);
        assert!(!d.has_errors());
        let notes: Vec<_> = d.iter().filter(|x| x.code == Code::Mc016).collect();
        assert_eq!(notes.len(), 1, "first regression only: {notes:?}");
        assert_eq!(notes[0].location, Location::Flow(1));
    }

    #[test]
    fn flows_past_declared_duration_warn_and_tail_overrun_notes() {
        let flows = vec![flow(0, 3, 100), flow(3, 0, 950), flow(0, 3, 2_000)];
        // flow 1 ends at 950 + 9*100 = 1850 > 1000; flow 2 never starts.
        let text = tracefile::write_with_duration(&flows, Some(1_000));
        let parsed = tracefile::parse_trace(&text);
        let d = lint_trace(&parsed);
        assert!(!d.has_errors());
        assert!(d.iter().any(|x| x.severity == Severity::Warn
            && x.location == Location::Flow(2)
            && x.message.contains("can never run")));
        assert!(d.iter().any(
            |x| x.severity == Severity::Note && x.message.contains("schedule horizon 1850 µs")
        ));
    }

    #[test]
    fn capacity_vector_validity() {
        let net = line_net();
        let bad = [1.0, -2.0, f64::NAN];
        let d = lint_artifacts(
            &LintInput::network(&net)
                .with_engines(3)
                .with_capacities(&bad),
        );
        let errors: Vec<_> = d.iter().filter(|x| x.code == Code::Mc017).collect();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors.iter().all(|x| x.severity == Severity::Error));

        let mismatched = [1.0, 1.0];
        let d = lint_artifacts(
            &LintInput::network(&net)
                .with_engines(3)
                .with_capacities(&mismatched),
        );
        assert!(d
            .iter()
            .any(|x| x.code == Code::Mc017 && x.message.contains("3 engines are requested")));

        // Every entry is positive and finite; the shares are not: the sum
        // overflows to infinity, or one share underflows to zero.
        for extreme in [[1e308, 1e308, 1e308], [1e308, 1e-308, 1.0]] {
            assert_eq!(capacity_shares(&extreme), None);
            let d = lint_artifacts(
                &LintInput::network(&net)
                    .with_engines(3)
                    .with_capacities(&extreme),
            );
            let errors: Vec<_> = d.iter().filter(|x| x.code == Code::Mc017).collect();
            assert_eq!(errors.len(), 1, "{extreme:?}: {errors:?}");
            assert_eq!(errors[0].severity, Severity::Error);
            assert!(errors[0].message.contains("share"), "{errors:?}");
        }
        assert_eq!(capacity_shares(&[1.0, 3.0]), Some(vec![0.25, 0.75]));
    }

    #[test]
    fn infeasible_capacity_vector_warns_feasible_passes() {
        // One host with overwhelming bandwidth dominates the vertex
        // weights; tiny target fractions cannot absorb it.
        let mut net = Network::new();
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 0);
        let big = net.add_host("big", 0);
        let h1 = net.add_host("h1", 0);
        net.add_link(r0, r1, 10.0, 5000);
        net.add_link(big, r0, 100_000.0, 100);
        net.add_link(h1, r1, 10.0, 100);
        let skewed = [1.0, 1.0, 1.0, 1.0];
        let d = lint_artifacts(
            &LintInput::network(&net)
                .with_engines(4)
                .with_capacities(&skewed),
        );
        assert!(d.iter().any(|x| x.code == Code::Mc017
            && x.severity == Severity::Warn
            && x.message.contains("balance constraint")));

        // A vector with one big target part is feasible for the same net.
        let generous = [0.97, 0.01, 0.01, 0.01];
        let d = lint_artifacts(
            &LintInput::network(&net)
                .with_engines(4)
                .with_capacities(&generous),
        );
        assert!(!d.iter().any(|x| x.code == Code::Mc017), "{d:?}");
    }

    #[test]
    fn predicted_load_drift_severity_scales() {
        let net = line_net();
        let predicted = [100.0, 100.0, 100.0];
        // Measured matches the prediction: clean.
        let matching = vec![vec![50u64, 50, 50], vec![50, 50, 50]];
        let d = lint_artifacts(
            &LintInput::network(&net)
                .with_predicted_loads(&predicted)
                .with_epoch_loads(&matching),
        );
        assert!(!d.iter().any(|x| x.code == Code::Mc019), "{d:?}");
        assert_eq!(d.passes_run, 8);

        // All measured load on one engine: shares (1,0,0) vs (⅓,⅓,⅓)
        // drift by ⅔ > DRIFT_WARN.
        let skewed = vec![vec![300u64, 0, 0]];
        let d = lint_artifacts(
            &LintInput::network(&net)
                .with_predicted_loads(&predicted)
                .with_epoch_loads(&skewed),
        );
        assert!(d.iter().any(|x| x.code == Code::Mc019
            && x.severity == Severity::Warn
            && x.message.contains("did not materialize")));
    }

    #[test]
    fn predicted_load_drift_length_mismatch_is_an_error() {
        let net = line_net();
        let predicted = [100.0, 100.0];
        let epochs = vec![vec![10u64, 10, 10]];
        let d = lint_artifacts(
            &LintInput::network(&net)
                .with_predicted_loads(&predicted)
                .with_epoch_loads(&epochs),
        );
        assert!(d
            .iter()
            .any(|x| x.code == Code::Mc019 && x.severity == Severity::Error));
    }

    #[test]
    fn measured_load_drift_flags_the_shifting_boundary() {
        let net = line_net();
        // Stable, stable, then the hotspot jumps engines.
        let epochs = vec![
            vec![100u64, 100, 100],
            vec![110u64, 100, 95],
            vec![10u64, 400, 10],
        ];
        let d = lint_artifacts(&LintInput::network(&net).with_epoch_loads(&epochs));
        let findings: Vec<_> = d.iter().filter(|x| x.code == Code::Mc020).collect();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Warn);
        assert!(findings[0].message.contains("between epoch 2 and epoch 3"));

        // A single epoch has no boundaries: silent.
        let one = vec![vec![1u64, 2, 3]];
        let d = lint_artifacts(&LintInput::network(&net).with_epoch_loads(&one));
        assert!(!d.iter().any(|x| x.code == Code::Mc020), "{d:?}");
    }

    #[test]
    fn drift_passes_skip_when_artifacts_absent() {
        let net = line_net();
        let d = lint_artifacts(&LintInput::network(&net));
        assert!(!d
            .iter()
            .any(|x| matches!(x.code, Code::Mc019 | Code::Mc020)));
        assert_eq!(d.passes_run, 8);
    }

    #[test]
    fn fast_escape_as_is_warned_slow_one_is_not() {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 1);
        let r2 = net.add_router("r2", 1);
        net.add_link(r0, r1, 1000.0, LOOKAHEAD_HAZARD_US - 20);
        net.add_link(r1, r2, 1000.0, 100);
        let d = lint_artifacts(&LintInput::network(&net));
        let warns: Vec<_> = d.iter().filter(|x| x.code == Code::Mc018).collect();
        // Both AS 0 and AS 1 escape only over the 30 µs link.
        assert_eq!(warns.len(), 2, "{warns:?}");
        assert!(warns[0].message.contains("collapses the sync window"));

        let mut slow = Network::new();
        let a = slow.add_router("a", 0);
        let b = slow.add_router("b", 1);
        slow.add_link(a, b, 1000.0, 100);
        let d = lint_artifacts(&LintInput::network(&slow));
        assert!(!d.iter().any(|x| x.code == Code::Mc018), "{d:?}");
    }
}
