//! The staged pipeline: the calls `cmd_run` / `cmd_replay` make, in their
//! order, through the crates' public functions, each inside a span.
//!
//! It serves two ends. Its spans are the per-layer breakdown of a run, taken
//! from outside the program. And its `EmulationReport` holds the simulated
//! results with all their digits, where the CLI prints two or three: the
//! fingerprint of a workload is read here and the CLI's text is checked
//! against it.

use crate::span::{Span, Tracer};
use crate::workload::{Inputs, Schedule, Workload};
use massf_core::audit::{audit_study, audit_study_online, audit_trace};
use massf_core::engine::engine::lookahead_us;
use massf_core::mapping::place::map_place;
use massf_core::mapping::profile::map_profile;
use massf_core::mapping::top::map_top;
use massf_core::mapping::weights::accumulate_predicted_with;
use massf_core::mapping::{run_online, IncrementalConfig};
use massf_core::obs::report::{EmulationInfo, EngineLoad, PartitionInfo, ScenarioInfo};
use massf_core::prelude::*;
use massf_core::routing::memory::predicted_table_bytes;
use massf_core::topology::dml;
use massf_core::traffic::spec::{parse_traffic, TrafficKind};
use massf_core::traffic::{cbr, http, onoff};
use massf_lint::{Diagnostics, LintInput};

/// Everything a staged run produced; the layer measurements reuse its
/// network, tables, schedule and partition instead of rebuilding them.
pub struct Staged {
    pub spans: Vec<Span>,
    pub study: MappingStudy,
    pub flows: Vec<FlowSpec>,
    /// The partition the emulation started under.
    pub partition: Partitioning,
    pub report: EmulationReport,
    /// Nodes the online rebalancer migrated, when the run was online.
    pub migrated_nodes: Option<usize>,
    /// The report `--report` would have written, less the program's own spans.
    pub run_report: RunReport,
}

fn refuse_errors(stage: &str, diags: &Diagnostics) -> Result<(), String> {
    if diags.has_errors() {
        Err(format!("{stage} failed: {}", diags.summary_line()))
    } else {
        Ok(())
    }
}

fn preflight(
    net: &Network,
    engines: usize,
    traffic: Option<&TrafficKind>,
    predicted: &[PredictedFlow],
    flows: &[FlowSpec],
) -> Result<(), String> {
    let mut input = LintInput::network(net);
    input.engines = Some(engines);
    input.predicted = predicted;
    input.flows = flows;
    input.traffic = traffic;
    refuse_errors("preflight", &massf_lint::lint_scenario(&input))
}

/// The schedule and the PLACE prediction a spec generates, as the CLI's
/// `generate_traffic` does it.
pub fn generate_traffic(
    net: &Network,
    kind: &TrafficKind,
    duration_us: u64,
) -> (Vec<FlowSpec>, Vec<PredictedFlow>) {
    let hosts = net.hosts();
    match kind {
        TrafficKind::Http(cfg) => (
            http::generate(&hosts, cfg, duration_us),
            http::predict(&hosts, cfg),
        ),
        TrafficKind::Cbr(cfg) => (
            cbr::generate(&hosts, cfg, duration_us),
            cbr::predict(&hosts, cfg),
        ),
        TrafficKind::OnOff(cfg) => (
            onoff::generate(&hosts, cfg, duration_us),
            onoff::predict(&hosts, cfg),
        ),
    }
}

fn map(
    t: &mut Tracer,
    study: &MappingStudy,
    approach: Approach,
    predicted: &[PredictedFlow],
    flows: &[FlowSpec],
) -> Partitioning {
    let (net, tables, cfg) = (&study.net, &study.tables, &study.cfg);
    match approach {
        Approach::Top => t.span("mapping.top", |_| map_top(net, cfg)),
        Approach::Place => t.span("mapping.place", |_| map_place(net, tables, predicted, cfg)),
        Approach::Profile => {
            let initial = t.span("mapping.top", |_| map_top(net, cfg));
            let records = t.span("engine.profiling_run", |_| {
                study.profile_records(flows, &initial)
            });
            t.span("mapping.profile", |_| {
                map_profile(net, tables, &records, cfg)
            })
        }
    }
}

fn emulation_info(report: &EmulationReport) -> EmulationInfo {
    EmulationInfo {
        delivered: report.delivered,
        dropped: report.dropped,
        total_events: report.total_events(),
        rounds: report.rounds,
        remote_messages: report.remote_messages,
        virtual_end_us: report.virtual_end_us,
        counter_window_us: report.counter_window_us,
        mean_latency_us: report.mean_latency_us(),
        imbalance: load_imbalance(&report.engine_events),
        engines: (0..report.nengines)
            .map(|i| EngineLoad {
                events: report.engine_events[i],
                stalled_rounds: report.engine_stalls[i],
                remote_sent: report.engine_remote_sent[i],
                remote_recv: report.engine_remote_recv[i],
                queue_peak: report.engine_queue_peak[i],
                sched_resizes: report.engine_sched_resizes[i],
                timeline: report.window_series[i].clone(),
                stall_timeline: report.stall_series[i].clone(),
                recv_timeline: report.recv_series[i].clone(),
            })
            .collect(),
    }
}

/// Runs `w` on `inputs` stage by stage with `threads` mapping threads.
pub fn run(w: &Workload, inputs: &Inputs, threads: usize) -> Result<Staged, String> {
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let mut t = Tracer::new();
    let t = &mut t;

    let dml_text = t.span("cli.read_inputs", |_| read(&inputs.dml_path))?;
    let net = t
        .span("topology.dml_parse", |_| dml::parse(&dml_text))
        .map_err(|e| format!("{}: {e}", inputs.dml_path.display()))?;
    let traffic_text = t.span("cli.read_inputs", |_| read(&inputs.traffic_path))?;

    let replaying = matches!(inputs.schedule, Schedule::Scalapack { .. });
    let (flows, predicted, command) = if replaying {
        let audit = t.span("lint.trace_audit", |_| {
            audit_trace(&traffic_text, Some(&net))
        });
        refuse_errors("trace check", &audit.diags)?;
        let flows = audit.trace.ok_or("trace did not parse")?.flows;
        t.span("lint.preflight", |_| {
            preflight(&net, w.engines, None, &[], &flows)
        })?;
        (flows, Vec::new(), "replay")
    } else {
        let kind = t
            .span("traffic.spec_parse", |_| parse_traffic(&traffic_text))
            .map_err(|e| format!("{}: {e}", inputs.traffic_path.display()))?;
        t.span("lint.preflight", |_| {
            preflight(&net, w.engines, Some(&kind), &[], &[])
        })?;
        let duration_us = (inputs.duration_s.unwrap_or(10.0) * 1e6) as u64;
        let (flows, predicted) = t.span("traffic.generate", |_| {
            generate_traffic(&net, &kind, duration_us)
        });
        t.span("lint.preflight", |_| {
            preflight(&net, w.engines, Some(&kind), &predicted, &flows)
        })?;
        (flows, predicted, "run")
    };

    let cfg = MapperConfig::new(w.engines).with_parallelism(Parallelism::new(threads));
    let study = t.span("routing.build", |_| MappingStudy::new(net, cfg));
    // What `record_routing_stats` reads for the run report.
    t.span("routing.stats", |_| {
        std::hint::black_box((
            study.tables.dense_bytes(),
            study.tables.table_bytes(),
            predicted_table_bytes(&study.net),
            study.tables.run_stats(),
        ));
    });
    let partition = t.span("mapping.map", |t| {
        map(t, &study, w.approach, &predicted, &flows)
    });

    let online = inputs.epochs > 1;
    let (report, migrated_nodes) = if online {
        let inc_cfg = IncrementalConfig {
            epochs: inputs.epochs,
            ..IncrementalConfig::default()
        };
        let outcome = t.span("mapping.run_online", |_| {
            run_online(
                &study,
                &flows,
                &predicted,
                &inc_cfg,
                RebalanceMode::Incremental,
            )
        });
        let predicted_node = t.span("mapping.accumulate", |_| {
            accumulate_predicted_with(&study.net, &study.tables, &predicted, study.cfg.parallelism)
                .1
        });
        let mut predicted_engine = vec![0.0f64; w.engines];
        for (v, load) in predicted_node.iter().enumerate() {
            predicted_engine[partition.part[v] as usize] += load;
        }
        let epoch_loads: Vec<Vec<u64>> = outcome
            .epoch_stats
            .iter()
            .map(|e| e.engine_loads.clone())
            .collect();
        let audit = t.span("lint.audit", |_| {
            audit_study_online(&study, &partition, &predicted_engine, &epoch_loads)
        });
        refuse_errors("artifact audit", &audit)?;
        (outcome.report, Some(outcome.migrated_nodes))
    } else {
        let audit = t.span("lint.audit", |_| audit_study(&study, &partition));
        refuse_errors("artifact audit", &audit)?;
        let report = t.span("engine.emulate", |_| {
            if replaying {
                study.replay(&partition, &flows)
            } else {
                study.evaluate(&partition, &flows, CostModel::live_application())
            }
        });
        (report, None)
    };

    let run_report = t.span("obs.report_json", |_| {
        let mut run_report = RunReport::new(
            command,
            ScenarioInfo {
                network: study.net.summary(),
                engines: w.engines as u64,
                approach: w.approach.label().to_string(),
                flows: flows.len() as u64,
                duration_s: inputs.duration_s,
            },
            Recorder::new(),
            threads,
        );
        run_report.partition = Some(PartitionInfo {
            sizes: partition.part_sizes().iter().map(|&s| s as u64).collect(),
            cut_links: study
                .net
                .links()
                .iter()
                .filter(|l| partition.part[l.a as usize] != partition.part[l.b as usize])
                .count() as u64,
            lookahead_us: lookahead_us(&study.net, &partition.part),
        });
        run_report.emulation = Some(emulation_info(&report));
        std::hint::black_box(run_report.to_json());
        run_report
    });

    let spans = t.spans().to_vec();
    Ok(Staged {
        spans,
        study,
        flows,
        partition,
        report,
        migrated_nodes,
        run_report,
    })
}
