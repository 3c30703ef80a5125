//! The `massf` command-line tool: generate topologies, partition them, run
//! emulations, and probe routes — the whole reproduction stack from a
//! shell.
//!
//! Every subcommand and every flag is declared once, in the table of
//! `src/cli/args.rs`: `massf help` is rendered from it, [`run`] parses
//! against it, and the `cmd_*` functions below read checked, typed values
//! off the parsed `Args` — none of them looks at an argument word itself.
//!
//! Every scenario-consuming subcommand runs the `massf-lint` preflight
//! first and refuses to proceed past an Error-level diagnostic
//! (`--deny-warnings` promotes warnings); `verdict` is that one rule.
//!
//! All logic lives here (testable); `src/bin/massf.rs` is a thin shim.

mod args;

pub use args::usage;
use args::{Args, COMMANDS};
use massf_core::engine::engine::lookahead_us;
use massf_core::engine::probe;
use massf_core::obs::json::{Layout::Block, Writer};
use massf_core::obs::report::{
    EmulationInfo, EngineLoad, LintSummary, PartitionInfo, RebalanceInfo, ScenarioInfo,
};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::dml;
use massf_core::topology::NodeId;
use massf_core::traffic::spec::{parse_traffic, TrafficKind};
use massf_core::traffic::{cbr, http, onoff};
use massf_lint::{Diagnostics, LintInput};
use massf_metrics::diag::{Code, Report};

/// A CLI failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Runs the CLI; returns the text to print or an error message.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((name, rest)) = argv.split_first() else {
        return Ok(usage());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| err(format!("unknown command {name:?}; try `massf help`")))?;
    (cmd.run)(&Args::parse(cmd, rest)?)
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))
}

fn load_network(path: &str) -> Result<Network, CliError> {
    // Structural soundness (connectivity, degenerate nodes, ...) is the
    // lint preflight's job, so parse errors are the only hard failures.
    dml::parse(&read_file(path)?).map_err(|e| err(format!("{path}: {e}")))
}

fn load_traffic(path: &str) -> Result<TrafficKind, CliError> {
    parse_traffic(&read_file(path)?).map_err(|e| err(format!("{path}: {e}")))
}

/// The one exit rule of every lint-backed step: `--deny-warnings` promotes
/// warnings, and any Error-level finding left fails the command. Without a
/// `gate` the rendered report is the output either way (`check`,
/// `srclint`); with one the step is silent when clean and fails with the
/// human report under the gate's heading (preflight, trace check, artifact
/// audit). The report renders itself, with its catalog's extras.
fn verdict<C: Code>(
    report: &mut Report<C>,
    a: &Args,
    gate: Option<&str>,
) -> Result<String, CliError> {
    if a.deny_warnings {
        report.deny_warnings();
    }
    let rendered = |json: bool| if json { report.json() } else { report.human() };
    match (report.has_errors(), gate) {
        (false, Some(_)) => Ok(String::new()),
        (false, None) => Ok(rendered(a.json)),
        (true, None) => Err(CliError(rendered(a.json))),
        (true, Some(heading)) => Err(err(format!("{heading}\n{}", rendered(false)))),
    }
}

/// [`verdict`]'s gate heading for a refused post-pipeline artifact audit.
const AUDIT_FAILED: &str = "artifact audit failed";

/// Runs the `massf-lint` preflight over everything the subcommand knows
/// and refuses past an Error-level diagnostic.
fn preflight(
    a: &Args,
    net: &Network,
    engines: Option<usize>,
    traffic: Option<&TrafficKind>,
    predicted: &[PredictedFlow],
    flows: &[FlowSpec],
) -> Result<(), CliError> {
    let mut input = LintInput::network(net);
    input.engines = engines;
    input.predicted = predicted;
    input.flows = flows;
    input.traffic = traffic;
    let mut diags = massf_lint::lint_scenario(&input);
    verdict(&mut diags, a, Some("preflight check failed")).map(drop)
}

/// The mapper configuration the flags ask for; a knob the subcommand does
/// not take (or was not given) keeps its default.
fn mapper_config(a: &Args, engines: usize) -> MapperConfig {
    let defaults = MapperConfig::new(engines);
    MapperConfig {
        seed: a.seed.unwrap_or(defaults.seed),
        parallelism: a.threads.unwrap_or(defaults.parallelism),
        ..defaults
    }
}

fn cmd_topology(a: &Args) -> Result<String, CliError> {
    let topo = match a.operands[0] {
        "campus" => Topology::Campus,
        "teragrid" => Topology::TeraGrid,
        "brite" => Topology::Brite,
        "brite-scaleup" => Topology::BriteScaleup,
        other => return Err(err(format!("unknown topology {other:?}"))),
    };
    Ok(dml::write(&topo.build()))
}

fn cmd_check(a: &Args) -> Result<String, CliError> {
    if a.list_passes {
        return Ok(list_passes(a.json));
    }
    let Some(&path) = a.operands.first() else {
        return Err(err("missing <network.dml|trace.txt>; try `massf help`"));
    };
    let text = read_file(path)?;
    // A trace file lints as a trace, not as a topology. Anything whose
    // first bytes are the trace header goes down the MC016 path —
    // including wrong-version traces, which MC016 rejects with the found
    // header rather than a DML parse error — plus the request passes
    // (endpoint validity and schedule feasibility) when `--network`
    // supplies the topology the trace was recorded on.
    if text.starts_with(massf_core::traffic::tracefile::HEADER_PREFIX) {
        let net = a.network.map(load_network).transpose()?;
        let mut audit = massf_core::audit::audit_trace(&text, net.as_ref());
        return verdict(&mut audit.diags, a, None);
    }
    let net = dml::parse(&text).map_err(|e| err(format!("{path}: {e}")))?;
    let kind = a.traffic.map(load_traffic).transpose()?;
    let (_, duration_us) = a.duration.unwrap_or(DEFAULT_DURATION);

    // Stage 1: lint everything known statically. Flow generation asserts
    // on degenerate host sets — exactly what the MC010 spec-fit pass
    // rejects — so the schedule is generated and linted in a second stage
    // only when no spec-fit Error was found. Other errors (say a
    // disconnected topology) do not block stage 2: the report should show
    // the schedule-level findings alongside the structural ones.
    let mut input = LintInput::network(&net);
    input.engines = a.engines;
    input.traffic = kind.as_ref();
    let mut diags = massf_lint::lint_scenario(&input);
    let spec_fits = !diags
        .iter()
        .any(|d| d.code == massf_lint::Code::Mc010 && d.severity == massf_lint::Severity::Error);
    if spec_fits {
        if let Some(kind) = kind.as_ref() {
            let (flows, predicted) = generate_traffic(&net, kind, duration_us);
            input.flows = &flows;
            input.predicted = &predicted;
            diags = massf_lint::lint_scenario(&input);
        }
    }

    // Stage 3 (opt-in): the artifact audit. Map a TOP partition through
    // the real pipeline and run MC013..MC020 over the partition and
    // routing tables it produced.
    let caps = a.capacities.as_ref();
    let engines = a.engines.unwrap_or(3.min(net.node_count()));
    // The partitioner asserts 1 <= engines <= nodes. A request outside
    // that is already an Error above (MC007, or MC001 for an empty
    // network), so the report stops there: there is no mapping to audit.
    if (a.audit || caps.is_some()) && (1..=net.node_count()).contains(&engines) {
        let mut cfg = mapper_config(a, engines);
        // A degenerate capacity vector never reaches the mapper (it
        // asserts on length and on the normalized shares); MC017 reports
        // it on the audit side instead.
        if let Some(c) = caps {
            if c.len() == engines && massf_lint::artifact::capacity_shares(c).is_some() {
                cfg = cfg.with_engine_capacities(c.clone());
            }
        }
        let study = MappingStudy::new(net.clone(), cfg);
        let partition = study.map(Approach::Top, &[], &[]);
        let mut artifact = LintInput::network(&net)
            .with_engines(engines)
            .with_partition(&partition)
            .with_tables(&study.tables);
        if let Some(c) = caps {
            artifact = artifact.with_capacities(c);
        }
        diags.merge(massf_lint::lint_artifacts(&artifact));
    }
    verdict(&mut diags, a, None)
}

/// The full stable-code catalog for `massf check --list-passes`: every
/// scenario/artifact pass (MC001..MC020, from `massf-lint`) and every
/// source pass (SA000..SA007, from `massf-srclint`) with its worst
/// severity and one-line description. Machine-readable under
/// `--format json` with byte-deterministic output.
fn list_passes(json: bool) -> String {
    // (code, family, severity label, name, summary) rows in catalog order.
    fn rows<C: Code>(family: &str) -> impl Iterator<Item = (&str, &str, &str, &str, &str)> {
        C::all().map(move |c| {
            (
                c.as_str(),
                family,
                c.severity().label(),
                c.name(),
                c.summary(),
            )
        })
    }
    let rows: Vec<_> = rows::<massf_lint::Code>("scenario")
        .chain(rows::<massf_srclint::SaCode>("source"))
        .collect();
    if json {
        let mut w = Writer::new();
        w.object(Block, |w| {
            w.key("tool").string("massf-check");
            w.key("format").uint(1);
            w.key("passes")
                .rows(Block, &rows, |w, (code, family, sev, name, summary)| {
                    w.key("code").string(code);
                    w.key("family").string(family);
                    w.key("severity").string(sev);
                    w.key("name").string(name);
                    w.key("summary").string(summary);
                });
        });
        w.finish() + "\n"
    } else {
        let mut out = String::new();
        for (code, family, sev, name, summary) in &rows {
            out.push_str(&format!(
                "{code}  {sev:<7}  {name:<24}  {summary}  [{family}]\n"
            ));
        }
        out.push_str(&format!(
            "{} scenario/artifact passes (MC), {} source passes (SA)\n",
            massf_lint::Code::CATALOG.len(),
            massf_srclint::SaCode::CATALOG.len()
        ));
        out
    }
}

/// The source-level determinism lint (stable codes SA000..SA007) over the
/// workspace rooted at the operand. Mirrors the `massf check` contract.
fn cmd_srclint(a: &Args) -> Result<String, CliError> {
    let root = a.operands.first().copied().unwrap_or(".");
    let mut report = massf_srclint::lint_workspace(std::path::Path::new(root))
        .map_err(|e| err(format!("cannot scan {root}: {e}")))?;
    verdict(&mut report, a, None)
}

/// Assembles and writes a `--report` file: the recorder's telemetry, the
/// scenario shape, the audit's lint block, and whatever result blocks
/// `fill` sets (partition, emulation, rebalance).
fn write_run_report(
    path: &str,
    command: &str,
    scenario: ScenarioInfo,
    rec: Recorder,
    threads: usize,
    audit: &Diagnostics,
    fill: impl FnOnce(&mut RunReport),
) -> Result<(), CliError> {
    let mut run_report = RunReport::new(command, scenario, rec, threads);
    run_report.lint = Some(LintSummary::from(audit));
    fill(&mut run_report);
    std::fs::write(path, run_report.to_json()).map_err(|e| err(format!("cannot write {path}: {e}")))
}

/// Surfaces routing-table size statistics in the run report: measured vs
/// paper-predicted bytes (the names sort adjacently in the counters
/// block), the analytic n × n baseline, and the row and run shape. All
/// values are deterministic functions of the topology, so they sit above
/// the report's timing boundary.
fn record_routing_stats(rec: &mut Recorder, study: &MappingStudy) {
    let tables = &study.tables;
    rec.add_counter("routing.bytes_dense_baseline", tables.dense_bytes());
    rec.add_counter("routing.bytes_measured", tables.table_bytes());
    rec.add_counter(
        "routing.bytes_predicted",
        massf_core::routing::memory::predicted_table_bytes(&study.net),
    );
    rec.set_gauge(
        "routing.compression_x",
        tables.dense_bytes() as f64 / tables.table_bytes().max(1) as f64,
    );
    let s = tables.run_stats();
    rec.add_counter("routing.rows_leaf", s.leaf_rows as u64);
    rec.add_counter("routing.rows_unique", s.unique_rows as u64);
    rec.add_counter("routing.runs_max_per_row", s.runs_max_per_row as u64);
    rec.add_counter("routing.runs_total", s.runs_total as u64);
    rec.set_gauge("routing.runs_mean_per_row", s.runs_mean_per_row);
}

fn cmd_partition(a: &Args) -> Result<String, CliError> {
    let engines = a.engines.expect("the table requires --engines");
    let net = load_network(a.operands[0])?;
    preflight(a, &net, Some(engines), None, &[], &[])?;
    let cfg = mapper_config(a, engines);
    let partition = massf_core::mapping::top::map_top(&net, &cfg);
    // Post-pipeline audit of the concrete partition (no routing tables
    // were built here, so MC014/MC015 skip but still count as run).
    let mut audit = massf_lint::lint_artifacts(
        &LintInput::network(&net)
            .with_engines(engines)
            .with_partition(&partition),
    );
    verdict(&mut audit, a, Some(AUDIT_FAILED))?;
    let mut out = String::new();
    for n in net.nodes() {
        out.push_str(&format!("{}\t{}\n", n.name, partition.part[n.id as usize]));
    }
    out.push_str(&format!(
        "# {} engines, sizes {:?}\n",
        engines,
        partition.part_sizes()
    ));
    Ok(out)
}

fn generate_traffic(
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

/// Traffic spec used when `massf run` is invoked without `--traffic`: a
/// modest CBR background that fits any of the shipped topologies.
const DEFAULT_TRAFFIC_SPEC: &str = "traffic { name CBR\n sessions 6\n rate_mbps 4 }";

/// `--duration-s` when `massf run` / `massf check` are invoked without it:
/// seconds and the same span in µs.
const DEFAULT_DURATION: (f64, u64) = (10.0, 10_000_000);

/// Summarizes `partition` for the run report: nodes per engine, cut-link
/// count, and the conservative window lookahead the engines would use.
fn partition_info(net: &Network, partition: &Partitioning) -> PartitionInfo {
    let cut_links = net
        .links()
        .iter()
        .filter(|l| partition.part[l.a as usize] != partition.part[l.b as usize])
        .count() as u64;
    PartitionInfo {
        sizes: partition.part_sizes().iter().map(|&s| s as u64).collect(),
        cut_links,
        lookahead_us: lookahead_us(net, &partition.part),
    }
}

/// Digests an [`EmulationReport`] into the run report's emulation section.
fn emulation_info(report: &EmulationReport) -> EmulationInfo {
    let engines = (0..report.nengines)
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
        .collect();
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
        engines,
    }
}

/// How [`map_audit_emulate`] emulates the mapped partition.
enum Emulate {
    /// Application traffic paced in real time (`run`).
    Live,
    /// As fast as possible (`run --replay`, `replay`).
    Replay,
    /// In epochs, measuring at each boundary and rebalancing as `mode`
    /// says (`run --epochs`).
    Online { epochs: usize, mode: RebalanceMode },
}

/// A loaded, preflighted scenario on its way through the pipeline tail.
struct Job<'a> {
    command: &'static str,
    net: Network,
    engines: usize,
    approach: Approach,
    predicted: &'a [PredictedFlow],
    flows: &'a [FlowSpec],
    duration_s: Option<f64>,
    /// Findings made before mapping (`replay`'s trace check), folded into
    /// the audit so the run report's lint block carries both.
    findings: Option<Diagnostics>,
    emulate: Emulate,
}

/// The tail `run` and `replay` share: build the study, map, audit the
/// mapped partition and routing tables, refuse past an Error, emulate, and
/// write the `--report` file when asked. Leaves the subcommand the
/// emulation report (and the rebalance block of an online run) to print.
fn map_audit_emulate(
    a: &Args,
    mut rec: Recorder,
    job: Job,
) -> Result<(EmulationReport, Option<RebalanceInfo>), CliError> {
    rec.add_counter("traffic.flows", job.flows.len() as u64);
    let cfg = mapper_config(a, job.engines);
    let threads = cfg.parallelism.get();
    let study = rec.time("mapping/routing_tables", || MappingStudy::new(job.net, cfg));
    record_routing_stats(&mut rec, &study);
    let partition = study.map_obs(job.approach, job.predicted, job.flows, &mut rec);
    let (report, rebalance, audit, final_partition) = match job.emulate {
        Emulate::Online { epochs, mode } => {
            // Online path: the audit runs once, after the emulation, when
            // the MC019/MC020 drift evidence exists — same refusal contract.
            let inc_cfg = IncrementalConfig { epochs };
            let outcome = rec.time("engine/emulate", || {
                massf_core::mapping::run_online(&study, job.flows, job.predicted, &inc_cfg, mode)
            });
            let epoch_loads: Vec<Vec<u64>> = outcome
                .epoch_stats
                .iter()
                .map(|e| e.engine_loads.clone())
                .collect();
            let mut audit = rec.time("cli/audit", || {
                massf_core::audit::audit_study_online(
                    &study,
                    &partition,
                    &outcome.predicted_engine_loads,
                    &epoch_loads,
                )
            });
            verdict(&mut audit, a, Some(AUDIT_FAILED))?;
            let info = RebalanceInfo {
                mode: mode.label().to_string(),
                migrated_nodes: outcome.migrated_nodes as u64,
                remaps_applied: outcome.remaps_applied as u64,
                epochs: outcome.epoch_stats,
            };
            // The partition actually in force at the end of the run (after
            // any boundary migrations).
            let last = outcome.epoch_partitions.into_iter().last();
            (outcome.report, Some(info), audit, last.unwrap_or(partition))
        }
        Emulate::Live | Emulate::Replay => {
            // The mapped partition plus the study's routing tables must
            // hold up before any emulation time is spent on them.
            let mut audit = rec.time("cli/audit", || {
                massf_core::audit::audit_study(&study, &partition)
            });
            if let Some(found) = job.findings {
                audit.merge(found);
            }
            verdict(&mut audit, a, Some(AUDIT_FAILED))?;
            let report = rec.time("engine/emulate", || match job.emulate {
                Emulate::Replay => study.replay(&partition, job.flows),
                _ => study.evaluate(&partition, job.flows, CostModel::live_application()),
            });
            (report, None, audit, partition)
        }
    };
    if let Some(path) = a.report {
        let scenario = ScenarioInfo {
            network: study.net.summary(),
            engines: job.engines as u64,
            approach: job.approach.label().to_string(),
            flows: job.flows.len() as u64,
            duration_s: job.duration_s,
        };
        write_run_report(path, job.command, scenario, rec, threads, &audit, |r| {
            r.partition = Some(partition_info(&study.net, &final_partition));
            r.emulation = Some(emulation_info(&report));
            r.rebalance = rebalance.clone();
        })?;
    }
    Ok((report, rebalance))
}

fn cmd_run(a: &Args) -> Result<String, CliError> {
    let mut rec = Recorder::new();
    let net = rec.time("cli/load_network", || load_network(a.operands[0]))?;
    let network = net.summary();
    let engines = a.engines.unwrap_or(3);
    let kind = match a.traffic {
        Some(path) => load_traffic(path)?,
        None => parse_traffic(DEFAULT_TRAFFIC_SPEC).expect("the built-in spec parses"),
    };
    let (duration_s, duration_us) = a.duration.unwrap_or(DEFAULT_DURATION);
    let epochs = match a.epochs {
        // Each epoch boundary measures an epoch's slice: more of them than
        // the run has microseconds would measure zero virtual time.
        Some(n) if n as u64 > duration_us => {
            return Err(err(format!(
                "--epochs {n} is more than the run's {duration_us} µs"
            )))
        }
        Some(n) => n,
        // `--rebalance` without `--epochs` implies the default epoch count
        // (`off` included: it measures epochs without ever migrating).
        None if a.rebalance.is_some() => IncrementalConfig::default().epochs,
        None => 1,
    };
    let (approach, emulate) = if epochs > 1 {
        if a.replay {
            return Err(err("--replay cannot be combined with --epochs"));
        }
        // The online run starts traffic-blind: epoch 1 is mapped with TOP
        // and later boundaries adapt from measurements, so a predicted or
        // profiled initial approach has nothing to contribute.
        if !matches!(a.approach, None | Some(Approach::Top)) {
            return Err(err(
                "--epochs maps the first epoch with TOP; use --approach top or omit it",
            ));
        }
        let mode = a.rebalance.unwrap_or(RebalanceMode::Off);
        (Approach::Top, Emulate::Online { epochs, mode })
    } else if a.replay {
        (a.approach.unwrap_or(Approach::Profile), Emulate::Replay)
    } else {
        (a.approach.unwrap_or(Approach::Profile), Emulate::Live)
    };

    // Stage 1: static preflight; flow generation is only safe on a clean
    // base (generators assert on degenerate host sets).
    rec.time("cli/preflight", || {
        preflight(a, &net, Some(engines), Some(&kind), &[], &[])
    })?;
    let (flows, predicted) = rec.time("cli/traffic_gen", || {
        generate_traffic(&net, &kind, duration_us)
    });
    if flows.is_empty() {
        return Err(err("the traffic spec generated no flows for this duration"));
    }
    // Stage 2: the generated schedule itself.
    rec.time("cli/preflight_schedule", || {
        preflight(a, &net, Some(engines), Some(&kind), &predicted, &flows)
    })?;
    let job = Job {
        command: "run",
        net,
        engines,
        approach,
        predicted: &predicted,
        flows: &flows,
        duration_s: Some(duration_s),
        findings: None,
        emulate,
    };
    let (report, rebalance) = map_audit_emulate(a, rec, job)?;

    let mut out = String::new();
    out.push_str(&format!("network      : {network}\n"));
    out.push_str(&format!("approach     : {}\n", approach.label()));
    out.push_str(&format!("flows        : {}\n", flows.len()));
    out.push_str(&format!(
        "delivered    : {} packets ({} dropped)\n",
        report.delivered, report.dropped
    ));
    out.push_str(&format!("kernel events: {}\n", report.total_events()));
    out.push_str(&format!(
        "imbalance    : {:.3}\n",
        load_imbalance(&report.engine_events)
    ));
    out.push_str(&format!(
        "emulation    : {:.2}s modeled ({} sync rounds, {} cross-engine events)\n",
        report.emulation_time_s(),
        report.rounds,
        report.remote_messages
    ));
    out.push_str(&format!("{}\n", report.balance_line()));
    if let Some(r) = &rebalance {
        out.push_str(&format!(
            "rebalance    : {} — {} node(s) migrated over {} remap(s) in {} epochs\n",
            r.mode,
            r.migrated_nodes,
            r.remaps_applied,
            r.epochs.len()
        ));
        for ep in &r.epochs {
            let decision = if ep.applied {
                format!("moved {}", ep.moves)
            } else if ep.skipped {
                "skipped".to_string()
            } else {
                "final".to_string()
            };
            out.push_str(&format!(
                "  epoch {}: drift {:.3} (pred {:.3})  imbalance {:.3} -> {:.3}  {}\n",
                ep.epoch,
                ep.drift_measured,
                ep.drift_predicted,
                ep.imbalance_before,
                ep.imbalance_after,
                decision
            ));
        }
    }
    if let Some(report_path) = a.report {
        out.push_str(&format!("report       : {report_path}\n"));
    }
    Ok(out)
}

fn cmd_record(a: &Args) -> Result<String, CliError> {
    let mut rec = Recorder::new();
    let net = rec.time("cli/load_network", || load_network(a.operands[0]))?;
    let kind = load_traffic(a.traffic.expect("the table requires --traffic"))?;
    let (duration_s, duration_us) = a.duration.expect("the table requires --duration-s");
    let out_path = a.out.expect("the table requires --out");
    preflight(a, &net, None, Some(&kind), &[], &[])?;
    let (flows, _) = rec.time("cli/traffic_gen", || {
        generate_traffic(&net, &kind, duration_us)
    });
    rec.add_counter("traffic.flows", flows.len() as u64);
    let text = massf_core::traffic::tracefile::write_with_duration(&flows, Some(duration_us));
    // Audit the exact bytes headed for disk — what `replay` and
    // `massf check` will read back — and refuse to write a broken trace.
    let mut audit = massf_core::audit::audit_trace(&text, Some(&net)).diags;
    verdict(&mut audit, a, Some(AUDIT_FAILED))?;
    std::fs::write(out_path, &text).map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
    if let Some(report_path) = a.report {
        // No mapping and no emulation happen here, so the report carries
        // the scenario shape (engines 0, approach "-"), the trace audit,
        // and timing.
        let scenario = ScenarioInfo {
            network: net.summary(),
            engines: 0,
            approach: "-".to_string(),
            flows: flows.len() as u64,
            duration_s: Some(duration_s),
        };
        write_run_report(report_path, "record", scenario, rec, 1, &audit, |_| {})?;
    }
    Ok(format!("recorded {} flows to {out_path}\n", flows.len()))
}

fn cmd_replay(a: &Args) -> Result<String, CliError> {
    let mut rec = Recorder::new();
    let net = rec.time("cli/load_network", || load_network(a.operands[0]))?;
    let trace_text = read_file(a.operands[1])?;
    // MC016 trace-shape lint plus endpoint validity against this
    // topology; an empty trace is the MC016 empty-trace Error.
    let mut trace_audit = rec.time("cli/trace_audit", || {
        massf_core::audit::audit_trace(&trace_text, Some(&net))
    });
    verdict(&mut trace_audit.diags, a, Some("trace check failed"))?;
    let flows = trace_audit
        .trace
        .expect("an error-free trace audit implies the trace parsed")
        .flows;
    let engines = a.engines.expect("the table requires --engines");
    // Infeasible engine counts and degenerate schedules surface here as
    // MC* diagnostics.
    rec.time("cli/preflight", || {
        preflight(a, &net, Some(engines), None, &[], &flows)
    })?;
    let approach = a.approach.unwrap_or(Approach::Profile);
    let job = Job {
        command: "replay",
        net,
        engines,
        approach,
        predicted: &[],
        flows: &flows,
        // The trace fixes the schedule; no wall-clock duration knob is
        // involved in a replay.
        duration_s: None,
        findings: Some(trace_audit.diags),
        emulate: Emulate::Replay,
    };
    let (report, _) = map_audit_emulate(a, rec, job)?;
    Ok(format!(
        "replayed {} flows under {}: {} packets in {:.2}s modeled, imbalance {:.3}\n{}\n",
        flows.len(),
        approach.label(),
        report.delivered,
        report.emulation_time_s(),
        load_imbalance(&report.engine_events),
        report.balance_line()
    ))
}

fn cmd_report(a: &Args) -> Result<String, CliError> {
    let path = a.operands[0];
    let report =
        RunReport::from_json(&read_file(path)?).map_err(|e| err(format!("{path}: {e}")))?;
    Ok(report.render_human())
}

fn find_node(net: &Network, name: &str) -> Result<NodeId, CliError> {
    net.nodes()
        .iter()
        .find(|n| n.name == name)
        .map(|n| n.id)
        .ok_or_else(|| err(format!("no node named {name:?}")))
}

fn cmd_ping(a: &Args) -> Result<String, CliError> {
    let (src, dst) = (a.operands[1], a.operands[2]);
    let net = load_network(a.operands[0])?;
    let tables = RoutingTables::build(&net);
    let (s, d) = (find_node(&net, src)?, find_node(&net, dst)?);
    let report = probe::ping(&net, &tables, s, d)
        .ok_or_else(|| err(format!("{dst} is unreachable from {src}")))?;
    Ok(format!(
        "PING {dst} from {src}: rtt {:.3} ms (request {:.3} ms, reply {:.3} ms)\n",
        report.rtt_us() as f64 / 1000.0,
        report.request_us as f64 / 1000.0,
        report.reply_us as f64 / 1000.0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn write_campus() -> tempfile_path::TempPath {
        let text = run(&args(&["topology", "campus"])).unwrap();
        tempfile_path::write("massf_cli_campus.dml", &text)
    }

    /// Minimal self-cleaning temp-file helper (std-only).
    mod tempfile_path {
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempPath(pub std::path::PathBuf);
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().expect("utf8 path")
            }
        }
        pub fn write(name: &str, content: &str) -> TempPath {
            // Tests run on parallel threads and several write the same
            // `name`: the counter keeps each file (and its drop) its own.
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let unique = NEXT.fetch_add(1, Ordering::Relaxed);
            let mut p = std::env::temp_dir();
            p.push(format!("{}-{unique}-{name}", std::process::id()));
            std::fs::write(&p, content).expect("write temp file");
            TempPath(p)
        }
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        let help = run(&args(&["help"])).unwrap();
        assert!(help.contains("massf topology"));
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert!(e.0.contains("unknown command"));
        // Help is rendered from the table: every subcommand's synopsis
        // names every flag it takes, and every flag has its help entry.
        let mut synopses = Vec::new();
        for cmd in &COMMANDS {
            let synopsis = cmd.synopsis();
            assert!(help.contains(&synopsis), "{synopsis}");
            for f in cmd.flags() {
                assert!(synopsis.contains(f.name), "{}: {}", cmd.name, f.name);
                let entry = format!("\n  {}", [f.name, f.metavar].join(" "));
                assert!(help.contains(entry.trim_end()), "{}", f.name);
            }
            synopses.push(synopsis);
        }
        // The README's CLI section carries the same block verbatim.
        let readme = std::fs::read_to_string("README.md").unwrap();
        assert!(
            readme.contains(&synopses.join("\n")),
            "README.md's synopsis block drifted from `massf help`:\n{}",
            synopses.join("\n")
        );
    }

    #[test]
    fn topology_dumps_parseable_dml() {
        let text = run(&args(&["topology", "teragrid"])).unwrap();
        let net = massf_core::topology::dml::parse(&text).unwrap();
        assert_eq!(net.router_count(), 27);
        assert!(run(&args(&["topology", "atlantis"])).is_err());
    }

    #[test]
    fn partition_command_partitions() {
        let f = write_campus();
        let out = run(&args(&["partition", f.as_str(), "--engines", "3"])).unwrap();
        assert!(out.contains("# 3 engines"));
        // One line per node plus the summary.
        assert_eq!(out.lines().count(), 60 + 1);
        // Engine labels are 0..3.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let label: usize = line.split('\t').nth(1).unwrap().parse().unwrap();
            assert!(label < 3);
        }
    }

    #[test]
    fn partition_threads_flag_is_deterministic() {
        let f = write_campus();
        let serial = run(&args(&[
            "partition",
            f.as_str(),
            "--engines",
            "3",
            "--threads",
            "1",
        ]))
        .unwrap();
        let parallel = run(&args(&[
            "partition",
            f.as_str(),
            "--engines",
            "3",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(serial, parallel, "partition must not depend on --threads");
        let e = run(&args(&[
            "partition",
            f.as_str(),
            "--engines",
            "3",
            "--threads",
            "0",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--threads"), "{e}");
        let e = run(&args(&[
            "partition",
            f.as_str(),
            "--engines",
            "3",
            "--threads",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--threads requires a value"), "{e}");
    }

    #[test]
    fn partition_rejects_bad_engine_count() {
        let f = write_campus();
        assert!(run(&args(&["partition", f.as_str(), "--engines", "0"])).is_err());
        assert!(run(&args(&["partition", f.as_str(), "--engines", "x"])).is_err());
        assert!(run(&args(&["partition", f.as_str()])).is_err());
    }

    #[test]
    fn run_command_emulates_cbr() {
        let net_file = write_campus();
        let spec = tempfile_path::write(
            "massf_cli_cbr.txt",
            "traffic { name CBR\n sessions 6\n rate_mbps 4 }",
        );
        let out = run(&args(&[
            "run",
            net_file.as_str(),
            "--engines",
            "3",
            "--traffic",
            spec.as_str(),
            "--duration-s",
            "2",
            "--approach",
            "profile",
        ]))
        .unwrap();
        assert!(out.contains("delivered"), "{out}");
        assert!(out.contains("imbalance"), "{out}");
        assert!(out.contains("(0 dropped)"), "{out}");
        // Flags may come before the operand.
        let flags_first = run(&args(&[
            "run",
            "--engines",
            "3",
            "--approach",
            "profile",
            net_file.as_str(),
            "--traffic",
            spec.as_str(),
            "--duration-s",
            "2",
        ]))
        .unwrap();
        assert_eq!(flags_first, out);
    }

    #[test]
    fn run_rejects_bad_spec() {
        let net_file = write_campus();
        let spec = tempfile_path::write("massf_cli_bad.txt", "traffic { name FTP }");
        let e = run(&args(&[
            "run",
            net_file.as_str(),
            "--engines",
            "3",
            "--traffic",
            spec.as_str(),
            "--duration-s",
            "1",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown traffic generator"), "{e}");
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let net_file = write_campus();
        let spec = tempfile_path::write(
            "massf_cli_rec.txt",
            "traffic { name CBR\n sessions 5\n rate_mbps 3 }",
        );
        let trace = tempfile_path::write("massf_cli_trace.txt", "");
        let out = run(&args(&[
            "record",
            net_file.as_str(),
            "--traffic",
            spec.as_str(),
            "--duration-s",
            "2",
            "--out",
            trace.as_str(),
        ]))
        .unwrap();
        assert!(out.contains("recorded 5 flows"), "{out}");
        let report = tempfile_path::write("massf_cli_replay_report.json", "");
        let out = run(&args(&[
            "replay",
            net_file.as_str(),
            trace.as_str(),
            "--engines",
            "3",
            "--report",
            report.as_str(),
        ]))
        .unwrap();
        assert!(out.contains("replayed 5 flows"), "{out}");
        assert!(out.contains("imbalance"), "{out}");
        let parsed =
            RunReport::from_json(&std::fs::read_to_string(report.0.as_path()).unwrap()).unwrap();
        assert_eq!(parsed.command, "replay");
        assert_eq!(parsed.scenario.duration_s, None);
        assert!(parsed.emulation.is_some());
    }

    #[test]
    fn routing_flag_is_refused_like_any_unknown_flag() {
        // Every CLI path that builds tables audits every row, so it builds
        // them eagerly and takes no fill policy; `--audit` has one spelling.
        let net_file = write_campus();
        let net = net_file.as_str();
        let cases: &[&[&str]] = &[
            &["run", net, "--routing", "lazy"],
            &["run", net, "--routing", "compressed"],
            &["check", net, "--routing", "lazy"],
            &["check", net, "--routing", "compressed"],
            &["check", net, "--partition"],
        ];
        for argv in cases {
            let (cmd, flag) = (argv[0], argv[2]);
            let e = run(&args(argv)).unwrap_err();
            assert_eq!(
                e.0,
                format!("unknown flag {flag:?} for `massf {cmd}`; try `massf help`"),
                "{argv:?}"
            );
        }
        let help = usage();
        assert!(!help.contains("--routing"), "{help}");
        assert!(!help.contains("--partition"), "{help}");
    }

    #[test]
    fn run_defaults_write_and_render_report() {
        // The quickstart invocation: no --engines/--traffic/--duration-s,
        // just the scenario and a report path.
        let net_file = write_campus();
        let report = tempfile_path::write("massf_cli_run_report.json", "");
        let out = run(&args(&[
            "run",
            net_file.as_str(),
            "--duration-s",
            "2",
            "--report",
            report.as_str(),
        ]))
        .unwrap();
        assert!(out.contains("approach     : PROFILE"), "{out}");
        assert!(out.contains("report       : "), "{out}");

        let json = std::fs::read_to_string(report.0.as_path()).unwrap();
        assert!(
            json.starts_with("{\n  \"tool\": \"massf-run\",\n"),
            "{json}"
        );
        let parsed = RunReport::from_json(&json).unwrap();
        assert_eq!(parsed.command, "run");
        assert_eq!(parsed.scenario.engines, 3, "default engine count");
        let emu = parsed.emulation.as_ref().expect("emulation section");
        assert_eq!(emu.engines.len(), 3);
        let part = parsed.partition.as_ref().expect("partition section");
        assert!(part.cut_links > 0);
        assert!(parsed.profile.is_some(), "PROFILE telemetry recorded");

        let rendered = run(&args(&["report", report.as_str()])).unwrap();
        assert!(rendered.contains("engine load"), "{rendered}");
        assert!(rendered.contains("partitioner restarts"), "{rendered}");
        assert!(rendered.contains("timing (wall-clock"), "{rendered}");
    }

    #[test]
    fn run_with_epochs_reports_the_rebalance_block() {
        let net_file = write_campus();
        let report = tempfile_path::write("massf_cli_epochs_report.json", "");
        let out = run(&args(&[
            "run",
            net_file.as_str(),
            "--duration-s",
            "2",
            "--epochs",
            "3",
            "--rebalance",
            "incremental",
            "--report",
            report.as_str(),
        ]))
        .unwrap();
        assert!(out.contains("rebalance    : incremental"), "{out}");
        assert!(out.contains("epoch 1:"), "{out}");
        let parsed =
            RunReport::from_json(&std::fs::read_to_string(report.0.as_path()).unwrap()).unwrap();
        let reb = parsed.rebalance.expect("rebalance block");
        assert_eq!(reb.mode, "incremental");
        assert_eq!(reb.epochs.len(), 3);
        assert_eq!(
            parsed.scenario.approach, "TOP",
            "online runs start with TOP"
        );
    }

    #[test]
    fn rebalance_alone_implies_default_epochs() {
        let net_file = write_campus();
        let out = run(&args(&[
            "run",
            net_file.as_str(),
            "--duration-s",
            "2",
            "--rebalance",
            "off",
        ]))
        .unwrap();
        assert!(out.contains("in 4 epochs"), "{out}");
    }

    #[test]
    fn epoch_flags_reject_bad_combinations() {
        let f = write_campus();
        let e = run(&args(&["run", f.as_str(), "--epochs", "0"])).unwrap_err();
        assert!(e.0.contains("--epochs must be at least 1"), "{e}");
        let e = run(&args(&[
            "run",
            f.as_str(),
            "--duration-s",
            "0.01",
            "--epochs",
            "100000000",
        ]))
        .unwrap_err();
        assert!(e.0.contains("more than the run's 10000 µs"), "{e}");
        let e = run(&args(&["run", f.as_str(), "--rebalance", "sideways"])).unwrap_err();
        assert!(e.0.contains("off|incremental"), "{e}");
        let e = run(&args(&["run", f.as_str(), "--rebalance", "global"])).unwrap_err();
        assert!(e.0.contains("off|incremental"), "{e}");
        let e = run(&args(&["run", f.as_str(), "--epochs", "2", "--replay"])).unwrap_err();
        assert!(e.0.contains("--replay cannot be combined"), "{e}");
        let e = run(&args(&[
            "run",
            f.as_str(),
            "--epochs",
            "2",
            "--approach",
            "profile",
        ]))
        .unwrap_err();
        assert!(e.0.contains("TOP"), "{e}");
    }

    #[test]
    fn duration_flag_is_checked_on_every_subcommand() {
        // Every numeric flag, on every subcommand that takes it, is
        // checked once — before any file is read, so no operand is needed
        // — and a bad value is a one-line error naming the flag.
        let huge = "99999999999999999999";
        let sweep: &[(&str, &[&str])] = &[
            (
                "--duration-s",
                &["nan", "-5", "0", "1e-9", "1e300", "inf", "soon", ""],
            ),
            ("--engines", &["abc", "-1", "1.5", "", huge]),
            ("--seed", &["abc", "-1", "1.5", "", huge]),
            ("--epochs", &["abc", "-1", "1.5", "", "0", huge]),
            ("--threads", &["abc", "-1", "1.5", "", "0", huge]),
        ];
        let mut checked = 0;
        for cmd in &COMMANDS {
            for (flag, bad_values) in sweep {
                if !cmd.flags().any(|f| f.name == *flag) {
                    continue;
                }
                for bad in *bad_values {
                    let e = run(&args(&[cmd.name, flag, bad])).unwrap_err();
                    assert!(
                        e.0.starts_with(&format!("{flag} must be")),
                        "{} {flag} {bad:?}: {e}",
                        cmd.name
                    );
                    assert_eq!(e.0.lines().count(), 1, "{e}");
                    checked += 1;
                }
            }
        }
        // run, check, record take --duration-s; run, check, partition,
        // replay --engines and --threads; partition --seed; run --epochs.
        assert_eq!(checked, 3 * 8 + 4 * 5 + 4 * 6 + 5 + 6);
        // The range text is part of the contract.
        let e = run(&args(&["run", "--duration-s", "0"])).unwrap_err();
        assert_eq!(
            e.0,
            "--duration-s must be a number of seconds between 0.000001 and 1000000, got \"0\""
        );
        let run_cmd = COMMANDS.iter().find(|c| c.name == "run").unwrap();
        let duration = |argv: &[&str]| Args::parse(run_cmd, &args(argv)).ok().unwrap().duration;
        assert_eq!(
            duration(&["net.dml", "--duration-s", "2"]),
            Some((2.0, 2_000_000))
        );
        assert_eq!(duration(&["net.dml", "--engines", "2"]), None);
    }

    #[test]
    fn report_rejects_missing_and_foreign_files() {
        let e = run(&args(&["report", "/nonexistent/run.json"])).unwrap_err();
        assert!(e.0.contains("cannot read"), "{e}");
        let junk = tempfile_path::write("massf_cli_junk.json", "{\"tool\": \"other\"}");
        let e = run(&args(&["report", junk.as_str()])).unwrap_err();
        assert!(e.0.contains("not a massf run report"), "{e}");
    }

    #[test]
    fn replay_rejects_foreign_trace() {
        let net_file = write_campus();
        let trace = tempfile_path::write(
            "massf_cli_foreign.txt",
            "# massf-trace v1\nflow 900 901 0 1 100 1\n",
        );
        let e = run(&args(&[
            "replay",
            net_file.as_str(),
            trace.as_str(),
            "--engines",
            "3",
        ]))
        .unwrap_err();
        assert!(e.0.contains("MC009"), "{e}");
        assert!(e.0.contains("does not exist"), "{e}");
    }

    #[test]
    fn every_subcommand_rejects_unknown_flags() {
        // Every (subcommand, flag) pair is accepted iff the table declares
        // it. Operands name nothing readable, so an accepted command line
        // fails later and elsewhere — never as an unknown flag.
        let mut all_flags: Vec<(&str, bool)> = vec![("--bogus", false)];
        for f in COMMANDS.iter().flat_map(|c| c.flags()) {
            all_flags.push((f.name, !f.metavar.is_empty()));
        }
        for cmd in &COMMANDS {
            for &(flag, takes_value) in &all_flags {
                let mut argv = vec![cmd.name, "/nonexistent/a", flag];
                if takes_value {
                    argv.push("1");
                }
                let unknown = format!("unknown flag {flag:?} for `massf {}`", cmd.name);
                let declared = cmd.flags().any(|f| f.name == flag);
                match run(&args(&argv)) {
                    Err(e) if !declared => assert!(e.0.contains(&unknown), "{argv:?}: {e}"),
                    Err(e) => assert!(!e.0.contains("unknown flag"), "{argv:?}: {e}"),
                    Ok(_) => assert!(declared, "{argv:?} accepted an undeclared flag"),
                }
            }
        }
        // A flag given twice is refused, not resolved to either value.
        let f = write_campus();
        let twice = ["--engines", "2", "--engines", "5"];
        let e = run(&args(&[&["partition", f.as_str()], &twice[..]].concat())).unwrap_err();
        assert_eq!(e.0, "--engines given twice");
        // A surplus operand is refused, not ignored.
        let cases: &[&[&str]] = &[
            &["run", f.as_str(), "b.dml"],
            &["report", "a.json", "b.json"],
            &["topology", "campus", "junk"],
            &["partition", f.as_str(), "b.dml", "--engines", "2"],
            &["record", f.as_str(), "b.dml"],
        ];
        for case in cases {
            let e = run(&args(case)).unwrap_err();
            let usage = format!("; usage: massf {} ", case[0]);
            assert!(
                e.0.starts_with(&format!("unexpected operand {:?}", case[2]))
                    && e.0.contains(&usage),
                "{case:?}: {e}"
            );
        }
        let e = run(&args(&["ping", f.as_str(), "host0"])).unwrap_err();
        assert!(
            e.0.starts_with("missing <dst-name>; usage: massf ping "),
            "{e}"
        );
    }

    #[test]
    fn check_clean_scenario_reports_no_errors() {
        let f = write_campus();
        let out = run(&args(&["check", f.as_str(), "--engines", "3"])).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
        // JSON form agrees and is byte-deterministic.
        let j1 = run(&args(&[
            "check",
            f.as_str(),
            "--engines",
            "3",
            "--format",
            "json",
        ]))
        .unwrap();
        let j2 = run(&args(&[
            "check",
            f.as_str(),
            "--engines",
            "3",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"errors\": 0"), "{j1}");
    }

    #[test]
    fn check_disconnected_network_fails_with_code() {
        let island = tempfile_path::write(
            "massf_cli_island.dml",
            "node 0 router \"r0\" as 0\n\
             node 1 host \"h0\" as 0\n\
             node 2 host \"h1\" as 0\n\
             link 0 1 bw 100 lat 100\n",
        );
        let e = run(&args(&["check", island.as_str()])).unwrap_err();
        assert!(e.0.contains("MC001"), "{e}");
        assert!(e.0.contains("MC012"), "{e}");
    }

    #[test]
    fn check_audit_stops_at_an_infeasible_engine_count() {
        // An engine count outside [1, nodes] is MC007's Error; the audit
        // stage must report it and exit 1, not hand the request to the
        // partitioner (which asserts 1 <= nparts <= vertices).
        let f = write_campus();
        for (k, why) in [
            ("61", "61 engines for 60 nodes"),
            ("64", "64 engines for 60 nodes"),
            ("0", "requested zero engines"),
        ] {
            let e = run(&args(&["check", f.as_str(), "--audit", "--engines", k])).unwrap_err();
            assert!(
                e.0.contains(&format!("error[MC007] field engines: {why}")),
                "{e}"
            );
            assert!(
                !e.0.contains("MC013"),
                "no mapping, so no artifact audit: {e}"
            );
        }
        // The default of three engines shrinks to fit a smaller network.
        let pair = tempfile_path::write(
            "massf_cli_pair.dml",
            "node 0 router \"r0\" as 0\n\
             node 1 host \"h0\" as 0\n\
             link 0 1 bw 100 lat 100\n",
        );
        run(&args(&["check", pair.as_str(), "--audit"])).expect("two nodes, two engines");
    }

    #[test]
    fn check_deny_warnings_promotes() {
        // 3 hosts but a CBR session count wanting 10 endpoints is only a
        // Note; an empty session count is a Warn that --deny-warnings
        // turns into a failure.
        let net_file = write_campus();
        let spec = tempfile_path::write(
            "massf_cli_empty_spec.txt",
            "traffic { name CBR\n sessions 0 }",
        );
        let ok = run(&args(&[
            "check",
            net_file.as_str(),
            "--traffic",
            spec.as_str(),
        ]));
        assert!(ok.is_ok(), "warnings alone must not fail: {ok:?}");
        let e = run(&args(&[
            "check",
            net_file.as_str(),
            "--traffic",
            spec.as_str(),
            "--deny-warnings",
        ]))
        .unwrap_err();
        assert!(e.0.contains("MC010"), "{e}");
    }

    #[test]
    fn partition_refuses_disconnected_network() {
        let island = tempfile_path::write(
            "massf_cli_island2.dml",
            "node 0 router \"r0\" as 0\n\
             node 1 host \"h0\" as 0\n\
             node 2 host \"h1\" as 0\n\
             link 0 1 bw 100 lat 100\n",
        );
        let e = run(&args(&["partition", island.as_str(), "--engines", "2"])).unwrap_err();
        assert!(e.0.contains("preflight check failed"), "{e}");
        assert!(e.0.contains("MC001"), "{e}");
    }

    #[test]
    fn ping_command_reports_rtt() {
        let f = write_campus();
        let out = run(&args(&["ping", f.as_str(), "host0", "host39"])).unwrap();
        assert!(out.starts_with("PING host39 from host0"), "{out}");
        assert!(out.contains("rtt"), "{out}");
        assert!(run(&args(&["ping", f.as_str(), "host0", "nowhere"])).is_err());
    }
}
