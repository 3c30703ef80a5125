//! The `massf` command-line tool: generate topologies, partition them, run
//! emulations, and probe routes — the whole reproduction stack from a
//! shell.
//!
//! Subcommands (see `massf help`):
//!
//! ```text
//! massf topology <campus|teragrid|brite|brite-scaleup>
//! massf check <network.dml|trace.txt> [--engines K] [--traffic <spec.txt>]
//!             [--audit] [--capacities C1,C2,...] [--format human|json]
//! massf partition <network.dml> --engines K [--seed N]
//! massf run <network.dml> [--engines K] [--traffic <spec.txt>] [--duration-s S]
//!           [--approach top|place|profile] [--replay] [--report <run.json>]
//! massf ping <network.dml> <src-name> <dst-name>
//! massf report <run.json>
//! ```
//!
//! Every scenario-consuming subcommand runs the `massf-lint` preflight
//! first and refuses to proceed past an Error-level diagnostic
//! (`--deny-warnings` promotes warnings). Unknown `--flags` are rejected
//! on every subcommand.
//!
//! All logic lives here (testable); `src/bin/massf.rs` is a thin shim.

use massf_core::engine::engine::lookahead_us;
use massf_core::engine::probe;
use massf_core::obs::json::{Layout::Block, Writer};
use massf_core::obs::report::{
    EmulationInfo, EngineLoad, EpochRow, LintFinding, LintSummary, PartitionInfo, RebalanceInfo,
    ScenarioInfo,
};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::dml;
use massf_core::topology::NodeId;
use massf_core::traffic::spec::{parse_traffic, TrafficKind};
use massf_core::traffic::{cbr, http, onoff};
use massf_lint::{render, ArtifactInput, Diagnostics, LintInput};

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

/// Usage text.
pub const USAGE: &str = "\
massf — traffic-based load balance for scalable network emulation

USAGE:
  massf topology <campus|teragrid|brite|brite-scaleup>
      Print the network in the description format.

  massf check <network.dml> [--engines K] [--traffic <spec.txt>]
              [--duration-s S] [--audit] [--capacities C1,C2,...]
              [--format human|json] [--deny-warnings] [--threads T]
              [--routing compressed|lazy]
  massf check <trace.txt> [--network <network.dml>] [--format human|json]
              [--deny-warnings]
      Statically lint the scenario: topology, partition request, traffic
      spec, and (when a spec and duration are given) the generated flow
      schedule. --audit (alias --partition) additionally maps a TOP
      partition and runs the artifact passes MC013..MC018 over the
      concrete partition and routing tables; --capacities audits a
      heterogeneous engine-capacity vector and implies --audit. A file
      beginning with `# massf-trace` is linted as a recorded trace
      instead (MC016), plus endpoint validity when --network names the
      topology it was recorded on. Exits 0 when no Error-level
      diagnostics are found, 1 otherwise; the report is printed either
      way. --list-passes instead prints the full stable-code catalog
      (MC001..MC020 scenario/artifact passes + SA000..SA007 source
      passes) with severities; machine-readable under --format json.

  massf srclint [<dir>] [--format human|json] [--deny-warnings]
      Source-level determinism lint over the workspace rooted at <dir>
      (default: the current directory): a comment/string-aware scan of
      src/, crates/, and tests/ for byte-determinism hazards — unordered
      HashMap iteration, wall-clock reads outside the massf-obs
      quarantine, entropy-seeded randomness, environment access, direct
      printing in libraries, thread-identity probes, and floating-point
      accumulation in thread::scope (stable codes SA000..SA007).
      Legitimate sites carry `srclint: allow(SA00x) - reason` comments;
      a stale allow is itself an Error. Exits 0 when no Error-level
      finding survives, 1 otherwise — also when <dir> holds none of the
      three directories (a mistyped root is not a clean tree).

  massf partition <network.dml> --engines K [--seed N] [--threads T]
                  [--deny-warnings]
      Partition the network with the TOP approach; prints node -> engine.
      The produced partition is audited (MC013, MC017, MC018) and the
      command refuses past any Error-level finding.

  massf run <network.dml> [--engines K] [--traffic <spec.txt>] [--duration-s S]
            [--approach top|place|profile] [--replay] [--threads T]
            [--routing compressed|lazy] [--deny-warnings] [--report <run.json>]
            [--epochs E] [--rebalance off|global|incremental]
      Generate background traffic from the spec (a built-in CBR background
      when --traffic is omitted), map it with the chosen approach, emulate,
      and print the load-balance report. Defaults: 3 engines, 10 s,
      profile approach. The mapped partition and routing tables are
      audited (MC013..MC018) before emulating; Errors refuse. --report
      also writes the versioned JSON run report (see `massf report`),
      including the audit as its `lint` block.

      --epochs E splits the emulation into E epochs (at most one per µs
      of the run); each boundary turns the epoch's NetFlow slice into
      measured per-engine loads and drift values (surfaced in the
      report's `rebalance` block and audited as MC019/MC020). --rebalance
      picks what a boundary does when the drift is loud enough:
      `incremental` migrates boundary nodes locally, `global` recomputes
      a full PROFILE partition, `off` (default) only measures. The first
      epoch is mapped traffic-blind with TOP (nothing has been measured
      yet), so --approach must be top or omitted; --replay is
      incompatible. `--rebalance` alone implies 4 epochs.

  massf ping <network.dml> <src-name> <dst-name>
      Emulate an ICMP echo through the discrete-event engine.

  massf record <network.dml> --traffic <spec.txt> --duration-s S --out <trace.txt>
               [--deny-warnings] [--report <run.json>]
      Generate a traffic schedule from the spec and save it as a trace
      (with the declared duration embedded). The trace text is audited
      (MC016) before anything is written; Errors refuse.

  massf replay <network.dml> <trace.txt> --engines K
               [--approach top|place|profile] [--threads T]
               [--routing compressed|lazy] [--deny-warnings]
               [--report <run.json>]
      Replay a recorded trace as fast as possible (isolated network
      emulation, the paper's Figures 9/10 measurement). The trace is
      checked first (MC016 shape plus endpoint validity against the
      network), and the mapped partition is audited before emulating.

  massf report <run.json>
      Render a JSON run report written by --report as human text:
      sparkline load timelines, imbalance-over-time, partitioner restart
      outcomes, and the wall-clock stage-timing breakdown.

  --threads T       Worker threads for the mapping pipeline (routing
                    tables, traffic accumulation, partitioner restarts).
                    Defaults to the machine's core count; results are
                    identical at any T.
  --routing R       When the routing table's interval-encoded rows are
                    filled: `compressed` (default; every row up front)
                    or `lazy` (each row on its first lookup, so resident
                    bytes follow each engine's own traffic). Routing
                    answers are bit-identical in both; reports gain
                    `routing.*` size statistics, and lazy runs add
                    demand/residency lines sampled after the emulation.
  --deny-warnings   Promote preflight Warn diagnostics to Errors.

  massf help
      Show this text.

Scenario-consuming subcommands run the massf-lint preflight before the
pipeline and the artifact audit after it, refusing to proceed past any
Error-level diagnostic (stable codes MC001..MC020).
";

/// Runs the CLI; returns the text to print or an error message.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(USAGE.to_string()),
        Some("topology") => cmd_topology(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("srclint") => cmd_srclint(&args[1..]),
        Some("partition") => cmd_partition(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("ping") => cmd_ping(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some(other) => Err(err(format!("unknown command {other:?}; try `massf help`"))),
    }
}

fn cmd_topology(args: &[String]) -> Result<String, CliError> {
    validate_flags("topology", args, &[], &[])?;
    let name = args
        .first()
        .ok_or_else(|| err("usage: massf topology <name>"))?;
    let topo = match name.as_str() {
        "campus" => Topology::Campus,
        "teragrid" => Topology::TeraGrid,
        "brite" => Topology::Brite,
        "brite-scaleup" => Topology::BriteScaleup,
        other => return Err(err(format!("unknown topology {other:?}"))),
    };
    Ok(dml::write(&topo.build()))
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `--duration-s S` into `(seconds, microseconds)`; `None` when the
/// flag is absent. The emulated span must be at least 1 µs and at most
/// the lint plausibility horizon: NaN, zero and negatives used to
/// emulate an empty schedule silently, and `1e300` saturated to a run
/// that never ends.
fn duration_flag(args: &[String]) -> Result<Option<(f64, u64)>, CliError> {
    let Some(text) = flag(args, "--duration-s") else {
        return Ok(None);
    };
    let max_us = massf_lint::passes::MAX_PLAUSIBLE_HORIZON_US;
    match text.parse::<f64>() {
        // NaN is in no range.
        Ok(s) if (1.0..=max_us as f64).contains(&(s * 1e6)) => Ok(Some((s, (s * 1e6) as u64))),
        _ => Err(err(format!(
            "--duration-s must be a number of seconds between 0.000001 and {}, got {text:?}",
            max_us / 1_000_000
        ))),
    }
}

/// Rejects any `--flag` the subcommand does not understand. `value_flags`
/// consume the following argument; `bool_flags` stand alone. A value flag
/// in final position is also an error (its value is missing).
fn validate_flags(
    cmd: &str,
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), CliError> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if value_flags.contains(&a) {
                if i + 1 >= args.len() {
                    return Err(err(format!("{a} requires a value")));
                }
                i += 2;
                continue;
            }
            if !bool_flags.contains(&a) {
                return Err(err(format!(
                    "unknown flag {a:?} for `massf {cmd}`; try `massf help`"
                )));
            }
        }
        i += 1;
    }
    Ok(())
}

/// Runs the `massf-lint` preflight over everything the subcommand knows
/// and refuses (with the human-rendered report as the error) when any
/// Error-level diagnostic — or any warning under `deny_warnings` — is
/// present.
fn preflight(
    net: &Network,
    engines: Option<usize>,
    traffic: Option<&TrafficKind>,
    predicted: &[PredictedFlow],
    flows: &[FlowSpec],
    deny_warnings: bool,
) -> Result<(), CliError> {
    let mut input = LintInput::network(net);
    input.engines = engines;
    input.predicted = predicted;
    input.flows = flows;
    input.traffic = traffic;
    let mut diags = massf_lint::lint_scenario(&input);
    if deny_warnings {
        diags.deny_warnings();
        diags.finish();
    }
    if diags.has_errors() {
        return Err(err(format!(
            "preflight check failed\n{}",
            render::human(&diags)
        )));
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<String, CliError> {
    validate_flags(
        "check",
        args,
        &[
            "--engines",
            "--traffic",
            "--duration-s",
            "--format",
            "--threads",
            "--routing",
            "--capacities",
            "--network",
        ],
        &["--deny-warnings", "--audit", "--partition", "--list-passes"],
    )?;
    let json = match flag(args, "--format").unwrap_or("human") {
        "human" => false,
        "json" => true,
        other => return Err(err(format!("unknown format {other:?} (human|json)"))),
    };
    if args.iter().any(|a| a == "--list-passes") {
        return Ok(list_passes(json));
    }
    let path = args.first().ok_or_else(|| {
        err("usage: massf check <network.dml|trace.txt> [--engines K] [--traffic <spec>]")
    })?;
    let deny = args.iter().any(|a| a == "--deny-warnings");
    // Validated here, consumed by the audit stage below; every lint stage
    // is byte-identical at any thread count and under either routing kind.
    let threads = threads_flag(args)?;
    let routing = routing_flag(args)?;
    let engines = match flag(args, "--engines") {
        Some(e) => Some(
            e.parse::<usize>()
                .map_err(|_| err("--engines must be a number"))?,
        ),
        None => None,
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    // A trace file lints as a trace, not as a topology. Anything whose
    // first bytes are the trace header goes down the MC016 path —
    // including wrong-version traces, which MC016 rejects with the found
    // header rather than a DML parse error.
    if text.starts_with(massf_core::traffic::tracefile::HEADER_PREFIX) {
        return check_trace(&text, args, json, deny);
    }
    let net = dml::parse(&text).map_err(|e| err(format!("{path}: {e}")))?;
    let kind = match flag(args, "--traffic") {
        Some(spec_path) => {
            let text = std::fs::read_to_string(spec_path)
                .map_err(|e| err(format!("cannot read {spec_path}: {e}")))?;
            Some(parse_traffic(&text).map_err(|e| err(format!("{spec_path}: {e}")))?)
        }
        None => None,
    };
    let (_, duration_us) = duration_flag(args)?.unwrap_or(DEFAULT_DURATION);

    // Stage 1: lint everything known statically. Flow generation asserts
    // on degenerate host sets — exactly what the MC010 spec-fit pass
    // rejects — so the schedule is generated and linted in a second stage
    // only when no spec-fit Error was found. Other errors (say a
    // disconnected topology) do not block stage 2: the report should show
    // the schedule-level findings alongside the structural ones.
    let mut input = LintInput::network(&net);
    input.engines = engines;
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
    // the real pipeline and run MC013..MC018 over the partition and
    // routing tables it produced.
    let caps: Option<Vec<f64>> = match flag(args, "--capacities") {
        Some(list) => Some(
            list.split(',')
                .map(|s| {
                    s.trim()
                        .parse::<f64>()
                        .map_err(|_| err(format!("--capacities: {s:?} is not a number")))
                })
                .collect::<Result<_, _>>()?,
        ),
        None => None,
    };
    let audit = caps.is_some() || args.iter().any(|a| a == "--audit" || a == "--partition");
    let engines_n = engines.unwrap_or(3.min(net.node_count()));
    // The partitioner asserts 1 <= engines <= nodes. A request outside
    // that is already an Error above (MC007, or MC001 for an empty
    // network), so the report stops there: there is no mapping to audit.
    if audit && (1..=net.node_count()).contains(&engines_n) {
        let mut cfg = MapperConfig::new(engines_n);
        if let Some(par) = threads {
            cfg = cfg.with_parallelism(par);
        }
        if let Some(kind) = routing {
            cfg = cfg.with_routing(kind);
        }
        // A degenerate capacity vector never reaches the mapper (it
        // asserts on length and on the normalized shares); MC017 reports
        // it on the audit side instead.
        if let Some(c) = &caps {
            if c.len() == engines_n && massf_lint::artifact::capacity_shares(c).is_some() {
                cfg = cfg.with_engine_capacities(c.clone());
            }
        }
        let study = MappingStudy::new(net.clone(), cfg);
        let partition = study.map(Approach::Top, &[], &[]);
        let mut artifact = ArtifactInput::new(&net)
            .with_engines(engines_n)
            .with_ubfactor(study.cfg.ubfactor)
            .with_partition(&partition)
            .with_tables(&study.tables);
        if let Some(c) = &caps {
            artifact = artifact.with_capacities(c);
        }
        diags.merge(massf_lint::lint_artifacts(&artifact));
        diags.finish();
    }
    if deny {
        diags.deny_warnings();
        diags.finish();
    }
    let report = if json {
        render::json(&diags)
    } else {
        render::human(&diags)
    };
    if diags.has_errors() {
        Err(CliError(report))
    } else {
        Ok(report)
    }
}

/// The trace half of `massf check`: MC016 over the file text, plus the
/// request passes (endpoint validity and schedule feasibility) when
/// `--network` supplies the topology the trace was recorded on.
fn check_trace(text: &str, args: &[String], json: bool, deny: bool) -> Result<String, CliError> {
    let net = match flag(args, "--network") {
        Some(p) => Some(load_network(p)?),
        None => None,
    };
    let mut audit = massf_core::audit::audit_trace(text, net.as_ref());
    if deny {
        audit.diags.deny_warnings();
        audit.diags.finish();
    }
    let report = if json {
        render::json(&audit.diags)
    } else {
        render::human(&audit.diags)
    };
    if audit.diags.has_errors() {
        Err(CliError(report))
    } else {
        Ok(report)
    }
}

/// The full stable-code catalog for `massf check --list-passes`: every
/// scenario/artifact pass (MC001..MC020, from `massf-lint`) and every
/// source pass (SA000..SA007, from `massf-srclint`) with its worst
/// severity and one-line description. Machine-readable under
/// `--format json` with byte-deterministic output.
fn list_passes(json: bool) -> String {
    // (code, family, severity label, name, summary) rows in catalog order.
    let mut rows: Vec<(&str, &str, &str, &str, &str)> = Vec::new();
    for code in massf_lint::Code::ALL {
        rows.push((
            code.as_str(),
            "scenario",
            code.worst_severity().label(),
            code.name(),
            code.summary(),
        ));
    }
    for code in massf_srclint::SaCode::ALL {
        rows.push((
            code.as_str(),
            "source",
            code.severity().label(),
            code.name(),
            code.summary(),
        ));
    }
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
            massf_lint::Code::ALL.len(),
            massf_srclint::SaCode::ALL.len()
        ));
        out
    }
}

/// `massf srclint [<dir>] [--format human|json] [--deny-warnings]` — the
/// source-level determinism lint (stable codes SA000..SA007) over the
/// workspace rooted at `<dir>` (default: the current directory). Mirrors
/// the `massf check` contract: the report is printed either way, and the
/// command fails when any Error-level finding (or any Warn under
/// `--deny-warnings`) survives the allow annotations.
fn cmd_srclint(args: &[String]) -> Result<String, CliError> {
    validate_flags("srclint", args, &["--format"], &["--deny-warnings"])?;
    let json = match flag(args, "--format").unwrap_or("human") {
        "human" => false,
        "json" => true,
        other => return Err(err(format!("unknown format {other:?} (human|json)"))),
    };
    let deny = args.iter().any(|a| a == "--deny-warnings");
    // Positional root, skipping flag values.
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--format" {
            i += 2;
            continue;
        }
        if a.starts_with("--") {
            i += 1;
            continue;
        }
        positionals.push(a);
        i += 1;
    }
    if positionals.len() > 1 {
        return Err(err(
            "usage: massf srclint [<dir>] [--format human|json] [--deny-warnings]",
        ));
    }
    let root = positionals.first().copied().unwrap_or(".");
    let mut report = massf_srclint::lint_workspace(std::path::Path::new(root))
        .map_err(|e| err(format!("cannot scan {root}: {e}")))?;
    if deny {
        report.deny_warnings();
    }
    let text = if json {
        massf_srclint::render::render_json(&report)
    } else {
        massf_srclint::render::render_human(&report)
    };
    if report.has_errors() {
        Err(CliError(text))
    } else {
        Ok(text)
    }
}

/// Applies `--deny-warnings` to a post-pipeline artifact audit and
/// refuses — with the human-rendered report — past any Error-level
/// finding, mirroring the preflight contract.
fn audit_gate(diags: &mut Diagnostics, deny_warnings: bool) -> Result<(), CliError> {
    if deny_warnings {
        diags.deny_warnings();
        diags.finish();
    }
    if diags.has_errors() {
        return Err(err(format!(
            "artifact audit failed\n{}",
            render::human(diags)
        )));
    }
    Ok(())
}

/// Digests a finished lint report into the run report's plain-string
/// `lint` block (`massf-obs` cannot depend on `massf-lint` without a
/// crate cycle, so the conversion lives here).
fn lint_summary(diags: &Diagnostics) -> LintSummary {
    use massf_lint::Severity;
    LintSummary {
        errors: diags.count(Severity::Error) as u64,
        warnings: diags.count(Severity::Warn) as u64,
        notes: diags.count(Severity::Note) as u64,
        passes_run: diags.passes_run() as u64,
        findings: diags
            .iter()
            .map(|d| LintFinding {
                severity: d.severity.label().to_string(),
                code: d.code.as_str().to_string(),
                location: d.location.render(),
                message: d.message.clone(),
            })
            .collect(),
    }
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
    run_report.lint = Some(lint_summary(audit));
    fill(&mut run_report);
    std::fs::write(path, run_report.to_json()).map_err(|e| err(format!("cannot write {path}: {e}")))
}

/// Parses `--routing R` into a [`RoutingKind`]; `None` when absent (the
/// `MapperConfig` default — compressed — applies).
fn routing_flag(args: &[String]) -> Result<Option<RoutingKind>, CliError> {
    match flag(args, "--routing") {
        None => Ok(None),
        Some(label) => RoutingKind::parse(label)
            .map(Some)
            .ok_or_else(|| err(format!("--routing must be compressed|lazy, got {label:?}"))),
    }
}

/// Surfaces routing-table size statistics in the run report: measured vs
/// paper-predicted bytes (the names sort adjacently in the counters
/// block), the analytic n × n baseline, and — for prefilled tables, whose
/// rows are all there to count — the row and run shape. All values are
/// deterministic functions of the topology, so they sit above the
/// report's timing boundary.
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
    if tables.kind() == RoutingKind::Compressed {
        let s = tables.run_stats();
        rec.add_counter("routing.rows_leaf", s.leaf_rows as u64);
        rec.add_counter("routing.rows_unique", s.unique_rows as u64);
        rec.add_counter("routing.runs_max_per_row", s.runs_max_per_row as u64);
        rec.add_counter("routing.runs_total", s.runs_total as u64);
        rec.set_gauge("routing.runs_mean_per_row", s.runs_mean_per_row);
    }
}

/// Surfaces lazy-table demand statistics after the emulation: what the run
/// actually materialized, the lookup hit/miss split, and each engine's
/// resident share under the final partition. A no-op for prefilled
/// tables. Every value is a function of the topology and the flow
/// schedule — not of the thread count or interleaving — so these counters
/// land above the report's timing mask and stay byte-identical across
/// `--threads`.
fn record_lazy_run_stats(rec: &mut Recorder, study: &MappingStudy, assignment: &[u32]) {
    let tables = &study.tables;
    let Some(s) = tables.lazy_stats() else {
        return;
    };
    rec.add_counter("routing.lazy_demand_hits", s.demand_hits);
    rec.add_counter("routing.lazy_demand_misses", s.demand_misses);
    rec.add_counter("routing.lazy_lookups", s.lookups);
    rec.add_counter("routing.lazy_resident_bytes", s.resident_bytes);
    rec.add_counter("routing.lazy_rows_leaf", s.rows_leaf as u64);
    rec.add_counter("routing.lazy_rows_materialized", s.rows_materialized as u64);
    rec.add_counter("routing.lazy_rows_pending", s.rows_pending as u64);
    rec.add_counter("routing.lazy_runs_resident", s.runs_resident as u64);
    let nengines = assignment
        .iter()
        .map(|&p| p as usize + 1)
        .max()
        .unwrap_or(1);
    if let Some(slices) = tables.slice_stats(assignment, nengines) {
        for sl in &slices {
            let e = sl.residency.engine;
            rec.add_counter(
                &format!("routing.lazy_slice{e}_resident_bytes"),
                sl.residency.resident_bytes,
            );
            rec.add_counter(
                &format!("routing.lazy_slice{e}_rows"),
                sl.residency.rows_materialized as u64,
            );
        }
    }
}

/// Parses `--threads T` into a [`Parallelism`]; `None` when absent.
fn threads_flag(args: &[String]) -> Result<Option<Parallelism>, CliError> {
    match flag(args, "--threads") {
        None => Ok(None),
        Some(t) => {
            let n: usize = t
                .parse()
                .map_err(|_| err("--threads must be a positive number"))?;
            if n == 0 {
                return Err(err("--threads must be a positive number"));
            }
            Ok(Some(Parallelism::new(n)))
        }
    }
}

fn load_network(path: &str) -> Result<Network, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    // Structural soundness (connectivity, degenerate nodes, ...) is the
    // lint preflight's job, so parse errors are the only hard failures.
    dml::parse(&text).map_err(|e| err(format!("{path}: {e}")))
}

fn cmd_partition(args: &[String]) -> Result<String, CliError> {
    validate_flags(
        "partition",
        args,
        &["--engines", "--seed", "--threads"],
        &["--deny-warnings"],
    )?;
    let path = args
        .first()
        .ok_or_else(|| err("usage: massf partition <network.dml> --engines K"))?;
    let engines: usize = flag(args, "--engines")
        .ok_or_else(|| err("missing --engines"))?
        .parse()
        .map_err(|_| err("--engines must be a number"))?;
    let net = load_network(path)?;
    let deny = args.iter().any(|a| a == "--deny-warnings");
    preflight(&net, Some(engines), None, &[], &[], deny)?;
    let mut cfg = MapperConfig::new(engines);
    if let Some(seed) = flag(args, "--seed") {
        cfg = cfg.with_seed(seed.parse().map_err(|_| err("--seed must be a number"))?);
    }
    if let Some(par) = threads_flag(args)? {
        cfg = cfg.with_parallelism(par);
    }
    let partition = massf_core::mapping::top::map_top(&net, &cfg);
    // Post-pipeline audit of the concrete partition (no routing tables
    // were built here, so MC014/MC015 skip but still count as run).
    let mut audit = massf_lint::lint_artifacts(
        &ArtifactInput::new(&net)
            .with_engines(engines)
            .with_ubfactor(cfg.ubfactor)
            .with_partition(&partition),
    );
    audit_gate(&mut audit, deny)?;
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

/// Digests an online-rebalancing outcome into the run report's
/// `rebalance` block.
fn rebalance_info(mode: RebalanceMode, outcome: &IncrementalOutcome) -> RebalanceInfo {
    RebalanceInfo {
        mode: mode.label().to_string(),
        migrated_nodes: outcome.migrated_nodes as u64,
        remaps_applied: outcome.remaps_applied as u64,
        epochs: outcome
            .epoch_stats
            .iter()
            .map(|e| EpochRow {
                epoch: e.epoch as u64,
                end_us: e.end_us,
                engine_loads: e.engine_loads.clone(),
                cut_packets: e.cut_packets,
                drift_measured: e.drift_measured,
                drift_predicted: e.drift_predicted,
                applied: e.applied,
                skipped: e.skipped,
                moves: e.moves as u64,
                cost_us: e.cost_us,
                imbalance_before: e.imbalance_before,
                imbalance_after: e.imbalance_after,
            })
            .collect(),
    }
}

fn cmd_run(args: &[String]) -> Result<String, CliError> {
    validate_flags(
        "run",
        args,
        &[
            "--engines",
            "--traffic",
            "--duration-s",
            "--approach",
            "--threads",
            "--routing",
            "--report",
            "--epochs",
            "--rebalance",
        ],
        &["--replay", "--deny-warnings"],
    )?;
    let path = args.first().ok_or_else(|| {
        err("usage: massf run <network.dml> [--engines K] [--traffic <spec>] [--duration-s S]")
    })?;
    let mut rec = Recorder::new();
    let span = rec.start();
    let net = load_network(path)?;
    rec.finish("cli/load_network", span);
    let engines: usize = match flag(args, "--engines") {
        Some(e) => e.parse().map_err(|_| err("--engines must be a number"))?,
        None => 3,
    };
    let (spec_label, spec_text) = match flag(args, "--traffic") {
        Some(spec_path) => (
            spec_path,
            std::fs::read_to_string(spec_path)
                .map_err(|e| err(format!("cannot read {spec_path}: {e}")))?,
        ),
        None => ("<built-in CBR>", DEFAULT_TRAFFIC_SPEC.to_string()),
    };
    let kind = parse_traffic(&spec_text).map_err(|e| err(format!("{spec_label}: {e}")))?;
    let (duration_s, duration_us) = duration_flag(args)?.unwrap_or(DEFAULT_DURATION);
    let approach = match flag(args, "--approach").unwrap_or("profile") {
        "top" => Approach::Top,
        "place" => Approach::Place,
        "profile" => Approach::Profile,
        other => return Err(err(format!("unknown approach {other:?}"))),
    };
    let replay = args.iter().any(|a| a == "--replay");
    let deny = args.iter().any(|a| a == "--deny-warnings");
    let mode = match flag(args, "--rebalance") {
        Some(m) => RebalanceMode::parse(m).ok_or_else(|| {
            err(format!(
                "--rebalance must be off|global|incremental, got {m:?}"
            ))
        })?,
        None => RebalanceMode::Off,
    };
    let epochs: usize = match flag(args, "--epochs") {
        Some(e) => {
            let n = e.parse().map_err(|_| err("--epochs must be a number"))?;
            if n == 0 {
                return Err(err("--epochs must be at least 1"));
            }
            // Each epoch boundary is a full remap: more of them than the run
            // has microseconds would remap over zero virtual time.
            if n as u64 > duration_us {
                return Err(err(format!(
                    "--epochs {n} is more than the run's {duration_us} µs"
                )));
            }
            n
        }
        // `--rebalance` without `--epochs` implies the default epoch count
        // (`off` included: it measures epochs without ever migrating).
        None if flag(args, "--rebalance").is_some() => IncrementalConfig::default().epochs,
        None => 1,
    };
    let online = epochs > 1;
    if online {
        if replay {
            return Err(err("--replay cannot be combined with --epochs"));
        }
        // The online run starts traffic-blind: epoch 1 is mapped with TOP
        // and later boundaries adapt from measurements, so a predicted or
        // profiled initial approach has nothing to contribute.
        if !matches!(flag(args, "--approach"), None | Some("top")) {
            return Err(err(
                "--epochs maps the first epoch with TOP; use --approach top or omit it",
            ));
        }
    }
    let approach = if online { Approach::Top } else { approach };

    // Stage 1: static preflight; flow generation is only safe on a clean
    // base (generators assert on degenerate host sets).
    let span = rec.start();
    preflight(&net, Some(engines), Some(&kind), &[], &[], deny)?;
    rec.finish("cli/preflight", span);
    let span = rec.start();
    let (flows, predicted) = generate_traffic(&net, &kind, duration_us);
    rec.finish("cli/traffic_gen", span);
    if flows.is_empty() {
        return Err(err("the traffic spec generated no flows for this duration"));
    }
    // Stage 2: the generated schedule itself.
    let span = rec.start();
    preflight(&net, Some(engines), Some(&kind), &predicted, &flows, deny)?;
    rec.finish("cli/preflight_schedule", span);
    rec.add_counter("traffic.flows", flows.len() as u64);
    let mut cfg = MapperConfig::new(engines);
    if let Some(par) = threads_flag(args)? {
        cfg = cfg.with_parallelism(par);
    }
    if let Some(kind) = routing_flag(args)? {
        cfg = cfg.with_routing(kind);
    }
    let threads = cfg.parallelism.get();
    let span = rec.start();
    let study = MappingStudy::new(net, cfg);
    rec.finish("mapping/routing_tables", span);
    record_routing_stats(&mut rec, &study);
    let partition = study.map_obs(approach, &predicted, &flows, &mut rec);
    let (report, rebalance, mut audit, final_partition) = if online {
        // Online path: the audit runs once, after the emulation, when the
        // MC019/MC020 drift evidence exists — same refusal contract.
        let inc_cfg = IncrementalConfig {
            epochs,
            ..IncrementalConfig::default()
        };
        let span = rec.start();
        let outcome = massf_core::mapping::run_online(&study, &flows, &predicted, &inc_cfg, mode);
        rec.finish("engine/emulate", span);
        // PLACE's plan summed per engine under the initial partition: the
        // MC019 baseline the measured epochs are compared against.
        let (_, predicted_node) = massf_core::mapping::weights::accumulate_predicted_with(
            &study.net,
            &study.tables,
            &predicted,
            study.cfg.parallelism,
        );
        let mut predicted_engine = vec![0.0f64; engines];
        for (v, w) in predicted_node.iter().enumerate() {
            predicted_engine[partition.part[v] as usize] += w;
        }
        let epoch_loads: Vec<Vec<u64>> = outcome
            .epoch_stats
            .iter()
            .map(|e| e.engine_loads.clone())
            .collect();
        let span = rec.start();
        let audit = massf_core::audit::audit_study_online(
            &study,
            &partition,
            &predicted_engine,
            &epoch_loads,
        );
        rec.finish("cli/audit", span);
        let info = rebalance_info(mode, &outcome);
        let final_partition = outcome
            .epoch_partitions
            .last()
            .cloned()
            .unwrap_or_else(|| partition.clone());
        (outcome.report, Some(info), audit, final_partition)
    } else {
        // Post-pipeline audit: the mapped partition plus the study's
        // routing tables must hold up before any emulation time is spent
        // on them.
        let span = rec.start();
        let mut audit = massf_core::audit::audit_study(&study, &partition);
        rec.finish("cli/audit", span);
        audit_gate(&mut audit, deny)?;
        let span = rec.start();
        let report = if replay {
            study.replay(&partition, &flows)
        } else {
            study.evaluate(&partition, &flows, CostModel::live_application())
        };
        rec.finish("engine/emulate", span);
        (report, None, audit, partition.clone())
    };
    audit_gate(&mut audit, deny)?;
    record_lazy_run_stats(&mut rec, &study, &final_partition.part);

    let mut out = String::new();
    out.push_str(&format!("network      : {}\n", study.net.summary()));
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

    if let Some(report_path) = flag(args, "--report") {
        let scenario = ScenarioInfo {
            network: study.net.summary(),
            engines: engines as u64,
            approach: approach.label().to_string(),
            flows: flows.len() as u64,
            duration_s: Some(duration_s),
        };
        write_run_report(report_path, "run", scenario, rec, threads, &audit, |r| {
            // The online path reports the partition actually in force at
            // the end of the run (after any boundary migrations).
            r.partition = Some(partition_info(&study.net, &final_partition));
            r.emulation = Some(emulation_info(&report));
            r.rebalance = rebalance;
        })?;
        out.push_str(&format!("report       : {report_path}\n"));
    }
    Ok(out)
}

fn cmd_record(args: &[String]) -> Result<String, CliError> {
    validate_flags(
        "record",
        args,
        &["--traffic", "--duration-s", "--out", "--report"],
        &["--deny-warnings"],
    )?;
    let path = args.first().ok_or_else(|| {
        err("usage: massf record <network.dml> --traffic <spec> --duration-s S --out <trace>")
    })?;
    let mut rec = Recorder::new();
    let span = rec.start();
    let net = load_network(path)?;
    rec.finish("cli/load_network", span);
    let spec_path = flag(args, "--traffic").ok_or_else(|| err("missing --traffic"))?;
    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| err(format!("cannot read {spec_path}: {e}")))?;
    let kind = parse_traffic(&spec_text).map_err(|e| err(format!("{spec_path}: {e}")))?;
    let (duration_s, duration_us) =
        duration_flag(args)?.ok_or_else(|| err("missing --duration-s"))?;
    let out_path = flag(args, "--out").ok_or_else(|| err("missing --out"))?;
    let deny = args.iter().any(|a| a == "--deny-warnings");
    preflight(&net, None, Some(&kind), &[], &[], deny)?;
    let span = rec.start();
    let (flows, _) = generate_traffic(&net, &kind, duration_us);
    rec.finish("cli/traffic_gen", span);
    rec.add_counter("traffic.flows", flows.len() as u64);
    let text = massf_core::traffic::tracefile::write_with_duration(&flows, Some(duration_us));
    // Audit the exact bytes headed for disk — what `replay` and
    // `massf check` will read back — and refuse to write a broken trace.
    let mut audit = massf_core::audit::audit_trace(&text, Some(&net)).diags;
    audit_gate(&mut audit, deny)?;
    std::fs::write(out_path, &text).map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
    if let Some(report_path) = flag(args, "--report") {
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
    Ok(format!(
        "recorded {} flows to {out_path}
",
        flows.len()
    ))
}

fn cmd_replay(args: &[String]) -> Result<String, CliError> {
    let [path, trace_path, rest @ ..] = args else {
        return Err(err(
            "usage: massf replay <network.dml> <trace.txt> --engines K",
        ));
    };
    validate_flags(
        "replay",
        rest,
        &[
            "--engines",
            "--approach",
            "--threads",
            "--routing",
            "--report",
        ],
        &["--deny-warnings"],
    )?;
    let mut rec = Recorder::new();
    let span = rec.start();
    let net = load_network(path)?;
    rec.finish("cli/load_network", span);
    let trace_text = std::fs::read_to_string(trace_path)
        .map_err(|e| err(format!("cannot read {trace_path}: {e}")))?;
    let deny = rest.iter().any(|a| a == "--deny-warnings");
    // MC016 trace-shape lint plus endpoint validity against this
    // topology; the former ad-hoc "trace contains no flows" refusal is
    // the MC016 empty-trace Error now.
    let span = rec.start();
    let trace_audit = massf_core::audit::audit_trace(&trace_text, Some(&net));
    rec.finish("cli/trace_audit", span);
    let mut trace_diags = trace_audit.diags;
    if deny {
        trace_diags.deny_warnings();
        trace_diags.finish();
    }
    if trace_diags.has_errors() {
        return Err(err(format!(
            "trace check failed\n{}",
            render::human(&trace_diags)
        )));
    }
    let flows = trace_audit
        .trace
        .expect("an error-free trace audit implies the trace parsed")
        .flows;
    let engines: usize = flag(rest, "--engines")
        .ok_or_else(|| err("missing --engines"))?
        .parse()
        .map_err(|_| err("--engines must be a number"))?;
    // Infeasible engine counts and degenerate schedules surface here as
    // MC* diagnostics.
    let span = rec.start();
    preflight(&net, Some(engines), None, &[], &flows, deny)?;
    rec.finish("cli/preflight", span);
    rec.add_counter("traffic.flows", flows.len() as u64);
    let approach = match flag(rest, "--approach").unwrap_or("profile") {
        "top" => Approach::Top,
        "place" => Approach::Place,
        "profile" => Approach::Profile,
        other => return Err(err(format!("unknown approach {other:?}"))),
    };
    let mut cfg = MapperConfig::new(engines);
    if let Some(par) = threads_flag(rest)? {
        cfg = cfg.with_parallelism(par);
    }
    if let Some(kind) = routing_flag(rest)? {
        cfg = cfg.with_routing(kind);
    }
    let threads = cfg.parallelism.get();
    let span = rec.start();
    let study = MappingStudy::new(net, cfg);
    rec.finish("mapping/routing_tables", span);
    record_routing_stats(&mut rec, &study);
    let partition = study.map_obs(approach, &[], &flows, &mut rec);
    // Post-pipeline audit: partition and routing tables, folded together
    // with the trace findings for the run report's lint block.
    let mut audit = massf_core::audit::audit_study(&study, &partition);
    audit.merge(trace_diags);
    audit.finish();
    audit_gate(&mut audit, deny)?;
    let span = rec.start();
    let report = study.replay(&partition, &flows);
    rec.finish("engine/emulate", span);
    record_lazy_run_stats(&mut rec, &study, &partition.part);
    if let Some(report_path) = flag(rest, "--report") {
        let scenario = ScenarioInfo {
            network: study.net.summary(),
            engines: engines as u64,
            approach: approach.label().to_string(),
            flows: flows.len() as u64,
            // The trace fixes the schedule; no wall-clock duration knob is
            // involved in a replay.
            duration_s: None,
        };
        write_run_report(report_path, "replay", scenario, rec, threads, &audit, |r| {
            r.partition = Some(partition_info(&study.net, &partition));
            r.emulation = Some(emulation_info(&report));
        })?;
    }
    Ok(format!(
        "replayed {} flows under {}: {} packets in {:.2}s modeled, imbalance {:.3}
{}
",
        flows.len(),
        approach.label(),
        report.delivered,
        report.emulation_time_s(),
        load_imbalance(&report.engine_events),
        report.balance_line()
    ))
}

fn cmd_report(args: &[String]) -> Result<String, CliError> {
    validate_flags("report", args, &[], &[])?;
    let path = args
        .first()
        .ok_or_else(|| err("usage: massf report <run.json>"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let report = RunReport::from_json(&text).map_err(|e| err(format!("{path}: {e}")))?;
    Ok(report.render_human())
}

fn find_node(net: &Network, name: &str) -> Result<NodeId, CliError> {
    net.nodes()
        .iter()
        .find(|n| n.name == name)
        .map(|n| n.id)
        .ok_or_else(|| err(format!("no node named {name:?}")))
}

fn cmd_ping(args: &[String]) -> Result<String, CliError> {
    validate_flags("ping", args, &[], &[])?;
    let [path, src, dst] = args else {
        return Err(err("usage: massf ping <network.dml> <src-name> <dst-name>"));
    };
    let net = load_network(path)?;
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
        assert!(run(&args(&["help"])).unwrap().contains("massf topology"));
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert!(e.0.contains("unknown command"));
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
    fn routing_dense_is_refused_like_any_unknown_label() {
        let net_file = write_campus();
        let spec = tempfile_path::write(
            "massf_cli_dense_spec.txt",
            "traffic { name CBR\n sessions 5\n rate_mbps 3 }",
        );
        let trace = tempfile_path::write("massf_cli_dense_trace.txt", "");
        run(&args(&[
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
        let cases: &[&[&str]] = &[
            &["check", net_file.as_str()],
            &["run", net_file.as_str(), "--duration-s", "2"],
            &[
                "replay",
                net_file.as_str(),
                trace.as_str(),
                "--engines",
                "3",
            ],
        ];
        for case in cases {
            for label in ["dense", "sparse"] {
                let mut argv = args(case);
                argv.extend(args(&["--routing", label]));
                let e = run(&argv).unwrap_err();
                assert_eq!(
                    e.0,
                    format!("--routing must be compressed|lazy, got {label:?}"),
                    "{case:?}"
                );
            }
        }
        for line in USAGE.lines().filter(|l| l.contains("[--routing")) {
            assert!(line.contains("[--routing compressed|lazy]"), "{line}");
        }
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
        assert!(e.0.contains("off|global|incremental"), "{e}");
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
        let f = write_campus();
        let spec = "examples/scenarios/cbr.txt";
        for bad in ["nan", "-5", "0", "1e-9", "1e300", "inf", "soon"] {
            for cmd in [
                vec!["run", f.as_str()],
                vec!["check", f.as_str(), "--traffic", spec],
                vec![
                    "record",
                    f.as_str(),
                    "--traffic",
                    spec,
                    "--out",
                    "/nonexistent/t",
                ],
            ] {
                let mut all = cmd.clone();
                all.extend(["--duration-s", bad]);
                let e = run(&args(&all)).unwrap_err();
                assert!(
                    e.0.starts_with("--duration-s must be"),
                    "{cmd:?} {bad}: {e}"
                );
                assert_eq!(e.0.lines().count(), 1, "{e}");
            }
        }
        assert_eq!(
            duration_flag(&args(&["--duration-s", "2"])),
            Ok(Some((2.0, 2_000_000)))
        );
        assert_eq!(duration_flag(&args(&["--engines", "2"])), Ok(None));
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
        let f = write_campus();
        let cases: &[&[&str]] = &[
            &["topology", "campus", "--bogus"],
            &["check", f.as_str(), "--bogus"],
            &["partition", f.as_str(), "--engines", "3", "--bogus"],
            &["run", f.as_str(), "--engines", "3", "--bogus"],
            &["ping", f.as_str(), "host0", "host1", "--bogus"],
            &["record", f.as_str(), "--bogus"],
            &["replay", f.as_str(), "trace.txt", "--bogus"],
            &["report", "run.json", "--bogus"],
        ];
        for case in cases {
            let e = run(&args(case)).unwrap_err();
            assert!(
                e.0.contains("unknown flag \"--bogus\""),
                "{case:?} accepted an unknown flag: {e}"
            );
            assert!(e.0.contains(case[0]), "{case:?} names the subcommand: {e}");
        }
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
