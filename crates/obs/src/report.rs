//! The versioned run report: what `--report <path>` writes and
//! `massf report` reads back.
//!
//! A [`RunReport`] is serialized through [`json::Writer`] with a fixed key
//! order (the call order in [`RunReport::to_json`]) and fixed number
//! formatting, so two runs of the same scenario produce byte-identical
//! documents except for the `timing` object —
//! which is always the **last** top-level key, letting golden tests mask
//! it by truncating at the `"timing"` line. Schema changes bump
//! [`JSON_FORMAT_VERSION`]; every key is documented in DESIGN.md §11.

use std::collections::BTreeMap;

use crate::json::{self, fmt_f64, Layout::Block, Layout::Inline, Value, Writer};
use crate::{PhaseInfo, ProfileTelemetry, Recorder, RestartBatch, RestartOutcome, Span};
use massf_metrics::diag::{self, Code, Severity};
use massf_metrics::timeseries::{
    imbalance_series, mean_active_imbalance, sparkline, sparkline_f64,
};

/// Version of the run-report JSON schema (`"format"` key).
pub const JSON_FORMAT_VERSION: u32 = 1;

/// What was run: scenario shape and mapping configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioInfo {
    /// Human description of the network (e.g. `"42 nodes, 58 links"`).
    pub network: String,
    /// Number of emulation engines mapped onto.
    pub engines: u64,
    /// Mapping approach label (`TOP`, `PLACE`, `PROFILE`).
    pub approach: String,
    /// Number of traffic flows driven through the network.
    pub flows: u64,
    /// Emulated duration in seconds; `None` for partition-only commands.
    pub duration_s: Option<f64>,
}

/// The final partitioning, summarized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Nodes per engine, in engine order.
    pub sizes: Vec<u64>,
    /// Links whose endpoints map to different engines.
    pub cut_links: u64,
    /// Conservative window lookahead (minimum cut-link latency), µs.
    pub lookahead_us: u64,
}

/// Per-engine load totals and virtual-time timelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineLoad {
    /// Events executed by this engine.
    pub events: u64,
    /// Rounds in which the engine had no work inside the window.
    pub stalled_rounds: u64,
    /// Events sent to other engines.
    pub remote_sent: u64,
    /// Events received from other engines.
    pub remote_recv: u64,
    /// Peak pending-event count in the engine's scheduler queue.
    /// Identical across scheduler kinds and thread counts.
    pub queue_peak: u64,
    /// Scheduler bucket-array rebuilds (0 for the heap baseline).
    /// Deterministic per scheduler kind.
    pub sched_resizes: u64,
    /// Executed events per virtual-time window.
    pub timeline: Vec<u64>,
    /// Stalled rounds per virtual-time window (bucketed at the stall's
    /// window lower bound).
    pub stall_timeline: Vec<u64>,
    /// Remote receives per virtual-time window.
    pub recv_timeline: Vec<u64>,
}

/// Emulation outcome: totals plus the per-engine loads.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationInfo {
    /// Packets delivered to their destination host.
    pub delivered: u64,
    /// Packets dropped (no route).
    pub dropped: u64,
    /// Events executed across all engines.
    pub total_events: u64,
    /// Conservative-window rounds executed.
    pub rounds: u64,
    /// Cross-engine messages exchanged.
    pub remote_messages: u64,
    /// Virtual time at which the emulation ended, µs.
    pub virtual_end_us: u64,
    /// Width of one timeline window, µs.
    pub counter_window_us: u64,
    /// Mean end-to-end packet latency, µs.
    pub mean_latency_us: f64,
    /// Final whole-run load imbalance (max/mean − 1 over engine events).
    pub imbalance: f64,
    /// Per-engine breakdown, in engine order.
    pub engines: Vec<EngineLoad>,
}

/// One emulation epoch as observed by the online rebalancer: the measured
/// per-engine load, both drift diagnostics, and what the boundary decided.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// 1-based epoch index.
    pub epoch: u64,
    /// Virtual time at which the epoch ended, µs.
    pub end_us: u64,
    /// NetFlow-measured per-engine load (packet observations), engine order.
    pub engine_loads: Vec<u64>,
    /// Packets that crossed a cut link during the epoch.
    pub cut_packets: u64,
    /// Total-variation drift of this epoch's load shares vs. the previous
    /// epoch (epoch 1: vs. the balanced target shares).
    pub drift_measured: f64,
    /// Total-variation drift of measured load shares vs. the PLACE
    /// prediction under the partition in force.
    pub drift_predicted: f64,
    /// A repartition was applied at this epoch's boundary.
    pub applied: bool,
    /// The boundary was skipped because the drift stayed under threshold.
    pub skipped: bool,
    /// Nodes migrated at the boundary (0 when nothing was applied).
    pub moves: u64,
    /// Migration stall charged for the boundary, µs.
    pub cost_us: f64,
    /// Measured load imbalance before the boundary decision.
    pub imbalance_before: f64,
    /// Measured load imbalance under the post-boundary partition.
    pub imbalance_after: f64,
}

/// Summary of the online rebalancer (`--epochs`/`--rebalance`): one row per
/// epoch plus migration totals. Epoch loads are functions of virtual time,
/// so this block is byte-identical across `--threads`.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceInfo {
    /// Rebalance mode label (`off`, `global`, `incremental`).
    pub mode: String,
    /// Total nodes migrated across all boundaries.
    pub migrated_nodes: u64,
    /// Boundaries at which a repartition was applied.
    pub remaps_applied: u64,
    /// Per-epoch measurements and decisions, in epoch order.
    pub epochs: Vec<EpochRow>,
}

/// One post-pipeline lint finding carried in the report, as the plain
/// strings the report stores and reads back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Severity label (`error`, `warning`, `note`).
    pub severity: String,
    /// Stable pass code (`MC013`…).
    pub code: String,
    /// Rendered location (`part 2`, `route 3->9`, …).
    pub location: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Summary of the post-pipeline artifact audit (`massf-lint` MC013–MC018),
/// fully deterministic: the audit runs single-threaded over deterministic
/// pipeline outputs, so this block is byte-identical across `--threads`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSummary {
    /// Error-level findings.
    pub errors: u64,
    /// Warn-level findings.
    pub warnings: u64,
    /// Note-level findings.
    pub notes: u64,
    /// Passes that ran to produce the audit.
    pub passes_run: u64,
    /// The findings, in report order.
    pub findings: Vec<LintFinding>,
}

/// Digests a finished lint report into the run report's `lint` block.
impl<C: Code> From<&diag::Report<C>> for LintSummary {
    fn from(report: &diag::Report<C>) -> Self {
        LintSummary {
            errors: report.count(Severity::Error) as u64,
            warnings: report.count(Severity::Warn) as u64,
            notes: report.count(Severity::Note) as u64,
            passes_run: report.passes_run as u64,
            findings: report
                .iter()
                .map(|d| LintFinding {
                    severity: d.severity.label().to_string(),
                    code: d.code.as_str().to_string(),
                    location: d.location.to_string(),
                    message: d.message.clone(),
                })
                .collect(),
        }
    }
}

/// Wall-clock data: everything in the report that is *not* deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timing {
    /// Worker threads the run used.
    pub threads: u64,
    /// Finished spans, in completion order.
    pub spans: Vec<Span>,
}

/// The complete run report. See the crate docs for the determinism rule
/// and DESIGN.md §11 for the field-by-field schema.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The subcommand that produced the report (`run`, `record`, `replay`).
    pub command: String,
    /// Scenario shape.
    pub scenario: ScenarioInfo,
    /// Final partitioning, when one was computed.
    pub partition: Option<PartitionInfo>,
    /// Partitioner restart batches, in pipeline order.
    pub restarts: Vec<RestartBatch>,
    /// PROFILE phase-detection telemetry, when PROFILE ran.
    pub profile: Option<ProfileTelemetry>,
    /// Named event counters.
    pub counters: BTreeMap<String, u64>,
    /// Named gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Emulation outcome, when an emulation ran.
    pub emulation: Option<EmulationInfo>,
    /// Online-rebalancer epochs, when `--epochs` split the run. The JSON
    /// key is omitted entirely when absent, so pre-epoch documents and
    /// goldens are unchanged byte-for-byte.
    pub rebalance: Option<RebalanceInfo>,
    /// Post-pipeline artifact-audit summary, when an audit ran.
    pub lint: Option<LintSummary>,
    /// Wall-clock spans and thread count (masked by golden tests).
    pub timing: Timing,
}

impl RunReport {
    /// Assembles a report from a finished [`Recorder`]; `partition` and
    /// `emulation` start empty and are filled in by the caller.
    pub fn new(command: &str, scenario: ScenarioInfo, recorder: Recorder, threads: usize) -> Self {
        let (spans, counters, gauges, restarts, profile) = recorder.into_parts();
        RunReport {
            command: command.to_string(),
            scenario,
            partition: None,
            restarts,
            profile,
            counters,
            gauges,
            emulation: None,
            rebalance: None,
            lint: None,
            timing: Timing {
                threads: threads as u64,
                spans,
            },
        }
    }

    /// Serializes the report as byte-deterministic JSON (trailing newline
    /// included). The `timing` key is always last.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Block, |w| {
            w.key("tool").string("massf-run");
            w.key("format").uint(JSON_FORMAT_VERSION as u64);
            w.key("command").string(&self.command);
            w.key("scenario").object(Block, |w| {
                w.key("network").string(&self.scenario.network);
                w.key("engines").uint(self.scenario.engines);
                w.key("approach").string(&self.scenario.approach);
                w.key("flows").uint(self.scenario.flows);
                w.key("duration_s")
                    .option(self.scenario.duration_s, Writer::fixed);
            });
            w.key("partition").option(self.partition.as_ref(), |w, p| {
                w.object(Block, |w| {
                    w.key("sizes").uints(&p.sizes);
                    w.key("cut_links").uint(p.cut_links);
                    w.key("lookahead_us").uint(p.lookahead_us);
                })
            });
            w.key("restarts").rows(Block, &self.restarts, |w, batch| {
                w.key("stage").string(&batch.stage);
                w.key("winner").uint(batch.winner);
                w.key("outcomes").rows(Inline, &batch.outcomes, |w, o| {
                    w.key("feasible").bool(o.feasible);
                    w.key("cut").int(o.cut);
                    w.key("balance").fixed(o.balance);
                });
            });
            w.key("profile").option(self.profile.as_ref(), |w, p| {
                w.object(Block, |w| {
                    w.key("bucket_us").uint(p.bucket_us);
                    w.key("nbuckets").uint(p.nbuckets);
                    w.key("constraints").uint(p.constraints);
                    w.key("constraint_totals").array(Inline, |w| {
                        p.constraint_totals.iter().for_each(|&x| w.int(x));
                    });
                    w.key("phases").rows(Inline, &p.phases, |w, ph| {
                        w.key("start_bucket").uint(ph.start_bucket);
                        w.key("end_bucket").uint(ph.end_bucket);
                        w.key("dominating_node")
                            .option(ph.dominating_node, Writer::uint);
                        w.key("events").uint(ph.events);
                    });
                })
            });
            w.key("counters").object(Block, |w| {
                self.counters.iter().for_each(|(k, &v)| w.key(k).uint(v));
            });
            w.key("gauges").object(Block, |w| {
                self.gauges.iter().for_each(|(k, &v)| w.key(k).fixed(v));
            });
            w.key("emulation").option(self.emulation.as_ref(), |w, e| {
                w.object(Block, |w| {
                    w.key("delivered").uint(e.delivered);
                    w.key("dropped").uint(e.dropped);
                    w.key("total_events").uint(e.total_events);
                    w.key("rounds").uint(e.rounds);
                    w.key("remote_messages").uint(e.remote_messages);
                    w.key("virtual_end_us").uint(e.virtual_end_us);
                    w.key("counter_window_us").uint(e.counter_window_us);
                    w.key("mean_latency_us").fixed(e.mean_latency_us);
                    w.key("imbalance").fixed(e.imbalance);
                    w.key("engines").rows(Block, &e.engines, |w, eng| {
                        w.key("events").uint(eng.events);
                        w.key("stalled_rounds").uint(eng.stalled_rounds);
                        w.key("remote_sent").uint(eng.remote_sent);
                        w.key("remote_recv").uint(eng.remote_recv);
                        w.key("queue_peak").uint(eng.queue_peak);
                        w.key("sched_resizes").uint(eng.sched_resizes);
                        w.key("timeline").uints(&eng.timeline);
                        w.key("stall_timeline").uints(&eng.stall_timeline);
                        w.key("recv_timeline").uints(&eng.recv_timeline);
                    });
                })
            });
            // The key is omitted (not null) when absent: documents written
            // before the rebalancer existed stay byte-identical.
            if let Some(r) = &self.rebalance {
                w.key("rebalance").object(Block, |w| {
                    w.key("mode").string(&r.mode);
                    w.key("migrated_nodes").uint(r.migrated_nodes);
                    w.key("remaps_applied").uint(r.remaps_applied);
                    w.key("epochs").rows(Block, &r.epochs, |w, ep| {
                        w.key("epoch").uint(ep.epoch);
                        w.key("end_us").uint(ep.end_us);
                        w.key("engine_loads").uints(&ep.engine_loads);
                        w.key("cut_packets").uint(ep.cut_packets);
                        w.key("drift_measured").fixed(ep.drift_measured);
                        w.key("drift_predicted").fixed(ep.drift_predicted);
                        w.key("applied").bool(ep.applied);
                        w.key("skipped").bool(ep.skipped);
                        w.key("moves").uint(ep.moves);
                        w.key("cost_us").fixed(ep.cost_us);
                        w.key("imbalance_before").fixed(ep.imbalance_before);
                        w.key("imbalance_after").fixed(ep.imbalance_after);
                    });
                });
            }
            w.key("lint").option(self.lint.as_ref(), |w, l| {
                w.object(Block, |w| {
                    w.key("errors").uint(l.errors);
                    w.key("warnings").uint(l.warnings);
                    w.key("notes").uint(l.notes);
                    w.key("passes_run").uint(l.passes_run);
                    w.key("findings").rows(Inline, &l.findings, |w, f| {
                        w.key("severity").string(&f.severity);
                        w.key("code").string(&f.code);
                        w.key("location").string(&f.location);
                        w.key("message").string(&f.message);
                    });
                })
            });
            // `timing` must stay the last key: golden tests truncate here.
            w.key("timing").object(Block, |w| {
                w.key("threads").uint(self.timing.threads);
                w.key("spans").rows(Inline, &self.timing.spans, |w, s| {
                    w.key("name").string(&s.name);
                    w.key("wall_us").uint(s.wall_us);
                });
            });
        });
        w.finish() + "\n"
    }

    /// Parses a report previously written by [`RunReport::to_json`].
    ///
    /// Rejects documents with the wrong `tool`, an unsupported `format`,
    /// or missing/ill-typed fields; the error string names the offender.
    pub fn from_json(input: &str) -> Result<RunReport, String> {
        let root = json::parse(input).map_err(|e| e.to_string())?;
        let tool = req_str(&root, "tool")?;
        if tool != "massf-run" {
            return Err(format!("not a massf run report (tool = \"{tool}\")"));
        }
        let format = req_u64(&root, "format")?;
        if format != JSON_FORMAT_VERSION as u64 {
            return Err(format!(
                "unsupported report format {format} (this build reads format {JSON_FORMAT_VERSION})"
            ));
        }

        let sc = root.get("scenario").ok_or("missing key \"scenario\"")?;
        let scenario = ScenarioInfo {
            network: req_str(sc, "network")?.to_string(),
            engines: req_u64(sc, "engines")?,
            approach: req_str(sc, "approach")?.to_string(),
            flows: req_u64(sc, "flows")?,
            duration_s: match sc.get("duration_s") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_f64().ok_or("\"duration_s\" is not a number")?),
            },
        };

        let partition = match root.get("partition") {
            None | Some(Value::Null) => None,
            Some(p) => Some(PartitionInfo {
                sizes: req_u64_list(p, "sizes")?,
                cut_links: req_u64(p, "cut_links")?,
                lookahead_us: req_u64(p, "lookahead_us")?,
            }),
        };

        let mut restarts = Vec::new();
        for batch in req_array(&root, "restarts")? {
            let mut outcomes = Vec::new();
            for o in req_array(batch, "outcomes")? {
                outcomes.push(RestartOutcome {
                    feasible: req_bool(o, "feasible")?,
                    cut: o
                        .get("cut")
                        .and_then(Value::as_i64)
                        .ok_or("missing key \"cut\"")?,
                    balance: req_f64(o, "balance")?,
                });
            }
            restarts.push(RestartBatch {
                stage: req_str(batch, "stage")?.to_string(),
                winner: req_u64(batch, "winner")?,
                outcomes,
            });
        }

        let profile = match root.get("profile") {
            None | Some(Value::Null) => None,
            Some(p) => {
                let mut phases = Vec::new();
                for ph in req_array(p, "phases")? {
                    phases.push(PhaseInfo {
                        start_bucket: req_u64(ph, "start_bucket")?,
                        end_bucket: req_u64(ph, "end_bucket")?,
                        dominating_node: match ph.get("dominating_node") {
                            None | Some(Value::Null) => None,
                            Some(v) => {
                                Some(v.as_u64().ok_or("\"dominating_node\" is not an integer")?)
                            }
                        },
                        events: req_u64(ph, "events")?,
                    });
                }
                let totals = req_array(p, "constraint_totals")?
                    .iter()
                    .map(|v| v.as_i64().ok_or("constraint total is not an integer"))
                    .collect::<Result<Vec<_>, _>>()?;
                Some(ProfileTelemetry {
                    bucket_us: req_u64(p, "bucket_us")?,
                    nbuckets: req_u64(p, "nbuckets")?,
                    constraints: req_u64(p, "constraints")?,
                    constraint_totals: totals,
                    phases,
                })
            }
        };

        let mut counters = BTreeMap::new();
        if let Some(Value::Obj(members)) = root.get("counters") {
            for (k, v) in members {
                counters.insert(
                    k.clone(),
                    v.as_u64().ok_or("counter value is not an integer")?,
                );
            }
        }
        let mut gauges = BTreeMap::new();
        if let Some(Value::Obj(members)) = root.get("gauges") {
            for (k, v) in members {
                gauges.insert(k.clone(), v.as_f64().ok_or("gauge value is not a number")?);
            }
        }

        let emulation = match root.get("emulation") {
            None | Some(Value::Null) => None,
            Some(e) => {
                let mut engines = Vec::new();
                for eng in req_array(e, "engines")? {
                    engines.push(EngineLoad {
                        events: req_u64(eng, "events")?,
                        stalled_rounds: req_u64(eng, "stalled_rounds")?,
                        remote_sent: req_u64(eng, "remote_sent")?,
                        remote_recv: req_u64(eng, "remote_recv")?,
                        queue_peak: req_u64(eng, "queue_peak")?,
                        sched_resizes: req_u64(eng, "sched_resizes")?,
                        timeline: req_u64_list(eng, "timeline")?,
                        stall_timeline: req_u64_list(eng, "stall_timeline")?,
                        recv_timeline: req_u64_list(eng, "recv_timeline")?,
                    });
                }
                Some(EmulationInfo {
                    delivered: req_u64(e, "delivered")?,
                    dropped: req_u64(e, "dropped")?,
                    total_events: req_u64(e, "total_events")?,
                    rounds: req_u64(e, "rounds")?,
                    remote_messages: req_u64(e, "remote_messages")?,
                    virtual_end_us: req_u64(e, "virtual_end_us")?,
                    counter_window_us: req_u64(e, "counter_window_us")?,
                    mean_latency_us: req_f64(e, "mean_latency_us")?,
                    imbalance: req_f64(e, "imbalance")?,
                    engines,
                })
            }
        };

        // Absent key (pre-epoch documents) parses as `None`, like `lint`.
        let rebalance = match root.get("rebalance") {
            None | Some(Value::Null) => None,
            Some(r) => {
                let mut epochs = Vec::new();
                for ep in req_array(r, "epochs")? {
                    epochs.push(EpochRow {
                        epoch: req_u64(ep, "epoch")?,
                        end_us: req_u64(ep, "end_us")?,
                        engine_loads: req_u64_list(ep, "engine_loads")?,
                        cut_packets: req_u64(ep, "cut_packets")?,
                        drift_measured: req_f64(ep, "drift_measured")?,
                        drift_predicted: req_f64(ep, "drift_predicted")?,
                        applied: req_bool(ep, "applied")?,
                        skipped: req_bool(ep, "skipped")?,
                        moves: req_u64(ep, "moves")?,
                        cost_us: req_f64(ep, "cost_us")?,
                        imbalance_before: req_f64(ep, "imbalance_before")?,
                        imbalance_after: req_f64(ep, "imbalance_after")?,
                    });
                }
                Some(RebalanceInfo {
                    mode: req_str(r, "mode")?.to_string(),
                    migrated_nodes: req_u64(r, "migrated_nodes")?,
                    remaps_applied: req_u64(r, "remaps_applied")?,
                    epochs,
                })
            }
        };

        let lint = match root.get("lint") {
            None | Some(Value::Null) => None,
            Some(l) => {
                let mut findings = Vec::new();
                for f in req_array(l, "findings")? {
                    findings.push(LintFinding {
                        severity: req_str(f, "severity")?.to_string(),
                        code: req_str(f, "code")?.to_string(),
                        location: req_str(f, "location")?.to_string(),
                        message: req_str(f, "message")?.to_string(),
                    });
                }
                Some(LintSummary {
                    errors: req_u64(l, "errors")?,
                    warnings: req_u64(l, "warnings")?,
                    notes: req_u64(l, "notes")?,
                    passes_run: req_u64(l, "passes_run")?,
                    findings,
                })
            }
        };

        let t = root.get("timing").ok_or("missing key \"timing\"")?;
        let mut spans = Vec::new();
        for s in req_array(t, "spans")? {
            spans.push(Span {
                name: req_str(s, "name")?.to_string(),
                wall_us: req_u64(s, "wall_us")?,
            });
        }
        let timing = Timing {
            threads: req_u64(t, "threads")?,
            spans,
        };

        Ok(RunReport {
            command: req_str(&root, "command")?.to_string(),
            scenario,
            partition,
            restarts,
            profile,
            counters,
            gauges,
            emulation,
            rebalance,
            lint,
            timing,
        })
    }

    /// Renders the report as human text: sparkline load timelines,
    /// imbalance-over-time, and a stage-timing breakdown. Everything above
    /// the final `timing` section is deterministic.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "massf run report — command: {}, format {}\n\n",
            self.command, JSON_FORMAT_VERSION
        ));

        out.push_str("scenario\n");
        out.push_str(&format!("  network:   {}\n", self.scenario.network));
        out.push_str(&format!("  engines:   {}\n", self.scenario.engines));
        out.push_str(&format!("  approach:  {}\n", self.scenario.approach));
        out.push_str(&format!("  flows:     {}\n", self.scenario.flows));
        if let Some(d) = self.scenario.duration_s {
            out.push_str(&format!("  duration:  {} s\n", fmt_f64(d)));
        }

        if let Some(p) = &self.partition {
            out.push_str("\npartition\n");
            out.push_str(&format!("  sizes:      {:?}\n", p.sizes));
            out.push_str(&format!("  cut links:  {}\n", p.cut_links));
            out.push_str(&format!("  lookahead:  {} us\n", p.lookahead_us));
        }

        if !self.restarts.is_empty() {
            out.push_str("\npartitioner restarts\n");
            for batch in &self.restarts {
                let line = match batch.outcomes.get(batch.winner as usize) {
                    Some(w) => format!(
                        "  {}: winner #{} of {} (cut {}, balance {}, {})\n",
                        batch.stage,
                        batch.winner,
                        batch.outcomes.len(),
                        w.cut,
                        fmt_f64(w.balance),
                        if w.feasible { "feasible" } else { "infeasible" }
                    ),
                    None => format!(
                        "  {}: winner #{} of {}\n",
                        batch.stage,
                        batch.winner,
                        batch.outcomes.len()
                    ),
                };
                out.push_str(&line);
            }
        }

        if let Some(p) = &self.profile {
            out.push_str(&format!(
                "\nprofile phases ({} buckets x {} us, {} constraints)\n",
                p.nbuckets, p.bucket_us, p.constraints
            ));
            for (i, ph) in p.phases.iter().enumerate() {
                out.push_str(&format!(
                    "  phase {}: buckets [{}, {})  dominating node {}  {} events\n",
                    i,
                    ph.start_bucket,
                    ph.end_bucket,
                    match ph.dominating_node {
                        Some(n) => n.to_string(),
                        None => "-".to_string(),
                    },
                    ph.events
                ));
            }
            // `{:?}` of an integer Vec is `[a, b, c]`, the JSON spelling.
            out.push_str(&format!("  constraint totals: {:?}\n", p.constraint_totals));
        }

        if let Some(e) = &self.emulation {
            out.push_str("\nemulation\n");
            out.push_str(&format!(
                "  events:     {} total, {} delivered, {} dropped\n",
                e.total_events, e.delivered, e.dropped
            ));
            out.push_str(&format!(
                "  rounds:     {} ({} remote messages)\n",
                e.rounds, e.remote_messages
            ));
            out.push_str(&format!(
                "  virtual:    {} us end, {} us windows\n",
                e.virtual_end_us, e.counter_window_us
            ));
            out.push_str(&format!(
                "  latency:    {} us mean\n",
                fmt_f64(e.mean_latency_us)
            ));
            out.push_str(&format!("  imbalance:  {} final\n", fmt_f64(e.imbalance)));

            if !e.engines.is_empty() {
                out.push_str(&format!(
                    "\nengine load (events per {} us window)\n",
                    e.counter_window_us
                ));
                for (i, eng) in e.engines.iter().enumerate() {
                    out.push_str(&format!(
                        "  engine {}  {}  {} events | stalls {} | sent {} recv {} | \
                         queue peak {}\n",
                        i,
                        sparkline(&eng.timeline),
                        eng.events,
                        eng.stalled_rounds,
                        eng.remote_sent,
                        eng.remote_recv,
                        eng.queue_peak
                    ));
                }
                let series: Vec<Vec<u64>> =
                    e.engines.iter().map(|eng| eng.timeline.clone()).collect();
                let imb = imbalance_series(&series, 1);
                out.push_str(&format!(
                    "  imbalance {}  mean active {}\n",
                    sparkline_f64(&imb),
                    fmt_f64(mean_active_imbalance(&series, 1))
                ));
            }
        }

        if let Some(r) = &self.rebalance {
            out.push_str(&format!(
                "\nrebalance ({}): {} node(s) migrated over {} remap(s)\n",
                r.mode, r.migrated_nodes, r.remaps_applied
            ));
            for ep in &r.epochs {
                let decision = if ep.applied {
                    format!("moved {} (cost {} us)", ep.moves, fmt_f64(ep.cost_us))
                } else if ep.skipped {
                    "quiet, skipped".to_string()
                } else {
                    "final epoch".to_string()
                };
                out.push_str(&format!(
                    "  epoch {} @ {} us  loads {:?}  cut {}  drift {} (pred {})  \
                     imbalance {} -> {}  {}\n",
                    ep.epoch,
                    ep.end_us,
                    ep.engine_loads,
                    ep.cut_packets,
                    fmt_f64(ep.drift_measured),
                    fmt_f64(ep.drift_predicted),
                    fmt_f64(ep.imbalance_before),
                    fmt_f64(ep.imbalance_after),
                    decision
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\ngauges\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k} = {}\n", fmt_f64(*v)));
            }
        }

        if let Some(l) = &self.lint {
            out.push_str("\nlint audit\n");
            out.push_str(&format!(
                "  {} error(s), {} warning(s), {} note(s) — {} passes run\n",
                l.errors, l.warnings, l.notes, l.passes_run
            ));
            for f in &l.findings {
                out.push_str(&format!(
                    "  {}[{}] {}: {}\n",
                    f.severity, f.code, f.location, f.message
                ));
            }
        }

        // Everything below is wall-clock and non-deterministic; golden
        // tests truncate at this header line.
        out.push_str("\ntiming (wall-clock, non-deterministic)\n");
        out.push_str(&format!("  threads: {}\n", self.timing.threads));
        let width = self
            .timing
            .spans
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(0);
        for s in &self.timing.spans {
            out.push_str(&format!(
                "  {:<width$}  {:>10} us\n",
                s.name,
                s.wall_us,
                width = width
            ));
        }
        out
    }
}

fn req_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing key \"{key}\""))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing key \"{key}\""))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing key \"{key}\""))
}

fn req_bool(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing key \"{key}\""))
}

fn req_array<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing key \"{key}\""))
}

fn req_u64_list(v: &Value, key: &str) -> Result<Vec<u64>, String> {
    req_array(v, key)?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| format!("\"{key}\" entry is not an integer"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut rec = Recorder::new();
        rec.add_counter("mapping.flows_aggregated", 12);
        rec.set_gauge("partition.balance", 1.042);
        rec.record_restarts(
            "top",
            1,
            vec![
                RestartOutcome {
                    feasible: false,
                    cut: 14,
                    balance: 1.5,
                },
                RestartOutcome {
                    feasible: true,
                    cut: 9,
                    balance: 1.04,
                },
            ],
        );
        rec.set_profile(ProfileTelemetry {
            bucket_us: 1000,
            nbuckets: 4,
            constraints: 2,
            constraint_totals: vec![100, 40],
            phases: vec![
                PhaseInfo {
                    start_bucket: 0,
                    end_bucket: 2,
                    dominating_node: Some(3),
                    events: 70,
                },
                PhaseInfo {
                    start_bucket: 2,
                    end_bucket: 4,
                    dominating_node: None,
                    events: 30,
                },
            ],
        });
        rec.time("cli/load_network", || ());
        let mut report = RunReport::new(
            "run",
            ScenarioInfo {
                network: "5 nodes, 6 links".into(),
                engines: 2,
                approach: "PROFILE".into(),
                flows: 3,
                duration_s: Some(2.0),
            },
            rec,
            4,
        );
        report.partition = Some(PartitionInfo {
            sizes: vec![3, 2],
            cut_links: 2,
            lookahead_us: 500,
        });
        report.emulation = Some(EmulationInfo {
            delivered: 40,
            dropped: 1,
            total_events: 100,
            rounds: 7,
            remote_messages: 9,
            virtual_end_us: 4000,
            counter_window_us: 1000,
            mean_latency_us: 250.5,
            imbalance: 0.25,
            engines: vec![
                EngineLoad {
                    events: 60,
                    stalled_rounds: 1,
                    remote_sent: 5,
                    remote_recv: 4,
                    queue_peak: 12,
                    sched_resizes: 1,
                    timeline: vec![20, 20, 10, 10],
                    stall_timeline: vec![0, 0, 1, 0],
                    recv_timeline: vec![1, 1, 1, 1],
                },
                EngineLoad {
                    events: 40,
                    stalled_rounds: 2,
                    remote_sent: 4,
                    remote_recv: 5,
                    queue_peak: 8,
                    sched_resizes: 0,
                    timeline: vec![10, 10, 10, 10],
                    stall_timeline: vec![1, 0, 1, 0],
                    recv_timeline: vec![2, 1, 1, 1],
                },
            ],
        });
        report.lint = Some(LintSummary {
            errors: 0,
            warnings: 1,
            notes: 1,
            passes_run: 18,
            findings: vec![
                LintFinding {
                    severity: "warning".into(),
                    code: "MC013".into(),
                    location: "part 1".into(),
                    message: "engine 1's region splits into 2 disconnected fragments".into(),
                },
                LintFinding {
                    severity: "note".into(),
                    code: "MC015".into(),
                    location: "route 0->4".into(),
                    message: "2 equal-cost first hops".into(),
                },
            ],
        });
        report
    }

    fn sample_with_rebalance() -> RunReport {
        let mut report = sample();
        report.rebalance = Some(RebalanceInfo {
            mode: "incremental".into(),
            migrated_nodes: 3,
            remaps_applied: 1,
            epochs: vec![
                EpochRow {
                    epoch: 1,
                    end_us: 2000,
                    engine_loads: vec![70, 30],
                    cut_packets: 12,
                    drift_measured: 0.2,
                    drift_predicted: 0.05,
                    applied: true,
                    skipped: false,
                    moves: 3,
                    cost_us: 26000.0,
                    imbalance_before: 0.4,
                    imbalance_after: 0.1,
                },
                EpochRow {
                    epoch: 2,
                    end_us: 4000,
                    engine_loads: vec![52, 48],
                    cut_packets: 9,
                    drift_measured: 0.01,
                    drift_predicted: 0.04,
                    applied: false,
                    skipped: false,
                    moves: 0,
                    cost_us: 0.0,
                    imbalance_before: 0.04,
                    imbalance_after: 0.04,
                },
            ],
        });
        report
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let report = sample();
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        // Wall-clock values survive the trip too — equality covers timing.
        assert_eq!(back, report);
        // And re-serializing is byte-stable.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn timing_is_the_last_key() {
        let json = sample().to_json();
        let timing_at = json.find("  \"timing\": {").expect("timing present");
        // No other top-level key may follow the timing object.
        let tail = &json[timing_at..];
        assert!(tail.trim_end().ends_with("}"));
        let after_timing = &json[..timing_at];
        assert!(after_timing.contains("\"emulation\""));
        // The lint block is deterministic, so it sits above the boundary.
        assert!(after_timing.contains("\"lint\""));
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(RunReport::from_json("{}").unwrap_err().contains("tool"));
        let wrong_tool = r#"{"tool": "massf-check", "format": 1}"#;
        assert!(RunReport::from_json(wrong_tool)
            .unwrap_err()
            .contains("not a massf run report"));
        let future = sample()
            .to_json()
            .replace("\"format\": 1", "\"format\": 99");
        assert!(RunReport::from_json(&future)
            .unwrap_err()
            .contains("unsupported report format 99"));
    }

    #[test]
    fn human_rendering_sections() {
        let text = sample().render_human();
        assert!(text.starts_with("massf run report — command: run, format 1\n"));
        for section in [
            "scenario\n",
            "partition\n",
            "partitioner restarts\n",
            "profile phases (4 buckets x 1000 us, 2 constraints)\n",
            "emulation\n",
            "engine load (events per 1000 us window)\n",
            "counters\n",
            "gauges\n",
            "lint audit\n",
            "timing (wall-clock, non-deterministic)\n",
        ] {
            assert!(text.contains(section), "missing {section:?} in:\n{text}");
        }
        // The timing header is the masking boundary, so it must be unique
        // and everything deterministic must precede it.
        assert_eq!(text.matches("timing (wall-clock").count(), 1);
        let spark_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("engine 0"))
            .unwrap();
        assert!(spark_line.contains('█'), "{spark_line}");
    }

    #[test]
    fn minimal_report_renders_and_round_trips() {
        let report = RunReport::new(
            "partition",
            ScenarioInfo {
                network: "empty".into(),
                engines: 1,
                approach: "TOP".into(),
                flows: 0,
                duration_s: None,
            },
            Recorder::new(),
            1,
        );
        let json = report.to_json();
        assert!(json.contains("\"duration_s\": null"));
        assert!(json.contains("\"partition\": null"));
        assert!(json.contains("\"emulation\": null"));
        assert!(json.contains("\"lint\": null"));
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        let text = report.render_human();
        assert!(!text.contains("emulation\n"));
        assert!(!text.contains("lint audit\n"));
        assert!(text.contains("timing (wall-clock"));
    }

    #[test]
    fn rebalance_block_round_trips_and_sits_above_timing() {
        let report = sample_with_rebalance();
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // Fixed key order: emulation, rebalance, lint, timing.
        let emu_at = json.find("  \"emulation\": {").unwrap();
        let reb_at = json.find("  \"rebalance\": {").unwrap();
        let lint_at = json.find("  \"lint\": {").unwrap();
        let timing_at = json.find("  \"timing\": {").unwrap();
        assert!(emu_at < reb_at && reb_at < lint_at && lint_at < timing_at);
        // And the human rendering keeps the epoch rows above the mask.
        let text = report.render_human();
        let reb_line = text.find("rebalance (incremental)").unwrap();
        let mask = text.find("timing (wall-clock").unwrap();
        assert!(reb_line < mask);
        assert!(text.contains("epoch 1 @ 2000 us"));
        assert!(text.contains("moved 3 (cost 26000.000000 us)"));
    }

    #[test]
    fn reports_without_a_rebalance_key_are_unchanged() {
        // A report with no rebalance data must not emit the key at all —
        // pre-epoch documents and goldens stay byte-identical — and
        // documents missing the key must parse as `rebalance: None`.
        let report = sample();
        let json = report.to_json();
        assert!(!json.contains("\"rebalance\""));
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back.rebalance, None);
    }

    #[test]
    fn reports_without_a_lint_key_still_parse() {
        // Format-1 documents written before the lint block existed have no
        // "lint" key at all; they must keep parsing as `lint: None`.
        let report = sample();
        let json = report.to_json();
        let lint_at = json.find("  \"lint\": {").unwrap();
        let timing_at = json.find("  \"timing\": {").unwrap();
        let stripped = format!("{}{}", &json[..lint_at], &json[timing_at..]);
        let back = RunReport::from_json(&stripped).unwrap();
        assert_eq!(back.lint, None);
        assert_eq!(back.emulation, report.emulation);
    }
}
