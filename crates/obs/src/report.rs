//! The versioned run report: what `--report <path>` writes and
//! `massf report` reads back.
//!
//! Each block of the report is one struct below, declared once through
//! `block!`: its fields are the block's keys, in declaration order, and
//! that one declaration drives both [`RunReport::to_json`] and
//! [`RunReport::from_json`]. Serialization goes through [`json::Writer`]
//! with fixed number formatting, so two runs of the same scenario produce
//! byte-identical documents except for the `timing` object — which is
//! always the **last** top-level key, letting golden tests mask it by
//! truncating at the `"timing"` line. Schema changes bump
//! [`JSON_FORMAT_VERSION`]; every key is documented in DESIGN.md §11.

use std::collections::BTreeMap;

use crate::json::{self, fmt_f64, Layout, Layout::Block, Layout::Inline, Value, Writer};
use crate::Recorder;
use massf_metrics::diag::{self, Code, Severity};
use massf_metrics::timeseries::{
    imbalance_series, mean_active_imbalance, sparkline, sparkline_f64,
};

/// Version of the run-report JSON schema (`"format"` key).
pub const JSON_FORMAT_VERSION: u32 = 1;

/// A report value's JSON form, in both directions. `block!` derives it for
/// every report struct; the impls below cover the values inside them.
trait Field: Sized {
    /// Layout of an array of these: scalars share one line, objects get a
    /// line each.
    const ARRAY: Layout = Inline;

    /// Writes the value; its key, if any, is already written.
    fn write(&self, w: &mut Writer);

    /// Reads the value back, saying what was expected when it is ill-typed.
    fn read(v: &Value) -> Result<Self, String>;

    /// Reads member `key` of the object `obj`. An absent key reads as
    /// `null`: `None` for an `Option`, an error for anything else.
    fn member(obj: &Value, key: &str) -> Result<Self, String> {
        match obj.get(key) {
            Some(v) => Self::read(v).map_err(|e| format!("\"{key}\": {e}")),
            None => Self::read(&Value::Null).map_err(|_| format!("missing key \"{key}\"")),
        }
    }
}

impl Field for u64 {
    fn write(&self, w: &mut Writer) {
        w.uint(*self);
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "expected an unsigned integer".into())
    }
}

impl Field for i64 {
    fn write(&self, w: &mut Writer) {
        w.int(*self);
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_i64().ok_or_else(|| "expected an integer".into())
    }
}

impl Field for f64 {
    fn write(&self, w: &mut Writer) {
        w.fixed(*self);
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".into())
    }
}

impl Field for bool {
    fn write(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a boolean".into())
    }
}

impl Field for String {
    fn write(&self, w: &mut Writer) {
        w.string(self);
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".into())
    }
}

impl<T: Field> Field for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write(w),
            None => w.null(),
        }
    }
    fn read(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, w: &mut Writer) {
        w.array(T::ARRAY, |w| self.iter().for_each(|x| x.write(w)));
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_array()
            .ok_or("expected an array")?
            .iter()
            .map(T::read)
            .collect()
    }
}

impl<T: Field> Field for BTreeMap<String, T> {
    fn write(&self, w: &mut Writer) {
        w.object(Block, |w| self.iter().for_each(|(k, v)| v.write(w.key(k))));
    }
    fn read(v: &Value) -> Result<Self, String> {
        let Value::Obj(members) = v else {
            return Err("expected an object".into());
        };
        members
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::read(v)?)))
            .collect()
    }
}

/// Declares report blocks: each struct exactly as written, plus its
/// [`Field`] codec — one `$layout` object whose keys are the field names in
/// declaration order. A new key is one field line here; the writer and the
/// reader both follow.
macro_rules! block {
    ($layout:ident; $($(#[$attr:meta])* pub struct $name:ident {
        $($(#[$doc:meta])* pub $field:ident: $ty:ty,)*
    })*) => {$(
        $(#[$attr])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Field for $name {
            const ARRAY: Layout = Block;
            fn write(&self, w: &mut Writer) {
                w.object($layout, |w| {
                    $(self.$field.write(w.key(stringify!($field)));)*
                });
            }
            fn read(v: &Value) -> Result<Self, String> {
                Ok($name {
                    $($field: Field::member(v, stringify!($field))?,)*
                })
            }
        }
    )*};
}

// The blocks written one key per line.
block! { Block;
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

    /// The outcomes of one best-of-N restart search, labeled with the
    /// pipeline stage that ran it (e.g. `profile/combined`).
    #[derive(Debug, Clone, PartialEq)]
    pub struct RestartBatch {
        /// Which partitioning call this was (`top`, `place/latency`, …).
        pub stage: String,
        /// Index into `outcomes` of the winning restart.
        pub winner: u64,
        /// Nodes the descent ending a partition step left on another
        /// engine than the winner's: 0 on every batch but a step's last.
        pub polished: u64,
        /// Per-restart outcomes in seed order.
        pub outcomes: Vec<RestartOutcome>,
    }

    /// PROFILE phase-detection telemetry: how the profiling run's load
    /// curves were bucketed, clustered into phases, and turned into the
    /// partitioner's multi-constraint vertex-weight columns.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ProfileTelemetry {
        /// Virtual-time width of one digest bucket (µs).
        pub bucket_us: u64,
        /// Number of digest buckets.
        pub nbuckets: u64,
        /// Balance-constraint columns handed to the partitioner.
        pub constraints: u64,
        /// Total vertex weight per constraint column (the constraint
        /// vectors' column sums, in constraint order).
        pub constraint_totals: Vec<i64>,
        /// The detected phases, covering `[0, nbuckets)`.
        pub phases: Vec<PhaseInfo>,
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
        /// Final whole-run load imbalance: the normalized standard
        /// deviation (std/mean) of the engines' event counts, the paper's
        /// metric (`massf_metrics::load_imbalance`).
        pub imbalance: f64,
        /// Per-engine breakdown, in engine order.
        pub engines: Vec<EngineLoad>,
    }

    /// What one epoch of an online run measured and decided: filled in by
    /// the rebalancer (`massf_mapping::incremental::run_online`) and
    /// written as one row of the `rebalance` block.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EpochRow {
        /// Epoch index (1-based; epoch 1 ends at the first boundary).
        pub epoch: u64,
        /// Virtual time at which the epoch ended, µs.
        pub end_us: u64,
        /// Measured per-engine load (kernel events attributed via NetFlow)
        /// during this epoch, under the partition in force while it ran.
        pub engine_loads: Vec<u64>,
        /// Packets that crossed engine boundaries this epoch (per-edge cut
        /// traffic summed over cut links).
        pub cut_packets: u64,
        /// MC020 metric: total-variation drift of this epoch's load shares
        /// vs. the previous epoch's (epoch 1: vs. the balanced target).
        pub drift_measured: f64,
        /// MC019 metric: total-variation drift of this epoch's load shares
        /// vs. the PLACE prediction under the partition in force.
        pub drift_predicted: f64,
        /// A repartition was applied at this epoch's boundary.
        pub applied: bool,
        /// The boundary evaluated a rebalance and declined: no move paid.
        /// The final epoch has no boundary: both flags stay false.
        pub skipped: bool,
        /// Nodes migrated at the boundary (0 when nothing was applied).
        pub moves: u64,
        /// Migration stall charged for the boundary, µs.
        pub cost_us: f64,
        /// Measured load imbalance before the boundary decision.
        pub imbalance_before: f64,
        /// The same loads' imbalance re-summed under the post-boundary
        /// partition (equals `imbalance_before` when nothing moved).
        pub imbalance_after: f64,
        /// Conservative lookahead after the boundary decision, µs: the
        /// minimum cut-link latency the next epoch runs at (the final
        /// epoch's own).
        pub lookahead_us: u64,
    }

    /// Summary of the online rebalancer (`--epochs`/`--rebalance`): one row
    /// per epoch plus migration totals. Epoch loads are functions of
    /// virtual time, so this block is byte-identical across `--threads`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RebalanceInfo {
        /// Rebalance mode label (`off`, `incremental`).
        pub mode: String,
        /// Total nodes migrated across all boundaries.
        pub migrated_nodes: u64,
        /// Boundaries at which a repartition was applied.
        pub remaps_applied: u64,
        /// Per-epoch measurements and decisions, in epoch order.
        pub epochs: Vec<EpochRow>,
    }

    /// Summary of the post-pipeline artifact audit (`massf-lint`
    /// MC013–MC018), fully deterministic: the audit runs single-threaded
    /// over deterministic pipeline outputs, so this block is byte-identical
    /// across `--threads`.
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

    /// Wall-clock data: everything in the report that is *not*
    /// deterministic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Timing {
        /// Worker threads the run used.
        pub threads: u64,
        /// Finished spans, in completion order.
        pub spans: Vec<Span>,
    }
}

// The row objects written on one line each.
block! { Inline;
    /// The outcome of one independent partitioner restart: did it satisfy
    /// every balance constraint, what edge cut did it reach, and how far
    /// from perfect balance it landed. Deterministic — restart `i` always
    /// runs seed `base + i` and outcomes are reported in index order at any
    /// thread count.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RestartOutcome {
        /// All balance constraints within tolerance.
        pub feasible: bool,
        /// Edge cut achieved.
        pub cut: i64,
        /// Worst per-constraint balance ratio (1.0 = perfect).
        pub balance: f64,
    }

    /// One detected PROFILE load phase (§3.3): a half-open bucket range,
    /// the node dominating the smoothed load curve inside it, and its event
    /// total.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PhaseInfo {
        /// First bucket of the phase (inclusive).
        pub start_bucket: u64,
        /// One past the last bucket of the phase.
        pub end_bucket: u64,
        /// Node with the maximal load inside the phase; `None` when the
        /// phase is all-idle.
        pub dominating_node: Option<u64>,
        /// Total observed events inside the phase.
        pub events: u64,
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

    /// One finished wall-clock span: a stable `area/stage` name plus the
    /// elapsed time. Spans are *timing* data — never part of the
    /// deterministic report sections.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Span {
        /// Stable `area/stage` name (see DESIGN.md §11 for the convention).
        pub name: String,
        /// Elapsed wall-clock microseconds.
        pub wall_us: u64,
    }
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
            self.command.write(w.key("command"));
            self.scenario.write(w.key("scenario"));
            self.partition.write(w.key("partition"));
            self.restarts.write(w.key("restarts"));
            self.profile.write(w.key("profile"));
            self.counters.write(w.key("counters"));
            self.gauges.write(w.key("gauges"));
            self.emulation.write(w.key("emulation"));
            // The key is omitted (not null) when absent: documents written
            // before the rebalancer existed stay byte-identical.
            if let Some(r) = &self.rebalance {
                r.write(w.key("rebalance"));
            }
            self.lint.write(w.key("lint"));
            // `timing` must stay the last key: golden tests truncate here.
            self.timing.write(w.key("timing"));
        });
        w.finish() + "\n"
    }

    /// Parses a report previously written by [`RunReport::to_json`].
    ///
    /// Rejects documents with the wrong `tool`, an unsupported `format`,
    /// or missing/ill-typed fields; the error string names the offender.
    /// An absent optional block (`partition`, `rebalance`, `lint`, …)
    /// reads as `None`.
    pub fn from_json(input: &str) -> Result<RunReport, String> {
        let root = json::parse(input).map_err(|e| e.to_string())?;
        let tool = String::member(&root, "tool")?;
        if tool != "massf-run" {
            return Err(format!("not a massf run report (tool = \"{tool}\")"));
        }
        let format = u64::member(&root, "format")?;
        if format != JSON_FORMAT_VERSION as u64 {
            return Err(format!(
                "unsupported report format {format} (this build reads format {JSON_FORMAT_VERSION})"
            ));
        }
        Ok(RunReport {
            command: Field::member(&root, "command")?,
            scenario: Field::member(&root, "scenario")?,
            partition: Field::member(&root, "partition")?,
            restarts: Field::member(&root, "restarts")?,
            profile: Field::member(&root, "profile")?,
            counters: Field::member(&root, "counters")?,
            gauges: Field::member(&root, "gauges")?,
            emulation: Field::member(&root, "emulation")?,
            rebalance: Field::member(&root, "rebalance")?,
            lint: Field::member(&root, "lint")?,
            timing: Field::member(&root, "timing")?,
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
                        "  {}: winner #{} of {} (cut {}, balance {}, {})",
                        batch.stage,
                        batch.winner,
                        batch.outcomes.len(),
                        w.cut,
                        fmt_f64(w.balance),
                        if w.feasible { "feasible" } else { "infeasible" }
                    ),
                    None => format!(
                        "  {}: winner #{} of {}",
                        batch.stage,
                        batch.winner,
                        batch.outcomes.len()
                    ),
                };
                out.push_str(&line);
                if batch.polished > 0 {
                    out.push_str(&format!(", polish moved {}", batch.polished));
                }
                out.push('\n');
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
                     imbalance {} -> {}  lookahead {} us  {}\n",
                    ep.epoch,
                    ep.end_us,
                    ep.engine_loads,
                    ep.cut_packets,
                    fmt_f64(ep.drift_measured),
                    fmt_f64(ep.drift_predicted),
                    fmt_f64(ep.imbalance_before),
                    fmt_f64(ep.imbalance_after),
                    ep.lookahead_us,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
                    lookahead_us: 274,
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
                    lookahead_us: 274,
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
        // A map block of the wrong JSON type is ill-typed, not empty.
        let json = sample().to_json();
        for (block, ill_typed) in [
            (
                "\"counters\": {\n    \"mapping.flows_aggregated\": 12\n  }",
                "\"counters\": 7",
            ),
            (
                "\"gauges\": {\n    \"partition.balance\": 1.042000\n  }",
                "\"gauges\": []",
            ),
        ] {
            assert!(json.contains(block), "{json}");
            let e = RunReport::from_json(&json.replace(block, ill_typed)).unwrap_err();
            assert!(e.contains("expected an object"), "{e}");
        }
    }

    #[test]
    fn every_emitted_key_path_is_in_the_design_schema_table() {
        // DESIGN.md §11's schema table: each row's key path (a trailing
        // `[]` dropped) and the whole row, whose text may name members.
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("DESIGN.md");
        let section = &design[design.find("\n## 11.").unwrap()..design.find("\n## 12.").unwrap()];
        let rows: Vec<(&str, &str)> = section
            .lines()
            .filter_map(|l| Some((l.strip_prefix("| `")?.split('`').next()?, l)))
            .collect();
        let row = |path: &str| {
            let path = path.trim_end_matches("[]");
            rows.iter()
                .find(|r| r.0.trim_end_matches("[]") == path)
                .map(|r| r.1)
        };

        // Every key path the writer emits, array items as `[]`. Counter
        // and gauge names are data, not schema.
        fn key_paths(v: &Value, path: &str, out: &mut BTreeSet<String>) {
            match v {
                Value::Obj(members) => {
                    for (key, v) in members {
                        let at = if path.is_empty() {
                            key.clone()
                        } else {
                            format!("{path}.{key}")
                        };
                        if at != "counters" && at != "gauges" {
                            key_paths(v, &at, out);
                        }
                        out.insert(at);
                    }
                }
                Value::Arr(items) => items
                    .iter()
                    .for_each(|v| key_paths(v, &format!("{path}[]"), out)),
                _ => {}
            }
        }
        let mut paths = BTreeSet::new();
        let doc = json::parse(&sample_with_rebalance().to_json()).unwrap();
        key_paths(&doc, "", &mut paths);
        assert!(paths.contains("rebalance.epochs[].imbalance_after"));
        assert!(paths.contains("profile.phases[].dominating_node"));

        // A path is documented by its own row, or by its leaf backticked
        // in its parent's row (as `emulation.engines[]` lists its members).
        let missing: Vec<&String> = paths
            .iter()
            .filter(|at| {
                let (parent, leaf) = at.rsplit_once('.').unwrap_or(("", at));
                row(at).is_none() && !row(parent).is_some_and(|r| r.contains(&format!("`{leaf}`")))
            })
            .collect();
        assert!(missing.is_empty(), "DESIGN.md §11 lacks {missing:?}");
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
