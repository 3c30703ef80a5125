//! # massf-lint
//!
//! Preflight static diagnostics for the MaSSF reproduction: the compiler
//! front-end of the emulation pipeline.
//!
//! The paper's central observation is that bad partitioner inputs —
//! traffic-blind weights, near-zero-latency cut edges, injection points
//! whose demand the topology cannot carry — silently produce 2–3× load
//! imbalance that only shows up *after* an expensive emulation run. This
//! crate rejects or flags such inputs up front: every check is a *pass*
//! with a stable code (`MC001`…), a severity ([`Severity`]), and a source
//! location ([`Location`]), collected into a [`Diagnostics`] report that
//! renders both human-readable and byte-deterministic JSON
//! ([`render::human`], [`render::json`]).
//!
//! Entry points:
//!
//! * [`lint_scenario`] — run every pass over a full scenario description
//!   ([`LintInput`]: network + optional engines / traffic spec / flow
//!   schedule / predictions);
//! * [`lint_network`] — the structural subset for a bare topology;
//! * [`lint_partition`] — a topology plus a partition request;
//! * [`lint_graph`] — CSR invariants of an already-built partitioner
//!   input graph (the former `massf-graph::validate` checks as passes).
//!
//! The `massf check` CLI subcommand wraps [`lint_scenario`]; the
//! `partition`/`run`/`replay` subcommands call it as a preflight and
//! refuse to proceed past any Error-level diagnostic.
//!
//! ```
//! use massf_lint::{lint_network, Severity};
//! use massf_topology::Network;
//!
//! let mut net = Network::new();
//! let r = net.add_router("r", 0);
//! let h = net.add_host("h", 0);
//! net.add_link(r, h, 100.0, 50);
//! net.add_host("lonely", 0); // no link: disconnected
//! let diags = lint_network(&net);
//! assert!(diags.has_errors());
//! assert!(diags.iter().any(|d| d.code.as_str() == "MC001"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod passes;
pub mod render;

pub use artifact::{lint_artifacts, lint_trace, ArtifactInput};
pub use massf_metrics::report::Severity;

use massf_topology::{Network, NodeId};
use massf_traffic::spec::TrafficKind;
use massf_traffic::{FlowSpec, PredictedFlow};
use std::collections::BTreeMap;

/// Stable diagnostic codes, one per pass. Codes are append-only: a code is
/// never renumbered or reused once shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Network connectivity (components).
    Mc001,
    /// CSR graph invariants of the partitioner input.
    Mc002,
    /// Near-zero-latency router-router links (lookahead hazard when cut).
    Mc003,
    /// Injection point predicted demand exceeds access-link capacity.
    Mc004,
    /// Injection point unreachable from every other injection point.
    Mc005,
    /// NaN / negative / overflow-prone weights before i64 quantization.
    Mc006,
    /// Infeasible partition request (engines, balance tolerance).
    Mc007,
    /// Empty or all-zero PROFILE phase constraints.
    Mc008,
    /// Flow endpoints outside the network or of the wrong kind.
    Mc009,
    /// Background-traffic spec does not fit the topology.
    Mc010,
    /// Parallel links between one node pair.
    Mc011,
    /// Degree anomalies (isolated nodes, multihomed hosts).
    Mc012,
    /// Partition-shape audit of a concrete partitioning (contiguity,
    /// empty/singleton parts, cut-latency floor).
    Mc013,
    /// Asymmetric A→B vs. B→A shortest-path latencies in built routing
    /// tables.
    Mc014,
    /// Equal-cost multi-path ambiguity: routes whose next-hop choice rests
    /// on the deterministic tie-break, not on cost.
    Mc015,
    /// Trace-file lint (header/version, monotonic timestamps, horizon vs.
    /// declared duration, degenerate schedules).
    Mc016,
    /// Heterogeneous engine-capacity feasibility (MC007 generalized to
    /// capacity vectors).
    Mc017,
    /// Cross-AS aggregate lookahead: an AS reachable only through
    /// low-latency links (the aggregate form of MC003).
    Mc018,
    /// PLACE-predicted vs. NetFlow-measured per-engine load drift.
    Mc019,
    /// Measured per-engine load drift across emulation epochs.
    Mc020,
}

impl Code {
    /// Every code, in catalog order.
    pub const ALL: [Code; 20] = [
        Code::Mc001,
        Code::Mc002,
        Code::Mc003,
        Code::Mc004,
        Code::Mc005,
        Code::Mc006,
        Code::Mc007,
        Code::Mc008,
        Code::Mc009,
        Code::Mc010,
        Code::Mc011,
        Code::Mc012,
        Code::Mc013,
        Code::Mc014,
        Code::Mc015,
        Code::Mc016,
        Code::Mc017,
        Code::Mc018,
        Code::Mc019,
        Code::Mc020,
    ];

    /// The stable `MCnnn` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Mc001 => "MC001",
            Code::Mc002 => "MC002",
            Code::Mc003 => "MC003",
            Code::Mc004 => "MC004",
            Code::Mc005 => "MC005",
            Code::Mc006 => "MC006",
            Code::Mc007 => "MC007",
            Code::Mc008 => "MC008",
            Code::Mc009 => "MC009",
            Code::Mc010 => "MC010",
            Code::Mc011 => "MC011",
            Code::Mc012 => "MC012",
            Code::Mc013 => "MC013",
            Code::Mc014 => "MC014",
            Code::Mc015 => "MC015",
            Code::Mc016 => "MC016",
            Code::Mc017 => "MC017",
            Code::Mc018 => "MC018",
            Code::Mc019 => "MC019",
            Code::Mc020 => "MC020",
        }
    }

    /// Short kebab-case pass name.
    pub fn name(self) -> &'static str {
        match self {
            Code::Mc001 => "connectivity",
            Code::Mc002 => "csr-invariants",
            Code::Mc003 => "lookahead-hazard",
            Code::Mc004 => "oversubscribed-injection",
            Code::Mc005 => "unreachable-injection",
            Code::Mc006 => "weight-sanity",
            Code::Mc007 => "partition-feasibility",
            Code::Mc008 => "degenerate-phases",
            Code::Mc009 => "foreign-endpoints",
            Code::Mc010 => "spec-topology-fit",
            Code::Mc011 => "parallel-links",
            Code::Mc012 => "degree-anomalies",
            Code::Mc013 => "partition-shape",
            Code::Mc014 => "routing-asymmetry",
            Code::Mc015 => "ecmp-ambiguity",
            Code::Mc016 => "trace-lint",
            Code::Mc017 => "capacity-feasibility",
            Code::Mc018 => "cross-as-lookahead",
            Code::Mc019 => "predicted-load-drift",
            Code::Mc020 => "measured-load-drift",
        }
    }

    /// One-line description for the pass catalog.
    pub fn summary(self) -> &'static str {
        match self {
            Code::Mc001 => "the network must be one connected component",
            Code::Mc002 => "the partitioner input graph must satisfy all CSR invariants",
            Code::Mc003 => {
                "router-router links with near-zero latency destroy conservative lookahead when cut"
            }
            Code::Mc004 => {
                "an injection point's predicted demand must fit its access-link capacity"
            }
            Code::Mc005 => "every injection point must reach at least one other injection point",
            Code::Mc006 => "weights must be finite, non-negative, and safe to quantize to i64",
            Code::Mc007 => "the partition request must be satisfiable (engines, balance tolerance)",
            Code::Mc008 => "PROFILE phase detection needs non-empty, non-zero load buckets",
            Code::Mc009 => "flow endpoints must be in-range hosts, not routers or self-loops",
            Code::Mc010 => "the background-traffic spec must fit the topology's host count",
            Code::Mc011 => "parallel links between one pair merge in the partitioner graph",
            Code::Mc012 => "isolated nodes and multihomed hosts are load-model anomalies",
            Code::Mc013 => {
                "a concrete partition must have contiguous, non-empty parts and a safe cut-latency floor"
            }
            Code::Mc014 => "shortest-path latency must agree in both directions over symmetric links",
            Code::Mc015 => {
                "equal-cost next hops make the route a tie-break artifact, not a cost decision"
            }
            Code::Mc016 => {
                "a trace file must parse, stay monotonic, and fit its declared duration"
            }
            Code::Mc017 => {
                "a heterogeneous engine-capacity vector must be valid and satisfiable"
            }
            Code::Mc018 => {
                "an AS reachable only through low-latency links collapses lookahead when isolated"
            }
            Code::Mc019 => {
                "the PLACE-predicted per-engine load must track what NetFlow measured"
            }
            Code::Mc020 => {
                "measured per-engine load must stay stable across epochs, or remapping is due"
            }
        }
    }

    /// The worst severity this pass can emit, as reported by the
    /// `massf check --list-passes` catalog. Append-only like the codes
    /// themselves: a pass may gain milder findings, but its worst
    /// severity is part of the stable catalog contract.
    pub fn worst_severity(self) -> Severity {
        match self {
            Code::Mc003 | Code::Mc004 | Code::Mc008 | Code::Mc011 | Code::Mc018 => Severity::Warn,
            Code::Mc015 => Severity::Note,
            _ => Severity::Error,
        }
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The network as a whole.
    Network,
    /// A named scenario/request field (e.g. `engines`, `traffic`).
    Field(&'static str),
    /// A node, by id and name.
    Node {
        /// Dense node id.
        id: NodeId,
        /// Node name from the description file.
        name: String,
    },
    /// A link, by id and endpoints.
    Link {
        /// Dense link id.
        id: u32,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A flow (concrete or predicted), by index in its schedule.
    Flow(usize),
    /// A partition part (engine index) in a concrete partitioning.
    Part(usize),
    /// A routed source-destination pair.
    Route {
        /// Route source node.
        src: NodeId,
        /// Route destination node.
        dst: NodeId,
    },
}

impl Location {
    /// Deterministic ordering key: kind rank, then numeric index.
    fn sort_key(&self) -> (u8, u64) {
        match self {
            Location::Network => (0, 0),
            Location::Field(_) => (1, 0),
            Location::Node { id, .. } => (2, *id as u64),
            Location::Link { id, .. } => (3, *id as u64),
            Location::Flow(i) => (4, *i as u64),
            Location::Part(p) => (5, *p as u64),
            Location::Route { src, dst } => (6, ((*src as u64) << 32) | *dst as u64),
        }
    }

    /// Compact rendering shared by both renderers.
    pub fn render(&self) -> String {
        match self {
            Location::Network => "network".to_string(),
            Location::Field(f) => format!("field {f}"),
            Location::Node { id, name } => format!("node {id} ({name})"),
            Location::Link { id, a, b } => format!("link {id} ({a}-{b})"),
            Location::Flow(i) => format!("flow {i}"),
            Location::Part(p) => format!("part {p}"),
            Location::Route { src, dst } => format!("route {src}->{dst}"),
        }
    }
}

/// One finding: a pass code, a severity, a location, and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// The pass that produced this finding.
    pub code: Code,
    /// How serious it is.
    pub severity: Severity,
    /// What it points at.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

/// Per-code cap on emitted diagnostics; further findings of the same code
/// are counted but not stored, keeping reports bounded on pathological
/// inputs (e.g. a trace with thousands of foreign endpoints).
pub const MAX_DIAGS_PER_CODE: usize = 25;

/// A collection of diagnostics with deterministic ordering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    diags: Vec<Diag>,
    suppressed: BTreeMap<Code, usize>,
    passes_run: usize,
}

impl Diagnostics {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a finding (or counts it as suppressed past the per-code cap).
    pub fn push(&mut self, code: Code, severity: Severity, location: Location, message: String) {
        let emitted = self.diags.iter().filter(|d| d.code == code).count();
        if emitted >= MAX_DIAGS_PER_CODE {
            *self.suppressed.entry(code).or_insert(0) += 1;
            return;
        }
        self.diags.push(Diag {
            code,
            severity,
            location,
            message,
        });
    }

    /// The findings, in report order (errors first, then by code, location,
    /// message). Only meaningful after [`Diagnostics::finish`]; the lint
    /// entry points return finished reports.
    pub fn iter(&self) -> std::slice::Iter<'_, Diag> {
        self.diags.iter()
    }

    /// Number of stored findings (suppressed ones excluded).
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// True when no findings were stored.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// `(code, count)` of findings suppressed past the per-code cap.
    pub fn suppressed(&self) -> impl Iterator<Item = (Code, usize)> + '_ {
        self.suppressed.iter().map(|(&c, &n)| (c, n))
    }

    /// How many passes ran to produce this report.
    pub fn passes_run(&self) -> usize {
        self.passes_run
    }

    /// Findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// True when any Error-level finding is present.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Promotes every Warn to Error (the `--deny-warnings` contract).
    pub fn deny_warnings(&mut self) {
        for d in &mut self.diags {
            if d.severity == Severity::Warn {
                d.severity = Severity::Error;
            }
        }
    }

    /// Merges another report into this one: findings concatenate (subject
    /// to this report's per-code caps), suppression counts add, and
    /// `passes_run` accumulates. Call [`Diagnostics::finish`] afterwards
    /// to restore report order. This is how the CLI folds an
    /// artifact-audit report into a request-preflight report.
    pub fn merge(&mut self, other: Diagnostics) {
        for d in other.diags {
            self.push(d.code, d.severity, d.location, d.message);
        }
        for (code, n) in other.suppressed {
            *self.suppressed.entry(code).or_insert(0) += n;
        }
        self.passes_run += other.passes_run;
    }

    /// Sorts into the deterministic report order: severity (errors first),
    /// then code, location, message.
    pub fn finish(&mut self) {
        self.diags.sort_by(|x, y| {
            (
                std::cmp::Reverse(x.severity),
                x.code,
                x.location.sort_key(),
                &x.message,
            )
                .cmp(&(
                    std::cmp::Reverse(y.severity),
                    y.code,
                    y.location.sort_key(),
                    &y.message,
                ))
        });
    }

    /// One-line outcome summary (shared tail of the human report).
    pub fn summary_line(&self) -> String {
        format!(
            "check: {} error(s), {} warning(s), {} note(s) — {} passes run",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Note),
            self.passes_run
        )
    }
}

/// Everything the linter may inspect. Optional parts simply skip the
/// passes that need them, so one input type serves bare-topology checks
/// and full scenario preflights alike.
#[derive(Debug, Clone, Copy)]
pub struct LintInput<'a> {
    /// The emulated network.
    pub net: &'a Network,
    /// Requested engine count (partition request), if any.
    pub engines: Option<usize>,
    /// Partitioner imbalance tolerance used for feasibility checks.
    pub ubfactor: f64,
    /// PLACE-style predicted flows, if any.
    pub predicted: &'a [PredictedFlow],
    /// The concrete flow schedule, if any.
    pub flows: &'a [FlowSpec],
    /// The parsed background-traffic spec, if any.
    pub traffic: Option<&'a TrafficKind>,
}

impl<'a> LintInput<'a> {
    /// A bare-topology input: no partition request, no traffic knowledge.
    pub fn network(net: &'a Network) -> Self {
        Self {
            net,
            engines: None,
            ubfactor: DEFAULT_UBFACTOR,
            predicted: &[],
            flows: &[],
            traffic: None,
        }
    }

    /// Builder: sets the partition request.
    pub fn with_engines(mut self, engines: usize) -> Self {
        self.engines = Some(engines);
        self
    }

    /// Builder: sets the imbalance tolerance for feasibility checks.
    pub fn with_ubfactor(mut self, ub: f64) -> Self {
        self.ubfactor = ub;
        self
    }
}

/// Default imbalance tolerance assumed when the caller does not supply
/// one; matches `MapperConfig::new`'s default.
pub const DEFAULT_UBFACTOR: f64 = 1.25;

/// Runs every registered pass over `input` and returns the finished,
/// deterministically ordered report.
pub fn lint_scenario(input: &LintInput<'_>) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for pass in passes::registry() {
        (pass.run)(input, &mut diags);
        diags.passes_run += 1;
    }
    diags.finish();
    diags
}

/// Lints a bare topology (the structural subset of the catalog).
pub fn lint_network(net: &Network) -> Diagnostics {
    lint_scenario(&LintInput::network(net))
}

/// Lints a topology plus a partition request (`engines` parts at
/// imbalance tolerance `ubfactor`).
pub fn lint_partition(net: &Network, engines: usize, ubfactor: f64) -> Diagnostics {
    lint_scenario(
        &LintInput::network(net)
            .with_engines(engines)
            .with_ubfactor(ubfactor),
    )
}

/// Checks the CSR invariants of an already-built partitioner input graph,
/// reporting violations as `MC002` diagnostics — `massf-graph`'s
/// `validate` absorbed into the pass framework.
pub fn lint_graph(g: &massf_graph::CsrGraph) -> Diagnostics {
    let mut diags = Diagnostics::new();
    passes::csr_invariants_of(g, &mut diags);
    diags.passes_run = 1;
    diags.finish();
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn clean_network_is_clean() {
        let d = lint_network(&line_net());
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(d.count(Severity::Warn), 0, "{d:?}");
        assert_eq!(d.passes_run(), passes::registry().len());
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Note);
        assert_eq!(Severity::Warn.label(), "warning");
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut dedup = strs.clone();
        dedup.dedup();
        assert_eq!(strs, dedup);
        assert_eq!(strs[0], "MC001");
        assert_eq!(*strs.last().unwrap(), "MC020");
        for c in Code::ALL {
            assert!(!c.name().is_empty());
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn merge_accumulates_findings_and_passes() {
        let mut a = Diagnostics::new();
        a.push(Code::Mc003, Severity::Warn, Location::Network, "w".into());
        a.passes_run = 12;
        let mut b = Diagnostics::new();
        b.push(Code::Mc013, Severity::Error, Location::Part(1), "e".into());
        b.push(
            Code::Mc015,
            Severity::Note,
            Location::Route { src: 0, dst: 3 },
            "n".into(),
        );
        b.passes_run = 6;
        a.merge(b);
        a.finish();
        assert_eq!(a.len(), 3);
        assert_eq!(a.passes_run(), 18);
        assert_eq!(a.iter().next().unwrap().code, Code::Mc013, "errors first");
    }

    #[test]
    fn per_code_cap_suppresses() {
        let mut d = Diagnostics::new();
        for i in 0..MAX_DIAGS_PER_CODE + 7 {
            d.push(
                Code::Mc009,
                Severity::Warn,
                Location::Flow(i),
                format!("finding {i}"),
            );
        }
        assert_eq!(d.len(), MAX_DIAGS_PER_CODE);
        assert_eq!(d.suppressed().collect::<Vec<_>>(), vec![(Code::Mc009, 7)]);
    }

    #[test]
    fn deny_warnings_promotes() {
        let mut d = Diagnostics::new();
        d.push(Code::Mc003, Severity::Warn, Location::Network, "w".into());
        d.push(Code::Mc001, Severity::Note, Location::Network, "n".into());
        assert!(!d.has_errors());
        d.deny_warnings();
        assert!(d.has_errors());
        assert_eq!(d.count(Severity::Note), 1, "notes stay notes");
    }

    #[test]
    fn finish_orders_errors_first_then_code_and_location() {
        let mut d = Diagnostics::new();
        d.push(Code::Mc012, Severity::Note, Location::Flow(1), "z".into());
        d.push(
            Code::Mc003,
            Severity::Warn,
            Location::Link { id: 2, a: 0, b: 1 },
            "w".into(),
        );
        d.push(Code::Mc001, Severity::Error, Location::Network, "e".into());
        d.push(
            Code::Mc005,
            Severity::Error,
            Location::Node {
                id: 4,
                name: "h".into(),
            },
            "e2".into(),
        );
        d.finish();
        let order: Vec<(&str, &str)> = d
            .iter()
            .map(|x| (x.code.as_str(), x.severity.label()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("MC001", "error"),
                ("MC005", "error"),
                ("MC003", "warning"),
                ("MC012", "note"),
            ]
        );
    }

    #[test]
    fn lint_graph_flags_corrupt_csr() {
        // A valid graph first.
        let mut b = massf_graph::GraphBuilder::new(1);
        b.add_unit_vertices(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        let g = b.build().unwrap();
        assert!(!lint_graph(&g).has_errors());
    }
}
