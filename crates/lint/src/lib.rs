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
//! with a stable code (`MC001`…, one [`Code`] catalog row each), a
//! severity ([`Severity`]), and a source location ([`Location`]),
//! collected into a [`Diagnostics`] report — `massf-metrics`'s shared
//! report over this catalog — that renders both human-readable and
//! byte-deterministic JSON.
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
//! use massf_lint::lint_network;
//! use massf_metrics::diag::Code;
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

pub use artifact::{lint_artifacts, lint_trace, ArtifactInput};
pub use massf_metrics::diag::Severity;

use massf_metrics::diag::{Code as _, Extra, Report};
use massf_metrics::json::{Layout::Spaced, Writer};
use massf_topology::{Network, NodeId};
use massf_traffic::spec::TrafficKind;
use massf_traffic::{FlowSpec, PredictedFlow};
use std::fmt;

massf_metrics::catalog! {
    /// Stable diagnostic codes, one per pass. Codes are append-only: a code
    /// is never renumbered or reused once shipped. A report stores 25
    /// findings per code: a trace with thousands of foreign endpoints
    /// reports 25 of them and counts the rest as suppressed.
    pub enum Code {
        tool = "check", location = Location, extra = (), cap = 25;
        Mc001 = ("MC001", "connectivity", Error, "the network must be one connected component"),
        Mc002 = ("MC002", "csr-invariants", Error,
            "the partitioner input graph must satisfy all CSR invariants"),
        Mc003 = ("MC003", "lookahead-hazard", Warn,
            "router-router links with near-zero latency destroy conservative lookahead when cut"),
        Mc004 = ("MC004", "oversubscribed-injection", Warn,
            "an injection point's predicted demand must fit its access-link capacity"),
        Mc005 = ("MC005", "unreachable-injection", Error,
            "every injection point must reach at least one other injection point"),
        Mc006 = ("MC006", "weight-sanity", Error,
            "weights must be finite, non-negative, and safe to quantize to i64"),
        Mc007 = ("MC007", "partition-feasibility", Error,
            "the partition request must be satisfiable (engines, balance tolerance)"),
        Mc008 = ("MC008", "degenerate-phases", Warn,
            "PROFILE phase detection needs non-empty, non-zero load buckets"),
        Mc009 = ("MC009", "foreign-endpoints", Error,
            "flow endpoints must be in-range hosts, not routers or self-loops"),
        Mc010 = ("MC010", "spec-topology-fit", Error,
            "the background-traffic spec must fit the topology's host count"),
        Mc011 = ("MC011", "parallel-links", Warn,
            "parallel links between one pair merge in the partitioner graph"),
        Mc012 = ("MC012", "degree-anomalies", Error,
            "isolated nodes and multihomed hosts are load-model anomalies"),
        Mc013 = ("MC013", "partition-shape", Error,
            "a concrete partition must have contiguous, non-empty parts and a safe cut-latency floor"),
        Mc014 = ("MC014", "routing-asymmetry", Error,
            "shortest-path latency must agree in both directions over symmetric links"),
        Mc015 = ("MC015", "ecmp-ambiguity", Note,
            "equal-cost next hops make the route a tie-break artifact, not a cost decision"),
        Mc016 = ("MC016", "trace-lint", Error,
            "a trace file must parse, stay monotonic, and fit its declared duration"),
        Mc017 = ("MC017", "capacity-feasibility", Error,
            "a heterogeneous engine-capacity vector must be valid and satisfiable"),
        Mc018 = ("MC018", "cross-as-lookahead", Warn,
            "an AS reachable only through low-latency links collapses lookahead when isolated"),
        Mc019 = ("MC019", "predicted-load-drift", Error,
            "the PLACE-predicted per-engine load must track what NetFlow measured"),
        Mc020 = ("MC020", "measured-load-drift", Error,
            "measured per-engine load must stay stable across epochs, or remapping is due"),
    }
}

/// Where a diagnostic points. The derived order — kind, then index — is
/// the location key of the report order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
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

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Network => f.write_str("network"),
            Location::Field(name) => write!(f, "field {name}"),
            Location::Node { id, name } => write!(f, "node {id} ({name})"),
            Location::Link { id, a, b } => write!(f, "link {id} ({a}-{b})"),
            Location::Flow(i) => write!(f, "flow {i}"),
            Location::Part(p) => write!(f, "part {p}"),
            Location::Route { src, dst } => write!(f, "route {src}->{dst}"),
        }
    }
}

/// A lint report over the MC catalog.
pub type Diagnostics = Report<Code>;

/// The MC report's trailer: the findings suppressed past the per-code cap.
impl Extra<Code> for () {
    fn human_trailer(report: &Diagnostics) -> String {
        report
            .suppressed()
            .map(|(code, n)| format!("note: {n} additional {code} finding(s) suppressed\n"))
            .collect()
    }

    fn json_trailer(report: &Diagnostics, w: &mut Writer) {
        w.key("suppressed")
            .rows(Spaced, report.suppressed(), |w, (code, n)| {
                w.key("code").string(code.as_str());
                w.key("count").uint(n as u64);
            });
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
    let mut diags = Diagnostics::default();
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
    let mut diags = Diagnostics::default();
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
        assert_eq!(d.passes_run, passes::registry().len());
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let strs: Vec<&str> = Code::all().map(|c| c.as_str()).collect();
        let mut dedup = strs.clone();
        dedup.dedup();
        assert_eq!(strs, dedup);
        assert_eq!(strs[0], "MC001");
        assert_eq!(*strs.last().unwrap(), "MC020");
        for c in Code::all() {
            assert!(!c.name().is_empty());
            assert!(!c.summary().is_empty());
        }
        assert_eq!(Code::CAP, 25);
    }

    #[test]
    fn deny_warnings_reorders_a_finished_report() {
        let mut d = Diagnostics::default();
        d.push(Code::Mc003, Severity::Warn, Location::Network, "w".into());
        d.push(Code::Mc005, Severity::Error, Location::Network, "e".into());
        d.finish();
        d.deny_warnings();
        let order: Vec<&str> = d.iter().map(|x| x.code.as_str()).collect();
        assert_eq!(order, ["MC003", "MC005"], "promoted MC003 sorts by code");
    }

    #[test]
    fn renders_locations_and_suppressed_findings() {
        let mut d = Diagnostics::default();
        let link = Location::Link { id: 1, a: 0, b: 2 };
        d.push(Code::Mc003, Severity::Warn, link, "3 µs".into());
        for i in 0..Code::CAP + 3 {
            d.push(Code::Mc009, Severity::Note, Location::Flow(i), "f".into());
        }
        d.finish();
        let text = d.human();
        assert!(text.starts_with("warning[MC003] link 1 (0-2): 3 µs\nnote[MC009] flow 0: f\n"));
        assert!(text.ends_with(
            "note: 3 additional MC009 finding(s) suppressed\n\
             check: 0 error(s), 1 warning(s), 25 note(s) — 0 passes run\n"
        ));
        let json = d.json();
        assert!(json.starts_with("{\n  \"tool\": \"massf-check\",\n"));
        assert!(json.contains("\"location\": \"link 1 (0-2)\""));
        assert!(json
            .ends_with("\"suppressed\": [\n    { \"code\": \"MC009\", \"count\": 3 }\n  ]\n}\n"));
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
