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
//! Every pass reads one [`LintInput`]: the network plus whatever request
//! parts (engines, traffic spec, flow schedule, predictions) and pipeline
//! artifacts (capacities, partition, routing tables, predicted and
//! measured loads) the caller holds. One exhaustive `match` maps each
//! [`Code`] to its pass, and the catalog splits into two stages:
//!
//! * [`lint_scenario`] — the request passes MC001–MC012 ([`passes`]):
//!   what the user *asked for*, run as the preflight of `partition`,
//!   `run`, `record` and `replay`;
//! * [`lint_artifacts`] — the artifact passes MC013–MC020 ([`artifact`]):
//!   what the pipeline *produced*, run as the post-mapping audit;
//! * [`lint_trace`] — MC016 over a trace parse result, the one check
//!   whose input is not a [`LintInput`].
//!
//! A pass whose input part is absent emits nothing but still counts as
//! run, so `passes_run` is 12 and 8 whatever the caller supplied. The
//! `massf check` CLI subcommand wraps both stages; the pipeline
//! subcommands refuse to proceed past any Error-level diagnostic.
//!
//! ```
//! use massf_lint::{lint_scenario, LintInput};
//! use massf_metrics::diag::Code;
//! use massf_topology::Network;
//!
//! let mut net = Network::new();
//! let r = net.add_router("r", 0);
//! let h = net.add_host("h", 0);
//! net.add_link(r, h, 100.0, 50);
//! net.add_host("lonely", 0); // no link: disconnected
//! let diags = lint_scenario(&LintInput::network(&net));
//! assert!(diags.has_errors());
//! assert!(diags.iter().any(|d| d.code.as_str() == "MC001"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod passes;

pub use artifact::lint_trace;
pub use massf_metrics::diag::Severity;

use massf_metrics::diag::{Code as _, Extra, Report};
use massf_metrics::json::{Layout::Spaced, Writer};
use massf_partition::Partitioning;
use massf_routing::{probes, RoutingTables};
use massf_topology::{Network, NodeId};
use massf_traffic::spec::TrafficKind;
use massf_traffic::{FlowSpec, PredictedFlow};
use std::fmt;
use std::sync::OnceLock;

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

/// Everything the linter may inspect: the network plus every request part
/// and pipeline artifact, each optional. A pass whose part is absent emits
/// nothing, so one input serves a bare-topology check, a scenario
/// preflight, a post-`partition` audit and a post-`run` audit alike.
///
/// `Clone`, not `Copy`: it owns the MC014/MC015 routing sweep, which
/// whichever of the two passes runs first makes.
#[derive(Debug, Clone)]
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
    /// Heterogeneous per-engine capacity vector, if one was requested
    /// (MC017).
    pub engine_capacities: Option<&'a [f64]>,
    /// A concrete partitioning to audit (MC013).
    pub partition: Option<&'a Partitioning>,
    /// Built routing tables to probe (MC014, MC015).
    pub tables: Option<&'a RoutingTables>,
    /// PLACE-predicted per-engine loads, for the drift comparison
    /// against measured loads (MC019).
    pub predicted_engine_loads: Option<&'a [f64]>,
    /// Measured per-engine loads, one vector per emulation epoch
    /// (MC019 compares their total against the prediction; MC020 checks
    /// epoch-over-epoch stability).
    pub epoch_engine_loads: Option<&'a [Vec<u64>]>,
    /// MC014's and MC015's findings: one sweep of `tables`.
    routing_probes: OnceLock<probes::Findings>,
}

impl<'a> LintInput<'a> {
    /// A bare-topology input: every request part and artifact absent.
    pub fn network(net: &'a Network) -> Self {
        Self {
            net,
            engines: None,
            ubfactor: DEFAULT_UBFACTOR,
            predicted: &[],
            flows: &[],
            traffic: None,
            engine_capacities: None,
            partition: None,
            tables: None,
            predicted_engine_loads: None,
            epoch_engine_loads: None,
            routing_probes: OnceLock::new(),
        }
    }

    /// The routing probes' findings, swept on first use; `None` without
    /// tables.
    fn routing_probes(&self) -> Option<&probes::Findings> {
        let tables = self.tables?;
        Some(
            self.routing_probes
                .get_or_init(|| probes::sweep(self.net, tables, Code::CAP - 1)),
        )
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

    /// Builder: sets the heterogeneous capacity vector.
    pub fn with_capacities(mut self, caps: &'a [f64]) -> Self {
        self.engine_capacities = Some(caps);
        self
    }

    /// Builder: sets the partitioning to audit.
    pub fn with_partition(mut self, p: &'a Partitioning) -> Self {
        self.partition = Some(p);
        self
    }

    /// Builder: sets the routing tables to probe.
    pub fn with_tables(mut self, t: &'a RoutingTables) -> Self {
        self.tables = Some(t);
        self
    }

    /// Builder: sets the PLACE-predicted per-engine loads (MC019).
    pub fn with_predicted_loads(mut self, loads: &'a [f64]) -> Self {
        self.predicted_engine_loads = Some(loads);
        self
    }

    /// Builder: sets the per-epoch measured per-engine loads
    /// (MC019/MC020).
    pub fn with_epoch_loads(mut self, epochs: &'a [Vec<u64>]) -> Self {
        self.epoch_engine_loads = Some(epochs);
        self
    }
}

/// Default imbalance tolerance assumed when the caller does not supply
/// one; matches `MapperConfig::new`'s default.
pub const DEFAULT_UBFACTOR: f64 = 1.25;

/// The pass behind `code`. The `match` is exhaustive, so a catalog row
/// without a pass does not compile.
fn pass(code: Code) -> fn(&LintInput<'_>, &mut Diagnostics) {
    use crate::{artifact as a, passes as p};
    match code {
        Code::Mc001 => p::connectivity,
        Code::Mc002 => p::csr_invariants,
        Code::Mc003 => p::lookahead_hazard,
        Code::Mc004 => p::oversubscribed_injection,
        Code::Mc005 => p::unreachable_injection,
        Code::Mc006 => p::weight_sanity,
        Code::Mc007 => p::partition_feasibility,
        Code::Mc008 => p::degenerate_phases,
        Code::Mc009 => p::foreign_endpoints,
        Code::Mc010 => p::spec_topology_fit,
        Code::Mc011 => p::parallel_links,
        Code::Mc012 => p::degree_anomalies,
        Code::Mc013 => a::partition_shape,
        Code::Mc014 => a::routing_asymmetry,
        Code::Mc015 => a::ecmp_ambiguity,
        // A trace file is no part of a `LintInput`: `lint_trace` runs MC016.
        Code::Mc016 => |_, _| {},
        Code::Mc017 => a::capacity_feasibility,
        Code::Mc018 => a::cross_as_lookahead,
        Code::Mc019 => a::predicted_load_drift,
        Code::Mc020 => a::measured_load_drift,
    }
}

/// Runs the pass of every code `stage` selects, in catalog order, and
/// returns the finished, deterministically ordered report.
fn run(input: &LintInput<'_>, stage: impl Fn(Code) -> bool) -> Diagnostics {
    let mut diags = Diagnostics::default();
    for code in Code::all().filter(|&c| stage(c)) {
        pass(code)(input, &mut diags);
        diags.passes_run += 1;
    }
    diags.finish();
    diags
}

/// The request stage: runs MC001–MC012 over `input`.
pub fn lint_scenario(input: &LintInput<'_>) -> Diagnostics {
    run(input, |c| c < Code::Mc013)
}

/// The artifact stage: runs MC013–MC020 over `input`.
pub fn lint_artifacts(input: &LintInput<'_>) -> Diagnostics {
    run(input, |c| c >= Code::Mc013)
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
        let d = lint_scenario(&LintInput::network(&line_net()));
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(d.count(Severity::Warn), 0, "{d:?}");
        assert_eq!(d.passes_run, 12);
    }

    #[test]
    fn each_stage_runs_only_its_own_codes_over_a_full_input() {
        // Broken every way both stages look: an isolated host, a parallel
        // link, a 10 µs router link that is AS 2's only escape, and a
        // multihomed host.
        let mut net = line_net();
        net.add_link(1, 2, 500.0, 4000);
        let r2 = net.add_router("r2", 2);
        net.add_link(2, r2, 1000.0, 10);
        net.add_link(0, 2, 100.0, 100);
        net.add_host("lonely", 0);
        let flows = [FlowSpec::from_bytes(0, 99, 0, 3000, 10.0)];
        let predicted = [PredictedFlow {
            src: 0,
            dst: 3,
            bandwidth_mbps: f64::NAN,
        }];
        let traffic = massf_traffic::spec::parse_traffic("traffic { name CBR }").unwrap();
        let caps = [1.0, 2.0];
        let partition = Partitioning {
            part: vec![0, 0, 2, 2, 0, 0],
            nparts: 3,
        };
        let tables = RoutingTables::build(&net);
        let loads = [1.0, 1.0, 1.0];
        let epochs = [vec![300, 0, 0], vec![0, 300, 0]];
        let mut input = LintInput::network(&net)
            .with_engines(3)
            .with_capacities(&caps)
            .with_partition(&partition)
            .with_tables(&tables)
            .with_predicted_loads(&loads)
            .with_epoch_loads(&epochs);
        input.flows = &flows;
        input.predicted = &predicted;
        input.traffic = Some(&traffic);

        let request = lint_scenario(&input);
        assert_eq!(request.passes_run, 12);
        assert!(request.has_errors(), "{request:?}");
        assert!(request.iter().all(|d| d.code < Code::Mc013), "{request:?}");
        let audit = lint_artifacts(&input);
        assert_eq!(audit.passes_run, 8);
        assert!(audit.has_errors(), "{audit:?}");
        assert!(audit.iter().all(|d| d.code >= Code::Mc013), "{audit:?}");
        for code in [
            Code::Mc013,
            Code::Mc017,
            Code::Mc018,
            Code::Mc019,
            Code::Mc020,
        ] {
            assert!(audit.iter().any(|d| d.code == code), "{code}: {audit:?}");
        }
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
}
