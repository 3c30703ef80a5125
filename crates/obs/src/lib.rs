//! # massf-obs
//!
//! The run-report observability layer: scoped wall-clock spans, named
//! counters and gauges, and the structured telemetry (partitioner restart
//! outcomes, PROFILE phase detection) that the pipeline stages record while
//! a scenario runs. Everything funnels into a [`report::RunReport`] — a
//! versioned (`"format": 1`), byte-deterministic JSON document written by
//! `massf run/record/replay --report <path>` and rendered back to human
//! text by `massf report <run.json>`.
//!
//! ## The determinism rule
//!
//! A run report separates two kinds of quantities:
//!
//! * **Simulated quantities** — event counts, timelines, imbalance,
//!   partition sizes, restart outcomes, phase boundaries. These are pure
//!   functions of the scenario and seed and must be **bit-identical across
//!   thread counts and runs**. They live at the top level of the report.
//! * **Wall-clock quantities** — span durations and the thread count that
//!   produced them. These vary run to run and are segregated under the
//!   single `timing` key (always the *last* key of the JSON object), which
//!   golden tests mask off before comparing.
//!
//! Span names are stable `area/stage` paths (`mapping/routing_tables`,
//! `partition/profile/combined`, `engine/emulate`); see DESIGN.md §11 for
//! the naming convention and the full schema.
//!
//! # Examples
//!
//! Record a few spans and counters, then round-trip a report through its
//! JSON form:
//!
//! ```
//! use massf_obs::{Recorder, report::{RunReport, ScenarioInfo}};
//!
//! let mut rec = Recorder::new();
//! let answer = rec.time("examples/compute", || 6 * 7);
//! rec.add_counter("examples.answers", 1);
//! assert_eq!(answer, 42);
//!
//! let report = RunReport::new(
//!     "run",
//!     ScenarioInfo {
//!         network: "2 hosts, 1 router".into(),
//!         engines: 1,
//!         approach: "TOP".into(),
//!         flows: 0,
//!         duration_s: Some(1.0),
//!     },
//!     rec,
//!     1,
//! );
//! let json = report.to_json();
//! assert!(json.starts_with("{\n  \"tool\": \"massf-run\",\n  \"format\": 1,\n"));
//! let parsed = RunReport::from_json(&json).unwrap();
//! assert_eq!(parsed.scenario.approach, "TOP");
//! assert_eq!(parsed.counters.get("examples.answers"), Some(&1));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod report;
pub use report::{PhaseInfo, ProfileTelemetry, RestartBatch, RestartOutcome, Span};

// The JSON module lives in the leaf crate so the lint crates can reach
// it too; this path is the public one the report readers use.
pub use massf_metrics::json;

use std::collections::BTreeMap;
use std::time::Instant;

/// A span in flight; produced by [`Recorder::start`], consumed by
/// [`Recorder::finish`]. Lets instrumented code time a region that itself
/// needs `&mut Recorder` (where a closure-based scope would not borrow).
#[derive(Debug)]
pub struct SpanStart(Instant);

/// Collects spans, counters, gauges, and structured telemetry during a
/// run. Cheap to create; instrumented entry points take `&mut Recorder`
/// and uninstrumented wrappers pass a throwaway.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    restarts: Vec<RestartBatch>,
    profile: Option<ProfileTelemetry>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` and records the span under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.spans.push(Span {
            name: name.to_string(),
            wall_us: t0.elapsed().as_micros() as u64,
        });
        out
    }

    /// Starts a span whose body needs `&mut self`; pair with
    /// [`Recorder::finish`].
    pub fn start(&self) -> SpanStart {
        SpanStart(Instant::now())
    }

    /// Closes a span opened with [`Recorder::start`].
    pub fn finish(&mut self, name: &str, start: SpanStart) {
        self.spans.push(Span {
            name: name.to_string(),
            wall_us: start.0.elapsed().as_micros() as u64,
        });
    }

    /// Adds `n` to the named counter (creating it at 0).
    pub fn add_counter(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets a named gauge (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records a best-of-N restart batch for `stage`.
    pub fn record_restarts(&mut self, stage: &str, winner: usize, outcomes: Vec<RestartOutcome>) {
        self.restarts.push(RestartBatch {
            stage: stage.to_string(),
            winner: winner as u64,
            polished: 0,
            outcomes,
        });
    }

    /// Records on the last restart batch how many nodes the descent that
    /// polishes its winner left on another engine.
    pub fn record_polish(&mut self, moved: usize) {
        if let Some(batch) = self.restarts.last_mut() {
            batch.polished = moved as u64;
        }
    }

    /// Stores the PROFILE phase-detection telemetry.
    pub fn set_profile(&mut self, telemetry: ProfileTelemetry) {
        self.profile = Some(telemetry);
    }

    /// Decomposes the recorder for report assembly: the finished spans in
    /// completion order, the named counters and gauges, the restart
    /// batches in call order and the PROFILE telemetry, when a PROFILE
    /// mapping ran.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        Vec<Span>,
        BTreeMap<String, u64>,
        BTreeMap<String, f64>,
        Vec<RestartBatch>,
        Option<ProfileTelemetry>,
    ) {
        (
            self.spans,
            self.counters,
            self.gauges,
            self.restarts,
            self.profile,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_records_a_span() {
        let mut rec = Recorder::new();
        let v = rec.time("a/b", || 5);
        assert_eq!(v, 5);
        let (spans, ..) = rec.into_parts();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "a/b");
    }

    #[test]
    fn start_finish_pairs() {
        let mut rec = Recorder::new();
        let s = rec.start();
        rec.add_counter("x", 2);
        rec.add_counter("x", 3);
        rec.finish("outer", s);
        let (spans, counters, ..) = rec.into_parts();
        assert_eq!(counters.get("x"), Some(&5));
        assert_eq!(spans[0].name, "outer");
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut rec = Recorder::new();
        rec.set_gauge("g", 1.0);
        rec.set_gauge("g", 2.5);
        assert_eq!(rec.into_parts().2.get("g"), Some(&2.5));
    }

    #[test]
    fn restart_batches_accumulate_in_order() {
        let mut rec = Recorder::new();
        rec.record_restarts(
            "top",
            1,
            vec![
                RestartOutcome {
                    feasible: true,
                    cut: 10,
                    balance: 1.1,
                },
                RestartOutcome {
                    feasible: true,
                    cut: 8,
                    balance: 1.0,
                },
            ],
        );
        rec.record_restarts("profile/latency", 0, vec![]);
        let (_, _, _, restarts, _) = rec.into_parts();
        assert_eq!(restarts.len(), 2);
        assert_eq!(restarts[0].stage, "top");
        assert_eq!(restarts[0].winner, 1);
        assert_eq!(restarts[1].stage, "profile/latency");
    }
}
