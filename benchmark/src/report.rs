//! The metric catalog and the output formats: `name unit value` lines for
//! people, the driver's one-line JSON result, `results.json`, and
//! `trace_<workload>.json`.
//!
//! The catalog below is the single list of what the benchmark may emit;
//! `../BENCHMARK.json` carries the same names, units and directions, and a
//! unit test holds the two together.

use crate::fingerprint::Fingerprint;
use crate::span::{self, Span};
use crate::stats::{self, Bound};
use massf_core::obs::json::quote;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: false,
    }
}

/// What a user of `massf` sees. Host seconds unless the name says otherwise;
/// `load_imbalance` and `modeled_time_s` are simulated and repeat exactly.
pub const END_TO_END: [MetricDef; 5] = [
    lower("run_wall_s", "s"),
    lower("peak_rss_mib", "MiB"),
    lower("setup_s", "s"),
    lower("load_imbalance", "ratio"),
    lower("modeled_time_s", "s"),
];

/// One layer each, named `<crate>.<what>`. Counts and sizes are exact.
pub const PER_LAYER: [MetricDef; 44] = [
    lower("cli.unattributed_s", "s"),
    lower("cli.cpu_s", "s"),
    lower("topology.generate_s", "s"),
    lower("topology.dml_parse_s", "s"),
    lower("topology.nodes", "count"),
    lower("traffic.generate_s", "s"),
    lower("traffic.trace_parse_s", "s"),
    lower("traffic.flows", "count"),
    lower("lint.preflight_s", "s"),
    lower("lint.audit_s", "s"),
    lower("lint.audit_share", "ratio"),
    lower("routing.build_s", "s"),
    lower("routing.build_t2_s", "s"),
    higher("routing.build_speedup_t2", "ratio"),
    lower("routing.table_bytes", "bytes"),
    lower("routing.lookup_ns", "ns"),
    lower("routing.latency_query_ns", "ns"),
    lower("graph.csr_build_s", "s"),
    lower("partition.kway_s", "s"),
    lower("partition.kway_t2_s", "s"),
    lower("partition.edge_cut", "count"),
    lower("partition.max_part_ratio", "ratio"),
    lower("mapping.map_s", "s"),
    lower("mapping.accumulate_s", "s"),
    lower("mapping.profile_aggregate_s", "s"),
    lower("mapping.run_online_s", "s"),
    lower("mapping.migrated_nodes", "count"),
    lower("engine.emulate_s", "s"),
    lower("engine.events", "count"),
    higher("engine.events_per_s", "1/s"),
    higher("engine.netflow_events_per_s", "1/s"),
    lower("engine.netflow_records", "count"),
    higher("engine.step_events_per_s", "1/s"),
    higher("engine.par_events_per_s", "1/s"),
    higher("engine.par_speedup", "ratio"),
    higher("engine.heap_ratio", "ratio"),
    lower("engine.rounds", "count"),
    lower("engine.remote_messages", "count"),
    lower("engine.queue_peak", "count"),
    lower("engine.allocs_per_kevent", "1/kevent"),
    lower("engine.reallocs_per_kevent", "1/kevent"),
    lower("obs.report_json_s", "s"),
    lower("obs.report_bytes", "bytes"),
    lower("obs.report_overhead_s", "s"),
];

/// A name as `BENCHMARK.json` allows it: starts with a letter or digit, then
/// letters, digits, `_`, `.` and `-`, at most 64 in all.
#[cfg(test)]
pub fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values of one catalog, in the catalog's order.
pub struct Metrics {
    catalog: &'static [MetricDef],
    values: Vec<Option<Vec<f64>>>,
}

impl Metrics {
    pub fn new(catalog: &'static [MetricDef]) -> Self {
        Self {
            catalog,
            values: vec![None; catalog.len()],
        }
    }

    /// Records the sample of `name`; a metric reads as its median.
    ///
    /// # Panics
    /// Panics on a name outside the catalog: the catalog is the contract.
    pub fn put_all(&mut self, name: &str, sample: Vec<f64>) {
        let at = self
            .catalog
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"));
        self.values[at] = Some(sample);
    }

    pub fn put(&mut self, name: &str, value: f64) {
        self.put_all(name, vec![value]);
    }

    /// `(definition, sample)` of every metric recorded.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, &[f64])> + '_ {
        self.catalog
            .iter()
            .zip(&self.values)
            .filter_map(|(d, v)| Some((d, v.as_deref()?)))
    }

    /// Names of the catalog that were never recorded.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalog
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }

    /// `name unit value` per metric, with min, max and n behind a timing
    /// taken more than once.
    pub fn print(&self, workload: &str) {
        for (def, sample) in self.iter() {
            let s = stats::summarize(sample).expect("a recorded sample is not empty");
            if s.n > 1 {
                println!(
                    "{workload} {} {} {} (min {} max {} n {})",
                    def.name, def.unit, s.median, s.min, s.max, s.n
                );
            } else {
                println!("{workload} {} {} {}", def.name, def.unit, s.median);
            }
        }
    }

    /// `{"name": {"value": median, "unit": "..."}, ...}` — the driver's form.
    pub fn to_driver_json(&self) -> String {
        let members: Vec<String> = self
            .iter()
            .map(|(def, sample)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(def.name),
                    json_num(stats::median(sample).unwrap_or(f64::NAN)),
                    quote(def.unit)
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// `{"name": {"unit", "median", "min", "max", "n", "values"}, ...}` — the
    /// form `results.json` keeps and `compare` reads.
    pub fn to_results_json(&self) -> String {
        let members: Vec<String> = self
            .iter()
            .map(|(def, sample)| {
                let s = stats::summarize(sample).expect("a recorded sample is not empty");
                let values: Vec<String> = sample.iter().map(|&v| json_num(v)).collect();
                format!(
                    "      {}: {{\"unit\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \
                     \"n\": {}, \"values\": [{}]}}",
                    quote(def.name),
                    quote(def.unit),
                    json_num(s.median),
                    json_num(s.min),
                    json_num(s.max),
                    s.n,
                    values.join(", ")
                )
            })
            .collect();
        format!("{{\n{}\n    }}", members.join(",\n"))
    }
}

/// A JSON number with all the digits of `x`; `null` for NaN and infinities,
/// which JSON cannot hold.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The last line of a driver-mode run.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics.to_driver_json()
    )
}

/// One workload's block of `results.json`.
pub struct WorkloadResult {
    pub name: String,
    pub end_to_end: Metrics,
    pub per_layer: Option<Metrics>,
    pub fingerprint: Fingerprint,
    pub attempted: u64,
    pub failed: u64,
}

pub fn results_json(seed: u64, smoke: bool, nproc: usize, results: &[WorkloadResult]) -> String {
    let blocks: Vec<String> = results
        .iter()
        .map(|r| {
            let mut members = vec![
                format!("\"attempted\": {}", r.attempted),
                format!("\"failed\": {}", r.failed),
                format!(
                    "\"failed_share\": {}",
                    json_num(r.failed as f64 / r.attempted.max(1) as f64)
                ),
                format!("\"end_to_end\": {}", r.end_to_end.to_results_json()),
            ];
            if let Some(m) = &r.per_layer {
                members.push(format!("\"per_layer\": {}", m.to_results_json()));
            }
            members.push(format!("\"fingerprint\": {}", r.fingerprint.to_json()));
            format!(
                "    {}: {{\n    {}\n    }}",
                quote(&r.name),
                members.join(",\n    ")
            )
        })
        .collect();
    format!(
        "{{\n  \"tool\": \"massf-benchmark\",\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \
         \"nproc\": {nproc},\n  \"threads\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        crate::workload::THREADS,
        blocks.join(",\n")
    )
}

/// `trace_<workload>.json`: every span with its self time, and self time
/// summed per layer.
pub fn trace_json(workload: &str, spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "    {{\"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \
                 \"workload\": {}, \"self_us\": {}}}",
                quote(&s.name),
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                quote(workload),
                span::self_time_us(spans, i)
            )
        })
        .collect();
    let layers: Vec<String> = span::self_time_by_layer(spans)
        .iter()
        .map(|(layer, us)| format!("{}: {us}", quote(layer)))
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"spans\": [\n{}\n  ],\n  \"self_us_by_layer\": {{{}}}\n}}\n",
        quote(workload),
        rows.join(",\n"),
        layers.join(", ")
    )
}

/// The regression bound of an end-to-end metric, as `BENCHMARK.json` fixes
/// it. Peak memory also gets an absolute allowance that the file's format has
/// no field for.
pub fn bound_of(benchmark_json: &massf_core::obs::json::Value, metric: &str) -> Option<Bound> {
    let def = benchmark_json
        .get("end_to_end")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(metric))?;
    Some(Bound {
        relative: def.get("bound")?.as_f64()?,
        absolute_floor: if metric == "peak_rss_mib" { 2.0 } else { 0.0 },
        lower_is_better: def.get("better")?.as_str()? == "lower",
    })
}

/// `BENCHMARK.json` as checked in beside this package.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[cfg(test)]
mod tests {
    use super::*;
    use massf_core::obs::json;

    fn catalog_of(file: &json::Value, key: &str) -> Vec<(String, String, bool)> {
        file.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                    m.get("better").unwrap().as_str().unwrap() == "lower",
                )
            })
            .collect()
    }

    fn own(catalog: &[MetricDef]) -> Vec<(String, String, bool)> {
        catalog
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.lower_is_better))
            .collect()
    }

    #[test]
    fn every_emitted_name_is_in_benchmark_json_and_well_formed() {
        let file = json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(own(&END_TO_END), catalog_of(&file, "end_to_end"));
        assert_eq!(own(&PER_LAYER), catalog_of(&file, "per_layer"));
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_name(d.name), "{}", d.name);
            assert!(d.unit.len() <= 16, "{}", d.unit);
        }
        let text = |w: &json::Value, key: &str| w.get(key).unwrap().as_str().unwrap().to_string();
        let workloads: Vec<(String, String)> = file
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let own: Vec<(String, String)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_cap() {
        let file = json::parse(BENCHMARK_JSON).unwrap();
        for d in &END_TO_END {
            let b = bound_of(&file, d.name).unwrap();
            assert!(b.relative > 0.0 && b.relative <= 0.25, "{}", d.name);
            assert_eq!(b.lower_is_better, d.lower_is_better);
        }
        assert_eq!(bound_of(&file, "peak_rss_mib").unwrap().absolute_floor, 2.0);
        assert!(bound_of(&file, "cli.cpu_s").is_none());
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(is_name("engine.events_per_s"));
        assert!(is_name("4k-reads"));
        assert!(!is_name(""));
        assert!(!is_name(".hidden"));
        assert!(!is_name("a b"));
        assert!(!is_name(&"x".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn a_name_outside_the_catalog_is_refused() {
        Metrics::new(&END_TO_END).put("engine.events", 1.0);
    }

    #[test]
    fn driver_line_is_one_json_object_with_the_four_keys() {
        let mut m = Metrics::new(&END_TO_END);
        m.put_all("run_wall_s", vec![1.25, 1.0, 1.5]);
        m.put("setup_s", 0.125);
        assert_eq!(m.missing().len(), 3);
        let line = driver_line(true, 3, 0, &m);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(0));
        let wall = v.get("metrics").unwrap().get("run_wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn results_and_trace_files_parse_back() {
        let mut m = Metrics::new(&END_TO_END);
        m.put_all("run_wall_s", vec![2.0, 1.0]);
        let text = results_json(
            11,
            true,
            2,
            &[WorkloadResult {
                name: "emulate_cbr".to_string(),
                end_to_end: m,
                per_layer: None,
                fingerprint: Fingerprint {
                    total_events: 9,
                    delivered: 3,
                    dropped: 0,
                    rounds: 2,
                    remote_messages: 1,
                    engine_events: vec![5, 4],
                    load_imbalance: 0.125,
                    modeled_time_s: 0.5,
                },
                attempted: 2,
                failed: 0,
            }],
        );
        let v = json::parse(&text).unwrap();
        let wall = v
            .get("workloads")
            .and_then(|w| w.get("emulate_cbr"))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("run_wall_s"))
            .unwrap();
        assert_eq!(wall.get("median").unwrap().as_f64(), Some(1.5));
        assert_eq!(wall.get("values").unwrap().as_array().unwrap().len(), 2);
        let pinned = v
            .get("workloads")
            .and_then(|w| w.get("emulate_cbr"))
            .and_then(|w| w.get("fingerprint"))
            .and_then(Fingerprint::from_json)
            .unwrap();
        assert_eq!(pinned.engine_events, vec![5, 4]);

        let spans = vec![
            Span {
                name: "mapping.map".to_string(),
                start_us: 0,
                end_us: 10,
                parent: None,
            },
            Span {
                name: "partition.kway".to_string(),
                start_us: 2,
                end_us: 6,
                parent: Some(0),
            },
        ];
        let t = json::parse(&trace_json("map_large", &spans)).unwrap();
        let rows = t.get("spans").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("self_us").unwrap().as_u64(), Some(6));
        assert_eq!(rows[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(
            t.get("self_us_by_layer")
                .unwrap()
                .get("partition")
                .unwrap()
                .as_u64(),
            Some(4)
        );
    }
}
