//! One workload's runs: set-up, timed CLI runs in fresh processes, and the
//! staged pipeline that checks them.

use crate::child::{run_cli, RunSample};
use crate::fingerprint::{check_cli_output, Fingerprint};
use crate::report::{Metrics, END_TO_END};
use crate::staged::{self, Staged};
use crate::workload::{self, Inputs, Workload};
use massf_core::obs::json;
use massf_core::prelude::RunReport;
use std::path::PathBuf;
use std::time::Instant;

/// `benchmark/expected/<workload>.json`: the fingerprint at the default seed.
fn pinned_fingerprint(workload: &str) -> Option<&'static str> {
    match workload {
        "emulate_cbr" => Some(include_str!("../expected/emulate_cbr.json")),
        "map_large" => Some(include_str!("../expected/map_large.json")),
        "profile_scalapack" => Some(include_str!("../expected/profile_scalapack.json")),
        "online_onoff" => Some(include_str!("../expected/online_onoff.json")),
        _ => None,
    }
}

pub struct Session {
    pub workload: Workload,
    pub seed: u64,
    pub inputs: Inputs,
    pub setup_s: Vec<f64>,
    /// Timed runs that ended well, in order.
    pub samples: Vec<RunSample>,
    /// Runs and checks attempted, and what went wrong with those that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    dir: PathBuf,
    /// Whether a fingerprint off its pin in `expected/` is a failure (the
    /// full run) or a note (one workload run for the driver, which must stay
    /// usable on a later commit that changes simulated results on purpose).
    pinned: bool,
    /// Per-engine events the `--report` run wrote, for the staged check.
    reported_engine_events: Option<Vec<u64>>,
}

impl Session {
    /// Generates and writes the inputs `times` times, timing each.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        dir: PathBuf,
        times: usize,
        pinned: bool,
    ) -> Result<Self, String> {
        let mut setup_s = Vec::new();
        let mut inputs = None;
        for _ in 0..times.max(1) {
            let start = Instant::now();
            let made = workload::generate(&workload, seed, &dir)
                .map_err(|e| format!("{}: cannot write inputs: {e}", workload.name))?;
            setup_s.push(start.elapsed().as_secs_f64());
            inputs = Some(made);
        }
        Ok(Self {
            workload,
            seed,
            inputs: inputs.expect("set up at least once"),
            setup_s,
            samples: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            dir,
            pinned,
            reported_engine_events: None,
        })
    }

    fn fail(&mut self, what: String) {
        eprintln!("{}: FAILED: {what}", self.workload.name);
        self.failures.push(what);
    }

    /// One timed run: `massf` as a user runs it, no `--report`. Its output
    /// must equal the first run's, byte for byte.
    pub fn timed_run(&mut self) {
        self.attempted += 1;
        match run_cli(&self.inputs.args) {
            Ok(sample) => match self.samples.first() {
                Some(first) if first.output != sample.output => {
                    self.fail("a repeated run printed other results".to_string())
                }
                _ => self.samples.push(sample),
            },
            Err(e) => self.fail(e),
        }
    }

    /// One run with `--report`, for the report's cost and its exact counts.
    pub fn report_run(&mut self) -> Option<RunSample> {
        self.attempted += 1;
        let path = self.dir.join("run_report.json");
        let mut args = self.inputs.args.clone();
        args.extend(["--report".to_string(), path.to_string_lossy().into_owned()]);
        let outcome = run_cli(&args).and_then(|sample| {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let emulation = RunReport::from_json(&text)?
                .emulation
                .ok_or("the run report has no emulation block")?;
            Ok((sample, emulation.engines.iter().map(|e| e.events).collect()))
        });
        match outcome {
            Ok((sample, engine_events)) => {
                self.reported_engine_events = Some(engine_events);
                Some(sample)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Runs the staged pipeline with `threads` mapping threads and checks the
    /// CLI runs against it: the invariants of any correct run, the text the
    /// CLI printed (at `--threads 2`), the report it wrote, and the pin.
    pub fn staged(&mut self, threads: usize) -> Option<Staged> {
        self.attempted += 1;
        let staged = match staged::run(&self.workload, &self.inputs, threads) {
            Ok(s) => s,
            Err(e) => {
                self.fail(format!("staged pipeline: {e}"));
                return None;
            }
        };
        let fingerprint = Fingerprint::of(&staged.report);
        let mut problems = Vec::new();
        if let Err(e) = fingerprint.check_invariants(self.inputs.expected_packets) {
            problems.push(e);
        }
        if let Some(first) = self.samples.first() {
            if let Err(e) = check_cli_output(&first.output, &staged.report, staged.migrated_nodes) {
                problems.push(e);
            }
        }
        if let Some(events) = &self.reported_engine_events {
            if *events != fingerprint.engine_events {
                problems.push("the run report's per-engine events differ".to_string());
            }
        }
        // The pins hold for the workloads as shipped, not for `--smoke` sizes.
        let shipped = workload::find(self.workload.name) == Some(&self.workload);
        if self.seed == crate::DEFAULT_SEED && shipped {
            let pin = pinned_fingerprint(self.workload.name)
                .and_then(|text| json::parse(text).ok())
                .and_then(|v| Fingerprint::from_json(&v));
            if pin.as_ref() != Some(&fingerprint) {
                let note = format!(
                    "fingerprint differs from expected/{}.json: {}",
                    self.workload.name,
                    fingerprint.to_json()
                );
                if self.pinned {
                    problems.push(note);
                } else {
                    eprintln!("{}: note: {note}", self.workload.name);
                }
            }
        }
        for p in problems.drain(..) {
            self.fail(p);
        }
        Some(staged)
    }

    /// The end-to-end metrics: host figures from the timed runs, simulated
    /// ones from the staged pipeline.
    pub fn end_to_end(&self, staged: &Staged) -> Metrics {
        let column = |f: fn(&RunSample) -> f64| self.samples.iter().map(f).collect::<Vec<_>>();
        let fingerprint = Fingerprint::of(&staged.report);
        let mut m = Metrics::new(&END_TO_END);
        m.put_all("run_wall_s", column(|s| s.wall_s));
        m.put_all("peak_rss_mib", column(|s| s.peak_rss_mib));
        m.put_all("setup_s", self.setup_s.clone());
        m.put("load_imbalance", fingerprint.load_imbalance);
        m.put("modeled_time_s", fingerprint.modeled_time_s);
        m
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}
