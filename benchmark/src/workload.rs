//! The four workloads: what each one is, why it is there, and how its
//! input files are made from `--seed`.
//!
//! A workload's *structure* — the BRITE graph, which hosts talk to which —
//! comes from generator seeds pinned in [`WORKLOADS`]. Two BRITE graphs of
//! the same size differ by tens of percent in load imbalance and event
//! count, so a graph drawn from `--seed` would make the spread between
//! seeds measure the inputs, not the machine. `--seed` draws a
//! small perturbation of the schedule instead — up to 0.5 % more emulated time
//! for the CBR workloads, up to 0.02 % more peak rate for the ONOFF sources,
//! one to sixteen extra one-packet flows for the trace — so every seed gives
//! distinct input files and distinct simulated results, and all of them cost
//! the program the same work to within 1 %. The perturbation is kept away from
//! what the partitioners and the rebalancer read (PLACE predicts from rates,
//! not from the duration; epoch boundaries follow the duration), because they
//! amplify a 1 % change of their input into a different partition.

use massf_core::mapping::place::foreground_prediction;
use massf_core::prelude::*;
use massf_core::scenario::clustered_placement;
use massf_core::topology::brite::{self, BriteConfig};
use massf_core::topology::dml;
use massf_core::traffic::flow::{horizon_us, total_packets};
use massf_core::traffic::http::{self, HttpConfig};
use massf_core::traffic::scalapack::{self, ScalapackConfig};
use massf_core::traffic::spec::TrafficKind;
use massf_core::traffic::{cbr, onoff, tracefile};
use std::path::{Path, PathBuf};

/// Threads every run is given (`--threads 2`): the sandbox has two cores.
pub const THREADS: usize = 2;

/// Largest relative lengthening `--seed` applies to `--duration-s`.
const DURATION_JITTER: f64 = 0.005;

/// Largest relative rise `--seed` applies to the ONOFF peak rate.
const PEAK_JITTER: f64 = 2e-4;

/// Most one-packet probe flows `--seed` appends to the trace.
const MAX_PROBES: usize = 16;

/// What traffic a workload runs and through which subcommand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// `massf run` with a CBR spec.
    Cbr {
        sessions: usize,
        rate_mbps: f64,
        duration_s: f64,
    },
    /// `massf run --epochs E --rebalance incremental` with an ONOFF spec.
    OnOff {
        sessions: usize,
        peak_mbps: f64,
        duration_s: f64,
        epochs: usize,
    },
    /// `massf replay` of a ScaLapack + HTTP-background trace file.
    ScalapackTrace { matrix_n: usize },
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub routers: usize,
    pub hosts: usize,
    pub engines: usize,
    pub approach: Approach,
    pub traffic: Traffic,
}

/// Seeds of the shipped generators, which fix each workload's structure.
const TOPOLOGY_SEED: u64 = 0xb417e;
const CBR_SEED: u64 = 0xcb5;
const ONOFF_SEED: u64 = 0x0f0f;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "emulate_cbr",
        why: "engine::run_sequential is ~95 % of the run and mapping is noise: an event-path or \
              lookup optimisation must show here, a mapping change must not",
        routers: 200,
        hosts: 364,
        engines: 8,
        approach: Approach::Top,
        traffic: Traffic::Cbr {
            sessions: 64,
            rate_mbps: 4.0,
            duration_s: 225.0,
        },
    },
    Workload {
        name: "map_large",
        why: "the engine does ~0.1 % of the work; lint audit, routing build, PLACE accumulation \
              and partition do the rest: bypasses engine optimisations, exposes pre-emulation ones",
        routers: 660,
        hosts: 1320,
        engines: 8,
        approach: Approach::Place,
        traffic: Traffic::Cbr {
            sessions: 16,
            rate_mbps: 2.0,
            duration_s: 2.0,
        },
    },
    Workload {
        name: "profile_scalapack",
        why: "the paper's headline loop (TOP, NetFlow profiling run, aggregate, phases, \
              multi-constraint partition, replay): NetFlow time and memory show here and only here",
        routers: 160,
        hosts: 132,
        engines: 8,
        approach: Approach::Profile,
        traffic: Traffic::ScalapackTrace { matrix_n: 10_500 },
    },
    Workload {
        name: "online_onoff",
        why: "the only workload on the second window loop (stepping.rs run_until, incremental \
              remap, NetFlow epoch slices); guards it while emulate_cbr guards the first",
        routers: 160,
        hosts: 132,
        engines: 8,
        approach: Approach::Top,
        traffic: Traffic::OnOff {
            sessions: 48,
            peak_mbps: 10.0,
            duration_s: 540.0,
            epochs: 6,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload shrunk until a run takes well under a second:
    /// `--smoke` checks plumbing, not speed.
    pub fn smoke(&self) -> Workload {
        let mut w = *self;
        w.routers = self.routers.min(120);
        w.hosts = self.hosts.min(100);
        w.traffic = match self.traffic {
            Traffic::Cbr {
                sessions,
                rate_mbps,
                ..
            } => Traffic::Cbr {
                sessions,
                rate_mbps,
                duration_s: 2.0,
            },
            Traffic::OnOff {
                sessions,
                peak_mbps,
                epochs,
                ..
            } => Traffic::OnOff {
                sessions,
                peak_mbps,
                duration_s: 12.0,
                epochs,
            },
            Traffic::ScalapackTrace { .. } => Traffic::ScalapackTrace { matrix_n: 1_000 },
        };
        w
    }
}

/// SplitMix64: the one pseudo-random source of the benchmark, so that inputs
/// depend on `--seed` and nothing else.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Where a workload's flow schedule comes from.
pub enum Schedule {
    /// A `traffic { ... }` spec, expanded by `massf run` for `duration_us`.
    Spec { kind: TrafficKind, duration_us: u64 },
    /// A ScaLapack solve on ten clustered hosts over HTTP background, plus
    /// `probes` one-packet flows, handed to `massf replay` as a trace file.
    Scalapack { matrix_n: usize, probes: usize },
}

impl Schedule {
    /// The flows and the PLACE-style prediction for them on `net`.
    pub fn generate(&self, net: &Network) -> (Vec<FlowSpec>, Vec<PredictedFlow>) {
        let hosts = net.hosts();
        match self {
            Schedule::Spec { kind, duration_us } => {
                crate::staged::generate_traffic(net, kind, *duration_us)
            }
            Schedule::Scalapack { matrix_n, probes } => {
                let placement = clustered_placement(&hosts, 10);
                let cfg = ScalapackConfig {
                    matrix_n: *matrix_n,
                    ..ScalapackConfig::default()
                };
                let mut flows = scalapack::flows(&cfg, &placement);
                let mut predicted = foreground_prediction(net, &placement);
                let background = HttpConfig::moderate_for(hosts.len());
                let horizon = horizon_us(&flows).max(1_000_000);
                flows.extend(http::generate(&hosts, &background, horizon));
                predicted.extend(http::predict(&hosts, &background));
                let probe = FlowSpec::from_bytes(placement[0], placement[1], 0, 300, 100.0);
                flows.extend(vec![probe; *probes]);
                flows.sort_by_key(|f| (f.start_us, f.src, f.dst));
                (flows, predicted)
            }
        }
    }
}

/// The generated inputs of one workload: the files the program is given,
/// the `massf` arguments that name them, and what the benchmark itself knows
/// about them for checking the program's answers.
pub struct Inputs {
    /// `massf` arguments of a timed run (no `--report`).
    pub args: Vec<String>,
    pub dml_path: PathBuf,
    /// Spec file (`run`) or trace file (`replay`).
    pub traffic_path: PathBuf,
    pub topology: BriteConfig,
    pub schedule: Schedule,
    /// `--duration-s`, for the `run` workloads.
    pub duration_s: Option<f64>,
    pub epochs: usize,
    /// Packets the schedule injects; a correct run delivers exactly these.
    pub expected_packets: u64,
    /// PLACE-style prediction for the schedule.
    pub predicted: Vec<PredictedFlow>,
}

/// Generates `w`'s inputs from `seed` and writes them under `dir`.
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let mut rng = SplitMix64(seed);

    let topology = BriteConfig {
        routers: w.routers,
        hosts: w.hosts,
        seed: TOPOLOGY_SEED,
        ..BriteConfig::paper_brite()
    };
    let net = brite::generate(&topology);
    let dml_path = dir.join("network.dml");
    std::fs::write(&dml_path, dml::write(&net))?;

    let lengthened = |duration_s: f64, rng: &mut SplitMix64| {
        // `--duration-s` is passed as text; six decimals survive the trip.
        (duration_s * (1.0 + DURATION_JITTER * rng.next_f64()) * 1e6).round() / 1e6
    };
    let (schedule, spec_text, duration_s, epochs) = match w.traffic {
        Traffic::Cbr {
            sessions,
            rate_mbps,
            duration_s,
        } => {
            let duration_s = lengthened(duration_s, &mut rng);
            let text = format!(
                "traffic {{\n  name CBR\n  sessions {sessions}\n  rate_mbps {rate_mbps}\n  \
                 seed {CBR_SEED}\n}}\n"
            );
            let kind = TrafficKind::Cbr(cbr::CbrConfig {
                sessions,
                rate_mbps,
                seed: CBR_SEED,
            });
            (spec(kind, duration_s), Some(text), Some(duration_s), 1)
        }
        Traffic::OnOff {
            sessions,
            peak_mbps,
            duration_s,
            epochs,
        } => {
            // Lengthening this run would move its epoch boundaries, and with
            // them every remap decision; a relative 2e-4 on the peak rate adds
            // a packet to one burst in sixty and leaves the boundaries alone.
            let cfg = onoff::OnOffConfig {
                sessions,
                peak_mbps: peak_mbps * (1.0 + PEAK_JITTER * rng.next_f64()),
                seed: ONOFF_SEED,
                ..onoff::OnOffConfig::default()
            };
            let text = format!(
                "traffic {{\n  name ONOFF\n  sessions {sessions}\n  peak_mbps {}\n  \
                 mean_on_ms {}\n  mean_off_ms {}\n  seed {ONOFF_SEED}\n}}\n",
                cfg.peak_mbps,
                cfg.mean_on_us / 1e3,
                cfg.mean_off_us / 1e3
            );
            let kind = TrafficKind::OnOff(cfg);
            (spec(kind, duration_s), Some(text), Some(duration_s), epochs)
        }
        Traffic::ScalapackTrace { matrix_n } => {
            // A trace has no duration to lengthen; a few extra request
            // packets between two application hosts stand in for it.
            let probes = 1 + rng.below(MAX_PROBES);
            (Schedule::Scalapack { matrix_n, probes }, None, None, 1)
        }
    };
    let (flows, predicted) = schedule.generate(&net);

    let path_arg = |p: &Path| p.to_string_lossy().into_owned();
    let mut args: Vec<String> = Vec::new();
    let traffic_path = match &spec_text {
        Some(text) => {
            let path = dir.join("traffic.spec");
            std::fs::write(&path, text)?;
            args.extend(["run".to_string(), path_arg(&dml_path)]);
            args.extend(["--traffic".to_string(), path_arg(&path)]);
            path
        }
        None => {
            let path = dir.join("trace.txt");
            let horizon = horizon_us(&flows);
            std::fs::write(&path, tracefile::write_with_duration(&flows, Some(horizon)))?;
            args.extend(["replay".to_string(), path_arg(&dml_path), path_arg(&path)]);
            path
        }
    };
    args.extend(["--engines".to_string(), w.engines.to_string()]);
    args.extend(["--threads".to_string(), THREADS.to_string()]);
    if let Some(d) = duration_s {
        args.extend(["--duration-s".to_string(), d.to_string()]);
    }
    if epochs > 1 {
        // The online run maps its first epoch with TOP and takes no approach.
        args.extend(["--epochs".to_string(), epochs.to_string()]);
        args.extend(["--rebalance".to_string(), "incremental".to_string()]);
    } else {
        args.extend(["--approach".to_string(), w.approach.label().to_lowercase()]);
    }

    Ok(Inputs {
        args,
        dml_path,
        traffic_path,
        topology,
        schedule,
        duration_s,
        epochs,
        expected_packets: total_packets(&flows),
        predicted,
    })
}

fn spec(kind: TrafficKind, duration_s: f64) -> Schedule {
    Schedule::Spec {
        kind,
        duration_us: (duration_s * 1e6) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64(11);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64(11);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64(12);
        assert_ne!(a[0], r.next_u64());
        let x = SplitMix64(5).next_f64();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn workload_names_are_distinct_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::report::is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
