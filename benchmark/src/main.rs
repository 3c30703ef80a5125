//! `massf-benchmark`: the `massf run` path measured end to end and layer by
//! layer on four workloads. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! massf-benchmark [--seed N] [--reps N] [--only W] [--smoke]
//!     every workload: timed runs taken round-robin, then the traced run;
//!     prints `workload name unit value`, writes out/results.json and
//!     out/trace_<workload>.json; fails when any output is wrong.
//! massf-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload, as BENCHMARK.json's command is run: end-to-end metrics
//!     (--trace 0) or per-layer metrics (--trace 1), then one JSON line.
//! massf-benchmark compare base.json new.json
//! ```

mod alloc;
mod child;
mod compare;
mod fingerprint;
mod layers;
mod report;
mod session;
mod span;
mod staged;
mod stats;
mod workload;

use report::{Metrics, WorkloadResult, PER_LAYER};
use session::Session;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Workload, THREADS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed the pinned fingerprints in `expected/` were taken at.
pub const DEFAULT_SEED: u64 = 11;

/// Timed runs per workload when `--reps` is not given.
const DEFAULT_REPS: usize = 5;

/// Fewest timed runs a `--seconds` budget is allowed to end with.
const MIN_REPS: usize = 3;

/// Set-ups per run whose median is `setup_s`. A set-up takes milliseconds,
/// so many of them cost nothing and steady the median.
const SETUP_REPS: usize = 51;

/// Where generated inputs and result files go: `benchmark/out` when run from
/// the repository root, as BENCHMARK.json's command is, else `./out`.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).map(String::as_str)
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match value_of(args, flag) {
        None if args.iter().any(|a| a == flag) => Err(format!("{flag} needs a value")),
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: {v:?} is not a number")),
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    workload::find(name).copied().ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

fn write_trace(workload: &str, spans: &[span::Span]) -> Result<(), String> {
    let path = out_dir().join(format!("trace_{workload}.json"));
    std::fs::write(&path, report::trace_json(workload, spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The traced run of one session: a plain CLI run, a `--report` run, the
/// staged pipeline with the CLI's thread count, and the layer measurements.
fn traced(s: &mut Session) -> Result<Metrics, String> {
    s.timed_run();
    let mut plain = s.samples.last().cloned().ok_or("the plain run failed")?;
    // Two runs of one workload differ by several percent here; where earlier
    // timed runs exist, their median is the steadier base for the shares.
    let walls: Vec<f64> = s.samples.iter().map(|r| r.wall_s).collect();
    plain.wall_s = stats::median(&walls).unwrap_or(plain.wall_s);
    let with_report = s.report_run().ok_or("the --report run failed")?;
    let staged = s.staged(THREADS).ok_or("the staged pipeline failed")?;
    let mut m = Metrics::new(&PER_LAYER);
    layers::measure(&s.inputs, s.seed, &staged, &plain, &with_report, &mut m)?;
    write_trace(s.workload.name, &staged.spans)?;
    Ok(m)
}

/// One workload as BENCHMARK.json's command runs it.
fn driver_main(args: &[String]) -> Result<i32, String> {
    let w = workload_named(value_of(args, "--workload").ok_or("--workload needs a value")?)?;
    let seed: u64 = number(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = number(args, "--seconds")?.unwrap_or(20.0);
    let trace: u8 = number(args, "--trace")?.unwrap_or(0);
    let dir = out_dir().join("inputs").join(w.name);

    let (metrics, s) = if trace == 0 {
        let mut s = Session::set_up(w, seed, dir, SETUP_REPS, false)?;
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        while (s.samples.len() < MIN_REPS || start.elapsed() < budget)
            && s.failures.len() < MIN_REPS
        {
            s.timed_run();
        }
        if s.samples.is_empty() {
            return Err(format!("{}: no run succeeded", w.name));
        }
        // One mapping thread against the CLI's two: the same fingerprint is
        // owed at any thread count.
        let staged = s.staged(1).ok_or("the staged pipeline failed")?;
        (s.end_to_end(&staged), s)
    } else {
        let mut s = Session::set_up(w, seed, dir, 1, false)?;
        (traced(&mut s)?, s)
    };
    if let Some(name) = metrics.missing().first() {
        return Err(format!("{}: {name} was not measured", w.name));
    }
    metrics.print(w.name);
    println!(
        "{}",
        report::driver_line(s.failures.is_empty(), s.attempted, s.failed(), &metrics)
    );
    Ok(0)
}

/// Every workload: timed runs round-robin, then each one's checks and trace.
fn full_main(args: &[String]) -> Result<i32, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = number(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let reps: usize = if smoke {
        1
    } else {
        number(args, "--reps")?.unwrap_or(DEFAULT_REPS).max(1)
    };
    let selected: Vec<Workload> = match value_of(args, "--only") {
        Some(name) => vec![workload_named(name)?],
        None => WORKLOADS.to_vec(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "massf-benchmark seed {seed} reps {reps} threads {THREADS} nproc {nproc}{}",
        if smoke { " smoke" } else { "" }
    );

    let mut sessions = Vec::new();
    for w in selected {
        let w = if smoke { w.smoke() } else { w };
        let dir = out_dir().join("inputs").join(w.name);
        let times = if smoke { 1 } else { SETUP_REPS };
        sessions.push(Session::set_up(w, seed, dir, times, !smoke)?);
    }
    for _ in 0..reps {
        for s in &mut sessions {
            s.timed_run();
        }
    }

    let mut results = Vec::new();
    let mut failed = false;
    for s in &mut sessions {
        let name = s.workload.name;
        let Some(checked) = s.staged(1) else {
            failed = true;
            continue;
        };
        let end_to_end = s.end_to_end(&checked);
        let fingerprint = fingerprint::Fingerprint::of(&checked.report);
        drop(checked);
        let per_layer = match traced(s) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("{name}: FAILED: {e}");
                failed = true;
                None
            }
        };
        println!("{name} why {}", s.workload.why);
        end_to_end.print(name);
        if let Some(m) = &per_layer {
            m.print(name);
        }
        println!(
            "{name} failed_share ratio {}",
            s.failed() as f64 / s.attempted.max(1) as f64
        );
        println!("{name} fingerprint {}", fingerprint.to_json());
        failed |= !s.failures.is_empty();
        results.push(WorkloadResult {
            name: name.to_string(),
            end_to_end,
            per_layer,
            fingerprint,
            attempted: s.attempted,
            failed: s.failed(),
        });
    }
    let path = out_dir().join("results.json");
    std::fs::write(&path, report::results_json(seed, smoke, nproc, &results))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(i32::from(failed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => Ok(child::child_main(&args[1..])),
        Some("compare") => match &args[1..] {
            [base, new] => compare::compare_main(base, new),
            _ => Err("usage: massf-benchmark compare base.json new.json".to_string()),
        },
        _ if args.iter().any(|a| a == "--workload") => driver_main(&args),
        _ => full_main(&args),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("massf-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
