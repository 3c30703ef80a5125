//! `massf-check` — exhaustive interleaving checking of the engine
//! protocol from the command line.
//!
//! ```text
//! massf-check [--scenario NAME|all] [--max-schedules N]
//!             [--fault skip-barrier|delay-delivery] [--list]
//! ```
//!
//! Without `--fault`, a violation is a bug: exit 2. A clean run under an
//! explicit `--max-schedules` bound exits 0 even when the space was not
//! exhausted — the bound is the caller's contract (CI's bounded mode).
//! With `--fault`, the run is a checker self-test: *finding* a
//! counterexample is the expected outcome, and *not* finding one exits 4.

use massf_check::{explore, ExploreOpts, Fault, Scenario};
use std::process::ExitCode;

const USAGE: &str = "usage: massf-check [--scenario NAME|all] [--max-schedules N] \
                     [--fault skip-barrier|delay-delivery] [--list]";

fn main() -> ExitCode {
    let mut scenario_arg = "all".to_string();
    let mut max_schedules: Option<u64> = None;
    let mut fault: Option<Fault> = None;

    let mut args = std::env::args().skip(1); // srclint: allow(SA004) — the model-checker binary parses its own flags
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for s in Scenario::all() {
                    println!("{}", s.name);
                }
                return ExitCode::SUCCESS;
            }
            "--scenario" => match args.next() {
                Some(v) => scenario_arg = v,
                None => return usage("--scenario needs a value"),
            },
            "--max-schedules" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_schedules = Some(v),
                None => return usage("--max-schedules needs an integer"),
            },
            "--fault" => match args.next().as_deref().and_then(Fault::from_name) {
                Some(f) => fault = Some(f),
                None => return usage("--fault is skip-barrier or delay-delivery"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    let scenarios = if scenario_arg == "all" {
        Scenario::all()
    } else {
        match Scenario::by_name(&scenario_arg) {
            Some(s) => vec![s],
            None => return usage(&format!("unknown scenario {scenario_arg}")),
        }
    };

    for scenario in &scenarios {
        let result = explore(
            scenario,
            ExploreOpts {
                max_schedules,
                fault,
            },
        );
        let s = result.stats;
        println!(
            "{}: {} schedules ({} pruned, {} states, depth {}){}",
            scenario.name,
            s.executions,
            s.pruned,
            s.states,
            s.peak_depth,
            if s.exhaustive { ", exhaustive" } else { "" },
        );
        match (&result.violation, fault) {
            (Some(v), None) => {
                eprintln!(
                    "  VIOLATION {}: {}\n  segment {} schedule: {:?}",
                    v.kind, v.detail, v.segment, v.schedule
                );
                return ExitCode::from(2);
            }
            (Some(v), Some(_)) => {
                println!(
                    "  seeded fault detected as {} ({} choices deep) — checker works",
                    v.kind,
                    v.schedule.len()
                );
            }
            (None, Some(_)) => {
                eprintln!("  seeded fault NOT detected — the checker is blind");
                return ExitCode::from(4);
            }
            (None, None) => {
                if !s.exhaustive {
                    println!("  no violation in the explored slice (space not exhausted)");
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("massf-check: {err}\n{USAGE}");
    ExitCode::FAILURE
}
