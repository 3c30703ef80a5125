//! Depth-first schedule exploration with partial-order pruning.
//!
//! The explorer re-executes the scenario once per schedule, replaying a
//! growing choice prefix (the controller is deterministic, so a prefix
//! pins the run exactly). Backtracking walks the decision list of the
//! last run from the end, looking for a step with an untried sibling;
//! the visited set of trace-prefix hashes ([`crate::sched`]) prunes any
//! branch that only reorders independent operations of one already
//! explored. Exploration stops at the first violation — its schedule is
//! returned for deterministic replay.
//!
//! A scenario's segments ([`crate::scenario`]) are explored one after the
//! other, each with its own visited set (equal operation traces from
//! different start states are different states); the counters add up.

use crate::scenario::Scenario;
use crate::sched::{run_schedule, Fault, RunOutcome, ViolationKind};
use std::collections::HashSet;

/// Exploration controls.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreOpts {
    /// Stop (reporting non-exhaustive) after this many executed
    /// schedules, pruned runs included. `None` explores to exhaustion.
    pub max_schedules: Option<u64>,
    /// Seeded protocol mutation for checker self-tests.
    pub fault: Option<Fault>,
}

/// Aggregate exploration counters. `executions`, `pruned`, and `states`
/// are pinned by the golden test: a drop in `pruned`/`states` without a
/// matching change in `executions` means the reduction started merging
/// schedules it should distinguish (over-pruning), a blow-up means it
/// stopped recognizing equivalent ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Schedules run to a terminal outcome (complete or violating).
    pub executions: u64,
    /// Schedules abandoned at an already-visited trace prefix.
    pub pruned: u64,
    /// Distinct trace-prefix states recorded.
    pub states: u64,
    /// Longest schedule observed (in scheduling decisions).
    pub peak_depth: usize,
    /// True when the schedule space was exhausted (no `max_schedules`
    /// cut-off was hit).
    pub exhaustive: bool,
}

/// A property failure, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which property failed.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
    /// The scenario segment it occurred in.
    pub segment: usize,
    /// The exact choice list that elicits it (feed to [`replay`]).
    pub schedule: Vec<usize>,
}

/// Outcome of exploring one scenario.
#[derive(Debug)]
pub struct ExploreResult {
    /// Counters over the whole exploration.
    pub stats: ExploreStats,
    /// The first violation found, if any.
    pub violation: Option<Violation>,
}

/// Explores `scenario`'s schedule space depth-first, stopping at the
/// first violation or at exhaustion (or at `opts.max_schedules`).
pub fn explore(scenario: &Scenario, opts: ExploreOpts) -> ExploreResult {
    let mut stats = ExploreStats {
        exhaustive: true,
        ..ExploreStats::default()
    };
    let mut violation = None;
    for segment in 0..scenario.segments() {
        violation = explore_segment(scenario, segment, opts, &mut stats);
        if violation.is_some() || !stats.exhaustive {
            break;
        }
    }
    ExploreResult { stats, violation }
}

/// Walks one segment's schedule tree, adding to `stats`.
fn explore_segment(
    scenario: &Scenario,
    segment: usize,
    opts: ExploreOpts,
    stats: &mut ExploreStats,
) -> Option<Violation> {
    let expected = scenario.stop_state(segment);
    let mut visited: HashSet<u64> = HashSet::new();
    let mut prefix: Vec<usize> = Vec::new();
    let mut violation = None;

    loop {
        let run = run_schedule(
            scenario,
            segment,
            &prefix,
            opts.fault,
            Some(&mut visited),
            &expected,
        );
        stats.peak_depth = stats.peak_depth.max(run.decisions.len());
        match &run.outcome {
            RunOutcome::Pruned => stats.pruned += 1,
            RunOutcome::Complete => stats.executions += 1,
            RunOutcome::Violation { kind, detail } => {
                stats.executions += 1;
                violation = Some(Violation {
                    kind: *kind,
                    detail: detail.clone(),
                    segment,
                    schedule: run.schedule(),
                });
                break;
            }
        }
        if let Some(cap) = opts.max_schedules {
            if stats.executions + stats.pruned >= cap {
                stats.exhaustive = false;
                break;
            }
        }
        // Backtrack: drop trailing decisions with no untried sibling,
        // then advance the deepest one that has.
        let mut decisions = run.decisions;
        let next = loop {
            match decisions.pop() {
                Some(d) if d.chosen + 1 < d.nchoices => break Some(d.chosen + 1),
                Some(_) => continue,
                None => break None,
            }
        };
        match next {
            Some(sibling) => {
                prefix = decisions.iter().map(|d| d.chosen).collect();
                prefix.push(sibling);
            }
            None => break, // whole tree walked
        }
    }
    stats.states += visited.len() as u64;
    violation
}

/// Re-executes one exact schedule of `segment` (no pruning) and returns
/// its outcome — used to confirm that a reported counterexample
/// reproduces.
pub fn replay(
    scenario: &Scenario,
    segment: usize,
    schedule: &[usize],
    fault: Option<Fault>,
) -> RunOutcome {
    let expected = scenario.stop_state(segment);
    run_schedule(scenario, segment, schedule, fault, None, &expected).outcome
}
