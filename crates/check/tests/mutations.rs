//! Checker self-tests: seeded protocol mutations must be caught.
//!
//! A model checker that never finds anything might be exhaustively
//! verifying — or blind. These tests break the protocol in three seeded
//! ways at the shim level (no engine code touched) and assert the
//! explorer reports a counterexample schedule for each, and that
//! replaying that schedule deterministically reproduces the violation.

use massf_check::{explore, replay, ExploreOpts, Fault, RunOutcome, Scenario, ViolationKind};

fn find_and_replay(fault: Fault) -> ViolationKind {
    find_and_replay_in(&Scenario::two_cross(), fault)
}

fn find_and_replay_in(s: &Scenario, fault: Fault) -> ViolationKind {
    let r = explore(
        s,
        ExploreOpts {
            max_schedules: Some(5_000),
            fault: Some(fault),
        },
    );
    let v = r
        .violation
        .unwrap_or_else(|| panic!("{fault:?} not detected in {} schedules", r.stats.executions));
    // The counterexample must reproduce: same schedule, same verdict.
    match replay(s, v.segment, &v.schedule, Some(fault)) {
        RunOutcome::Violation { kind, .. } => {
            assert_eq!(kind, v.kind, "replay found a different violation");
        }
        other => panic!("replay of {:?} did not reproduce: {other:?}", v.schedule),
    }
    v.kind
}

#[test]
fn skipped_barrier_phase_is_caught() {
    let kind = find_and_replay(Fault::SkipBarrier { thread: 0, nth: 1 });
    // A phase-shifted thread reads half-written state; any of these is a
    // legitimate symptom, but it must be *something*.
    assert!(
        matches!(
            kind,
            ViolationKind::EnginePanic
                | ViolationKind::Deadlock
                | ViolationKind::LbtsRegress
                | ViolationKind::ReportMismatch
        ),
        "unexpected symptom {kind:?}"
    );
}

#[test]
fn late_remote_delivery_is_caught() {
    let kind = find_and_replay(Fault::DelayDelivery {
        from: 0,
        to: 1,
        nth: 1,
    });
    assert!(
        matches!(
            kind,
            ViolationKind::ClosedWindowDelivery
                | ViolationKind::LbtsRegress
                | ViolationKind::EnginePanic
                | ViolationKind::ReportMismatch
                | ViolationKind::LostEvents
        ),
        "unexpected symptom {kind:?}"
    );
}

#[test]
fn late_remote_delivery_is_caught_behind_a_long_lookahead() {
    // three_chain's 200 µs lookahead absorbs a delivery late by one drain:
    // the event counts as missed only once the window floor has passed it.
    let kind = find_and_replay_in(
        &Scenario::three_chain(),
        Fault::DelayDelivery {
            from: 0,
            to: 1,
            nth: 1,
        },
    );
    assert!(
        matches!(
            kind,
            ViolationKind::ClosedWindowDelivery | ViolationKind::LostEvents
        ),
        "unexpected symptom {kind:?}"
    );
}

#[test]
fn delivery_withheld_across_a_stop_is_caught() {
    // The first segment of the migrating scenario ends with the delayed
    // event still withheld: the stop state (or the lost-event check) must
    // say so before the run is ever resumed.
    let kind = find_and_replay_in(
        &Scenario::two_cross_migrate(),
        Fault::DelayDelivery {
            from: 0,
            to: 1,
            nth: 1,
        },
    );
    assert!(
        matches!(
            kind,
            ViolationKind::ClosedWindowDelivery
                | ViolationKind::EnginePanic
                | ViolationKind::ReportMismatch
                | ViolationKind::LostEvents
        ),
        "unexpected symptom {kind:?}"
    );
}

#[test]
fn faults_on_other_threads_are_caught_too() {
    // The same barrier bug on the *other* thread, later arrival: the
    // checker must not be tuned to one hard-coded interleaving.
    let kind = find_and_replay(Fault::SkipBarrier { thread: 1, nth: 2 });
    assert!(
        matches!(
            kind,
            ViolationKind::EnginePanic
                | ViolationKind::Deadlock
                | ViolationKind::LbtsRegress
                | ViolationKind::ReportMismatch
        ),
        "unexpected symptom {kind:?}"
    );
}

#[test]
fn faults_are_caught_where_a_participant_owns_two_engines() {
    // The pooled executor's shape: the two-engine participant misses a
    // barrier; an event it ships to the other participant arrives a
    // window late.
    let s = Scenario::three_chain_paired();
    for fault in [
        Fault::SkipBarrier { thread: 0, nth: 3 },
        Fault::DelayDelivery {
            from: 1,
            to: 2,
            nth: 1,
        },
    ] {
        let kind = find_and_replay_in(&s, fault);
        assert_ne!(kind, ViolationKind::Divergence, "{fault:?}");
    }
}

#[test]
fn clean_protocol_replays_clean() {
    // Replaying the empty schedule (pure first-choice run) of the correct
    // protocol completes with every property intact.
    let s = Scenario::two_cross();
    assert_eq!(replay(&s, 0, &[], None), RunOutcome::Complete);
}

#[test]
fn faults_are_caught_in_the_partial_migration_scenario() {
    // A missed barrier on the engine that later loses r0, and a reply
    // withheld on its way to that engine. Both are caught in the first
    // segment, before the stop: each segment counts its fault afresh.
    let s = Scenario::three_chain_migrate();
    for fault in [
        Fault::SkipBarrier { thread: 0, nth: 1 },
        Fault::DelayDelivery {
            from: 1,
            to: 0,
            nth: 1,
        },
    ] {
        let kind = find_and_replay_in(&s, fault);
        assert_ne!(kind, ViolationKind::Divergence, "{fault:?}");
    }
}

#[test]
fn a_minimum_that_leaves_out_a_shipment_is_caught() {
    // A participant's next minimum must count the events it shipped: one
    // that leaves a shipment out lets the next window open past it. Only a
    // shipment that is the earliest event anywhere moves the window, so
    // each case names a minimum where it is: on the two-engine
    // participant, and before the stop of a migrating run.
    for (s, thread, nth) in [
        (Scenario::three_chain_paired(), 0, 2),
        (Scenario::two_cross_migrate(), 1, 1),
    ] {
        let kind = find_and_replay_in(&s, Fault::UnfoldedShipment { thread, nth });
        assert!(
            matches!(
                kind,
                ViolationKind::ClosedWindowDelivery | ViolationKind::ReportMismatch
            ),
            "{}: unexpected symptom {kind:?}",
            s.name
        );
    }
}
