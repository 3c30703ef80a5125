//! The cooperative scheduler: runs one schedule of the engine protocol.
//!
//! The participants (a thread per group of engines, [`Scenario::deal`])
//! are real OS threads, but every shared-state operation
//! goes through the virtual shim, which parks the thread until the
//! controller (on the caller's thread) *grants* the operation. Exactly one
//! thread executes at a time, so a run is fully determined by the sequence
//! of grant choices — the *schedule*. The controller:
//!
//! * maintains the version-vector instrumentation ([`crate::vv`]) and the
//!   order-insensitive trace hash used for partial-order pruning;
//! * checks the protocol's safety properties at every grant (published
//!   minima never fall below the round's LBTS; every read of a minimum
//!   returns the one the last barrier release agreed on, so a copy's
//!   reuse two rounds on never overtakes a read; no cross-engine event is
//!   delivered into a closed window) and at completion (no event lost,
//!   all participants agree, and the stop state — report so far, pending
//!   events, link occupancy, protocol state — equals the sequential
//!   stepping reference's);
//! * optionally injects one seeded [`Fault`] — the checker's self-test
//!   that it can actually see protocol bugs.
//!
//! Cancellation (pruned or violating runs) is panic-based: parked threads
//! wake, observe the flag, and unwind with a private `Cancel` payload the
//! thread wrapper swallows. A process-wide quiet panic hook keeps the
//! expected unwinds out of stderr.

use crate::hash::Mix;
use crate::scenario::{Scenario, StopState};
use crate::vv::VersionVec;
use massf_engine::engine::{lookahead_us, Engine, Routes, Shared};
use massf_engine::event::Event;
use massf_engine::link::Directions;
use massf_engine::shim::{SlotArray, SyncShim};
use massf_engine::{protocol_loop, ProtocolState};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, Once};

/// Panic payload used to unwind engine threads of an abandoned run.
struct Cancel;

/// Hard cap on grants per run: a schedule exceeding it is reported as
/// [`ViolationKind::Divergence`] (the protocol loop should terminate in a
/// handful of rounds on the miniature scenarios).
pub const MAX_STEPS: usize = 200_000;

/// A seeded protocol mutation, applied once per run at the shim level —
/// no engine code is modified. Used by the checker's self-tests: a
/// correct checker must find a counterexample schedule for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Thread `thread` sails through its `nth` (1-based) barrier arrival
    /// without registering: the classic missed-synchronization bug, which
    /// phase-shifts that thread against the rest of the fleet.
    SkipBarrier {
        /// The misbehaving thread.
        thread: usize,
        /// Which of its arrivals to skip (1-based).
        nth: u64,
    },
    /// The `nth` (1-based) event consumed from channel `from → to` is
    /// withheld until the receiver's first drain whose window floor has
    /// passed the event's time, or to the end of the run (a lost event) —
    /// a message that misses its synchronization window.
    DelayDelivery {
        /// Sending engine.
        from: usize,
        /// Receiving engine.
        to: usize,
        /// Which consumed event to delay (1-based).
        nth: u64,
    },
    /// The `nth` (1-based) minimum thread `thread` publishes that one of
    /// the events it shipped that round decides leaves that event out:
    /// the controller publishes the time of its next shipment instead, or
    /// idle — a fold that forgets what the participant sent.
    UnfoldedShipment {
        /// The misbehaving thread.
        thread: usize,
        /// Which shipment-decided minimum to corrupt (1-based).
        nth: u64,
    },
}

impl Fault {
    /// Parses the CLI spelling (`skip-barrier` / `delay-delivery`) into
    /// the canonical seeded instance used by the self-tests.
    pub fn from_name(name: &str) -> Option<Fault> {
        match name {
            "skip-barrier" => Some(Fault::SkipBarrier { thread: 0, nth: 1 }),
            "delay-delivery" => Some(Fault::DelayDelivery {
                from: 0,
                to: 1,
                nth: 1,
            }),
            _ => None,
        }
    }
}

/// What a run can end as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Ran to completion; every property held.
    Complete,
    /// Abandoned: the trace prefix reached an already-visited state.
    Pruned,
    /// A property failed.
    Violation {
        /// Which property.
        kind: ViolationKind,
        /// Human-readable specifics.
        detail: String,
    },
}

/// The safety properties the checker enforces on every schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// No thread can make progress but not all have finished.
    Deadlock,
    /// A participant published a next-event time below the round's LBTS.
    LbtsRegress,
    /// A cross-engine event was delivered with a timestamp inside a
    /// window that has already closed.
    ClosedWindowDelivery,
    /// Undelivered cross-engine events remained after completion.
    LostEvents,
    /// An engine thread panicked (a `debug_assert!` protocol invariant
    /// fired inside the production loop).
    EnginePanic,
    /// Participants disagreed — one read a published minimum other than the
    /// one the last barrier release agreed on (a read ahead of a barrier, or
    /// a copy rewritten before it was read), or their final protocol states
    /// differ — or the stop state differed from the sequential reference.
    ReportMismatch,
    /// The run exceeded [`MAX_STEPS`] grants.
    Divergence,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::LbtsRegress => "lbts-regress",
            ViolationKind::ClosedWindowDelivery => "closed-window-delivery",
            ViolationKind::LostEvents => "lost-events",
            ViolationKind::EnginePanic => "engine-panic",
            ViolationKind::ReportMismatch => "report-mismatch",
            ViolationKind::Divergence => "divergence",
        };
        f.write_str(s)
    }
}

/// One scheduling decision: how many grants were enabled and which was
/// taken. The `chosen` indices of a run's decisions *are* its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Number of enabled grants at this step.
    pub nchoices: usize,
    /// Index (into the enabled set, ordered by thread id) taken.
    pub chosen: usize,
}

/// The full record of one executed schedule.
#[derive(Debug)]
pub struct RunResult {
    /// Every decision taken, in order (including forced single-choice
    /// steps, so the list replays verbatim).
    pub decisions: Vec<Decision>,
    /// How the run ended.
    pub outcome: RunOutcome,
}

impl RunResult {
    /// The schedule as a plain choice list (replayable via
    /// [`run_schedule`]).
    pub fn schedule(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }
}

/// A shim operation, as requested by a parked engine thread.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `(array, parity, value)` into the requester's own slot.
    Publish(SlotArray, usize, u64),
    /// `(array, parity, who)`.
    Read(SlotArray, usize, usize),
    /// `(parity, from, to, event)`.
    Send(usize, usize, usize, Event),
    /// `(parity, to)`.
    Recv(usize, usize),
    BarrierArrive,
}

/// Scheduler-visible thread state.
#[derive(Debug, Clone, Copy)]
enum TState {
    /// Executing engine code; will request an op or finish.
    Running,
    /// Parked in the shim, waiting for this op to be granted.
    Requesting(Op),
    /// Arrived at the barrier; waiting for the release.
    WaitingBarrier,
    /// Barrier released; waiting for a resume grant.
    Resumable,
    /// Returned from the protocol loop (or unwound).
    Finished,
}

/// Shared mutable state between the controller and the engine threads.
struct Core {
    states: Vec<TState>,
    /// Return value of the last granted op (reads).
    ret: Vec<u64>,
    /// Events staged by the controller for a granted `Recv`, per engine.
    inboxes: Vec<Vec<Event>>,
    /// Non-`Cancel` panic messages, per thread.
    panics: Vec<Option<String>>,
    cancelled: bool,
}

struct Sched {
    core: Mutex<Core>,
    cv: Condvar,
    threads: usize,
}

/// `Mutex::lock` that shrugs off poisoning: a panicking engine thread is
/// an *expected* experimental outcome here, not a reason to wedge the
/// controller.
fn lock(m: &Mutex<Core>) -> std::sync::MutexGuard<'_, Core> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Sched {
    /// For `threads` participants over `n` engines.
    fn new(n: usize, threads: usize) -> Self {
        Sched {
            core: Mutex::new(Core {
                states: vec![TState::Running; threads],
                ret: vec![0; threads],
                inboxes: (0..n).map(|_| Vec::new()).collect(),
                panics: (0..threads).map(|_| None).collect(),
                cancelled: false,
            }),
            cv: Condvar::new(),
            threads,
        }
    }

    /// Parks thread `tid` until the controller grants `op`; returns the
    /// staged result. Unwinds with [`Cancel`] if the run is abandoned.
    fn yield_op(&self, tid: usize, op: Op) -> u64 {
        let mut core = lock(&self.core);
        core.states[tid] = TState::Requesting(op);
        self.cv.notify_all();
        loop {
            if core.cancelled {
                drop(core); // release before unwinding: never poison
                panic::panic_any(Cancel);
            }
            if matches!(core.states[tid], TState::Running) {
                return core.ret[tid];
            }
            core = self
                .cv
                .wait(core)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// The checker's [`SyncShim`]: every operation is a scheduling point.
struct VirtualShim<'a> {
    sched: &'a Sched,
    tid: usize,
}

impl SyncShim for VirtualShim<'_> {
    fn participants(&self) -> usize {
        self.sched.threads
    }

    fn barrier_wait(&self) {
        self.sched.yield_op(self.tid, Op::BarrierArrive);
    }

    fn publish(&self, array: SlotArray, parity: usize, value: u64) {
        self.sched
            .yield_op(self.tid, Op::Publish(array, parity, value));
    }

    fn read(&self, array: SlotArray, parity: usize, who: usize) -> u64 {
        self.sched.yield_op(self.tid, Op::Read(array, parity, who))
    }

    fn send(&self, parity: usize, from: usize, to: usize, event: Event) {
        self.sched
            .yield_op(self.tid, Op::Send(parity, from, to, event));
    }

    fn recv_all(&self, parity: usize, to: usize, deliver: &mut dyn FnMut(Event)) {
        self.sched.yield_op(self.tid, Op::Recv(parity, to));
        let staged = {
            let mut core = lock(&self.sched.core);
            std::mem::take(&mut core.inboxes[to])
        };
        for event in staged {
            deliver(event);
        }
    }
}

thread_local! {
    /// Set by engine threads so the quiet hook suppresses their panics
    /// (both `Cancel` unwinds and invariant failures we catch ourselves).
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that stays silent for threads
/// that opted in via [`QUIET`] and defers to the previous hook otherwise.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Version-vector and value state for every shared object, plus the
/// running order-insensitive trace hash. Lives entirely on the
/// controller's side — engine threads never see it.
struct Instrument {
    n: usize,
    threads: usize,
    /// Per-thread clocks.
    tvv: Vec<VersionVec>,
    /// Last-write clock per slot copy (3 arrays × 2 parities × threads):
    /// a copy rewritten two rounds on joins its readers', so the clocks
    /// order the reuse against the reads of the round before.
    wvv: Vec<VersionVec>,
    /// Accumulated reader clocks per slot copy.
    rvv: Vec<VersionVec>,
    /// Clock per channel copy (2 parities × n × n).
    cvv: Vec<VersionVec>,
    /// Join of the clocks that arrived at the in-flight barrier.
    accum: VersionVec,
    /// Release clock staged per thread at barrier release.
    pending: Vec<VersionVec>,
    /// Current slot values (what `Read` grants return).
    slot_val: Vec<u64>,
    /// XOR-accumulated trace hash: independent ops commute, dependent
    /// ones don't (their clocks differ across orders).
    trace_hash: u64,
}

impl Instrument {
    /// For `n` engines (slots, channels) run by `threads` participants
    /// (clock components).
    fn new(n: usize, threads: usize) -> Self {
        let slots = 6 * threads;
        Instrument {
            n,
            threads,
            tvv: (0..threads).map(|_| VersionVec::new(threads)).collect(),
            wvv: (0..slots).map(|_| VersionVec::new(threads)).collect(),
            rvv: (0..slots).map(|_| VersionVec::new(threads)).collect(),
            cvv: (0..2 * n * n).map(|_| VersionVec::new(threads)).collect(),
            accum: VersionVec::new(threads),
            pending: (0..threads).map(|_| VersionVec::new(threads)).collect(),
            // A slot no one has published reads as idle.
            slot_val: vec![u64::MAX; slots],
            trace_hash: 0,
        }
    }

    fn slot(&self, array: SlotArray, parity: usize, who: usize) -> usize {
        (array.index() * 2 + parity) * self.threads + who
    }

    fn chan(&self, parity: usize, from: usize, to: usize) -> usize {
        (parity * self.n + from) * self.n + to
    }

    /// Folds one granted op into the trace hash: op descriptor + acting
    /// thread + that thread's clock *after* the op. Because each clock
    /// entry ticks exactly once per op, per-op hashes are unique, and two
    /// schedules XOR to the same value exactly when they order every
    /// dependent pair identically.
    fn absorb(&mut self, tid: usize, words: &[u64]) {
        let mut m = Mix::new();
        for &w in words {
            m.mix(w);
        }
        m.mix(tid as u64);
        for &c in self.tvv[tid].components() {
            m.mix(c);
        }
        self.trace_hash ^= m.finish();
    }
}

/// Executes one schedule of one segment of `scenario` and checks every
/// property. The segment starts from the sequential stepping executor's
/// state ([`Scenario::stepped_to`]), is taken apart into one group of
/// engines per participant ([`Scenario::deal`]), and runs
/// [`protocol_loop`] to [`Scenario::bounds`].
///
/// `prefix` replays previously-taken choices; past its end the controller
/// always takes choice 0 (first enabled thread), recording every decision
/// so the run is replayable. When `visited` is given, trace-prefix hashes
/// are consulted and recorded for partial-order pruning — new states are
/// only inserted for steps at or beyond the last prefix entry (earlier
/// steps are re-walks of an already-recorded trace). Pass `None` to
/// replay a schedule without pruning (reproduction of a counterexample).
///
/// `expected` is the sequential reference's stop state for `segment`,
/// which the schedule's must equal.
pub fn run_schedule(
    scenario: &Scenario,
    segment: usize,
    prefix: &[usize],
    fault: Option<Fault>,
    mut visited: Option<&mut HashSet<u64>>,
    expected: &StopState,
) -> RunResult {
    install_quiet_hook();
    let (engines, cfg, start) = scenario.stepped_to(segment).into_parts();
    let cfg = &cfg;
    let n = cfg.nengines;
    let threads = scenario.participants();
    let (until_us, round_limit) = scenario.bounds(segment);
    let routes = Routes::of(&scenario.flows);
    let dirs = Directions::of(&scenario.net);
    let shared = Shared {
        net: &scenario.net,
        tables: &scenario.tables,
        flows: &scenario.flows,
        routes: &routes,
        dirs: &dirs,
        partition: &cfg.partition,
    };
    let lookahead = lookahead_us(&scenario.net, &cfg.partition);

    let sched = Sched::new(n, threads);
    let mut ins = Instrument::new(n, threads);
    let mut chans: Vec<VecDeque<Event>> = (0..2 * n * n).map(|_| VecDeque::new()).collect();

    // Controller-side bookkeeping: the LBTS of the round in progress (no
    // minimum may fall below it), that of the last closed window (no
    // delivery may), and the copy of `Mins` and the minima the last
    // release agreed on (every read of `Mins` until the next release must
    // return them; the next release completes the other copy).
    let mut decisions: Vec<Decision> = Vec::new();
    let mut outcome = RunOutcome::Complete;
    let (mut lbts_floor, mut closed) = (start.last_lbts, start.last_lbts);
    let mut agreed: Option<(usize, Vec<u64>)> = None;
    // Fault state.
    let mut barrier_arrivals = vec![0u64; threads];
    let mut chan_consumed = vec![0u64; 2 * n * n];
    let mut shipped: Vec<Vec<u64>> = vec![Vec::new(); threads]; // since the last arrival
    let mut decided = vec![0u64; threads];
    let mut delayed: Option<(usize, Event)> = None; // (receiver, event)
    let mut fault_done = false;
    // States recorded for steps < replay_steps were inserted by the run
    // that first walked this prefix; only the final prefix entry (the
    // fresh sibling choice) and onward are new.
    let replay_steps = prefix.len().saturating_sub(1);

    let (ctl_violation, results) = std::thread::scope(|scope| {
        let mut groups: Vec<Vec<Engine>> = (0..threads).map(|_| Vec::new()).collect();
        for (engine, &tid) in engines.into_iter().zip(&scenario.deal) {
            groups[tid].push(engine);
        }
        let mut handles = Vec::with_capacity(threads);
        for (tid, mut group) in groups.into_iter().enumerate() {
            let sched = &sched;
            let shared = &shared;
            let mut state = start.clone();
            handles.push(scope.spawn(move || {
                QUIET.with(|q| q.set(true));
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    let shim = VirtualShim { sched, tid };
                    protocol_loop(
                        &mut group,
                        &shim,
                        shared,
                        cfg,
                        lookahead,
                        until_us,
                        round_limit,
                        &mut state,
                    );
                    (group, state)
                }));
                let mut core = lock(&sched.core);
                let ret = match run {
                    Ok(pair) => Some(pair),
                    Err(payload) => {
                        if payload.downcast_ref::<Cancel>().is_none() {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_string());
                            core.panics[tid] = Some(msg);
                        }
                        None
                    }
                };
                core.states[tid] = TState::Finished;
                sched.cv.notify_all();
                drop(core);
                ret
            }));
        }

        // ---- Controller ----
        let mut violation: Option<(ViolationKind, String)> = None;
        let mut step = 0usize;
        let mut core = lock(&sched.core);
        'control: loop {
            // Quiesce: exactly zero threads may be executing engine code
            // before the next grant is chosen.
            while core.states.iter().any(|s| matches!(s, TState::Running)) {
                core = sched
                    .cv
                    .wait(core)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            // An engine panic (tripped debug_assert) beats any further
            // scheduling: report it as the counterexample.
            if let Some((tid, msg)) = core
                .panics
                .iter()
                .enumerate()
                .find_map(|(t, p)| p.as_ref().map(|m| (t, m.clone())))
            {
                violation = Some((
                    ViolationKind::EnginePanic,
                    format!("engine thread {tid} panicked: {msg}"),
                ));
                break 'control;
            }
            if core.states.iter().all(|s| matches!(s, TState::Finished)) {
                break 'control;
            }
            let enabled: Vec<usize> = (0..threads)
                .filter(|&t| matches!(core.states[t], TState::Requesting(_) | TState::Resumable))
                .collect();
            if enabled.is_empty() {
                let stuck: Vec<usize> = (0..threads)
                    .filter(|&t| matches!(core.states[t], TState::WaitingBarrier))
                    .collect();
                violation = Some((
                    ViolationKind::Deadlock,
                    format!("no enabled thread; waiting at barrier: {stuck:?}"),
                ));
                break 'control;
            }
            if step >= MAX_STEPS {
                violation = Some((
                    ViolationKind::Divergence,
                    format!("schedule exceeded {MAX_STEPS} steps"),
                ));
                break 'control;
            }
            let chosen = if step < prefix.len() {
                assert!(
                    prefix[step] < enabled.len(),
                    "schedule replay diverged at step {step}: choice {} of {}",
                    prefix[step],
                    enabled.len()
                );
                prefix[step]
            } else {
                0
            };
            decisions.push(Decision {
                nchoices: enabled.len(),
                chosen,
            });
            let tid = enabled[chosen];

            // ---- Apply the grant: values, clocks, properties. ----
            match core.states[tid] {
                TState::Resumable => {
                    let pending = ins.pending[tid].clone();
                    ins.tvv[tid].join(&pending);
                    ins.tvv[tid].tick(tid);
                    ins.absorb(tid, &[6]);
                    core.states[tid] = TState::Running;
                }
                TState::Requesting(op) => match op {
                    Op::Publish(array, parity, mut value) => {
                        if array == SlotArray::Mins {
                            let decides = shipped[tid].iter().position(|&t| t == value);
                            decided[tid] += u64::from(decides.is_some());
                            let nth = decided[tid];
                            let unfold = Some(Fault::UnfoldedShipment { thread: tid, nth });
                            if let Some(i) = decides.filter(|_| !fault_done && fault == unfold) {
                                fault_done = true;
                                shipped[tid].swap_remove(i);
                                value = shipped[tid].iter().copied().min().unwrap_or(u64::MAX);
                            }
                            if value < lbts_floor {
                                violation = Some((
                                    ViolationKind::LbtsRegress,
                                    format!(
                                        "participant {tid} published min {value} below \
                                         the round's LBTS {lbts_floor}"
                                    ),
                                ));
                                break 'control;
                            }
                        }
                        let o = ins.slot(array, parity, tid);
                        let (w, r) = (ins.wvv[o].clone(), ins.rvv[o].clone());
                        ins.tvv[tid].join(&w);
                        ins.tvv[tid].join(&r);
                        ins.tvv[tid].tick(tid);
                        ins.wvv[o] = ins.tvv[tid].clone();
                        ins.slot_val[o] = value;
                        ins.absorb(tid, &[1, array.index() as u64, parity as u64, value]);
                        core.states[tid] = TState::Running;
                    }
                    Op::Read(array, parity, who) => {
                        let o = ins.slot(array, parity, who);
                        let differs = |(p, mins): &(usize, Vec<u64>)| {
                            *p != parity || mins[who] != ins.slot_val[o]
                        };
                        if array == SlotArray::Mins && agreed.as_ref().is_none_or(differs) {
                            violation = Some((
                                ViolationKind::ReportMismatch,
                                format!(
                                    "participant {tid} read a minimum of participant {who} \
                                     other than the one the last release agreed on"
                                ),
                            ));
                            break 'control;
                        }
                        let w = ins.wvv[o].clone();
                        ins.tvv[tid].join(&w);
                        ins.tvv[tid].tick(tid);
                        let t = ins.tvv[tid].clone();
                        ins.rvv[o].join(&t);
                        core.ret[tid] = ins.slot_val[o];
                        ins.absorb(tid, &[2, array.index() as u64, parity as u64, who as u64]);
                        core.states[tid] = TState::Running;
                    }
                    Op::Send(parity, from, to, event) => {
                        let o = ins.chan(parity, from, to);
                        let c = ins.cvv[o].clone();
                        ins.tvv[tid].join(&c);
                        ins.tvv[tid].tick(tid);
                        ins.cvv[o] = ins.tvv[tid].clone();
                        chans[o].push_back(event);
                        shipped[tid].push(event.time_us);
                        let (from, to, node) = (from as u64, to as u64, event.node as u64);
                        ins.absorb(tid, &[3, parity as u64, from, to, event.time_us, node]);
                        core.states[tid] = TState::Running;
                    }
                    Op::Recv(parity, to) => {
                        let mut staged: Vec<Event> = Vec::new();
                        // The withheld event comes back only once the window
                        // floor has passed its time: it missed its window.
                        if delayed.is_some_and(|(r, e)| r == to && e.time_us < closed) {
                            staged.push(delayed.take().expect("checked above").1);
                        }
                        for from in 0..n {
                            let o = ins.chan(parity, from, to);
                            while let Some(event) = chans[o].pop_front() {
                                chan_consumed[o] += 1;
                                let withhold = !fault_done
                                    && fault
                                        == Some(Fault::DelayDelivery {
                                            from,
                                            to,
                                            nth: chan_consumed[o],
                                        });
                                if withhold {
                                    fault_done = true;
                                    delayed = Some((to, event));
                                } else {
                                    staged.push(event);
                                }
                            }
                        }
                        if let Some(bad) = staged.iter().find(|e| e.time_us < closed) {
                            violation = Some((
                                ViolationKind::ClosedWindowDelivery,
                                format!(
                                    "event at {} delivered to engine {to} inside the \
                                     closed window below {closed}",
                                    bad.time_us
                                ),
                            ));
                            break 'control;
                        }
                        for from in 0..n {
                            let c = ins.cvv[ins.chan(parity, from, to)].clone();
                            ins.tvv[tid].join(&c);
                        }
                        ins.tvv[tid].tick(tid);
                        for from in 0..n {
                            let (t, o) = (ins.tvv[tid].clone(), ins.chan(parity, from, to));
                            ins.cvv[o].join(&t);
                        }
                        ins.absorb(tid, &[4, parity as u64, to as u64, staged.len() as u64]);
                        core.inboxes[to] = staged;
                        core.states[tid] = TState::Running;
                    }
                    Op::BarrierArrive => {
                        barrier_arrivals[tid] += 1;
                        shipped[tid].clear();
                        let skip = !fault_done
                            && fault
                                == Some(Fault::SkipBarrier {
                                    thread: tid,
                                    nth: barrier_arrivals[tid],
                                });
                        ins.tvv[tid].tick(tid);
                        ins.absorb(tid, &[5, u64::from(skip)]);
                        if skip {
                            fault_done = true;
                            core.states[tid] = TState::Running; // sails through
                        } else {
                            let t = ins.tvv[tid].clone();
                            ins.accum.join(&t);
                            core.states[tid] = TState::WaitingBarrier;
                            let arrived = core
                                .states
                                .iter()
                                .filter(|s| matches!(s, TState::WaitingBarrier))
                                .count();
                            if arrived == threads {
                                for t in 0..threads {
                                    ins.pending[t] = ins.accum.clone();
                                    core.states[t] = TState::Resumable;
                                }
                                ins.accum.clear();
                                // Every release closes a window (the first
                                // of a segment: none) and completes the
                                // next round's minima, so its LBTS.
                                closed = lbts_floor;
                                let first = (start.rounds % 2) as usize;
                                let p = agreed.as_ref().map_or(first, |(p, _)| 1 - p);
                                let min = |w| ins.slot_val[ins.slot(SlotArray::Mins, p, w)];
                                let mins: Vec<u64> = (0..threads).map(min).collect();
                                let gmin = mins.iter().copied().min().unwrap_or(u64::MAX);
                                agreed = Some((p, mins));
                                if gmin < until_us {
                                    lbts_floor = gmin.saturating_add(lookahead).min(until_us);
                                }
                            }
                        }
                    }
                },
                _ => unreachable!("only requesting/resumable threads are enabled"),
            }

            // ---- Partial-order pruning on the trace-prefix hash. ----
            if let Some(visited) = visited.as_deref_mut() {
                if step >= replay_steps && !visited.insert(ins.trace_hash) {
                    outcome = RunOutcome::Pruned;
                    core.cancelled = true;
                    sched.cv.notify_all();
                    break 'control;
                }
            }

            sched.cv.notify_all();
            step += 1;
        }

        if violation.is_some() || matches!(outcome, RunOutcome::Pruned) {
            core.cancelled = true;
            sched.cv.notify_all();
        }
        while !core.states.iter().all(|s| matches!(s, TState::Finished)) {
            core = sched
                .cv
                .wait(core)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        drop(core);

        let results: Vec<Option<(Vec<Engine>, ProtocolState)>> = handles
            .into_iter()
            .map(|h| h.join().expect("engine wrapper never panics"))
            .collect();
        (violation, results)
    });

    if let Some((kind, detail)) = ctl_violation {
        return RunResult {
            decisions,
            outcome: RunOutcome::Violation { kind, detail },
        };
    }
    if matches!(outcome, RunOutcome::Pruned) {
        return RunResult { decisions, outcome };
    }

    // ---- Completion properties. ----
    if delayed.is_some() || chans.iter().any(|q| !q.is_empty()) {
        let stuck: usize =
            chans.iter().map(VecDeque::len).sum::<usize>() + usize::from(delayed.is_some());
        return RunResult {
            decisions,
            outcome: RunOutcome::Violation {
                kind: ViolationKind::LostEvents,
                detail: format!("{stuck} cross-engine event(s) never delivered"),
            },
        };
    }
    let mut engines = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    for (tid, r) in results.into_iter().enumerate() {
        match r {
            Some((group, o)) => {
                engines.extend(group);
                outcomes.push(o);
            }
            None => {
                return RunResult {
                    decisions,
                    outcome: RunOutcome::Violation {
                        kind: ViolationKind::EnginePanic,
                        detail: format!("engine thread {tid} produced no result"),
                    },
                }
            }
        }
    }
    if outcomes.windows(2).any(|w| w[0] != w[1]) {
        return RunResult {
            decisions,
            outcome: RunOutcome::Violation {
                kind: ViolationKind::ReportMismatch,
                detail: "participants disagree on the protocol state".to_string(),
            },
        };
    }
    engines.sort_by_key(|e| e.id); // back from deal order to id order
    let stop = StopState::of(engines, cfg, scenario, outcomes.swap_remove(0));
    if &stop != expected {
        let differing = [
            ("report", stop.report != expected.report),
            ("pending events", stop.pending != expected.pending),
            ("link occupancy", stop.links != expected.links),
            ("protocol state", stop.protocol != expected.protocol),
        ]
        .iter()
        .filter_map(|&(what, differs)| differs.then_some(what))
        .collect::<Vec<_>>()
        .join(", ");
        return RunResult {
            decisions,
            outcome: RunOutcome::Violation {
                kind: ViolationKind::ReportMismatch,
                detail: format!(
                    "segment {segment} stops in a state other than the sequential \
                     reference's: {differing} differ (delivered {} vs {}, rounds {} vs {})",
                    stop.report.delivered,
                    expected.report.delivered,
                    stop.report.rounds,
                    expected.report.rounds
                ),
            },
        };
    }
    RunResult {
        decisions,
        outcome: RunOutcome::Complete,
    }
}
