//! The synchronization shim: a minimal trait surface over every shared
//! primitive the windowed conservative protocol touches.
//!
//! The protocol round loop ([`crate::exec::protocol_loop`]) is written
//! exactly once, generic over [`SyncShim`]. Three instantiations exist:
//!
//! * `SeqShim` (crate-private) — the single-threaded substrate of
//!   [`crate::stepping::SteppableEmulation`]: barriers are no-ops (one
//!   thread owns every engine), slots are plain cells, the outboxes are
//!   one inbox per destination.
//! * `PoolShim` (crate-private) — the same executor's parallel substrate
//!   for the slices of a run whose windows are dense enough to pay for
//!   synchronization: the engines are dealt to a few worker threads over
//!   a sense-reversing spin-then-park barrier, one cache line of atomic
//!   slots per engine, and one outbox per (sender, receiver) pair.
//! * `massf-check`'s virtual shim — cooperative primitives driven by a
//!   model-checking scheduler that exhaustively enumerates interleavings
//!   of these exact shim operations.
//!
//! Everything the participants share flows through this surface; the
//! code between shim calls touches only thread-owned state. That is the
//! property that makes shim-operation granularity a *sound* abstraction
//! level for the model checker: two schedules that order the shim
//! operations identically are indistinguishable to the protocol.

use crate::event::Event;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// The shared `u64` slot arrays the protocol publishes into, one slot per
/// engine. `Mins` carries each engine's next-event time (phase 1); the
/// `Win*` arrays carry per-window statistics for the deterministic
/// wall-clock model (phases 2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotArray {
    /// Next pending event time per engine (`u64::MAX` when idle).
    Mins = 0,
    /// Kernel events executed in the current window, per engine.
    WinEvents,
    /// Cross-engine events sent in the current window, per engine.
    WinRemote,
    /// Window frontier (next event time capped at LBTS), per engine.
    WinProgress,
}

impl SlotArray {
    /// Dense index of this array (0..4).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One protocol participant's view of the synchronization substrate.
///
/// A participant is one thread and the engines it owns (all of them in a
/// sequential slice, a fixed group per worker in a pooled one, chosen
/// groups in the model checker). The round loop calls these methods in a fixed pattern — see
/// [`crate::exec::protocol_loop`] for the choreography and the invariants
/// asserted between calls.
pub trait SyncShim {
    /// Blocks until every participant has arrived (a no-op when one
    /// participant owns all engines).
    fn barrier_wait(&self);

    /// Publishes `value` into slot `slot` of `array`. Only engine `slot`'s
    /// owner ever writes a given slot.
    fn publish(&self, array: SlotArray, slot: usize, value: u64);

    /// Reads slot `slot` of `array` (any participant, after the barrier
    /// that orders it against the writer).
    fn read(&self, array: SlotArray, slot: usize) -> u64;

    /// Ships `event` across the engine cut `from → to`. FIFO per channel.
    fn send(&self, from: usize, to: usize, event: Event);

    /// Drains every event shipped to engine `to`, in sender-id order
    /// (FIFO within a sender), invoking `deliver` on each. Called after
    /// the barrier that completes the window's sends, so exactly this
    /// window's shipments are visible.
    fn recv_all(&self, to: usize, deliver: &mut dyn FnMut(Event));
}

/// Polls of the generation word (about 15 ns each) before a barrier
/// waiter parks: enough for the fuller half of an ordinary window to
/// close (at 128 an undisturbed `emulate_cbr` parked at most barriers
/// and took 10 s for 2.3). Past it the participant waited for has most
/// likely lost its core, and the waiter sleeps — it neither burns the
/// core the other may need nor, as a yielding waiter would, hands it to
/// whatever else wants one (with one of two cores taken by another
/// process, yielding made `emulate_cbr` 45–97 s for 3, parking 8–10).
const BARRIER_SPINS: u32 = 1024;

/// A value on cache lines of its own.
#[repr(align(64))]
struct Padded<T>(T);

/// The pooled parallel shim, shared by reference among the worker threads
/// the engines are dealt to: a sense-reversing spin-then-park barrier,
/// the four slot arrays, and one outbox per (sender, receiver), laid out
/// receiver-major so a drain scans one row in sender-id order — the fill
/// order of [`SeqShim`]'s inbox, which is one half of the
/// bit-identical-reports guarantee.
///
/// Every participant reads every slot and every flag of its engines' rows
/// each round, so what is read together is packed together (eight slots
/// to a line, a receiver's flags in one run) and only what different
/// threads write at different times — the barrier words, the four arrays
/// — is kept on separate lines.
///
/// The barrier is `SeqCst` throughout: an arrival publishes the
/// participant's writes, passing acquires everyone's; and a releaser that
/// reads `sleepers == 0` is ordered before any later sleeper's count,
/// whose check under the lock then sees the new generation. Slots and
/// `pending` flags are `Relaxed`, because a barrier separates every read
/// of one from the write it observes.
pub(crate) struct PoolShim {
    nengines: usize,
    participants: usize,
    /// Zero when participants outnumber CPUs: whoever they wait for
    /// cannot be running, so they park at once.
    spins: u32,
    /// Arrivals at the barrier in progress; the last one resets it, then
    /// bumps `generation`, which the others poll, then wakes the parked.
    arrived: Padded<AtomicUsize>,
    generation: Padded<AtomicUsize>,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
    /// Set when a participant unwinds, so that its peers fail too instead
    /// of waiting for an arrival that never comes.
    poisoned: AtomicBool,
    /// `slots[array.index()][engine / 8].0[engine % 8]`.
    slots: [Vec<Padded<[AtomicU64; 8]>>; 4],
    /// `outboxes[to * nengines + from]`: filled by the sender's owner in
    /// phase 2, drained by the receiver's in phase 3, never both at once —
    /// the uncontended mutex only makes the hand-over safe Rust. A vector
    /// keeps its capacity across windows.
    outboxes: Vec<Mutex<Vec<Event>>>,
    /// Which outboxes hold events: spares the receiver the locks of the
    /// (mostly) empty ones.
    pending: Vec<AtomicBool>,
}

/// Held by every participant of a [`PoolShim`] while it runs the protocol.
pub(crate) struct PoisonOnPanic<'a>(&'a PoolShim);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::SeqCst);
            self.0.wake_sleepers();
        }
    }
}

impl PoolShim {
    /// A shim for `nengines` engines dealt to `participants` threads.
    pub(crate) fn new(nengines: usize, participants: usize) -> Self {
        let cpus = massf_par::Parallelism::available().get();
        let slots = || (0..nengines.div_ceil(8)).map(|_| Padded(Default::default()));
        let pairs = || 0..nengines * nengines;
        Self {
            nengines,
            participants,
            spins: BARRIER_SPINS * u32::from(participants <= cpus),
            arrived: Padded(AtomicUsize::new(0)),
            generation: Padded(AtomicUsize::new(0)),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            poisoned: AtomicBool::new(false),
            slots: std::array::from_fn(|_| slots().collect()),
            outboxes: pairs().map(|_| Mutex::new(Vec::new())).collect(),
            pending: pairs().map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// How many threads the barrier waits for.
    pub(crate) fn participants(&self) -> usize {
        self.participants
    }

    /// The guard that fails the other participants when this one panics.
    pub(crate) fn poison_on_panic(&self) -> PoisonOnPanic<'_> {
        PoisonOnPanic(self)
    }

    fn wake_sleepers(&self) {
        // Taking the lock waits out a sleeper between its check and its wait.
        drop(self.lock.lock());
        self.wake.notify_all();
    }
}

impl SyncShim for PoolShim {
    fn barrier_wait(&self) {
        let generation = self.generation.0.load(Ordering::SeqCst);
        let passed = || self.generation.0.load(Ordering::SeqCst) != generation;
        if self.arrived.0.fetch_add(1, Ordering::SeqCst) + 1 == self.participants {
            self.arrived.0.store(0, Ordering::SeqCst);
            let next = generation.wrapping_add(1);
            self.generation.0.store(next, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                self.wake_sleepers();
            }
            return;
        }
        for _ in 0..self.spins {
            if passed() {
                return;
            }
            std::hint::spin_loop();
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().expect("nothing panics under it");
        let poisoned = || self.poisoned.load(Ordering::SeqCst);
        while !passed() && !poisoned() {
            guard = self.wake.wait(guard).expect("nothing panics under it");
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        assert!(!poisoned(), "another protocol participant panicked");
    }

    #[inline]
    fn publish(&self, array: SlotArray, slot: usize, value: u64) {
        self.slots[array.index()][slot / 8].0[slot % 8].store(value, Ordering::Relaxed);
    }

    #[inline]
    fn read(&self, array: SlotArray, slot: usize) -> u64 {
        self.slots[array.index()][slot / 8].0[slot % 8].load(Ordering::Relaxed)
    }

    #[inline]
    fn send(&self, from: usize, to: usize, event: Event) {
        let pair = to * self.nengines + from;
        let mut events = self.outboxes[pair]
            .lock()
            .expect("only a failed run poisons");
        if events.is_empty() {
            self.pending[pair].store(true, Ordering::Relaxed);
        }
        events.push(event);
    }

    #[inline]
    fn recv_all(&self, to: usize, deliver: &mut dyn FnMut(Event)) {
        for pair in to * self.nengines..(to + 1) * self.nengines {
            if self.pending[pair].load(Ordering::Relaxed) {
                self.pending[pair].store(false, Ordering::Relaxed);
                let mut events = self.outboxes[pair]
                    .lock()
                    .expect("only a failed run poisons");
                events.drain(..).for_each(&mut *deliver);
            }
        }
    }
}

/// Single-threaded shim for the sequential/steppable executor: one
/// participant owns every engine, so barriers vanish and the channel mesh
/// collapses to one inbox per destination. The owner runs its engines in
/// id order, so an inbox fills sender-id major, FIFO within a sender —
/// the drain order of [`PoolShim`], which is one half of the
/// bit-identical-reports guarantee.
pub(crate) struct SeqShim {
    slots: [Vec<Cell<u64>>; 4],
    inboxes: Vec<RefCell<Vec<(usize, Event)>>>,
}

impl SeqShim {
    /// A shim for `n` engines, all owned by the caller.
    pub(crate) fn new(n: usize) -> Self {
        let mk = || (0..n).map(|_| Cell::new(0)).collect();
        Self {
            slots: [mk(), mk(), mk(), mk()],
            inboxes: (0..n).map(|_| RefCell::new(Vec::new())).collect(),
        }
    }
}

impl SyncShim for SeqShim {
    #[inline]
    fn barrier_wait(&self) {}

    #[inline]
    fn publish(&self, array: SlotArray, slot: usize, value: u64) {
        self.slots[array.index()][slot].set(value);
    }

    #[inline]
    fn read(&self, array: SlotArray, slot: usize) -> u64 {
        self.slots[array.index()][slot].get()
    }

    #[inline]
    fn send(&self, from: usize, to: usize, event: Event) {
        let mut inbox = self.inboxes[to].borrow_mut();
        debug_assert!(
            inbox.last().is_none_or(|&(prev, _)| prev <= from),
            "engines must send in id order for the inbox to be sender-major"
        );
        inbox.push((from, event));
    }

    #[inline]
    fn recv_all(&self, to: usize, deliver: &mut dyn FnMut(Event)) {
        for (_, event) in self.inboxes[to].borrow_mut().drain(..) {
            deliver(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(time_us: u64) -> Event {
        Event::injection(time_us, 0, 0, time_us)
    }

    fn drained(shim: &impl SyncShim, to: usize) -> Vec<u64> {
        let mut times = Vec::new();
        shim.recv_all(to, &mut |e| times.push(e.time_us));
        times
    }

    #[test]
    fn both_shims_drain_sender_major_and_fifo() {
        // The sequential owner sends in engine order; workers in any.
        let seq = SeqShim::new(3);
        for (from, t) in [(0, 1), (0, 3), (1, 2)] {
            seq.send(from, 2, event(t));
        }
        let pool = PoolShim::new(3, 2);
        for (from, t) in [(1, 2), (0, 1), (0, 3)] {
            pool.send(from, 2, event(t));
        }
        pool.send(2, 0, event(9));
        assert_eq!(drained(&seq, 2), [1, 3, 2]);
        assert_eq!(drained(&pool, 2), [1, 3, 2]);
        assert_eq!(drained(&pool, 2), [], "a drain empties the row");
        assert_eq!(drained(&pool, 1), []);
        assert_eq!(drained(&pool, 0), [9]);
    }

    #[test]
    fn the_barrier_orders_slot_writes_round_after_round() {
        // More participants than this machine may have cores: the waiters
        // yield, and every round still reads every peer's latest write.
        const PARTIES: usize = 5;
        let pool = PoolShim::new(PARTIES, PARTIES);
        std::thread::scope(|scope| {
            for me in 0..PARTIES {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 1..=200u64 {
                        pool.publish(SlotArray::Mins, me, round * 10 + me as u64);
                        pool.barrier_wait();
                        for peer in 0..PARTIES {
                            assert_eq!(pool.read(SlotArray::Mins, peer), round * 10 + peer as u64);
                        }
                        pool.barrier_wait(); // everyone has read before anyone rewrites
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_participant_fails_its_peers_at_the_barrier() {
        let pool = PoolShim::new(2, 2);
        let failed = std::thread::scope(|scope| {
            let bad = scope.spawn(|| {
                let _poison = pool.poison_on_panic();
                panic!("a protocol invariant fired (expected by this test)");
            });
            let peer = scope.spawn(|| {
                let _poison = pool.poison_on_panic();
                pool.barrier_wait();
            });
            (bad.join().is_err(), peer.join().is_err())
        });
        assert_eq!(failed, (true, true));
    }
}
