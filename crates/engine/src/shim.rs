//! The synchronization shim: a minimal trait surface over every shared
//! primitive the windowed conservative protocol touches.
//!
//! The protocol round loop ([`crate::exec::protocol_loop`]) is written
//! exactly once, generic over [`SyncShim`]. Three instantiations exist:
//!
//! * `SeqShim` (crate-private) — the single-threaded substrate of
//!   [`crate::stepping::SteppableEmulation`]: one participant, so barriers
//!   are no-ops, slots are plain cells, the outboxes are one inbox per
//!   destination.
//! * `PoolShim` (crate-private) — the same executor's parallel substrate
//!   for the slices of a run whose windows are dense enough to pay for
//!   synchronization: the engines are dealt to a few worker threads, each
//!   of which publishes one cache line a round (its arrival count and its
//!   slots) and waits at one spin-then-park barrier, and ships its events
//!   through one buffer per (sender worker, receiver engine, parity).
//! * `massf-check`'s virtual shim — cooperative primitives driven by a
//!   model-checking scheduler that exhaustively enumerates interleavings
//!   of these exact shim operations.
//!
//! Everything the participants share flows through this surface; the
//! code between shim calls touches only thread-owned state. That is the
//! property that makes shim-operation granularity a *sound* abstraction
//! level for the model checker: two schedules that order the shim
//! operations identically are indistinguishable to the protocol.
//!
//! Slots and channels come in two copies, selected by the parity of the
//! round that writes them: a round's copies are rewritten two rounds
//! later, which no participant enters before every other has left the
//! round that reads them, so one barrier a round orders every access.

use crate::event::Event;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The shared `u64` slots the protocol publishes into: per participant,
/// per array, one copy per round parity. Each carries the participant's
/// fold over its own engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotArray {
    /// The earliest event time the participant holds or has shipped
    /// (`u64::MAX` when idle): the minimum its engines would publish once
    /// the round's shipments are delivered.
    Mins = 0,
    /// The window's critical busy time over the participant's engines
    /// (`f64` bits of the largest `CostModel::engine_busy_us`).
    WinBusy,
    /// The window frontier over the participant's engines (the least next
    /// event time, capped at LBTS).
    WinProgress,
}

impl SlotArray {
    /// Dense index of this array (0..3).
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
/// asserted between calls. `parity` is 0 or 1.
pub trait SyncShim {
    /// How many participants publish (slots per array and parity).
    fn participants(&self) -> usize;

    /// Blocks until every participant has arrived (a no-op when one
    /// participant owns all engines).
    fn barrier_wait(&self);

    /// Publishes `value` into this participant's slot of copy `parity` of
    /// `array`.
    fn publish(&self, array: SlotArray, parity: usize, value: u64);

    /// Reads participant `who`'s slot of copy `parity` of `array` (after
    /// the barrier that orders it against the writer).
    fn read(&self, array: SlotArray, parity: usize, who: usize) -> u64;

    /// Ships `event` across the engine cut `from → to` over copy `parity`
    /// of the channels. FIFO per channel.
    fn send(&self, parity: usize, from: usize, to: usize, event: Event);

    /// Drains every event shipped to engine `to` over copy `parity`, in
    /// sender-id order (FIFO within a sender), invoking `deliver` on each.
    /// Called after the barrier that completes the window's sends, so
    /// exactly this window's shipments are visible.
    fn recv_all(&self, parity: usize, to: usize, deliver: &mut dyn FnMut(Event));
}

/// Polls of the arrival words (about 15 ns each) before a barrier
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

/// What one worker writes each round, on one cache line: the barriers it
/// has arrived at and `slots[array.index() * 2 + parity]`.
#[derive(Default)]
struct Seat {
    arrived: AtomicU64,
    slots: [AtomicU64; 6],
}

/// Shipments from one worker to one engine, each tagged with its sender
/// engine.
type Shipments = Vec<(usize, Event)>;

type Buffer = Mutex<Shipments>;

fn lock(buffer: &Padded<Buffer>) -> MutexGuard<'_, Shipments> {
    buffer.0.lock().expect("only a failed run poisons")
}

/// The pooled parallel shim, shared by reference among the worker threads
/// the engines are dealt to; each runs the protocol over its
/// [`PoolSeat`]. A round costs a worker one line written (its [`Seat`])
/// and one line read per peer, plus the buffers its events fill.
///
/// The barrier is "bump my arrival count, wait until every other count has
/// caught up", `SeqCst` throughout: an arrival publishes the worker's
/// writes, seeing a count acquires them; and an arrival that reads
/// `sleepers == 0` is ordered before any later sleeper's count, whose
/// check under the lock then sees the arrival. Slots are `Relaxed`,
/// because a barrier separates every read of one from the write it
/// observes.
pub(crate) struct PoolShim {
    /// Engine → worker.
    deal: Vec<usize>,
    /// Zero when participants outnumber CPUs: whoever they wait for
    /// cannot be running, so they park at once.
    spins: u32,
    seats: Vec<Padded<Seat>>,
    sleepers: Padded<AtomicUsize>,
    lock: Mutex<()>,
    wake: Condvar,
    /// Set when a participant unwinds, so that its peers fail too instead
    /// of waiting for an arrival that never comes.
    poisoned: AtomicBool,
    /// `buffers[(parity * engines + to) * workers + sender]`: filled by
    /// the sender before its arrival, drained by `to`'s worker after the
    /// release, never both at once — the uncontended mutex only makes the
    /// hand-over safe Rust. A vector keeps its capacity across rounds.
    buffers: Vec<Padded<Buffer>>,
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
    /// A shim for engines dealt to workers by `deal` (engine → worker).
    pub(crate) fn new(deal: &[usize]) -> Self {
        let workers = deal.iter().max().map_or(1, |&w| w + 1);
        let cpus = massf_par::Parallelism::available().get();
        let buffers = 2 * deal.len() * workers;
        Self {
            deal: deal.to_vec(),
            spins: BARRIER_SPINS * u32::from(workers <= cpus),
            seats: (0..workers).map(|_| Padded(Seat::default())).collect(),
            sleepers: Padded(AtomicUsize::new(0)),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            poisoned: AtomicBool::new(false),
            buffers: (0..buffers).map(|_| Padded(Mutex::default())).collect(),
        }
    }

    /// How many threads the barrier waits for.
    pub(crate) fn participants(&self) -> usize {
        self.seats.len()
    }

    /// Worker `me`'s handle.
    pub(crate) fn seat(&self, me: usize) -> PoolSeat<'_> {
        PoolSeat { pool: self, me }
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

    fn buffers(&self, parity: usize, to: usize) -> &[Padded<Buffer>] {
        let workers = self.seats.len();
        let row = (parity * self.deal.len() + to) * workers;
        &self.buffers[row..row + workers]
    }
}

/// One worker's [`SyncShim`] over a [`PoolShim`].
pub(crate) struct PoolSeat<'a> {
    pool: &'a PoolShim,
    me: usize,
}

impl SyncShim for PoolSeat<'_> {
    fn participants(&self) -> usize {
        self.pool.participants()
    }

    fn barrier_wait(&self) {
        let pool = self.pool;
        let target = pool.seats[self.me].0.arrived.fetch_add(1, Ordering::SeqCst) + 1;
        if pool.sleepers.0.load(Ordering::SeqCst) > 0 {
            pool.wake_sleepers();
        }
        let passed = || {
            let count = |seat: &Padded<Seat>| seat.0.arrived.load(Ordering::SeqCst);
            pool.seats.iter().all(|seat| count(seat) >= target)
        };
        for _ in 0..pool.spins {
            if passed() {
                return;
            }
            std::hint::spin_loop();
        }
        pool.sleepers.0.fetch_add(1, Ordering::SeqCst);
        let mut guard = pool.lock.lock().expect("nothing panics under it");
        let poisoned = || pool.poisoned.load(Ordering::SeqCst);
        while !passed() && !poisoned() {
            guard = pool.wake.wait(guard).expect("nothing panics under it");
        }
        drop(guard);
        pool.sleepers.0.fetch_sub(1, Ordering::SeqCst);
        assert!(!poisoned(), "another protocol participant panicked");
    }

    #[inline]
    fn publish(&self, array: SlotArray, parity: usize, value: u64) {
        let slot = &self.pool.seats[self.me].0.slots[array.index() * 2 + parity];
        slot.store(value, Ordering::Relaxed);
    }

    #[inline]
    fn read(&self, array: SlotArray, parity: usize, who: usize) -> u64 {
        let slot = &self.pool.seats[who].0.slots[array.index() * 2 + parity];
        slot.load(Ordering::Relaxed)
    }

    #[inline]
    fn send(&self, parity: usize, from: usize, to: usize, event: Event) {
        lock(&self.pool.buffers(parity, to)[self.me]).push((from, event));
    }

    fn recv_all(&self, parity: usize, to: usize, deliver: &mut dyn FnMut(Event)) {
        // A worker ships its engines' events in engine order, so once the
        // earlier runs are drained, the events of each run of consecutive
        // engines on one worker (one run per worker under a block deal)
        // lead that worker's buffer: sender-engine major, in any deal.
        let (senders, mut end) = (self.pool.buffers(parity, to), 0);
        for run in self.pool.deal.chunk_by(|a, b| a == b) {
            end += run.len();
            let mut buffer = lock(&senders[run[0]]);
            let len = buffer.iter().take_while(|&&(from, _)| from < end).count();
            buffer.drain(..len).for_each(|(_, event)| deliver(event));
        }
    }
}

/// Single-threaded shim for the sequential/steppable executor: one
/// participant owns every engine, so barriers vanish and the channel mesh
/// collapses to one inbox per destination, which that participant drains
/// before it sends again (so one copy serves both parities). The owner
/// runs its engines in id order, so an inbox fills sender-id major, FIFO
/// within a sender — the drain order of [`PoolShim`], which is one half
/// of the bit-identical-reports guarantee.
pub(crate) struct SeqShim {
    slots: [Cell<u64>; 6],
    inboxes: Vec<RefCell<Vec<(usize, Event)>>>,
}

impl SeqShim {
    /// A shim for `n` engines, all owned by the caller.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            slots: Default::default(),
            inboxes: (0..n).map(|_| RefCell::new(Vec::new())).collect(),
        }
    }
}

impl SyncShim for SeqShim {
    fn participants(&self) -> usize {
        1
    }

    #[inline]
    fn barrier_wait(&self) {}

    #[inline]
    fn publish(&self, array: SlotArray, parity: usize, value: u64) {
        self.slots[array.index() * 2 + parity].set(value);
    }

    #[inline]
    fn read(&self, array: SlotArray, parity: usize, _who: usize) -> u64 {
        self.slots[array.index() * 2 + parity].get()
    }

    #[inline]
    fn send(&self, _parity: usize, from: usize, to: usize, event: Event) {
        let mut inbox = self.inboxes[to].borrow_mut();
        debug_assert!(
            inbox.last().is_none_or(|&(prev, _)| prev <= from),
            "engines must send in id order for the inbox to be sender-major"
        );
        inbox.push((from, event));
    }

    #[inline]
    fn recv_all(&self, _parity: usize, to: usize, deliver: &mut dyn FnMut(Event)) {
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

    fn drained(shim: &impl SyncShim, parity: usize, to: usize) -> Vec<u64> {
        let mut times = Vec::new();
        shim.recv_all(parity, to, &mut |e| times.push(e.time_us));
        times
    }

    #[test]
    fn both_shims_drain_sender_major_and_fifo() {
        // Every participant sends in engine order, under any deal.
        let seq = SeqShim::new(3);
        for (from, t) in [(0, 1), (0, 3), (1, 2)] {
            seq.send(0, from, 2, event(t));
        }
        assert_eq!(drained(&seq, 0, 2), [1, 3, 2]);
        for deal in [[0, 0, 1], [1, 0, 1], [1, 0, 0]] {
            let pool = PoolShim::new(&deal);
            let seats = [pool.seat(0), pool.seat(1)];
            for (from, t) in [(0, 1), (0, 3), (1, 2), (2, 4)] {
                seats[deal[from]].send(1, from, 2, event(t));
            }
            seats[deal[2]].send(1, 2, 0, event(9));
            assert_eq!(drained(&seats[0], 1, 2), [1, 3, 2, 4], "{deal:?}");
            assert_eq!(drained(&seats[0], 1, 2), [], "a drain empties the row");
            assert_eq!(drained(&seats[1], 0, 0), [], "parities are apart");
            assert_eq!(drained(&seats[1], 1, 0), [9]);
        }
    }

    #[test]
    fn the_barrier_orders_slot_writes_round_after_round() {
        // More participants than this machine may have cores, so waiters
        // park; participant 0 lingers after some releases while the others
        // race into the next round and write its other copies. Round r
        // reads the minima written before its barrier in round r - 1 and
        // the statistics and shipments written before its own.
        const PARTIES: usize = 5;
        let pool = PoolShim::new(&[0, 1, 2, 3, 4]);
        let value = |round: u64, who: usize| round * 10 + who as u64;
        std::thread::scope(|scope| {
            for me in 0..PARTIES {
                let pool = &pool;
                scope.spawn(move || {
                    let (_poison, seat) = (pool.poison_on_panic(), pool.seat(me));
                    seat.publish(SlotArray::Mins, 1, value(1, me));
                    seat.barrier_wait();
                    for round in 1..=200u64 {
                        let parity = (round % 2) as usize;
                        for who in 0..PARTIES {
                            assert_eq!(seat.read(SlotArray::Mins, parity, who), value(round, who));
                            seat.send(parity, me, who, event(value(round, me)));
                        }
                        seat.publish(SlotArray::WinBusy, parity, value(round, me));
                        seat.publish(SlotArray::Mins, 1 - parity, value(round + 1, me));
                        seat.barrier_wait();
                        if me == 0 && round % 8 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        let peers: Vec<u64> = (0..PARTIES).map(|who| value(round, who)).collect();
                        let busy = |who| seat.read(SlotArray::WinBusy, parity, who);
                        assert_eq!((0..PARTIES).map(busy).collect::<Vec<_>>(), peers);
                        assert_eq!(drained(&seat, parity, me), peers);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_participant_fails_its_peers_at_the_barrier() {
        let pool = PoolShim::new(&[0, 1]);
        let failed = std::thread::scope(|scope| {
            let bad = scope.spawn(|| {
                let _poison = pool.poison_on_panic();
                panic!("a protocol invariant fired (expected by this test)");
            });
            let peer = scope.spawn(|| {
                let _poison = pool.poison_on_panic();
                pool.seat(1).barrier_wait();
            });
            (bad.join().is_err(), peer.join().is_err())
        });
        assert_eq!(failed, (true, true));
    }
}
