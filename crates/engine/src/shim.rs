//! The synchronization shim: a minimal trait surface over every shared
//! primitive the windowed conservative protocol touches.
//!
//! The protocol round loop ([`crate::exec::protocol_loop`]) is written
//! exactly once, generic over [`SyncShim`]. Three instantiations exist:
//!
//! * [`StdShim`] — the production parallel substrate: `std::sync::Barrier`,
//!   `SeqCst` atomics, and an `mpsc` channel mesh. Every method is a thin
//!   `#[inline]` wrapper, so monomorphization compiles the generic loop
//!   down to the exact code the executor ran before the shim existed.
//! * `SeqShim` (crate-private) — the single-threaded substrate of
//!   [`crate::stepping::SteppableEmulation`], which is both the
//!   epoch-stepping executor and (run in one step) the sequential one:
//!   barriers are no-ops (one thread owns every engine), slots are plain
//!   cells, the channel mesh is one inbox per destination.
//! * `massf-check`'s virtual shim — cooperative primitives driven by a
//!   model-checking scheduler that exhaustively enumerates interleavings
//!   of these exact shim operations.
//!
//! Everything the engine threads share flows through this surface; the
//! code between shim calls touches only thread-owned state. That is the
//! property that makes shim-operation granularity a *sound* abstraction
//! level for the model checker: two schedules that order the shim
//! operations identically are indistinguishable to the protocol.

use crate::event::Event;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Barrier;

/// The shared `u64` slot arrays the protocol publishes into, one slot per
/// engine. `Mins` carries each engine's next-event time (phase 1); the
/// `Win*` arrays carry per-window statistics for the deterministic
/// wall-clock model (phases 2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotArray {
    /// Next pending event time per engine (`u64::MAX` when idle).
    Mins,
    /// Kernel events executed in the current window, per engine.
    WinEvents,
    /// Cross-engine events sent in the current window, per engine.
    WinRemote,
    /// Window frontier (next event time capped at LBTS), per engine.
    WinProgress,
}

impl SlotArray {
    /// All arrays, indexable in a fixed order.
    pub const ALL: [SlotArray; 4] = [
        SlotArray::Mins,
        SlotArray::WinEvents,
        SlotArray::WinRemote,
        SlotArray::WinProgress,
    ];

    /// Dense index of this array (0..4).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            SlotArray::Mins => 0,
            SlotArray::WinEvents => 1,
            SlotArray::WinRemote => 2,
            SlotArray::WinProgress => 3,
        }
    }
}

/// One engine thread's view of the synchronization substrate.
///
/// A shim value belongs to a single protocol participant (one OS thread in
/// the parallel executor; the whole run in the sequential/stepping
/// executor). The round loop calls these methods in a fixed pattern — see
/// [`crate::exec::protocol_loop`] for the choreography and the invariants
/// asserted between calls.
pub trait SyncShim {
    /// Blocks until every engine thread has arrived (a no-op when one
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

/// Production shim: one per engine thread, over std primitives. See the
/// [module docs](self) — all methods inline to the raw primitive calls.
pub struct StdShim<'a> {
    id: usize,
    barrier: &'a Barrier,
    slots: [&'a [AtomicU64]; 4],
    senders: Vec<Sender<Event>>,
    receivers: Vec<Receiver<Event>>,
}

impl<'a> StdShim<'a> {
    /// Builds engine thread `id`'s shim from the shared barrier, the four
    /// slot arrays (indexed by [`SlotArray::index`]), this thread's row of
    /// senders (`senders[j]` ships to engine `j`) and its column of
    /// receivers (`receivers[i]` receives from engine `i`).
    pub fn new(
        id: usize,
        barrier: &'a Barrier,
        slots: [&'a [AtomicU64]; 4],
        senders: Vec<Sender<Event>>,
        receivers: Vec<Receiver<Event>>,
    ) -> Self {
        Self {
            id,
            barrier,
            slots,
            senders,
            receivers,
        }
    }
}

impl SyncShim for StdShim<'_> {
    #[inline]
    fn barrier_wait(&self) {
        self.barrier.wait();
    }

    #[inline]
    fn publish(&self, array: SlotArray, slot: usize, value: u64) {
        debug_assert_eq!(slot, self.id, "engines publish only their own slot");
        self.slots[array.index()][slot].store(value, Ordering::SeqCst);
    }

    #[inline]
    fn read(&self, array: SlotArray, slot: usize) -> u64 {
        self.slots[array.index()][slot].load(Ordering::SeqCst)
    }

    #[inline]
    fn send(&self, from: usize, to: usize, event: Event) {
        debug_assert_eq!(from, self.id, "engines send only from themselves");
        self.senders[to].send(event).expect("peer thread alive");
    }

    #[inline]
    fn recv_all(&self, to: usize, deliver: &mut dyn FnMut(Event)) {
        debug_assert_eq!(to, self.id, "engines drain only their own inbox");
        for rx in &self.receivers {
            for event in rx.try_iter() {
                deliver(event);
            }
        }
    }
}

/// Single-threaded shim for the sequential/steppable executor: one
/// participant owns every engine, so barriers vanish and the channel mesh
/// collapses to one inbox per destination. The owner runs its engines in
/// id order, so an inbox fills sender-id major, FIFO within a sender —
/// the drain order of [`StdShim`], which is one half of the
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
