//! Deterministic event schedulers for the engine hot path.
//!
//! The conservative protocol gives the event queue a very regular access
//! pattern: every round pops *all* events below the window bound `lbts`,
//! and every push lands within one lookahead horizon of the current
//! frontier. A classic binary heap spends O(log n) comparisons per
//! operation re-proving an order the access pattern almost gives us for
//! free; the [`CalendarQueue`] here exploits the pattern for O(1)
//! amortized push/pop.
//!
//! ## Determinism contract
//!
//! Both schedulers pop events in exactly ascending [`Event`] order — the
//! total order `(time, kind class, packet/flow id, node)` defined by
//! `Ord for Event`. Event keys are unique within one run (a packet
//! arrives at a given node at most once; injections carry unique
//! `(flow, packet_no)`), so the pop sequence is a pure function of the
//! *set* of pushed events, independent of push order and of which
//! scheduler produced it. That is why swapping the heap for the calendar
//! queue leaves every report, golden file, and obs timeline byte-identical.
//!
//! ## Calendar layout
//!
//! A push writes the event once into a slot of the slab (`events`, with a
//! free list) and the pop that returns it reads it once; in between only
//! slots and keys move. One bucket per `1 << shift` µs of virtual time
//! from `base_us`: the index is a shift, not a division. Only the
//! *current* bucket `cur` is kept in order: `front`, a ring of `(packed
//! key, slot)` entries sorted by `Event::packed_key` and, on an equal
//! key, by node — exactly `Ord for Event` — popped at its head. Every
//! later bucket is an **unsorted** list of slots threaded through `next`:
//! a push there is a push-front, and a bucket is keyed and sorted once,
//! when the front empties. Every buffer is bounded by the peak number of
//! pending events and is reused, never freed, so the steady state
//! allocates nothing — and a mis-sized width costs one larger sort per
//! bucket, not an insertion per push. Events at or beyond the calendar
//! year (`year_end_us`) wait in `far`, one more list of slots, and are
//! folded in at the next rebuild, which relinks every slot in place: the
//! queue's memory follows the peak depth once. Bucket indices clamp at
//! both ends (events earlier than `base_us` — possible after a live
//! migration re-enqueues another engine's backlog — go to bucket 0;
//! saturated years clamp to the last bucket), which preserves the one
//! invariant everything rests on: the bucket index is monotone
//! non-decreasing in event time, and same-time events always share a
//! bucket. A push at or before `cur` is a binary-search insert into the
//! front, so its head is the global minimum; [`SchedStats::sorted_inserts`]
//! counts those, because a width far wider than the spacing of the
//! in-flight events turns every push into one. The engine therefore keeps
//! what would stretch the horizon — the first injections of flows that
//! start later — out of the queue until their window (`Engine`'s start
//! cursor): the width is sized on in-flight events only.
//!
//! Rebuilds (triggered when the queue doubles past the bucket count,
//! shrinks far below it, or the calendar drains while `far` holds events)
//! re-span the live horizon at roughly one event per bucket. All sizing is
//! a pure function of the pushed events, so rebuild counts and peak depths
//! are themselves deterministic and safe to surface in the run report.

use crate::event::Event;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Which scheduler implementation an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The calendar queue — O(1) amortized, the default.
    #[default]
    Calendar,
    /// The original binary heap — O(log n), kept as the measurable
    /// baseline for `bench_engine`.
    Heap,
}

impl SchedulerKind {
    /// Stable label used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Calendar => "calendar",
            SchedulerKind::Heap => "heap",
        }
    }
}

/// Scheduler counters surfaced into the run report.
///
/// All are simulated quantities — pure functions of the sequence of pushes
/// and pops — so they are identical across sequential and per-thread
/// execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Largest number of pending events ever observed.
    pub peak_depth: u64,
    /// Calendar rebuilds (bucket-array re-spans); always 0 for the heap.
    pub resizes: u64,
    /// Logical allocations on the event path: pushes that found a scheduler
    /// buffer at capacity (calendar: event slab, front, bucket heads; heap:
    /// its one vector). Counted at the call sites, not by a counting
    /// allocator, because the workspace is `forbid(unsafe_code)`; buffers are
    /// reused once grown, so steady state adds ~0 per event.
    pub reallocs: u64,
    /// Pushes that were a binary-search insert into the calendar's sorted
    /// front (the event fell in the current bucket); always 0 for the heap.
    /// Their share of all pushes is how far the calendar has degenerated
    /// into one sorted list.
    pub sorted_inserts: u64,
}

/// Fewest buckets the calendar ever uses.
const MIN_BUCKETS: usize = 16;
/// Most buckets a rebuild will allocate.
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket width before the first rebuild has seen a real horizon (µs).
const INITIAL_WIDTH_US: u64 = 1024;
/// End of a bucket list and of the free list.
const NIL: u32 = u32::MAX;

/// A front entry: an event's [`Event::packed_key`] and its slab slot.
type Entry = (u128, u32);

/// Timestamp of the event behind `entry`: the packed key's top bits.
#[inline]
fn entry_time((key, _): Entry) -> u64 {
    (key >> 65) as u64
}

/// The front's order, which is `Ord for Event`: the packed key, then on a
/// tie the node, read through the slab.
#[inline]
fn entry_cmp(events: &[Event], a: &Entry, b: &Entry) -> Ordering {
    let node = |e: &Entry| events[e.1 as usize].node;
    a.0.cmp(&b.0).then_with(|| node(a).cmp(&node(b)))
}

/// The calendar queue. See the module docs for the layout and the
/// determinism argument.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// The slab: each pending event in the slot it holds from push to pop.
    events: Vec<Event>,
    /// Per slot, the next of its list (a bucket, `far`, the free list): a
    /// walk reads 4 B a slot, and the events it reaches are independent.
    next: Vec<u32>,
    /// Head of the free list.
    free: u32,
    /// Per bucket, the head of its unsorted list (`NIL` when empty).
    heads: Vec<u32>,
    /// Buckets `..= cur` in event order: the head is the global minimum.
    /// Non-empty whenever the calendar holds anything.
    front: VecDeque<Entry>,
    /// The bucket `front` stands for; `heads[..= cur]` are all `NIL`.
    cur: usize,
    /// `log2` of the bucket width in µs — the bucket index is a shift.
    shift: u32,
    /// Virtual time of bucket 0's lower edge.
    base_us: u64,
    /// `base_us + (heads.len() << shift)` (saturating): first timestamp
    /// the calendar cannot hold.
    year_end_us: u64,
    /// Head of the overflow list: events at/after `year_end_us`, unsorted.
    far: u32,
    /// Total pending events (front + lists + far).
    len: usize,
    stats: SchedStats,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue with the minimum geometry.
    pub fn new() -> Self {
        Self {
            events: Vec::new(),
            next: Vec::new(),
            free: NIL,
            heads: vec![NIL; MIN_BUCKETS],
            front: VecDeque::new(),
            cur: 0,
            shift: INITIAL_WIDTH_US.trailing_zeros(),
            base_us: 0,
            year_end_us: INITIAL_WIDTH_US * MIN_BUCKETS as u64,
            far: NIL,
            len: 0,
            stats: SchedStats::default(),
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Bytes of buffer capacity held, in use or not.
    pub fn retained_bytes(&self) -> usize {
        self.events.capacity() * size_of::<Event>()
            + (self.next.capacity() + self.heads.capacity()) * size_of::<u32>()
            + self.front.capacity() * size_of::<Entry>()
    }

    /// Timestamp of the next event, or `None` when idle. O(1).
    #[inline]
    pub fn next_time(&self) -> Option<u64> {
        self.front.front().map(|&e| entry_time(e))
    }

    #[inline]
    fn bucket_of(&self, time_us: u64) -> usize {
        // Bottom-clamp (saturating_sub) and top-clamp (min) keep the index
        // monotone in time even for pre-base pushes and saturated years.
        ((time_us.saturating_sub(self.base_us) >> self.shift) as usize).min(self.heads.len() - 1)
    }

    /// `base_us` plus one calendar year, saturating.
    fn year_end(&self) -> u64 {
        let year_us = (self.heads.len() as u64).saturating_mul(1 << self.shift);
        self.base_us.saturating_add(year_us)
    }

    /// Puts `ev` in a slab slot linked ahead of `head`; returns the slot,
    /// the new head of that list.
    #[inline]
    fn link(&mut self, head: u32, ev: Event) -> u32 {
        if self.free == NIL {
            // `next` grows with `events`: one buffer as far as counting goes.
            self.stats.reallocs += (self.events.len() == self.events.capacity()) as u64;
            self.events.push(ev);
            self.next.push(head);
            return self.events.len() as u32 - 1;
        }
        let at = self.free;
        self.free = std::mem::replace(&mut self.next[at as usize], head);
        self.events[at as usize] = ev;
        at
    }

    /// Moves the first non-empty list at or after bucket `from` into the
    /// (empty) front as entries and sorts them; false when there is none.
    fn refill(&mut self, from: usize) -> bool {
        let Some(skip) = self.heads[from..].iter().position(|&h| h != NIL) else {
            return false;
        };
        self.cur = from + skip;
        self.front.clear(); // empty already: this makes it start contiguous
        let mut at = std::mem::replace(&mut self.heads[self.cur], NIL);
        while at != NIL {
            self.stats.reallocs += (self.front.len() == self.front.capacity()) as u64;
            self.front
                .push_back((self.events[at as usize].packed_key(), at));
            at = self.next[at as usize];
        }
        let (events, front) = (&self.events, self.front.make_contiguous());
        front.sort_unstable_by(|a, b| entry_cmp(events, a, b));
        true
    }

    /// Enqueues `ev`. O(1) amortized.
    pub fn push(&mut self, ev: Event) {
        if self.len == 0 {
            // Re-anchor the (empty) calendar at this event: it is bucket 0.
            self.base_us = ev.time_us;
            self.year_end_us = self.year_end();
            self.cur = 0;
        }
        if ev.time_us >= self.year_end_us && self.len > 0 {
            // Later than every calendar event: the minimum cannot change.
            self.far = self.link(self.far, ev);
        } else {
            let b = self.bucket_of(ev.time_us);
            if b > self.cur {
                self.heads[b] = self.link(self.heads[b], ev);
            } else {
                self.stats.sorted_inserts += 1;
                self.stats.reallocs += (self.front.len() == self.front.capacity()) as u64;
                let entry = (ev.packed_key(), self.link(NIL, ev));
                let events = &self.events;
                let pos = self
                    .front
                    .partition_point(|q| entry_cmp(events, q, &entry).is_lt());
                self.front.insert(pos, entry);
            }
        }
        self.len += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.len as u64);
        if self.len > 2 * self.heads.len() && self.heads.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Removes and returns the minimum event. O(1) amortized.
    pub fn pop(&mut self) -> Option<Event> {
        let (_, at) = self.front.pop_front()?;
        let ev = self.events[at as usize];
        self.next[at as usize] = std::mem::replace(&mut self.free, at);
        self.len -= 1;
        // Buckets up to `cur` are empty (monotone index; the front held the
        // minimum): the next one is in the first non-empty list or in `far`.
        if self.front.is_empty() && !self.refill(self.cur + 1) && self.far != NIL {
            self.rebuild();
        }
        if self.len * 4 < self.heads.len() && self.heads.len() > MIN_BUCKETS {
            self.rebuild();
        }
        Some(ev)
    }

    /// Pops the minimum event if its timestamp is strictly below
    /// `bound_us` — the conservative-window primitive.
    #[inline]
    pub fn pop_below(&mut self, bound_us: u64) -> Option<Event> {
        if entry_time(*self.front.front()?) >= bound_us {
            return None;
        }
        self.pop()
    }

    /// Unlinks every pending event — the front's, `far`'s and each bucket
    /// list's after `cur` — into one chain through the slab; returns its
    /// head and the `(earliest, latest)` timestamps on it. One pass, no
    /// event moves; the front is left empty and the bucket heads stale for
    /// the caller to reset.
    fn chain_all(&mut self) -> (u32, u64, u64) {
        let (mut chain, mut lo, mut hi) = (NIL, u64::MAX, 0);
        // The front is sorted: its ends are its span.
        if let (Some(&first), Some(&last)) = (self.front.front(), self.front.back()) {
            (lo, hi) = (entry_time(first), entry_time(last));
        }
        for (_, at) in self.front.drain(..) {
            self.next[at as usize] = chain;
            chain = at;
        }
        let far = std::mem::replace(&mut self.far, NIL);
        for head in std::iter::once(far).chain(self.heads[self.cur + 1..].iter().copied()) {
            let mut at = head;
            while at != NIL {
                let time_us = self.events[at as usize].time_us;
                (lo, hi) = (lo.min(time_us), hi.max(time_us));
                let next = std::mem::replace(&mut self.next[at as usize], chain);
                chain = at;
                at = next;
            }
        }
        (chain, lo, hi)
    }

    /// Removes the pending events `pred` selects (in no particular order)
    /// and re-spans the calendar over the rest (a resize; the slots stay
    /// where they are). Used when nodes migrate between engines.
    pub fn take_if(&mut self, mut pred: impl FnMut(&Event) -> bool) -> Vec<Event> {
        let (mut at, ..) = self.chain_all();
        self.heads.fill(NIL);
        let mut out = Vec::new();
        while at != NIL {
            let (ev, following) = (self.events[at as usize], self.next[at as usize]);
            let list = if pred(&ev) {
                out.push(ev);
                &mut self.free
            } else {
                &mut self.far
            };
            self.next[at as usize] = std::mem::replace(list, at);
            at = following;
        }
        self.len -= out.len();
        if self.len > 0 {
            self.rebuild(); // folds the rest, all in `far`, back into buckets
        }
        out
    }

    /// Re-spans the horizon of the pending events at ~1 event/bucket with a
    /// power-of-two width and makes bucket 0 the front, folding `far` back
    /// in. Every slot is relinked where it is: no event moves.
    fn rebuild(&mut self) {
        self.stats.resizes += 1;
        if self.len == 0 {
            self.heads.truncate(MIN_BUCKETS);
            self.shift = INITIAL_WIDTH_US.trailing_zeros();
            return;
        }
        let (mut at, min_us, max_us) = self.chain_all();
        let nbuckets = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let width_us = ((max_us - min_us) / self.len as u64 + 1).next_power_of_two();
        self.shift = width_us.trailing_zeros();
        self.stats.reallocs += (nbuckets > self.heads.capacity()) as u64;
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        self.base_us = min_us;
        self.year_end_us = self.year_end();
        while at != NIL {
            let b = self.bucket_of(self.events[at as usize].time_us);
            let next = std::mem::replace(&mut self.next[at as usize], self.heads[b]);
            self.heads[b] = at;
            at = next;
        }
        self.refill(0);
    }
}

/// The original `BinaryHeap` scheduler, kept selectable so `bench_engine`
/// can measure the calendar queue against the exact pre-existing baseline.
#[derive(Debug, Clone, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<Event>>,
    stats: SchedStats,
}

impl HeapQueue {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Scheduler counters so far (`resizes` stays 0).
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Timestamp of the next event, or `None` when idle.
    #[inline]
    pub fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time_us)
    }

    /// Enqueues `ev`.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.heap.len() == self.heap.capacity() {
            self.stats.reallocs += 1;
        }
        self.heap.push(Reverse(ev));
        self.stats.peak_depth = self.stats.peak_depth.max(self.heap.len() as u64);
    }

    /// Removes and returns the minimum event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Pops the minimum event if its timestamp is strictly below
    /// `bound_us`.
    #[inline]
    pub fn pop_below(&mut self, bound_us: u64) -> Option<Event> {
        if self.heap.peek()?.0.time_us >= bound_us {
            return None;
        }
        self.pop()
    }

    /// Removes the pending events `pred` selects (in no particular order).
    pub fn take_if(&mut self, mut pred: impl FnMut(&Event) -> bool) -> Vec<Event> {
        let mut all = std::mem::take(&mut self.heap).into_vec();
        let out = all
            .extract_if(.., |Reverse(e)| pred(e))
            .map(|Reverse(e)| e)
            .collect();
        self.heap = all.into();
        out
    }
}

/// An engine's event queue: one of the two scheduler implementations,
/// selected by [`SchedulerKind`] in the emulation config.
#[derive(Debug, Clone)]
pub enum EventQueue {
    /// Calendar-queue scheduler.
    Calendar(CalendarQueue),
    /// Binary-heap scheduler.
    Heap(HeapQueue),
}

impl EventQueue {
    /// Creates the scheduler `kind` selects.
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
            SchedulerKind::Heap => EventQueue::Heap(HeapQueue::new()),
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::Heap(q) => q.len(),
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> SchedStats {
        match self {
            EventQueue::Calendar(q) => q.stats(),
            EventQueue::Heap(q) => q.stats(),
        }
    }

    /// Timestamp of the next event, or `None` when idle.
    #[inline]
    pub fn next_time(&self) -> Option<u64> {
        match self {
            EventQueue::Calendar(q) => q.next_time(),
            EventQueue::Heap(q) => q.next_time(),
        }
    }

    /// Enqueues `ev`.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        match self {
            EventQueue::Calendar(q) => q.push(ev),
            EventQueue::Heap(q) => q.push(ev),
        }
    }

    /// Removes and returns the minimum event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::Heap(q) => q.pop(),
        }
    }

    /// Pops the minimum event if its timestamp is strictly below
    /// `bound_us`.
    #[inline]
    pub fn pop_below(&mut self, bound_us: u64) -> Option<Event> {
        match self {
            EventQueue::Calendar(q) => q.pop_below(bound_us),
            EventQueue::Heap(q) => q.pop_below(bound_us),
        }
    }

    /// Removes the pending events `pred` selects (in no particular order).
    pub fn take_if(&mut self, pred: impl FnMut(&Event) -> bool) -> Vec<Event> {
        match self {
            EventQueue::Calendar(q) => q.take_if(pred),
            EventQueue::Heap(q) => q.take_if(pred),
        }
    }

    /// Bytes of buffer capacity held, in use or not.
    pub fn retained_bytes(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.retained_bytes(),
            EventQueue::Heap(q) => q.heap.capacity() * size_of::<Event>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inject(time_us: u64, flow: u32, packet_no: u64, node: u32) -> Event {
        Event::injection(time_us, node, flow, packet_no)
    }

    fn arrive(time_us: u64, flow: u32, packet_no: u64, node: u32) -> Event {
        Event {
            hop: 1,
            ..inject(time_us, flow, packet_no, node)
        }
    }

    /// Deterministic xorshift so tests need no RNG crate (and no wall
    /// clock).
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn random_event(rng: &mut XorShift, time_range: u64) -> Event {
        let t = rng.next() % time_range;
        let flow = (rng.next() % 8) as u32;
        let no = rng.next() % 64;
        let node = (rng.next() % 32) as u32;
        if rng.next().is_multiple_of(2) {
            inject(t, flow, no, node)
        } else {
            arrive(t, flow, no, node)
        }
    }

    /// The core contract: identical pop sequence to a reference heap for
    /// interleaved pushes/pops, across tight (tie-heavy) and wide spans.
    #[test]
    fn matches_reference_heap_order() {
        for &time_range in &[8u64, 1000, 50_000_000] {
            let mut rng = XorShift(0x9e3779b97f4a7c15);
            let mut cal = CalendarQueue::new();
            let mut heap = BinaryHeap::new();
            for step in 0..4000 {
                if step % 3 != 2 {
                    let ev = random_event(&mut rng, time_range);
                    cal.push(ev);
                    heap.push(Reverse(ev));
                } else {
                    assert_eq!(cal.pop(), heap.pop().map(|Reverse(e)| e));
                }
                assert_eq!(cal.next_time(), heap.peek().map(|Reverse(e)| e.time_us));
                assert_eq!(cal.len(), heap.len());
            }
            while let Some(Reverse(want)) = heap.pop() {
                assert_eq!(cal.pop(), Some(want));
            }
            assert!(cal.is_empty());
            assert_eq!(cal.pop(), None);
        }
    }

    #[test]
    fn pop_below_respects_the_window() {
        let mut q = CalendarQueue::new();
        for t in [5u64, 10, 15, 20] {
            q.push(inject(t, 0, t, 0));
        }
        assert_eq!(q.pop_below(5), None, "bound is exclusive");
        assert_eq!(q.pop_below(11).map(|e| e.time_us), Some(5));
        assert_eq!(q.pop_below(11).map(|e| e.time_us), Some(10));
        assert_eq!(q.pop_below(11), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn far_overflow_folds_back_in() {
        let mut q = CalendarQueue::new();
        q.push(inject(0, 0, 0, 0));
        // Far beyond the initial year (16 buckets * 1024 µs).
        q.push(inject(1 << 40, 0, 1, 0));
        q.push(inject(1 << 41, 0, 2, 0));
        assert_eq!(q.pop().map(|e| e.time_us), Some(0));
        assert_eq!(q.pop().map(|e| e.time_us), Some(1 << 40));
        assert_eq!(q.pop().map(|e| e.time_us), Some(1 << 41));
        assert_eq!(q.pop(), None);
        assert!(q.stats().resizes > 0, "folding `far` in is a rebuild");
    }

    #[test]
    fn sorted_inserts_count_pushes_into_the_front_bucket() {
        let mut q = CalendarQueue::new();
        q.push(inject(0, 0, 0, 0)); // anchors bucket 0, the front
        q.push(inject(10, 0, 1, 0)); // the same 1 024 µs bucket
        q.push(inject(5_000, 0, 2, 0)); // a later bucket: a list push
        q.push(inject(1 << 40, 0, 3, 0)); // beyond the year: `far`
        assert_eq!(q.stats().sorted_inserts, 2);
        let mut heap = HeapQueue::new();
        heap.push(inject(0, 0, 0, 0));
        assert_eq!(heap.stats().sorted_inserts, 0);
    }

    #[test]
    fn push_below_base_reanchors_the_min() {
        // A live migration can hand an engine events earlier than anything
        // it has seen; the bottom clamp must surface them first.
        let mut q = CalendarQueue::new();
        q.push(inject(10_000, 0, 0, 0));
        q.push(inject(9_000, 0, 1, 0));
        q.push(inject(50, 0, 2, 0));
        assert_eq!(q.next_time(), Some(50));
        assert_eq!(q.pop().map(|e| e.time_us), Some(50));
        assert_eq!(q.pop().map(|e| e.time_us), Some(9_000));
        assert_eq!(q.pop().map(|e| e.time_us), Some(10_000));
    }

    #[test]
    fn grow_and_shrink_rebuilds_fire() {
        let mut q = CalendarQueue::new();
        for i in 0..200u64 {
            q.push(inject(i * 7, 0, i, 0));
        }
        let grown = q.stats().resizes;
        assert!(grown > 0, "200 events must outgrow 16 buckets");
        assert!(q.stats().peak_depth == 200);
        for _ in 0..198 {
            q.pop();
        }
        assert!(q.stats().resizes > grown, "draining must shrink the array");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|e| e.time_us), Some(198 * 7));
        assert_eq!(q.pop().map(|e| e.time_us), Some(199 * 7));
    }

    #[test]
    fn take_if_splits_the_queue_and_empties_it() {
        let mut rng = XorShift(42);
        let mut q = CalendarQueue::new();
        let mut events = Vec::new();
        for _ in 0..300 {
            let ev = random_event(&mut rng, 1 << 30);
            q.push(ev);
            events.push(ev);
        }
        events.sort_unstable();
        q.pop(); // the front is mid-bucket
        let picked = |e: &Event| e.time_us.is_multiple_of(3);
        let (want, rest): (Vec<Event>, Vec<Event>) = events[1..].iter().partition(|e| picked(e));
        let mut taken = q.take_if(picked);
        taken.sort_unstable();
        assert_eq!(taken, want);
        assert_eq!(q.len(), rest.len());
        assert_eq!(q.next_time(), rest.first().map(|e| e.time_us));
        assert_eq!(q.pop(), rest.first().copied());
        let mut left = q.take_if(|_| true);
        left.sort_unstable();
        assert_eq!(left, rest[1..]);
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        // The queue remains usable after everything was taken.
        q.push(inject(3, 0, 0, 0));
        assert_eq!(q.pop().map(|e| e.time_us), Some(3));
    }

    #[test]
    fn heap_queue_matches_and_counts_depth() {
        let mut rng = XorShift(7);
        let mut a = HeapQueue::new();
        let mut b = CalendarQueue::new();
        for _ in 0..500 {
            let ev = random_event(&mut rng, 4096);
            a.push(ev);
            b.push(ev);
        }
        assert_eq!(a.stats().peak_depth, 500);
        assert_eq!(b.stats().peak_depth, 500);
        assert_eq!(a.stats().resizes, 0);
        for _ in 0..500 {
            assert_eq!(a.pop(), b.pop());
        }
    }

    #[test]
    fn event_queue_dispatches_by_kind() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let mut q = EventQueue::new(kind);
            assert!(q.is_empty());
            q.push(inject(9, 1, 2, 3));
            q.push(inject(4, 1, 3, 3));
            assert_eq!(q.len(), 2);
            assert_eq!(q.next_time(), Some(4));
            assert_eq!(q.pop_below(4), None);
            assert_eq!(q.pop_below(10).map(|e| e.time_us), Some(4));
            assert_eq!(q.take_if(|_| true).len(), 1);
            assert_eq!(q.stats().peak_depth, 2);
        }
    }

    #[test]
    fn scheduler_kind_labels() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Calendar);
        assert_eq!(SchedulerKind::Calendar.label(), "calendar");
        assert_eq!(SchedulerKind::Heap.label(), "heap");
    }
}
