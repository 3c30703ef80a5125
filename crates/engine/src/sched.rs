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
//! One bucket per `1 << shift` µs of virtual time starting at `base_us`:
//! the bucket index is a shift, not a division. Only the *current* bucket
//! `cur` is kept in order: it lives in `front`, a sorted ring popped at its
//! head. Every later bucket is an **unsorted** singly linked list threaded
//! through one slab (`nodes`, with a free list): a push there is a
//! push-front, and a bucket is sorted once, when the front empties and the
//! list is moved into it. Every buffer is bounded by the peak number of
//! pending events and is reused, never freed, so the steady state allocates
//! nothing — and a mis-sized width costs one larger sort per bucket, not an
//! insertion per push. Events at or beyond the calendar year
//! (`year_end_us`) wait in `far`, one more unsorted list through the same
//! slab, and are folded in at the next rebuild — which relinks the slab's
//! nodes in place, so the queue is three buffers (slab, front, bucket
//! heads) and its memory follows the peak depth once. Bucket indices clamp
//! at both ends (events
//! earlier than `base_us` — possible after a live migration re-enqueues
//! another engine's backlog — go to bucket 0; saturated years clamp to the
//! last bucket), which preserves the one invariant everything rests on: the
//! bucket index is monotone non-decreasing in event time, and same-time
//! events always share a bucket. A push at or before `cur` is a
//! binary-search insert into the front, so its head is the global minimum;
//! [`SchedStats::sorted_inserts`] counts those, because a width far wider
//! than the spacing of the in-flight events turns every push into one. The
//! engine therefore keeps what would stretch the horizon — the first
//! injections of flows that start later — out of the queue until their
//! window (`Engine`'s start cursor): the width is sized on in-flight
//! events only.
//!
//! Rebuilds (triggered when the queue doubles past the bucket count,
//! shrinks far below it, or the calendar drains while `far` holds events)
//! re-span the live horizon at roughly one event per bucket. All sizing is
//! a pure function of the pushed events, so rebuild counts and peak depths
//! are themselves deterministic and safe to surface in the run report.

use crate::event::Event;
use std::cmp::Reverse;
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
    /// buffer at capacity (calendar: node slab, front, bucket heads; heap:
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

/// One slab slot: an event pending in some later bucket or in `far`, or a
/// free slot.
#[derive(Debug, Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// The calendar queue. See the module docs for the layout and the
/// determinism argument.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// Slab behind every bucket list; grows to the peak and is reused.
    nodes: Vec<Node>,
    /// Head of the free list through `nodes`.
    free: u32,
    /// Per bucket, the head of its unsorted list (`NIL` when empty).
    heads: Vec<u32>,
    /// The events of buckets `..= cur`, ascending: the head is the global
    /// minimum. Non-empty whenever the calendar holds anything.
    front: VecDeque<Event>,
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
            nodes: Vec::new(),
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

    /// Bytes of buffer capacity held, in use or not (read by tests only).
    pub fn retained_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<Node>()
            + self.heads.capacity() * size_of::<u32>()
            + self.front.capacity() * size_of::<Event>()
    }

    /// Timestamp of the next event, or `None` when idle. O(1).
    #[inline]
    pub fn next_time(&self) -> Option<u64> {
        self.front.front().map(|e| e.time_us)
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

    /// Puts `ev` in a slab slot linked ahead of `next`; returns the slot,
    /// the new head of that list.
    #[inline]
    fn link(&mut self, next: u32, ev: Event) -> u32 {
        let node = Node { ev, next };
        if self.free == NIL {
            self.stats.reallocs += (self.nodes.len() == self.nodes.capacity()) as u64;
            self.nodes.push(node);
            return self.nodes.len() as u32 - 1;
        }
        let at = self.free;
        self.free = std::mem::replace(&mut self.nodes[at as usize], node).next;
        at
    }

    /// Moves the first non-empty list at or after bucket `from` into the
    /// (empty) front and sorts it; false when there is none.
    fn refill(&mut self, from: usize) -> bool {
        let Some(skip) = self.heads[from..].iter().position(|&h| h != NIL) else {
            return false;
        };
        self.cur = from + skip;
        self.front.clear();
        let mut at = std::mem::replace(&mut self.heads[self.cur], NIL);
        while at != NIL {
            let Node { ev, next } = self.nodes[at as usize];
            self.stats.reallocs += (self.front.len() == self.front.capacity()) as u64;
            self.front.push_back(ev);
            self.nodes[at as usize].next = self.free;
            self.free = at;
            at = next;
        }
        self.front.make_contiguous().sort_unstable();
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
                let pos = self.front.partition_point(|q| q < &ev);
                self.front.insert(pos, ev);
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
        let ev = self.front.pop_front()?;
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
        if self.front.front()?.time_us >= bound_us {
            return None;
        }
        self.pop()
    }

    /// Unlinks every list — `far` and each bucket after `cur` — and chains
    /// their nodes into one; returns its head and the `(earliest, latest)`
    /// timestamps on it. One pass, no event moves; the bucket heads are left
    /// stale for the caller to reset.
    fn chain_lists(&mut self) -> (u32, u64, u64) {
        let (mut chain, mut lo, mut hi) = (NIL, u64::MAX, 0);
        let far = std::mem::replace(&mut self.far, NIL);
        for head in std::iter::once(far).chain(self.heads[self.cur + 1..].iter().copied()) {
            let mut at = head;
            while at != NIL {
                let node = &mut self.nodes[at as usize];
                (lo, hi) = (lo.min(node.ev.time_us), hi.max(node.ev.time_us));
                let next = std::mem::replace(&mut node.next, chain);
                chain = at;
                at = next;
            }
        }
        (chain, lo, hi)
    }

    /// Removes every pending event (ascending order). Used when nodes
    /// migrate between engines.
    pub fn drain(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.front.drain(..));
        let (mut at, ..) = self.chain_lists();
        while at != NIL {
            out.push(self.nodes[at as usize].ev);
            at = self.nodes[at as usize].next;
        }
        out.sort_unstable();
        self.nodes.clear();
        self.free = NIL;
        self.heads.fill(NIL);
        self.len = 0;
        out
    }

    /// Re-spans the horizon of the pending events at ~1 event/bucket with a
    /// power-of-two width and makes bucket 0 the front, folding `far` back
    /// in. The slab's nodes are relinked where they are; only the front's
    /// few events move (into the slab, then out again with bucket 0).
    fn rebuild(&mut self) {
        self.stats.resizes += 1;
        if self.len == 0 {
            self.heads.truncate(MIN_BUCKETS);
            self.shift = INITIAL_WIDTH_US.trailing_zeros();
            return;
        }
        let (mut at, lo, hi) = self.chain_lists();
        // The front is sorted: its ends are its span.
        let min_us = self.front.front().map_or(lo, |e| lo.min(e.time_us));
        let max_us = self.front.back().map_or(hi, |e| hi.max(e.time_us));
        let nbuckets = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let width_us = ((max_us - min_us) / self.len as u64 + 1).next_power_of_two();
        self.shift = width_us.trailing_zeros();
        self.stats.reallocs += (nbuckets > self.heads.capacity()) as u64;
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        self.base_us = min_us;
        self.year_end_us = self.year_end();
        while at != NIL {
            let b = self.bucket_of(self.nodes[at as usize].ev.time_us);
            let next = std::mem::replace(&mut self.nodes[at as usize].next, self.heads[b]);
            self.heads[b] = at;
            at = next;
        }
        while let Some(ev) = self.front.pop_front() {
            let b = self.bucket_of(ev.time_us);
            self.heads[b] = self.link(self.heads[b], ev);
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

    /// Removes every pending event (ascending order).
    pub fn drain(&mut self) -> Vec<Event> {
        let mut out: Vec<Event> = self.heap.drain().map(|Reverse(e)| e).collect();
        out.sort_unstable();
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

    /// Removes every pending event in ascending order.
    pub fn drain(&mut self) -> Vec<Event> {
        match self {
            EventQueue::Calendar(q) => q.drain(),
            EventQueue::Heap(q) => q.drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Packet};

    fn inject(time_us: u64, flow: u32, packet_no: u64, node: u32) -> Event {
        Event {
            time_us,
            node,
            kind: EventKind::Inject { flow, packet_no },
        }
    }

    fn arrive(time_us: u64, flow: u32, packet_no: u64, node: u32) -> Event {
        Event {
            time_us,
            node,
            kind: EventKind::Arrive {
                pkt: Packet::for_flow(flow, packet_no, 0, node, 1500, 0),
            },
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
    fn drain_is_sorted_and_resets() {
        let mut rng = XorShift(42);
        let mut q = CalendarQueue::new();
        let mut events = Vec::new();
        for _ in 0..300 {
            let ev = random_event(&mut rng, 1 << 30);
            q.push(ev);
            events.push(ev);
        }
        events.sort_unstable();
        assert_eq!(q.drain(), events);
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        // The queue remains usable after a drain.
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
            assert_eq!(q.drain().len(), 1);
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
