//! Property-based equivalence of the calendar-queue scheduler against a
//! reference `BinaryHeap<Reverse<Event>>` — the exact structure the engine
//! used before the calendar queue replaced it. Under arbitrary
//! interleavings of pushes, pops, windowed `pop_below` calls and whole-queue
//! drains — with timestamps drawn from ranges narrow enough to force heavy
//! ties — both schedulers must report the same lengths, the same
//! `next_time`, and pop the byte-identical event sequence, and the calendar
//! must never hold more memory than a small multiple of its peak depth. A
//! skewed workload — a sparse backlog over a horizon a million times the
//! spacing of the busy stream — holds it to the same under the shape that
//! turns every push into a sorted insert. Event ids spread over every bit
//! the calendar's packed key holds — flows up to 2³¹ − 1, packet numbers up
//! to 2³² − 1, the ACK bit — and one workload runs at the top of the time
//! range, just below 2⁶³.

use massf_engine::event::{Event, ACK_ID_BIT};
use massf_engine::sched::{CalendarQueue, HeapQueue};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of the schedule workload.
#[derive(Debug, Clone)]
enum Op {
    /// Push an event at `time`; `arrive` picks the event class, `ack` an
    /// acknowledgement's id for an arrival, and `node` the tie-breaking
    /// node id.
    Push {
        time: u64,
        node: u32,
        arrive: bool,
        ack: bool,
    },
    /// Pop the minimum.
    Pop,
    /// Drain everything strictly below `bound` (a conservative window).
    PopBelow { bound: u64 },
    /// Take every pending event out, as a migration does, and carry on.
    Drain,
    /// Take out the events at `node`, as migrating that one node does.
    Take { node: u32 },
}

/// Ops weighted 16:8:4:1:2 push : pop : windowed drain : full drain : one
/// node's events taken at times
/// `base..base + span` (the vendored proptest has no `prop_oneof!`, so a
/// selector drives the choice).
fn arb_op(base: u64, span: u64) -> impl Strategy<Value = Op> {
    let fields = (0u8..31, 0..span, 0u32..8, prop::bool::ANY, prop::bool::ANY);
    fields.prop_map(move |(sel, time, node, arrive, ack)| {
        let time = base + time;
        match sel {
            0..=15 => Op::Push {
                time,
                node,
                arrive,
                ack,
            },
            16..=23 => Op::Pop,
            24..=27 => Op::PopBelow {
                bound: time.saturating_add(10),
            },
            28 => Op::Drain,
            _ => Op::Take { node },
        }
    })
}

/// The calendar may hold on to at most 4.5 events' worth of bytes per event
/// of its peak depth: its buffers (the event slab and its `u32` links, the
/// front, the bucket heads) are doubling vectors that each hold at most
/// twice the peak — a slot is 36 B, a front entry 32 B, and the heads cost
/// under 8 B per event — which comes to `2·36 + 2·32 + 8` = 144 B, exactly
/// 4.5 events of 32 B, in the worst case.
fn assert_footprint(cal: &CalendarQueue) {
    let (held, peak) = (cal.retained_bytes(), cal.stats().peak_depth);
    assert!(
        held <= 9 * peak as usize * size_of::<Event>() / 2 + 4096,
        "calendar holds {held} B at peak depth {peak}"
    );
}

/// Microseconds between two events of the skewed workload's stream.
const SPACING_US: u64 = 8;

/// The late-start shape that degenerated the calendar before engines kept
/// unstarted flows out of it: a few hundred events spread over a horizon
/// 10⁶ × [`SPACING_US`], under a stream pushed up to a few buckets ahead of a
/// frontier that `PopBelow` moves one spacing at a time. A `Drain` takes the
/// backlog out as a migration does, and the part of it still ahead of the
/// frontier comes back; a `Take` takes out one node's events.
fn arb_skewed_ops() -> impl Strategy<Value = Vec<Op>> {
    let far = prop::collection::vec((0..SPACING_US * 1_000_000, 0u32..8), 200..400);
    let step = (0u8..32, 0..64 * SPACING_US, 0u32..8, prop::bool::ANY);
    (far, prop::collection::vec(step, 100..400)).prop_map(|(far, stream)| {
        let backlog = |after: u64| {
            let ahead = far.iter().filter(move |&&(time, _)| time >= after);
            ahead.map(|&(time, node)| Op::Push {
                time,
                node,
                arrive: false,
                ack: false,
            })
        };
        let mut ops: Vec<Op> = backlog(0).collect();
        for (i, (sel, ahead, node, arrive)) in stream.into_iter().enumerate() {
            let frontier = i as u64 * SPACING_US;
            ops.push(Op::Push {
                time: frontier + ahead,
                node,
                arrive,
                ack: arrive,
            });
            match sel {
                0..=19 => ops.push(Op::PopBelow { bound: frontier }),
                20..=28 => ops.push(Op::Pop),
                29 => ops.push(Op::Take { node }),
                _ => {
                    ops.push(Op::Drain);
                    ops.extend(backlog(frontier));
                }
            }
        }
        ops
    })
}

/// Builds the event for push number `seq`. The sequence number, times an
/// odd constant modulo 2⁶³, becomes the flow and packet number — a flow
/// below 2³¹, a packet number below 2³², distinct for every push — so
/// every event key in one run is unique, mirroring the engine, where a
/// packet arrives at a given node at most once, while ids reach every bit
/// of the packed key. Times and nodes still collide constantly, exercising
/// every tie-break level.
fn event(seq: u64, time: u64, node: u32, arrive: bool, ack: bool) -> Event {
    let id = seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) & !ACK_ID_BIT;
    let (flow, packet_no) = ((id >> 32) as u32, id & 0xffff_ffff);
    let injection = Event::injection(time, node, flow, packet_no);
    match (arrive, ack) {
        (false, _) => injection,
        (true, false) => Event {
            hop: 1,
            ..injection
        },
        (true, true) => Event {
            hop: 1,
            ..injection.ack()
        },
    }
}

/// Removes the events `pred` selects from the reference heap, ascending.
fn take_from(
    reference: &mut BinaryHeap<Reverse<Event>>,
    pred: impl Fn(&Event) -> bool,
) -> Vec<Event> {
    let (mut taken, kept): (Vec<Event>, Vec<Event>) =
        reference.drain().map(|Reverse(e)| e).partition(|e| pred(e));
    reference.extend(kept.into_iter().map(Reverse));
    taken.sort_unstable();
    taken
}

/// Applies `ops` to the calendar queue and the reference heap in lockstep,
/// checking every observable after every step.
fn check_against_reference(ops: &[Op]) {
    let mut cal = CalendarQueue::new();
    let mut reference: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    for op in ops {
        match *op {
            Op::Push {
                time,
                node,
                arrive,
                ack,
            } => {
                let ev = event(seq, time, node, arrive, ack);
                seq += 1;
                cal.push(ev);
                reference.push(Reverse(ev));
            }
            Op::Pop => {
                let want = reference.pop().map(|Reverse(e)| e);
                assert_eq!(cal.pop(), want);
            }
            Op::PopBelow { bound } => loop {
                let want = match reference.peek() {
                    Some(Reverse(e)) if e.time_us < bound => reference.pop().map(|Reverse(e)| e),
                    _ => None,
                };
                let got = cal.pop_below(bound);
                assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            },
            Op::Drain => {
                let mut got = cal.take_if(|_| true);
                got.sort_unstable();
                assert_eq!(got, take_from(&mut reference, |_| true));
            }
            Op::Take { node } => {
                let mut got = cal.take_if(|e| e.node == node);
                got.sort_unstable();
                assert_eq!(got, take_from(&mut reference, |e| e.node == node));
            }
        }
        assert_footprint(&cal);
        assert_eq!(cal.len(), reference.len());
        assert_eq!(
            cal.next_time(),
            reference.peek().map(|Reverse(e)| e.time_us)
        );
    }
    // Whatever remains drains in exactly ascending order.
    let mut rest: Vec<Event> = reference
        .into_sorted_vec()
        .into_iter()
        .map(|Reverse(e)| e)
        .collect();
    rest.reverse();
    let mut got = cal.take_if(|_| true);
    got.sort_unstable();
    assert_eq!(got, rest);
    assert!(cal.is_empty());
}

/// The ScaLapack shape that used to leak: a few hundred injections seconds
/// ahead stretch the calendar year over thousands of buckets, and a dense
/// cluster of in-flight packets — every pop schedules the next hop a little
/// later — sweeps across that whole year, three times over as the far
/// events are renewed. With a growable vector per bucket every slot the
/// cluster crossed kept its high-water capacity, some 60x this bound.
#[test]
fn sweeping_front_keeps_memory_near_the_live_set() {
    const FAR_EVENTS: u64 = 300;
    const CLUSTER: u64 = 500;
    const YEAR_US: u64 = 8_000_000;
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut rand = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    let mut cal = CalendarQueue::new();
    let mut seq = 0u64;
    let mut push = |cal: &mut CalendarQueue, time: u64, arrive: bool| {
        cal.push(event(seq, time, (seq % 8) as u32, arrive, false));
        seq += 1;
    };
    for i in 0..FAR_EVENTS {
        push(&mut cal, 5_000_000 + i * 10_000, false);
    }
    for _ in 0..CLUSTER {
        let at = rand(20_000);
        push(&mut cal, at, true);
    }
    let mut last = 0;
    while last < 3 * YEAR_US {
        let ev = cal.pop().expect("the cluster never dies out");
        assert!(ev.time_us >= last, "popped out of order");
        last = ev.time_us;
        if ev.is_injection() {
            push(&mut cal, last + YEAR_US, false);
        } else {
            push(&mut cal, last + 1 + rand(20_000), true);
        }
        assert_footprint(&cal);
    }
    assert_eq!(cal.len() as u64, FAR_EVENTS + CLUSTER);
    assert!(cal.stats().peak_depth <= FAR_EVENTS + CLUSTER + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wide timestamp range: events spread across buckets and the far
    /// ladder, triggering grow/shrink/fold-in rebuilds.
    #[test]
    fn calendar_matches_heap_wide_times(ops in prop::collection::vec(arb_op(0, 5_000_000), 1..300)) {
        check_against_reference(&ops);
    }

    /// The same just below 2⁶³, where the packed key's time field ends.
    #[test]
    fn calendar_matches_heap_at_the_top_of_time(
        ops in prop::collection::vec(arb_op((1 << 63) - 5_000_000, 5_000_000), 1..300),
    ) {
        check_against_reference(&ops);
    }

    /// Skewed horizon: far events size the buckets, the stream lives in
    /// the front bucket, and rebuilds relink a slab that holds both.
    #[test]
    fn calendar_matches_heap_skewed_horizon(ops in arb_skewed_ops()) {
        check_against_reference(&ops);
    }

    /// Narrow timestamp range: almost every event ties on time, so order
    /// is decided entirely by the (kind class, id, node) tie-break.
    #[test]
    fn calendar_matches_heap_heavy_ties(ops in prop::collection::vec(arb_op(0, 6), 1..300)) {
        check_against_reference(&ops);
    }

    /// The production wrapper with the heap kind must equal the raw
    /// reference too — it is the benchmark baseline.
    #[test]
    fn heap_queue_matches_reference(ops in prop::collection::vec(arb_op(0, 1_000), 1..150)) {
        let mut hq = HeapQueue::new();
        let mut reference: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        for op in &ops {
            match *op {
                Op::Push { time, node, arrive, ack } => {
                    let ev = event(seq, time, node, arrive, ack);
                    seq += 1;
                    hq.push(ev);
                    reference.push(Reverse(ev));
                }
                Op::Pop => {
                    assert_eq!(hq.pop(), reference.pop().map(|Reverse(e)| e));
                }
                Op::PopBelow { bound } => {
                    while let Some(e) = hq.pop_below(bound) {
                        assert_eq!(Some(Reverse(e)), reference.pop());
                        prop_assert!(e.time_us < bound);
                    }
                    if let Some(Reverse(e)) = reference.peek() {
                        prop_assert!(e.time_us >= bound);
                    }
                }
                Op::Drain => {
                    let mut got = hq.take_if(|_| true);
                    got.sort_unstable();
                    prop_assert_eq!(got, take_from(&mut reference, |_| true));
                }
                Op::Take { node } => {
                    let mut got = hq.take_if(|e| e.node == node);
                    got.sort_unstable();
                    prop_assert_eq!(got, take_from(&mut reference, |e| e.node == node));
                }
            }
            prop_assert_eq!(hq.len(), reference.len());
        }
    }
}
