//! Events: packet references.

use crate::engine::packet_bytes;
use massf_topology::NodeId;
use massf_traffic::FlowSpec;
use std::cmp::Ordering;

/// High bit of [`Event::id`]: set for acknowledgement packets.
pub const ACK_ID_BIT: u64 = 1 << 63;

/// Size of an acknowledgement packet (TCP ACK: 40 bytes).
pub const ACK_BYTES: u32 = 40;

/// A timestamped packet *reference* bound to a node — the only thing the
/// emulator moves around (§3.3). It names the packet, where and when it
/// is, and how far along its route; what the flow schedule already fixes
/// (endpoints, size) is read from there by [`Event::packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time in microseconds.
    pub time_us: u64,
    /// `(flow index << 32) | packet number`, with [`ACK_ID_BIT`] set for
    /// the packet's acknowledgement.
    pub id: u64,
    /// Virtual time the packet was injected (for latency accounting).
    pub injected_us: u64,
    /// The node at which the event occurs.
    pub node: NodeId,
    /// Links crossed so far: the packet sits at position `hop` of its
    /// route, which is how an engine finds the route's pinned next link
    /// (DESIGN.md §13). Every arrival has crossed a link, so `hop == 0` is
    /// the sentinel of an injection: the packet is still at its source.
    pub hop: u32,
}

// Every pending event is one of these in a queue slab, so its size is the
// engine's memory per event.
const _: () = assert!(std::mem::size_of::<Event>() == 32);

/// What the flow schedule says about the packet an event moves: derived by
/// [`Event::packet`], never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Index of the generating flow.
    pub flow: u32,
    /// Source host (for an ACK: the data packet's destination).
    pub src: NodeId,
    /// Destination host (for an ACK: the data packet's source).
    pub dst: NodeId,
    /// Payload size in bytes (for link serialization and NetFlow records).
    pub bytes: u32,
}

impl Event {
    /// The application injecting packet `packet_no` of flow `flow` at
    /// `node`, the flow's source.
    pub fn injection(time_us: u64, node: NodeId, flow: u32, packet_no: u64) -> Self {
        Self {
            time_us,
            id: (flow as u64) << 32 | packet_no,
            injected_us: time_us,
            node,
            hop: 0,
        }
    }

    /// The acknowledgement of this delivered data packet: injected where
    /// and when the data packet arrived, back along the reverse path.
    pub fn ack(&self) -> Self {
        debug_assert!(!self.is_ack(), "cannot ack an ack");
        Self {
            id: self.id | ACK_ID_BIT,
            injected_us: self.time_us,
            hop: 0,
            ..*self
        }
    }

    /// The index of the packet's flow.
    pub fn flow(&self) -> u32 {
        ((self.id & !ACK_ID_BIT) >> 32) as u32
    }

    /// The packet number within its flow.
    pub fn packet_no(&self) -> u64 {
        self.id & 0xffff_ffff
    }

    /// True for window-transport acknowledgements.
    pub fn is_ack(&self) -> bool {
        self.id & ACK_ID_BIT != 0
    }

    /// True when the packet is still at its source, not yet sent.
    pub fn is_injection(&self) -> bool {
        self.hop == 0
    }

    /// The packet's endpoints and size, read from its flow in `flows`.
    #[inline]
    pub fn packet(&self, flows: &[FlowSpec]) -> Packet {
        let flow = self.flow();
        let f = &flows[flow as usize];
        let (src, dst, bytes) = if self.is_ack() {
            (f.dst, f.src, ACK_BYTES)
        } else {
            (f.src, f.dst, packet_bytes(f, self.packet_no()))
        };
        Packet {
            flow,
            src,
            dst,
            bytes,
        }
    }

    /// The order key but the node as one integer, `time << 65 | class << 64
    /// | id`: injections (class 0) before arrivals. Exact while `time_us <
    /// 2⁶³`, which trace parsing guarantees.
    #[inline]
    pub(crate) fn packed_key(&self) -> u128 {
        debug_assert!(self.time_us < 1 << 63, "event time past the packed key");
        let class = !self.is_injection() as u128;
        (self.time_us as u128) << 65 | class << 64 | self.id as u128
    }
}

/// Total order: `(time, kind class, packet/flow id, node)`, the packed key
/// then the node. Every event key in one run is unique — a packet arrives
/// at a given node at most once and injections carry unique `(flow,
/// packet_no)` — so processing order is deterministic regardless of which
/// thread enqueued the event first.
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.packed_key(), self.node).cmp(&(other.packed_key(), other.node))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packet `packet_no` of `flow` arriving at `node` over its first link.
    fn arrival(time_us: u64, node: NodeId, flow: u32, packet_no: u64) -> Event {
        Event {
            hop: 1,
            ..Event::injection(time_us, node, flow, packet_no)
        }
    }

    #[test]
    fn packet_ids_are_unique_per_flow_and_number() {
        let a = Event::injection(0, 0, 1, 0);
        let b = Event::injection(0, 0, 1, 1);
        let c = Event::injection(0, 0, 2, 0);
        assert_ne!(a.id, b.id);
        assert_ne!(a.id, c.id);
        assert_eq!(a.id, (1u64 << 32));
        let top = Event::injection(0, 0, (1 << 31) - 1, u32::MAX as u64).ack();
        assert_eq!(
            (top.flow(), top.packet_no()),
            ((1 << 31) - 1, u32::MAX as u64)
        );
        assert!(top.is_ack() && !b.is_ack());
    }

    #[test]
    fn the_flow_fixes_endpoints_and_size() {
        // 3 200 B in three packets: two full MTUs and a 200 B remainder.
        let f = FlowSpec {
            src: 3,
            dst: 7,
            start_us: 0,
            packets: 3,
            bytes: 3200,
            packet_interval_us: 1,
            window: Some(2),
        };
        let jumbo = FlowSpec {
            packets: 1,
            bytes: 4000,
            ..f
        };
        let flows = [f, jumbo];
        let seen = |ev: Event| {
            let p = ev.packet(&flows);
            (p.flow, p.src, p.dst, p.bytes)
        };
        assert_eq!(seen(arrival(9, 5, 0, 1)), (0, 3, 7, 1500));
        assert_eq!(seen(arrival(9, 5, 0, 2)), (0, 3, 7, 200));
        assert_eq!(seen(Event::injection(9, 3, 1, 0)), (1, 3, 7, 4000));
        let ack = arrival(9, 7, 0, 2).ack();
        assert_eq!(seen(ack), (0, 7, 3, ACK_BYTES));
        // The ACK leaves where and when its data packet arrived.
        assert_eq!((ack.node, ack.injected_us, ack.hop), (7, 9, 0));
    }

    #[test]
    fn events_order_by_time_first() {
        let early = arrival(5, 9, 9, 9);
        let late = Event::injection(6, 0, 0, 0);
        assert!(early < late);
    }

    #[test]
    fn injects_precede_arrivals_at_same_time() {
        let inj = Event::injection(5, 3, 0, 0);
        let arr = arrival(5, 2, 0, 0);
        assert!(inj < arr);
    }

    #[test]
    fn same_packet_different_nodes_still_ordered() {
        let a = arrival(5, 2, 0, 0);
        let b = arrival(5, 3, 0, 0);
        assert!(a < b);
        assert_ne!(a, b);
    }

    /// The event at `time_us` and `node` of kind `class` and packet id `id`.
    fn keyed(time_us: u64, class: u32, id: u64, node: NodeId) -> Event {
        Event {
            time_us,
            id,
            injected_us: 0,
            node,
            hop: class,
        }
    }

    #[test]
    fn the_packed_key_orders_as_the_fields_do() {
        let times = [0, 1, u32::MAX as u64 + 1, (1 << 62) + 7, (1 << 63) - 1];
        // Flows up to 2³¹ − 1 and packet numbers up to 2³² − 1, with and
        // without the ACK bit.
        let ids = [
            0,
            1,
            u32::MAX as u64,
            1 << 32,
            ACK_ID_BIT - 1,
            ACK_ID_BIT,
            ACK_ID_BIT | 5,
            u64::MAX,
        ];
        let nodes = [0, 1, NodeId::MAX];
        // The order by definition, field by field.
        let fields = |e: &Event| (e.time_us, !e.is_injection(), e.id, e.node);
        for (t, c, i, n) in [
            (0, 0, 0, 0),
            (1 << 40, 0, 1 << 32, 1),
            (5, 1, ACK_ID_BIT | 3, 7),
        ] {
            // Every family differs from `(t, c, i, n)` in one field only.
            let families: [Vec<Event>; 4] = [
                times.iter().map(|&t| keyed(t, c, i, n)).collect(),
                [0, 1, 7].iter().map(|&c| keyed(t, c, i, n)).collect(),
                ids.iter().map(|&i| keyed(t, c, i, n)).collect(),
                nodes.iter().map(|&n| keyed(t, c, i, n)).collect(),
            ];
            for family in &families {
                for a in family {
                    for b in family {
                        assert_eq!(a.cmp(b), fields(a).cmp(&fields(b)), "{a:?} vs {b:?}");
                    }
                }
            }
        }
    }
}
