//! Events and packet references.

use massf_topology::NodeId;
use std::cmp::Ordering;

/// High bit of [`Packet::id`]: set for acknowledgement packets.
pub const ACK_ID_BIT: u64 = 1 << 63;

/// Size of an acknowledgement packet (TCP ACK: 40 bytes).
pub const ACK_BYTES: u32 = 40;

/// A packet *reference* — the only thing the emulator moves around (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Globally unique id: `(flow index << 32) | packet number`, with
    /// [`ACK_ID_BIT`] set for the matching acknowledgement.
    pub id: u64,
    /// Index of the generating flow.
    pub flow: u32,
    /// Source host (for an ACK: the data packet's destination).
    pub src: NodeId,
    /// Destination host (for an ACK: the data packet's source).
    pub dst: NodeId,
    /// Payload size in bytes (for link serialization and NetFlow records).
    pub bytes: u32,
    /// Virtual time the packet was injected (for latency accounting).
    pub injected_us: u64,
    /// True for window-transport acknowledgements.
    pub ack: bool,
    /// Links crossed so far: the packet sits at position `hop` of its
    /// route, which is how an engine finds the route's pinned next link
    /// (DESIGN.md §13). Rides in what was padding — see the size
    /// assertion below [`Event`].
    pub hop: u32,
}

impl Packet {
    /// Builds the packet for `packet_no` of flow `flow` (index `flow_idx`).
    pub fn for_flow(
        flow_idx: u32,
        packet_no: u64,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        injected_us: u64,
    ) -> Self {
        debug_assert!(packet_no < u32::MAX as u64, "flow too long for id packing");
        Self {
            id: ((flow_idx as u64) << 32) | packet_no,
            flow: flow_idx,
            src,
            dst,
            bytes,
            injected_us,
            ack: false,
            hop: 0,
        }
    }

    /// The acknowledgement for a delivered data packet: 40 bytes back along
    /// the reverse path, released at delivery time.
    pub fn ack_for(data: &Packet, now_us: u64) -> Self {
        debug_assert!(!data.ack, "cannot ack an ack");
        Self {
            id: data.id | ACK_ID_BIT,
            flow: data.flow,
            src: data.dst,
            dst: data.src,
            bytes: ACK_BYTES,
            injected_us: now_us,
            ack: true,
            hop: 0,
        }
    }

    /// The packet number within its flow.
    pub fn packet_no(&self) -> u64 {
        self.id & 0xffff_ffff
    }
}

/// What an event does when processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The application injects packet `packet_no` of flow `flow` at the
    /// flow's source host (which is this event's node).
    Inject {
        /// Flow index.
        flow: u32,
        /// Zero-based packet number within the flow.
        packet_no: u64,
    },
    /// A packet arrives at a node (host or router) and is counted,
    /// recorded, and forwarded or delivered.
    Arrive {
        /// The arriving packet.
        pkt: Packet,
    },
}

/// A timestamped event bound to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time in microseconds.
    pub time_us: u64,
    /// The node at which the event occurs.
    pub node: NodeId,
    /// Payload.
    pub kind: EventKind,
}

// Every pending event is one of these in a queue slab, so its size is the
// engine's memory per event: `Packet::hop` must stay inside the padding.
const _: () = assert!(std::mem::size_of::<Event>() == 56);

impl Event {
    /// The order key but the node as one integer, `time << 65 | class << 64
    /// | id`: injections (class 0) before arrivals, an injection's id is
    /// `(flow << 32) | packet_no`. Exact while `time_us < 2⁶³`, which trace
    /// parsing guarantees.
    #[inline]
    pub(crate) fn packed_key(&self) -> u128 {
        debug_assert!(self.time_us < 1 << 63, "event time past the packed key");
        let (class, id) = match self.kind {
            EventKind::Inject { flow, packet_no } => (0, ((flow as u64) << 32) | packet_no),
            EventKind::Arrive { pkt } => (1, pkt.id),
        };
        (self.time_us as u128) << 65 | class << 64 | id as u128
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

    #[test]
    fn packet_ids_are_unique_per_flow_and_number() {
        let a = Packet::for_flow(1, 0, 0, 1, 100, 0);
        let b = Packet::for_flow(1, 1, 0, 1, 100, 0);
        let c = Packet::for_flow(2, 0, 0, 1, 100, 0);
        assert_ne!(a.id, b.id);
        assert_ne!(a.id, c.id);
        assert_eq!(a.id, (1u64 << 32));
    }

    #[test]
    fn events_order_by_time_first() {
        let early = Event {
            time_us: 5,
            node: 9,
            kind: EventKind::Arrive {
                pkt: Packet::for_flow(9, 9, 0, 1, 1, 0),
            },
        };
        let late = Event {
            time_us: 6,
            node: 0,
            kind: EventKind::Inject {
                flow: 0,
                packet_no: 0,
            },
        };
        assert!(early < late);
    }

    #[test]
    fn injects_precede_arrivals_at_same_time() {
        let inj = Event {
            time_us: 5,
            node: 3,
            kind: EventKind::Inject {
                flow: 0,
                packet_no: 0,
            },
        };
        let arr = Event {
            time_us: 5,
            node: 2,
            kind: EventKind::Arrive {
                pkt: Packet::for_flow(0, 0, 0, 1, 1, 0),
            },
        };
        assert!(inj < arr);
    }

    #[test]
    fn same_packet_different_nodes_still_ordered() {
        let pkt = Packet::for_flow(0, 0, 0, 1, 1, 0);
        let a = Event {
            time_us: 5,
            node: 2,
            kind: EventKind::Arrive { pkt },
        };
        let b = Event {
            time_us: 5,
            node: 3,
            kind: EventKind::Arrive { pkt },
        };
        assert!(a < b);
        assert_ne!(a, b);
    }

    /// The event at `time_us` and `node` of kind `class` and packet id `id`.
    fn keyed(time_us: u64, class: u8, id: u64, node: NodeId) -> Event {
        let kind = if class == 0 {
            EventKind::Inject {
                flow: (id >> 32) as u32,
                packet_no: id & 0xffff_ffff,
            }
        } else {
            let pkt = Packet {
                id,
                ..Packet::for_flow(0, 0, 0, 1, 1, 0)
            };
            EventKind::Arrive { pkt }
        };
        Event {
            time_us,
            node,
            kind,
        }
    }

    #[test]
    fn the_packed_key_orders_as_the_fields_do() {
        let times = [0, 1, u32::MAX as u64 + 1, (1 << 62) + 7, (1 << 63) - 1];
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
        let fields = |e: &Event| match e.kind {
            EventKind::Inject { flow, packet_no } => {
                (e.time_us, 0, ((flow as u64) << 32) | packet_no, e.node)
            }
            EventKind::Arrive { pkt } => (e.time_us, 1, pkt.id, e.node),
        };
        for (t, c, i, n) in [
            (0, 0, 0, 0),
            (1 << 40, 0, 1 << 32, 1),
            (5, 1, ACK_ID_BIT | 3, 7),
        ] {
            // Every family differs from `(t, c, i, n)` in one field only.
            let families: [Vec<Event>; 4] = [
                times.iter().map(|&t| keyed(t, c, i, n)).collect(),
                [0, 1].iter().map(|&c| keyed(t, c, i, n)).collect(),
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
