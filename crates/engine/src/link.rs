//! Link transmission modeling: store-and-forward serialization plus
//! propagation, with per-direction busy tracking.

use massf_topology::{Link, LinkId};

/// Serialization time of `bytes` at `bandwidth_mbps`, in whole microseconds
/// (≥ 1). `bits / Mbps` is exactly microseconds.
#[inline]
pub fn tx_time_us(bytes: u32, bandwidth_mbps: f64) -> u64 {
    debug_assert!(bandwidth_mbps > 0.0);
    (((bytes as f64) * 8.0 / bandwidth_mbps).ceil() as u64).max(1)
}

/// Per-direction link occupancy owned by the engine of the sending node.
///
/// A direction is identified by `(link, from_a)` where `from_a` is true for
/// transmissions from the link's `a` endpoint. Because a node's outgoing
/// transmissions are only ever scheduled by the engine that owns the node,
/// each direction's state has exactly one writer and needs no locking.
#[derive(Debug, Default)]
pub struct LinkOccupancy {
    /// Busy-until time of `(link, from_a)` at index `2 * link + from_a` — key
    /// order, which `drain_all` relies on; 0 while unused, grown on demand.
    next_free_us: Vec<u64>,
}

/// Outcome of scheduling one packet onto a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transit {
    /// When serialization starts (after any queueing).
    pub depart_us: u64,
    /// When the packet fully arrives at the far end.
    pub arrive_us: u64,
}

impl LinkOccupancy {
    /// Creates empty occupancy state.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&mut self, (link, from_a): (LinkId, bool)) -> &mut u64 {
        let i = 2 * link.0 as usize + from_a as usize;
        if i >= self.next_free_us.len() {
            self.next_free_us.resize(i + 1, 0);
        }
        &mut self.next_free_us[i]
    }

    /// Schedules a packet of `bytes` onto `link` in direction `from_a` at
    /// time `now`; returns departure and arrival times and marks the
    /// direction busy until serialization completes (FIFO queueing).
    pub fn schedule(
        &mut self,
        link_id: LinkId,
        link: &Link,
        from_a: bool,
        now_us: u64,
        bytes: u32,
    ) -> Transit {
        let slot = self.slot((link_id, from_a));
        let depart = now_us.max(*slot);
        let tx = tx_time_us(bytes, link.bandwidth_mbps);
        *slot = depart + tx;
        Transit {
            depart_us: depart,
            arrive_us: depart + tx + link.latency_us,
        }
    }

    /// Clears all occupancy (between independent runs).
    pub fn reset(&mut self) {
        self.next_free_us.clear();
    }

    /// Removes and returns all occupancy entries (node migration hands the
    /// sending-side state to the node's new engine).
    pub fn drain_all(&mut self) -> Vec<((LinkId, bool), u64)> {
        let slots = self.next_free_us.iter_mut().enumerate();
        slots
            .filter(|(_, busy)| **busy > 0)
            .map(|(i, busy)| ((LinkId((i / 2) as u32), i % 2 == 1), std::mem::take(busy)))
            .collect()
    }

    /// Inserts an occupancy entry, keeping the later busy-until time if the
    /// direction already exists.
    pub fn insert(&mut self, key: (LinkId, bool), busy_until_us: u64) {
        let slot = self.slot(key);
        *slot = (*slot).max(busy_until_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::Link;

    fn link() -> Link {
        Link {
            a: 0,
            b: 1,
            bandwidth_mbps: 12.0,
            latency_us: 100,
        }
    }

    #[test]
    fn tx_time_is_bits_over_mbps() {
        // 1500 B = 12000 bits at 12 Mbps = 1000 µs.
        assert_eq!(tx_time_us(1500, 12.0), 1000);
        assert_eq!(tx_time_us(1, 1000.0), 1);
        assert_eq!(tx_time_us(1500, 100_000.0), 1);
    }

    #[test]
    fn idle_link_departs_immediately() {
        let mut occ = LinkOccupancy::new();
        let t = occ.schedule(LinkId(0), &link(), true, 50, 1500);
        assert_eq!(t.depart_us, 50);
        assert_eq!(t.arrive_us, 50 + 1000 + 100);
    }

    #[test]
    fn back_to_back_packets_queue_fifo() {
        let mut occ = LinkOccupancy::new();
        let t1 = occ.schedule(LinkId(0), &link(), true, 0, 1500);
        let t2 = occ.schedule(LinkId(0), &link(), true, 0, 1500);
        assert_eq!(t1.depart_us, 0);
        assert_eq!(t2.depart_us, 1000, "second packet waits for serialization");
        assert_eq!(t2.arrive_us, 2000 + 100);
    }

    #[test]
    fn directions_are_independent() {
        let mut occ = LinkOccupancy::new();
        occ.schedule(LinkId(0), &link(), true, 0, 1500);
        let rev = occ.schedule(LinkId(0), &link(), false, 0, 1500);
        assert_eq!(rev.depart_us, 0, "full duplex: reverse direction is free");
    }

    #[test]
    fn different_links_are_independent() {
        let mut occ = LinkOccupancy::new();
        occ.schedule(LinkId(0), &link(), true, 0, 1500);
        let other = occ.schedule(LinkId(1), &link(), true, 0, 1500);
        assert_eq!(other.depart_us, 0);
    }

    #[test]
    fn drain_yields_used_directions_in_key_order_and_clears_them() {
        let mut occ = LinkOccupancy::new();
        occ.schedule(LinkId(3), &link(), true, 0, 1500);
        occ.schedule(LinkId(3), &link(), false, 7, 1500);
        occ.insert((LinkId(1), true), 40);
        occ.insert((LinkId(1), true), 30);
        assert_eq!(
            occ.drain_all(),
            vec![
                ((LinkId(1), true), 40),
                ((LinkId(3), false), 1007),
                ((LinkId(3), true), 1000),
            ]
        );
        assert!(occ.drain_all().is_empty());
        let t = occ.schedule(LinkId(3), &link(), true, 0, 1500);
        assert_eq!(t.depart_us, 0, "a drained direction is idle again");
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut occ = LinkOccupancy::new();
        occ.schedule(LinkId(0), &link(), true, 0, 1500);
        occ.reset();
        let t = occ.schedule(LinkId(0), &link(), true, 0, 1500);
        assert_eq!(t.depart_us, 0);
    }
}
