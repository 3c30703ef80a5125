//! Link transmission modeling: store-and-forward serialization plus
//! propagation, with per-direction busy tracking. A link direction is one
//! index, `2·link + from_a` ([`dir_index`]): a [`Directions`] row, a
//! [`LinkOccupancy`] slot, and what an engine's pins hold.

use massf_routing::RoutingTables;
use massf_topology::{Link, LinkId, Network, NodeId};
use massf_traffic::MTU_BYTES;

/// Serialization time of `bytes` at `bandwidth_mbps`, in whole microseconds
/// (≥ 1). `bits / Mbps` is exactly microseconds.
#[inline]
pub fn tx_time_us(bytes: u32, bandwidth_mbps: f64) -> u64 {
    debug_assert!(bandwidth_mbps > 0.0);
    (((bytes as f64) * 8.0 / bandwidth_mbps).ceil() as u64).max(1)
}

/// A pin no packet has set yet; [`Directions::of`] keeps every direction
/// index below it.
pub const UNPINNED: u32 = u32::MAX - 1;

/// The pin of a route with no next link (unreachable, or `src == dst`).
pub const NO_ROUTE: u32 = RoutingTables::NO_ROUTE.0;

/// The direction of `link` that leaves its `a` end (`from_a`) or its `b` end.
#[inline]
pub fn dir_index(link: LinkId, from_a: bool) -> u32 {
    2 * link.0 + from_a as u32
}

/// One link direction, as forwarding reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Direction {
    /// The node the direction leads to.
    pub to: NodeId,
    /// Propagation latency in microseconds.
    pub latency_us: u64,
    /// `tx_time_us(MTU_BYTES, bandwidth_mbps)`: most packets are MTU-sized.
    pub mtu_tx_us: u64,
    /// Capacity in megabits per second.
    pub bandwidth_mbps: f64,
}

/// Every link direction of a network, at its [`dir_index`]; built once per
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct Directions(Vec<Direction>);

impl Directions {
    /// The direction table of `net`.
    ///
    /// # Panics
    /// Panics when a direction index would reach [`UNPINNED`] or [`NO_ROUTE`].
    pub fn of(net: &Network) -> Self {
        // The highest index, `2·links − 1`, must stay below `UNPINNED`.
        let fit = 2 * net.links().len() as u64 <= UNPINNED as u64;
        assert!(fit, "direction indices collide with the pin marks");
        let toward = |to, l: &Link| Direction {
            to,
            latency_us: l.latency_us,
            mtu_tx_us: tx_time_us(MTU_BYTES as u32, l.bandwidth_mbps),
            bandwidth_mbps: l.bandwidth_mbps,
        };
        let both = |l: &Link| [toward(l.a, l), toward(l.b, l)];
        Self(net.links().iter().flat_map(both).collect())
    }

    /// The direction at `dir`.
    #[inline]
    pub fn get(&self, dir: u32) -> &Direction {
        &self.0[dir as usize]
    }
}

/// Per-direction link occupancy owned by the engine of the sending node.
///
/// A node's outgoing transmissions are only ever scheduled by the engine
/// that owns the node, so each direction's state has exactly one writer and
/// needs no locking.
#[derive(Debug, Default)]
pub struct LinkOccupancy {
    /// Busy-until time of each direction at its index; 0 while unused,
    /// grown on demand.
    next_free_us: Vec<u64>,
}

impl LinkOccupancy {
    #[inline]
    fn slot(&mut self, dir: u32) -> &mut u64 {
        let i = dir as usize;
        if i >= self.next_free_us.len() {
            self.next_free_us.resize(i + 1, 0);
        }
        &mut self.next_free_us[i]
    }

    /// Schedules a packet of `bytes` onto direction `dir` (row `d`) at
    /// `now_us` behind the direction's earlier packets (FIFO); returns its
    /// arrival time at the far end. Only a non-MTU size computes `tx_time_us`.
    #[inline]
    pub fn schedule(&mut self, dir: u32, d: &Direction, now_us: u64, bytes: u32) -> u64 {
        let tx_us = if bytes as u64 == MTU_BYTES {
            d.mtu_tx_us
        } else {
            tx_time_us(bytes, d.bandwidth_mbps)
        };
        let slot = self.slot(dir);
        *slot = now_us.max(*slot) + tx_us;
        *slot + d.latency_us
    }

    /// Removes and returns the busy-until time of every used direction
    /// `pred` selects, in direction order (node migration hands the sending
    /// side's state to the node's new engine).
    pub fn take_if(&mut self, mut pred: impl FnMut(u32) -> bool) -> Vec<(u32, u64)> {
        let slots = self.next_free_us.iter_mut().zip(0..);
        slots
            .filter(|(busy, dir)| **busy > 0 && pred(*dir))
            .map(|(busy, dir)| (dir, std::mem::take(busy)))
            .collect()
    }

    /// Installs a busy-until time for `dir`, keeping the later one if the
    /// direction is already busy.
    pub fn insert(&mut self, dir: u32, busy_until_us: u64) {
        let slot = self.slot(dir);
        *slot = (*slot).max(busy_until_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::{brite, campus::campus, teragrid::teragrid};

    /// A 12 Mbps direction with 100 µs of latency.
    const DIR: Direction = Direction {
        to: 1,
        latency_us: 100,
        mtu_tx_us: 1000,
        bandwidth_mbps: 12.0,
    };

    /// Schedules onto `link`, sent from its `a` end when `from_a`; every
    /// link is [`DIR`]. Returns the arrival time.
    fn send(occ: &mut LinkOccupancy, link: u32, from_a: bool, now_us: u64, bytes: u32) -> u64 {
        occ.schedule(dir_index(LinkId(link), from_a), &DIR, now_us, bytes)
    }

    #[test]
    fn tx_time_is_bits_over_mbps() {
        // 1500 B = 12000 bits at 12 Mbps = 1000 µs.
        assert_eq!(tx_time_us(1500, 12.0), 1000);
        assert_eq!(tx_time_us(1, 1000.0), 1);
        assert_eq!(tx_time_us(1500, 100_000.0), 1);
    }

    #[test]
    fn the_direction_table_is_the_links_read_from_each_end() {
        let brite = brite::generate(&brite::BriteConfig::paper_brite());
        for net in [campus(), teragrid(), brite] {
            let dirs = Directions::of(&net);
            for (i, l) in net.links().iter().enumerate() {
                for (sender, from_a) in [(l.a, true), (l.b, false)] {
                    let dir = dir_index(LinkId(i as u32), from_a);
                    let d = dirs.get(dir);
                    assert_eq!(d.to, l.opposite(sender));
                    assert_eq!(dirs.get(dir ^ 1).to, sender);
                    assert_eq!(d.latency_us, l.latency_us);
                    assert_eq!(d.bandwidth_mbps, l.bandwidth_mbps);
                    let mtu = MTU_BYTES as u32;
                    assert_eq!(d.mtu_tx_us, tx_time_us(mtu, l.bandwidth_mbps));
                    // From the table or computed, every size costs the same.
                    for bytes in [1, 40, 1499, mtu, 1501] {
                        let arrive = LinkOccupancy::default().schedule(dir, d, 0, bytes);
                        let tx_us = tx_time_us(bytes, l.bandwidth_mbps);
                        assert_eq!(arrive, tx_us + l.latency_us);
                    }
                }
            }
        }
    }

    #[test]
    fn the_table_bound_is_exactly_where_directions_reach_the_pin_marks() {
        // `Directions::of` takes at most `UNPINNED / 2` links: the last
        // direction of one more would be `NO_ROUTE`.
        let most = UNPINNED / 2;
        assert_eq!(dir_index(LinkId(most - 1), true), UNPINNED - 1);
        assert_eq!(dir_index(LinkId(most), false), UNPINNED);
        assert_eq!(dir_index(LinkId(most), true), NO_ROUTE);
    }

    #[test]
    fn idle_link_departs_immediately() {
        let mut occ = LinkOccupancy::default();
        assert_eq!(send(&mut occ, 0, true, 50, 1500), 50 + 1000 + 100);
    }

    #[test]
    fn back_to_back_packets_queue_fifo() {
        let mut occ = LinkOccupancy::default();
        assert_eq!(send(&mut occ, 0, true, 0, 1500), 1000 + 100);
        let second = send(&mut occ, 0, true, 0, 1500);
        assert_eq!(second, 2000 + 100, "second packet waits for serialization");
    }

    #[test]
    fn directions_are_independent() {
        let mut occ = LinkOccupancy::default();
        send(&mut occ, 0, true, 0, 1500);
        let rev = send(&mut occ, 0, false, 0, 1500);
        assert_eq!(rev, 1000 + 100, "full duplex: reverse direction is free");
    }

    #[test]
    fn different_links_are_independent() {
        let mut occ = LinkOccupancy::default();
        send(&mut occ, 0, true, 0, 1500);
        assert_eq!(send(&mut occ, 1, true, 0, 1500), 1000 + 100);
    }

    #[test]
    fn drain_yields_used_directions_in_order_and_clears_them() {
        let mut occ = LinkOccupancy::default();
        send(&mut occ, 3, true, 0, 1500);
        send(&mut occ, 3, false, 7, 1500);
        occ.insert(dir_index(LinkId(1), true), 40);
        occ.insert(dir_index(LinkId(1), true), 30);
        assert_eq!(occ.take_if(|dir| dir != 3), vec![(6, 1007), (7, 1000)]);
        assert_eq!(occ.take_if(|_| true), vec![(3, 40)]);
        assert!(occ.take_if(|_| true).is_empty());
        let t = send(&mut occ, 3, true, 0, 1500);
        assert_eq!(t, 1000 + 100, "a drained direction is idle again");
    }
}
