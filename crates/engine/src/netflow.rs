//! NetFlow-style traffic profiling (§3.3).
//!
//! "We implement the Cisco NetFlow-like function on each emulated router.
//! This functionality is used to record every traffic flow on each router
//! to a local file. The dump files record the average bandwidth and
//! duration of every flow on every router."
//!
//! Here each engine keeps its routers' flow tables in memory; dumps are
//! merged into a single sorted record list at the end of the run.

use crate::event::Packet;
use massf_topology::NodeId;
use std::collections::BTreeMap;

/// One flow record at one router — a NetFlow dump line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// The observing router.
    pub router: NodeId,
    /// Flow index (maps back to the generating `FlowSpec`).
    pub flow: u32,
    /// Flow source host.
    pub src: NodeId,
    /// Flow destination host.
    pub dst: NodeId,
    /// Packets of this flow seen at this router.
    pub packets: u64,
    /// Bytes of this flow seen at this router.
    pub bytes: u64,
    /// First sighting (µs).
    pub first_us: u64,
    /// Last sighting (µs).
    pub last_us: u64,
}

/// A cell no packet has come through yet. Not a flow: a schedule of 2³² − 1
/// flows does not fit in memory.
const NO_FLOW: u32 = u32::MAX;

/// Per-engine NetFlow collector.
///
/// A sighting names the *lane* the packet is in (the engine's
/// `(route, direction, hop)` index, DESIGN.md §13), and a lane is one router
/// of one path: its cell remembers the flow that last came through and where
/// that flow's record at this router is, so a packet that follows one of its
/// own flow — nearly all do — updates the record without a search. Anything
/// else (a first sighting, an ACK that reaches the router through the
/// reverse lane, flows of one host pair interleaving) is found through the
/// ordered `(router, flow)` index, which is also the dump order. The cell is
/// a shortcut into that index, not a second store: a stale one (the router
/// migrated away and back) still points at this engine's record of
/// `(router, flow)`, because records are never removed.
#[derive(Debug, Default)]
pub struct NetFlowCollector {
    /// The records, in first-sighting order.
    records: Vec<FlowRecord>,
    // BTreeMap, not a hash map: the iteration order in the dumps is then the
    // (router, flow) sort the dump format promises, with no hasher in the
    // loop (srclint SA001).
    slots: BTreeMap<(NodeId, u32), u32>,
    /// Per lane, the `(flow, slot in records)` last recorded through it.
    cells: Vec<(u32, u32)>,
    enabled: bool,
}

impl NetFlowCollector {
    /// Creates a collector; a disabled collector records nothing (profiling
    /// is only turned on for PROFILE's initial run).
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a packet sighting at `router`, reached through `lane`. A lane
    /// must always name the same router.
    #[inline]
    pub fn record(&mut self, lane: usize, router: NodeId, pkt: &Packet, now_us: u64) {
        if !self.enabled {
            return;
        }
        let slot = match self.cells.get(lane) {
            Some(&(flow, slot)) if flow == pkt.flow => slot,
            _ => self.find_slot(lane, router, pkt, now_us),
        };
        let rec = &mut self.records[slot as usize];
        debug_assert_eq!((rec.router, rec.flow), (router, pkt.flow), "lane {lane}");
        rec.packets += 1;
        rec.bytes += pkt.bytes as u64;
        rec.first_us = rec.first_us.min(now_us);
        rec.last_us = rec.last_us.max(now_us);
    }

    /// The slot of `(router, pkt.flow)` through the index, opening the
    /// record on a first sighting; `lane`'s cell then points at it.
    fn find_slot(&mut self, lane: usize, router: NodeId, pkt: &Packet, now_us: u64) -> u32 {
        let fresh = self.records.len() as u32;
        let slot = *self.slots.entry((router, pkt.flow)).or_insert(fresh);
        if slot == fresh {
            self.records.push(FlowRecord {
                router,
                flow: pkt.flow,
                src: pkt.src,
                dst: pkt.dst,
                packets: 0,
                bytes: 0,
                first_us: now_us,
                last_us: now_us,
            });
        }
        if self.cells.len() <= lane {
            self.cells.resize(lane + 1, (NO_FLOW, 0));
        }
        self.cells[lane] = (pkt.flow, slot);
        slot
    }

    /// Appends the records accumulated so far to `out`, in `(router, flow)`
    /// order.
    pub fn dump_into(&self, out: &mut Vec<FlowRecord>) {
        out.extend(
            self.slots
                .values()
                .map(|&s| self.records[s as usize].clone()),
        );
    }
}

/// One sorted dump of several engines' collectors ("parsing the dump files
/// allows computation of the aggregated traffic on every router and link"),
/// built in one reserved vector: each collector's key-ordered run, then a
/// stable sort, so a key two engines hold keeps engine order.
pub fn merge_collectors<'a>(
    collectors: impl Iterator<Item = &'a NetFlowCollector> + Clone,
) -> Vec<FlowRecord> {
    let mut all = Vec::with_capacity(collectors.clone().map(|c| c.records.len()).sum());
    for c in collectors {
        c.dump_into(&mut all);
    }
    all.sort_by_key(|r| (r.router, r.flow));
    all
}

/// Combines duplicate `(router, flow)` keys in a sorted record list into
/// one record each (packets/bytes sum, sighting window widens). Live node
/// migration splits a router's observations across engines, so a merged
/// dump taken mid-run may carry the same key twice.
pub fn coalesce_records(records: &[FlowRecord]) -> Vec<FlowRecord> {
    let mut out: Vec<FlowRecord> = Vec::with_capacity(records.len());
    for r in records {
        match out.last_mut() {
            Some(last) if (last.router, last.flow) == (r.router, r.flow) => {
                last.packets += r.packets;
                last.bytes += r.bytes;
                last.first_us = last.first_us.min(r.first_us);
                last.last_us = last.last_us.max(r.last_us);
            }
            _ => out.push(r.clone()),
        }
    }
    out
}

/// The traffic of one epoch: the per-key delta between two *cumulative*
/// snapshots (both sorted by `(router, flow)`, as [`merge_collectors`]
/// produces; duplicate keys from migrated nodes are coalesced first).
///
/// The collector accumulates from emulation start, so an epoch's own
/// traffic is `cur − prev` per `(router, flow)` key. Keys whose packet
/// count did not grow are dropped — they carried nothing this epoch. For
/// a key already present in `prev`, the delta's `first_us` is `prev`'s
/// `last_us` (the flow was mid-flight at the boundary); a new key keeps
/// its own `first_us`. Both inputs are functions of virtual time only, so
/// the slice is identical however the epoch was executed.
pub fn epoch_slice(prev: &[FlowRecord], cur: &[FlowRecord]) -> Vec<FlowRecord> {
    let (prev, cur) = (coalesce_records(prev), coalesce_records(cur));
    let mut out = Vec::new();
    let mut pi = 0usize;
    for c in &cur {
        while pi < prev.len() && (prev[pi].router, prev[pi].flow) < (c.router, c.flow) {
            pi += 1;
        }
        let base = (pi < prev.len() && (prev[pi].router, prev[pi].flow) == (c.router, c.flow))
            .then(|| &prev[pi]);
        let (packets0, bytes0, first) = match base {
            Some(p) => (p.packets, p.bytes, p.last_us),
            None => (0, 0, c.first_us),
        };
        debug_assert!(c.packets >= packets0, "cumulative snapshots only grow");
        if c.packets > packets0 {
            out.push(FlowRecord {
                first_us: first,
                last_us: c.last_us,
                packets: c.packets - packets0,
                bytes: c.bytes - bytes0,
                ..*c
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ACK_BYTES;
    use proptest::prelude::*;

    fn pkt(flow: u32, bytes: u32) -> Packet {
        Packet {
            flow,
            src: 10,
            dst: 20,
            bytes,
        }
    }

    /// One collector's records so far, in `(router, flow)` order.
    fn dump(c: &NetFlowCollector) -> Vec<FlowRecord> {
        merge_collectors(std::iter::once(c))
    }

    /// The reference merge: every dump's records in one list, sorted by
    /// `(router, flow)`.
    fn merge_dumps(dumps: Vec<Vec<FlowRecord>>) -> Vec<FlowRecord> {
        let mut all: Vec<FlowRecord> = dumps.into_iter().flatten().collect();
        all.sort_by_key(|r| (r.router, r.flow));
        all
    }

    #[test]
    fn aggregates_per_flow_per_router() {
        let mut c = NetFlowCollector::new(true);
        c.record(5, 5, &pkt(0, 1500), 100);
        c.record(5, 5, &pkt(0, 1500), 300);
        c.record(5, 5, &pkt(1, 500), 200);
        c.record(6, 6, &pkt(0, 1500), 400);
        let recs = dump(&c);
        assert_eq!(recs.len(), 3);
        let r = &recs[0];
        assert_eq!((r.router, r.flow, r.packets, r.bytes), (5, 0, 2, 3000));
        assert_eq!((r.first_us, r.last_us), (100, 300));
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = NetFlowCollector::new(false);
        c.record(5, 5, &pkt(0, 1500), 100);
        assert!(dump(&c).is_empty());
    }

    #[test]
    fn epoch_slice_is_the_per_key_delta() {
        let mut c = NetFlowCollector::new(true);
        c.record(5, 5, &pkt(0, 1500), 100);
        c.record(5, 5, &pkt(1, 500), 150);
        let prev = dump(&c);
        c.record(5, 5, &pkt(0, 1500), 400);
        c.record(6, 6, &pkt(0, 1500), 500);
        let cur = dump(&c);

        let delta = epoch_slice(&prev, &cur);
        // (5,1) saw no new packets and is dropped; (5,0) grew by one
        // packet; (6,0) is entirely new.
        assert_eq!(delta.len(), 2);
        assert_eq!(
            (
                delta[0].router,
                delta[0].flow,
                delta[0].packets,
                delta[0].bytes
            ),
            (5, 0, 1, 1500)
        );
        // Continuing key: the epoch starts where the previous snapshot
        // last saw the flow.
        assert_eq!((delta[0].first_us, delta[0].last_us), (100, 400));
        // New key keeps its own first sighting.
        assert_eq!(
            (delta[1].router, delta[1].packets, delta[1].first_us),
            (6, 1, 500)
        );
    }

    #[test]
    fn epoch_slices_sum_back_to_the_cumulative_dump() {
        let mut c = NetFlowCollector::new(true);
        let mut boundaries = Vec::new();
        for t in 0..30u64 {
            c.record(
                (t % 3) as usize,
                (t % 3) as NodeId,
                &pkt((t % 2) as u32, 1000),
                t * 10,
            );
            if t % 7 == 6 {
                boundaries.push(dump(&c));
            }
        }
        boundaries.push(dump(&c));
        let mut total = 0u64;
        let mut prev: Vec<FlowRecord> = Vec::new();
        for b in &boundaries {
            total += epoch_slice(&prev, b).iter().map(|r| r.packets).sum::<u64>();
            prev = b.clone();
        }
        let cumulative: u64 = dump(&c).iter().map(|r| r.packets).sum();
        assert_eq!(total, cumulative, "deltas partition the cumulative count");
    }

    #[test]
    fn coalesce_merges_split_observations() {
        // One router's flow observed on two engines (post-migration dump).
        let rec = |packets, first, last| FlowRecord {
            router: 4,
            flow: 2,
            src: 0,
            dst: 9,
            packets,
            bytes: packets * 1000,
            first_us: first,
            last_us: last,
        };
        let merged = merge_dumps(vec![vec![rec(3, 100, 400)], vec![rec(2, 500, 900)]]);
        let co = coalesce_records(&merged);
        assert_eq!(co.len(), 1);
        assert_eq!((co[0].packets, co[0].bytes), (5, 5000));
        assert_eq!((co[0].first_us, co[0].last_us), (100, 900));
        // epoch_slice over split snapshots sees the combined count.
        let delta = epoch_slice(&[rec(3, 100, 400)], &merged);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].packets, 2);
    }

    #[test]
    fn epoch_slice_from_empty_prev_is_identity() {
        let mut c = NetFlowCollector::new(true);
        c.record(5, 5, &pkt(0, 1500), 100);
        c.record(6, 6, &pkt(1, 700), 200);
        let cur = dump(&c);
        assert_eq!(epoch_slice(&[], &cur), cur);
        assert!(epoch_slice(&cur, &cur).is_empty(), "quiet epoch is empty");
    }

    proptest! {
        /// The collector against a plain ordered map. Lanes `l`, `l + 4` and
        /// `l + 8` all cross router `l % 4`, so one flow's data and ACKs
        /// reach a router through different lanes and several flows share a
        /// lane; the routers change hands between two engines as the run
        /// goes, so a lane's cell goes stale and is used again. Live dumps
        /// at every hand-over and the final dumps are equal element for
        /// element, each engine's and the merged one.
        #[test]
        fn collector_matches_an_ordered_map(
            sightings in prop::collection::vec(
                (0usize..12, 0u32..5, prop::bool::ANY, 1u32..1500, 0u64..5_000, 0u8..12),
                1..300,
            )
        ) {
            let mut engines = [NetFlowCollector::new(true), NetFlowCollector::new(true)];
            let mut models: [BTreeMap<(NodeId, u32), FlowRecord>; 2] = Default::default();
            let merged = |models: &[BTreeMap<(NodeId, u32), FlowRecord>; 2]| {
                merge_dumps(models.iter().map(|m| m.values().cloned().collect()).collect())
            };
            let mut epoch = 0;
            for (lane, flow, ack, bytes, now_us, remap) in sightings {
                if remap == 0 {
                    epoch += 1;
                    for (engine, model) in engines.iter().zip(&models) {
                        let want: Vec<FlowRecord> = model.values().cloned().collect();
                        prop_assert_eq!(dump(engine), want);
                    }
                    prop_assert_eq!(merge_collectors(engines.iter()), merged(&models));
                }
                let router = (lane % 4) as NodeId;
                let owner = (router as usize + epoch) % 2;
                let (src, dst) = (10 + flow, 20 + flow);
                let pkt = if ack {
                    Packet { flow, src: dst, dst: src, bytes: ACK_BYTES }
                } else {
                    Packet { flow, src, dst, bytes }
                };
                engines[owner].record(lane, router, &pkt, now_us);
                let rec = models[owner].entry((router, flow)).or_insert(FlowRecord {
                    router,
                    flow,
                    src: pkt.src,
                    dst: pkt.dst,
                    packets: 0,
                    bytes: 0,
                    first_us: now_us,
                    last_us: now_us,
                });
                rec.packets += 1;
                rec.bytes += pkt.bytes as u64;
                rec.first_us = rec.first_us.min(now_us);
                rec.last_us = rec.last_us.max(now_us);
            }
            prop_assert_eq!(merge_collectors(engines.iter()), merged(&models));
            for (engine, model) in engines.iter().zip(models) {
                let want: Vec<FlowRecord> = model.into_values().collect();
                prop_assert_eq!(dump(engine), want);
            }
        }
    }
}
