//! NetFlow-style traffic profiling (§3.3).
//!
//! "We implement the Cisco NetFlow-like function on each emulated router.
//! This functionality is used to record every traffic flow on each router
//! to a local file. The dump files record the average bandwidth and
//! duration of every flow on every router."
//!
//! Here each engine keeps its routers' flow cache in memory and exports
//! it as one `(router, flow)`-sorted dump merged across engines: at the
//! end of the run, or at every epoch slice of a stepped one, which also
//! flushes the cache — NetFlow's active timeout is then the epoch, and a
//! collector never holds more than one epoch's records.

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
    /// First sighting since the cache was last flushed (µs).
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
/// `(router, flow)`, because records leave only by [`flush`](Self::flush),
/// which resets every cell.
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
    /// must always name the same router. `ends` gives the record's
    /// `(src, dst)`, and is asked only when this sighting opens the record.
    #[inline]
    pub fn record(
        &mut self,
        lane: usize,
        router: NodeId,
        pkt: &Packet,
        now_us: u64,
        ends: impl FnOnce() -> (NodeId, NodeId),
    ) {
        if !self.enabled {
            return;
        }
        let slot = match self.cells.get(lane) {
            Some(&(flow, slot)) if flow == pkt.flow => slot,
            _ => self.find_slot(lane, router, pkt.flow, now_us, ends),
        };
        let rec = &mut self.records[slot as usize];
        debug_assert_eq!((rec.router, rec.flow), (router, pkt.flow), "lane {lane}");
        rec.packets += 1;
        rec.bytes += pkt.bytes as u64;
        rec.first_us = rec.first_us.min(now_us);
        rec.last_us = rec.last_us.max(now_us);
    }

    /// The slot of `(router, flow)` through the index, opening the record
    /// on a first sighting; `lane`'s cell then points at it.
    fn find_slot(
        &mut self,
        lane: usize,
        router: NodeId,
        flow: u32,
        now_us: u64,
        ends: impl FnOnce() -> (NodeId, NodeId),
    ) -> u32 {
        let fresh = self.records.len() as u32;
        let slot = *self.slots.entry((router, flow)).or_insert(fresh);
        if slot == fresh {
            let (src, dst) = ends();
            self.records.push(FlowRecord {
                router,
                flow,
                src,
                dst,
                packets: 0,
                bytes: 0,
                first_us: now_us,
                last_us: now_us,
            });
        }
        if self.cells.len() <= lane {
            self.cells.resize(lane + 1, (NO_FLOW, 0));
        }
        self.cells[lane] = (flow, slot);
        slot
    }

    /// Forgets every record: the records, the index, and every lane's cell
    /// (which would otherwise name a slot the next epoch hands to another
    /// key). The vectors keep their capacity.
    pub fn flush(&mut self) {
        self.records.clear();
        self.slots.clear();
        self.cells.fill((NO_FLOW, 0));
    }
}

/// One sorted dump of several engines' collectors ("parsing the dump files
/// allows computation of the aggregated traffic on every router and link"),
/// built in one reserved vector: each collector's key-ordered run, then an
/// in-place sort and a fold of each key's records into one. Only a key whose
/// router migrated has more than one, one per engine that saw it; they
/// agree on the endpoints, which are a function of the key (DESIGN.md §15).
pub fn merge_collectors<'a>(
    collectors: impl Iterator<Item = &'a NetFlowCollector> + Clone,
) -> Vec<FlowRecord> {
    let mut all = Vec::with_capacity(collectors.clone().map(|c| c.records.len()).sum());
    for c in collectors {
        all.extend(c.slots.values().map(|&s| c.records[s as usize].clone()));
    }
    fold(all)
}

/// `all` sorted by `(router, flow)` with each key's records folded into
/// one: packets and bytes sum, the sighting window widens. The fold is
/// commutative, so an in-place (unstable) sort does: no scratch buffer.
pub(crate) fn fold(mut all: Vec<FlowRecord>) -> Vec<FlowRecord> {
    all.sort_unstable_by_key(|r| (r.router, r.flow));
    all.dedup_by(|later, kept| {
        let same = (later.router, later.flow) == (kept.router, kept.flow);
        if same {
            kept.packets += later.packets;
            kept.bytes += later.bytes;
            kept.first_us = kept.first_us.min(later.first_us);
            kept.last_us = kept.last_us.max(later.last_us);
        }
        same
    });
    all
}

/// The epoch slice as the cumulative collectors gave it before they were
/// flushed at every slice, kept as the oracle of the flush: the per-key
/// delta between two cumulative dumps, both as [`merge_collectors`] folds
/// them. A key whose packet count did not grow is dropped; a key already in
/// `prev` starts at `prev`'s last sighting (the flow was mid-flight at the
/// boundary), where the flush starts it at its first sighting in the epoch.
#[cfg(test)]
pub(crate) fn epoch_slice(prev: &[FlowRecord], cur: &[FlowRecord]) -> Vec<FlowRecord> {
    let mut out = Vec::new();
    let mut pi = 0usize;
    for c in cur {
        while pi < prev.len() && (prev[pi].router, prev[pi].flow) < (c.router, c.flow) {
            pi += 1;
        }
        let base = (pi < prev.len() && (prev[pi].router, prev[pi].flow) == (c.router, c.flow))
            .then(|| &prev[pi]);
        let (packets0, bytes0, first) = match base {
            Some(p) => (p.packets, p.bytes, p.last_us),
            None => (0, 0, c.first_us),
        };
        assert!(c.packets >= packets0, "cumulative dumps only grow");
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

    /// A sighting whose record, if it opens one, takes the packet's ends.
    fn see(c: &mut NetFlowCollector, lane: usize, router: NodeId, p: &Packet, now_us: u64) {
        c.record(lane, router, p, now_us, || (p.src, p.dst));
    }

    /// One collector's records so far, in `(router, flow)` order.
    fn dump(c: &NetFlowCollector) -> Vec<FlowRecord> {
        merge_collectors(std::iter::once(c))
    }

    /// An epoch slice of one collector: its dump, then a flush.
    fn drain(c: &mut NetFlowCollector) -> Vec<FlowRecord> {
        let out = dump(c);
        c.flush();
        out
    }

    /// The reference merge: every dump's records in one list, sorted by
    /// `(router, flow)`, each key's records folded into one.
    fn merge_dumps(dumps: Vec<Vec<FlowRecord>>) -> Vec<FlowRecord> {
        let mut all: Vec<FlowRecord> = dumps.into_iter().flatten().collect();
        all.sort_by_key(|r| (r.router, r.flow));
        let mut out: Vec<FlowRecord> = Vec::new();
        for r in all {
            match out.last_mut() {
                Some(last) if (last.router, last.flow) == (r.router, r.flow) => {
                    last.packets += r.packets;
                    last.bytes += r.bytes;
                    last.first_us = last.first_us.min(r.first_us);
                    last.last_us = last.last_us.max(r.last_us);
                }
                _ => out.push(r),
            }
        }
        out
    }

    #[test]
    fn aggregates_per_flow_per_router() {
        let mut c = NetFlowCollector::new(true);
        see(&mut c, 5, 5, &pkt(0, 1500), 100);
        see(&mut c, 5, 5, &pkt(0, 1500), 300);
        see(&mut c, 5, 5, &pkt(1, 500), 200);
        see(&mut c, 6, 6, &pkt(0, 1500), 400);
        let recs = dump(&c);
        assert_eq!(recs.len(), 3);
        let r = &recs[0];
        assert_eq!((r.router, r.flow, r.packets, r.bytes), (5, 0, 2, 3000));
        assert_eq!((r.first_us, r.last_us), (100, 300));
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = NetFlowCollector::new(false);
        see(&mut c, 5, 5, &pkt(0, 1500), 100);
        assert!(dump(&c).is_empty());
    }

    #[test]
    fn the_ends_are_asked_once_per_record() {
        let mut c = NetFlowCollector::new(true);
        let mut asked = 0;
        for (lane, now_us) in [(5, 100), (5, 200), (9, 300)] {
            c.record(lane, 5, &pkt(0, 1500), now_us, || {
                asked += 1;
                (20, 10)
            });
        }
        assert_eq!(asked, 1, "the second lane finds the record in the index");
        assert_eq!((dump(&c)[0].src, dump(&c)[0].dst), (20, 10));
        c.flush();
        c.record(5, 5, &pkt(0, 1500), 400, || {
            asked += 1;
            (10, 20)
        });
        assert_eq!(asked, 2, "a flush opens every record anew");
    }

    /// Every sighting goes to both collectors; the first is drained at
    /// every slice, the second never.
    fn see_both(cs: &mut [NetFlowCollector; 2], lane: usize, p: Packet, now_us: u64) {
        for c in cs {
            see(c, lane, lane as NodeId, &p, now_us);
        }
    }

    #[test]
    fn a_drain_holds_the_epoch_since_the_last_one() {
        let mut cs = [NetFlowCollector::new(true), NetFlowCollector::new(true)];
        see_both(&mut cs, 5, pkt(0, 1500), 100);
        see_both(&mut cs, 5, pkt(1, 500), 150);
        let (first, prev) = (drain(&mut cs[0]), dump(&cs[1]));
        assert_eq!(first, prev, "the first drain is everything so far");
        see_both(&mut cs, 5, pkt(0, 1500), 400);
        see_both(&mut cs, 6, pkt(0, 1500), 500);
        let delta = drain(&mut cs[0]);
        // (5,1) saw no new packets and is absent; (5,0) grew by one packet
        // and starts at its first sighting this epoch; (6,0) is new.
        let seen: Vec<_> = delta
            .iter()
            .map(|r| (r.router, r.flow, r.packets, r.bytes, r.first_us, r.last_us))
            .collect();
        assert_eq!(seen, [(5, 0, 1, 1500, 400, 400), (6, 0, 1, 1500, 500, 500)]);
        // The oracle agrees but for the continuing key's start, which it
        // puts at the previous epoch's last sighting.
        let oracle = epoch_slice(&prev, &dump(&cs[1]));
        assert_eq!(oracle[0].first_us, 100);
        assert_eq!(oracle[1..], delta[1..]);
        let start = delta[0].first_us;
        assert_eq!(
            FlowRecord {
                first_us: start,
                ..oracle[0].clone()
            },
            delta[0]
        );
        assert!(drain(&mut cs[0]).is_empty(), "a quiet epoch is empty");
    }

    #[test]
    fn drains_fold_back_to_the_cumulative_dump() {
        let mut cs = [NetFlowCollector::new(true), NetFlowCollector::new(true)];
        let mut slices = Vec::new();
        for t in 0..30u64 {
            see_both(&mut cs, (t % 3) as usize, pkt((t % 2) as u32, 1000), t * 10);
            if t % 7 == 6 {
                slices.push(drain(&mut cs[0]));
            }
        }
        slices.push(drain(&mut cs[0]));
        assert_eq!(merge_dumps(slices), dump(&cs[1]));
    }

    #[test]
    fn the_merge_folds_a_key_split_across_engines() {
        // One router's flow observed on two engines (it migrated).
        let mut engines = [NetFlowCollector::new(true), NetFlowCollector::new(true)];
        for (engine, now_us) in [(0, 100), (0, 400), (1, 500), (0, 200), (1, 900)] {
            see(&mut engines[engine], 4, 4, &pkt(2, 1000), now_us);
        }
        let merged = merge_collectors(engines.iter());
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].packets, merged[0].bytes), (5, 5000));
        assert_eq!((merged[0].first_us, merged[0].last_us), (100, 900));
    }

    proptest! {
        /// The collector against a plain ordered map. Lanes `l`, `l + 4` and
        /// `l + 8` all cross router `l % 4`, so one flow's data and ACKs
        /// reach a router through different lanes and several flows share a
        /// lane; the routers change hands between two engines as the run
        /// goes, so a lane's cell goes stale and is used again, and some
        /// hand-overs flush both collectors, so a cell's slot names a
        /// record of an earlier epoch. Dumps at every hand-over and the
        /// final dumps are equal element for element, each engine's and the
        /// merged one.
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
                if remap <= 1 {
                    epoch += 1;
                    for (engine, model) in engines.iter().zip(&models) {
                        let want: Vec<FlowRecord> = model.values().cloned().collect();
                        prop_assert_eq!(dump(engine), want);
                    }
                    prop_assert_eq!(merge_collectors(engines.iter()), merged(&models));
                    if remap == 1 {
                        engines.iter_mut().for_each(NetFlowCollector::flush);
                        models.iter_mut().for_each(BTreeMap::clear);
                    }
                }
                let router = (lane % 4) as NodeId;
                let owner = (router as usize + epoch) % 2;
                let (src, dst) = (10 + flow, 20 + flow);
                let pkt = if ack {
                    Packet { flow, src: dst, dst: src, bytes: ACK_BYTES }
                } else {
                    Packet { flow, src, dst, bytes }
                };
                see(&mut engines[owner], lane, router, &pkt, now_us);
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
