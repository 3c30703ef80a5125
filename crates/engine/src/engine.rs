//! The per-partition sequential kernel: one simulation engine's event loop,
//! forwarding each packet over its route's pinned link direction.

use crate::counters::EngineCounters;
use crate::event::{Event, Packet};
use crate::link::{dir_index, Directions, LinkOccupancy, NO_ROUTE, UNPINNED};
use crate::netflow::NetFlowCollector;
use crate::sched::{EventQueue, SchedulerKind};
use massf_routing::{RoutingKind, RoutingTables};
use massf_topology::{Network, NodeId, NodeKind};
use massf_traffic::FlowSpec;

/// Immutable state shared by every engine during a run.
pub struct Shared<'a> {
    /// The virtual network.
    pub net: &'a Network,
    /// All-pairs routing tables.
    pub tables: &'a RoutingTables,
    /// The flow schedule (indexed by [`Event::flow`]).
    pub flows: &'a [FlowSpec],
    /// The schedule's routes ([`Routes::of`] `flows`, built once per run).
    pub routes: &'a Routes,
    /// The link directions ([`Directions::of`] `net`, built once per run).
    pub dirs: &'a Directions,
    /// Node → engine assignment.
    pub partition: &'a [u32],
}

/// The routes of a flow schedule: its distinct unordered `{src, dst}`
/// pairs, numbered in ascending pair order. Flows of one pair cross the
/// same links, so engines pin next links per route, not per flow
/// (thousands of ONOFF bursts share a few dozen pairs); a route has two
/// directions, so a request and its response, or a data packet and its
/// ACK, share one route too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routes {
    /// Route id of every flow.
    of_flow: Vec<u32>,
    /// The routes: `(lower, higher)` endpoint of each, ascending.
    ends: Vec<(NodeId, NodeId)>,
}

impl Routes {
    /// Numbers the routes of `flows` (sort + dedup, no hasher).
    pub fn of(flows: &[FlowSpec]) -> Self {
        let ends = |f: &FlowSpec| (f.src.min(f.dst), f.src.max(f.dst));
        let mut pairs: Vec<(NodeId, NodeId)> = flows.iter().map(ends).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let of_flow = flows
            .iter()
            .map(|f| pairs.partition_point(|&p| p < ends(f)) as u32)
            .collect();
        Self {
            of_flow,
            ends: pairs,
        }
    }

    /// Lanes per hop: two directions of every route.
    fn width(&self) -> usize {
        2 * self.ends.len()
    }

    /// The lane `pkt` is in after `hop` links: its `(route, direction,
    /// hop)` as one index, hop-major. Routes never change during a run
    /// (DESIGN.md §13), so a lane is one node of one path — it names the
    /// link the packet leaves over (an engine's pins) and, at a router, the
    /// NetFlow records of the flows that pass this way (the collector's
    /// cells).
    #[inline]
    fn lane(&self, pkt: &Packet, hop: u32) -> usize {
        let slot = 2 * self.of_flow[pkt.flow as usize] as usize + (pkt.src > pkt.dst) as usize;
        hop as usize * self.width() + slot
    }
}

/// Rows of pins an engine reserves on its first sighting: paths on the
/// shipped topologies stay under this many hops.
const PIN_ROWS: usize = 16;

/// A cross-engine event shipment.
#[derive(Debug, Clone, Copy)]
pub struct RemoteEvent {
    /// Destination engine.
    pub to_engine: u32,
    /// The event itself.
    pub event: Event,
}

/// One simulation engine: event queue, link occupancy for its nodes'
/// outgoing transmissions, counters, and NetFlow tables for its routers.
///
/// Engines sit side by side in one vector and neighbours can be dealt to
/// different worker threads, so each starts on a cache-line pair of its
/// own: with the hot words of two engines on one line, `bench_engine`'s
/// Campus row ran at 3.2 M events/s on two workers against 11.5 M aligned.
#[repr(align(128))]
pub struct Engine {
    /// This engine's id (partition label).
    pub id: u32,
    queue: EventQueue,
    /// The start cursor: first injections of this engine's flows that have
    /// not started, latest first (the next to start is last). They are
    /// pending events like the queue's, but they wait here, so the
    /// scheduler holds — and sizes its buckets on — in-flight events only,
    /// however many flows the schedule has.
    starts: Vec<Event>,
    links: LinkOccupancy,
    /// Kernel-event accounting.
    pub counters: EngineCounters,
    /// NetFlow collector for routers owned by this engine.
    pub netflow: NetFlowCollector,
    /// Outbox filled during a window, drained by the executor into a
    /// reusable buffer (the capacity survives across windows).
    outbox: Vec<RemoteEvent>,
    /// `pins[lane]` ([`Routes::lane`]): the link direction a packet of that
    /// route and direction leaves over after crossing `hop` links (or
    /// [`NO_ROUTE`]), [`UNPINNED`] until this engine first forwards one there.
    /// One row per hop, so it grows a handful of times and then never again.
    /// Exact because routes never change during a run (DESIGN.md §13), and
    /// filled only for hops this engine owns, so lazy tables stay sliced
    /// per engine.
    pins: Vec<u32>,
}

impl Engine {
    /// Creates engine `id` with the given virtual-time bucket width,
    /// NetFlow recording switch, and scheduler implementation.
    pub fn new(
        id: u32,
        counter_window_us: u64,
        netflow_enabled: bool,
        scheduler: SchedulerKind,
    ) -> Self {
        Self {
            id,
            queue: EventQueue::new(scheduler),
            starts: Vec::new(),
            links: LinkOccupancy::default(),
            counters: EngineCounters::new(counter_window_us),
            netflow: NetFlowCollector::new(netflow_enabled),
            outbox: Vec::new(),
            pins: Vec::new(),
        }
    }

    /// Takes over pending events: a flow's first injection (how a run is
    /// seeded, and what an unstarted flow is when its source migrates here)
    /// waits in the start cursor, anything else goes to the scheduler.
    pub fn adopt(&mut self, pending: impl IntoIterator<Item = Event>) {
        for ev in pending {
            if ev.is_injection() && ev.packet_no() == 0 {
                self.starts.push(ev);
            } else {
                self.queue.push(ev);
            }
        }
        self.starts.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Accepts an event shipped from another engine.
    pub fn enqueue(&mut self, event: Event) {
        self.queue.push(event);
    }

    /// Timestamp of the next pending event — the scheduler's head or the
    /// next flow start, whichever is earlier — or `None` when idle.
    pub fn next_time(&self) -> Option<u64> {
        let start = self.starts.last().map(|s| s.time_us);
        match (self.queue.next_time(), start) {
            (Some(queued), Some(start)) => Some(queued.min(start)),
            (queued, start) => queued.or(start),
        }
    }

    /// The scheduler: its counters and retained bytes. It holds every
    /// pending event but the flows still in the start cursor, so its depth
    /// does not count them.
    pub fn queue(&self) -> &EventQueue {
        &self.queue
    }

    /// Processes every event strictly below `lbts`; returns the number of
    /// kernel events handled. Cross-engine packets accumulate in the outbox.
    pub fn process_window(&mut self, lbts: u64, shared: &Shared<'_>) -> u64 {
        let before = self.counters.events;
        loop {
            // A flow starts when everything earlier has been popped and
            // nothing at its own instant has, so events are handled in the
            // order a queue seeded with every start would have popped them.
            let due = self.starts.last().map_or(lbts, |s| s.time_us.min(lbts));
            while let Some(ev) = self.queue.pop_below(due) {
                self.handle(ev, shared);
            }
            if due == lbts {
                break;
            }
            let start = self.starts.pop().expect("a start set `due`");
            if self.queue.next_time() == Some(due) {
                self.queue.push(start); // the scheduler breaks the tie
            } else {
                self.handle(start, shared);
            }
        }
        self.counters.events - before
    }

    /// Empties the outbox, keeping its capacity for the next window (the
    /// steady-state, allocation-free drain).
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, RemoteEvent> {
        self.outbox.drain(..)
    }

    /// Drains every pending event in ascending order, the first injections
    /// of unstarted flows included.
    pub fn drain_events(&mut self) -> Vec<Event> {
        let mut all = self.take_events(|_| true);
        all.sort_unstable();
        all
    }

    /// Takes the pending events at the nodes `at` selects, the first
    /// injections of their unstarted flows included (in no particular
    /// order): what follows those nodes when they migrate to another engine.
    pub fn take_events(&mut self, mut at: impl FnMut(NodeId) -> bool) -> Vec<Event> {
        let mut taken = self.queue.take_if(|ev| at(ev.node));
        taken.extend(self.starts.extract_if(.., |ev| at(ev.node)));
        taken
    }

    /// Takes the link occupancy of the directions `dir` selects,
    /// `(direction, busy until)` (migrated with the sending node so FIFO
    /// serialization order survives remapping).
    pub fn take_link_state(&mut self, dir: impl FnMut(u32) -> bool) -> Vec<(u32, u64)> {
        self.links.take_if(dir)
    }

    /// Installs a link-occupancy entry.
    pub fn insert_link_state(&mut self, dir: u32, busy_until_us: u64) {
        self.links.insert(dir, busy_until_us);
    }

    /// Number of remote events sent so far (monotone counter mirror).
    pub fn remote_sent(&self) -> u64 {
        self.counters.remote_sent
    }

    fn handle(&mut self, ev: Event, shared: &Shared<'_>) {
        self.counters.record_event(ev.time_us);
        let pkt = ev.packet(shared.flows);
        let f = &shared.flows[pkt.flow as usize];
        if ev.is_injection() {
            // Open-loop flows chain every injection; windowed flows only
            // chain the initial window — later packets are released by
            // returning ACKs (pure ACK-clocking, no per-flow state).
            let chain_limit = f.window.map(|w| w as u64).unwrap_or(f.packets);
            let next = ev.packet_no() + 1;
            if next < f.packets && next < chain_limit {
                let at = ev.time_us + f.packet_interval_us;
                self.queue.push(Event::injection(at, f.src, pkt.flow, next));
            }
            self.forward(ev, &pkt, shared);
            return;
        }
        if self.netflow.enabled() && shared.net.node(ev.node).kind == NodeKind::Router {
            let lane = shared.routes.lane(&pkt, ev.hop);
            // A record carries the flow's own ends wherever its forward
            // route crosses the router, as the first packet ever seen there
            // does; only an ACK that opens a record walks that route, so
            // once per key per epoch, without allocating.
            let ends = || {
                let mut forward = !ev.is_ack();
                if !forward {
                    let on = |node, _| forward |= node == ev.node;
                    shared.tables.for_each_hop(f.src, f.dst, on);
                }
                if forward {
                    (f.src, f.dst)
                } else {
                    (f.dst, f.src)
                }
            };
            self.netflow.record(lane, ev.node, &pkt, ev.time_us, ends);
        }
        if pkt.dst != ev.node {
            self.forward(ev, &pkt, shared);
        } else if ev.is_ack() {
            // ACK back at the sender: release the next window slot.
            if let Some(w) = f.window {
                let released = ev.packet_no() + w as u64;
                if released < f.packets {
                    let release = Event::injection(ev.time_us, ev.node, pkt.flow, released);
                    self.queue.push(release);
                }
            }
        } else {
            self.counters.record_delivery(ev.time_us - ev.injected_us);
            if f.window.is_some() {
                let ack = ev.ack();
                self.forward(ack, &ack.packet(shared.flows), shared);
            }
        }
    }

    /// The link direction `pkt` leaves `ev.node` over: the pin of its lane,
    /// [`filled`](Self::fill_pin) the first time a packet of the route
    /// gets here.
    #[inline]
    fn pinned_dir(&mut self, ev: &Event, pkt: &Packet, shared: &Shared<'_>) -> u32 {
        let lane = shared.routes.lane(pkt, ev.hop);
        match self.pins.get(lane) {
            Some(&dir) if dir != UNPINNED => dir,
            _ => self.fill_pin(lane, ev.node, pkt.dst, shared),
        }
    }

    /// Pins the direction from `node` toward `dst` at `lane`, growing
    /// the array to the lane's row first. Its `next_link_raw` is the
    /// emulation's only routing query, and it is always for an engine-owned
    /// source: under lazy tables each engine therefore materializes only
    /// its own slice of the rows (DESIGN.md §16). [`NO_ROUTE`] is pinned
    /// too, so an unreachable route is probed once.
    #[cold]
    fn fill_pin(&mut self, lane: usize, node: NodeId, dst: NodeId, shared: &Shared<'_>) -> u32 {
        let link = shared.tables.next_link_raw(node, dst);
        let dir = if link == RoutingTables::NO_ROUTE {
            NO_ROUTE
        } else {
            dir_index(link, shared.net.link(link).a == node)
        };
        let width = shared.routes.width();
        let rows = lane / width + 1;
        if self.pins.len() < rows * width {
            if self.pins.capacity() == 0 {
                // One allocation covers the usual path; longer ones double it.
                self.pins.reserve(PIN_ROWS.max(rows) * width);
            }
            self.pins.resize(rows * width, UNPINNED);
        }
        self.pins[lane] = dir;
        dir
    }

    /// Panics unless every filled pin is still the direction the tables
    /// name for its lane — the link at its hop of the path, left from the
    /// side the path reaches it on: pins — and the NetFlow cells that share
    /// their lanes — are exact only while routes do not change during a run
    /// (DESIGN.md §13). Eager tables only: asking a lazy table is a demand,
    /// which would materialize rows no packet asked for.
    pub fn assert_pins_hold(&self, shared: &Shared<'_>) {
        if shared.tables.kind() == RoutingKind::Lazy {
            return;
        }
        let width = shared.routes.width();
        let filled = self
            .pins
            .iter()
            .enumerate()
            .filter(|(_, &pin)| pin != UNPINNED);
        for (lane, &pin) in filled {
            let (hop, slot) = (lane / width, lane % width);
            let (lo, hi) = shared.routes.ends[slot / 2];
            let (src, dst) = if slot % 2 == 0 { (lo, hi) } else { (hi, lo) };
            let path = shared.tables.path_links(src, dst).unwrap_or_default();
            let dir = path.get(hop).map_or(NO_ROUTE, |&link| {
                let walk = path[..hop].iter().map(|&l| shared.net.link(l));
                let sender = walk.fold(src, |at, l| l.opposite(at));
                dir_index(link, shared.net.link(link).a == sender)
            });
            assert_eq!(
                dir, pin,
                "engine {}: stale pin, hop {hop} of {src} -> {dst}",
                self.id
            );
        }
    }

    /// Transmits the packet `ev` (whose flow says `pkt`) from `ev.node`
    /// toward its destination, producing the arrival event locally or in
    /// the outbox.
    fn forward(&mut self, ev: Event, pkt: &Packet, shared: &Shared<'_>) {
        debug_assert_eq!(
            shared.partition[ev.node as usize], self.id,
            "engine {} forwarded for node {} it does not own",
            self.id, ev.node
        );
        let dir = self.pinned_dir(&ev, pkt, shared);
        if dir == NO_ROUTE {
            // Unreachable destination (or src == dst): account and drop.
            self.counters.dropped += 1;
            return;
        }
        let d = shared.dirs.get(dir);
        let event = Event {
            time_us: self.links.schedule(dir, d, ev.time_us, pkt.bytes),
            node: d.to,
            hop: ev.hop + 1,
            ..ev
        };
        let owner = shared.partition[d.to as usize];
        if owner == self.id {
            self.queue.push(event);
        } else {
            if self.outbox.len() == self.outbox.capacity() {
                self.counters.reallocs += 1;
            }
            self.counters.remote_sent += 1;
            self.outbox.push(RemoteEvent {
                to_engine: owner,
                event,
            });
        }
    }
}

/// Size of packet `packet_no` within flow `f`: MTU-sized except the last,
/// which carries the remainder.
pub fn packet_bytes(f: &FlowSpec, packet_no: u64) -> u32 {
    let mtu = massf_traffic::MTU_BYTES;
    if f.packets == 1 {
        return f.bytes.min(u32::MAX as u64) as u32;
    }
    if packet_no + 1 < f.packets {
        mtu as u32
    } else {
        let rem = f.bytes.saturating_sub(mtu * (f.packets - 1));
        rem.clamp(1, mtu) as u32
    }
}

/// The conservative lookahead of a partition: the minimum latency among
/// links whose endpoints live on different engines (`u64::MAX / 4` when no
/// link is cut — a single engine never needs to synchronize).
pub fn lookahead_us(net: &Network, partition: &[u32]) -> u64 {
    let mut min = u64::MAX / 4;
    for l in net.links() {
        if partition[l.a as usize] != partition[l.b as usize] {
            min = min.min(l.latency_us);
        }
    }
    min.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::Network;

    fn net_line() -> Network {
        let mut net = Network::new();
        let h0 = net.add_host("h0", 0);
        let r = net.add_router("r", 0);
        let h1 = net.add_host("h1", 0);
        net.add_link(h0, r, 100.0, 10);
        net.add_link(r, h1, 100.0, 10);
        net
    }

    fn flow(src: NodeId, dst: NodeId, packets: u64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            start_us: 0,
            packets,
            bytes: packets * 1500,
            packet_interval_us: 200,
            window: None,
        }
    }

    /// One engine (id 0) seeded with flow 0 and run up to `lbts`; returns
    /// it with the number of events that window processed.
    fn engine_after(
        net: &Network,
        tables: &RoutingTables,
        flows: &[FlowSpec],
        partition: &[u32],
        netflow: bool,
        lbts: u64,
    ) -> (Engine, u64) {
        let routes = Routes::of(flows);
        let dirs = Directions::of(net);
        let shared = Shared {
            net,
            tables,
            flows,
            routes: &routes,
            dirs: &dirs,
            partition,
        };
        let mut e = Engine::new(0, 1_000_000, netflow, SchedulerKind::default());
        e.adopt([Event::injection(flows[0].start_us, flows[0].src, 0, 0)]);
        let n = e.process_window(lbts, &shared);
        (e, n)
    }

    #[test]
    fn single_engine_delivers_all_packets() {
        let net = net_line();
        let tables = RoutingTables::build(&net);
        let flows = vec![flow(0, 2, 5)];
        let partition = vec![0u32; 3];
        let (e, _) = engine_after(&net, &tables, &flows, &partition, true, u64::MAX);
        assert_eq!(e.counters.delivered, 5);
        assert_eq!(e.counters.dropped, 0);
        // Kernel events: 5 injections + 5 router arrivals + 5 host arrivals.
        assert_eq!(e.counters.events, 15);
        let recs = crate::netflow::merge_collectors(std::iter::once(&e.netflow));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].packets, 5);
        assert_eq!(recs[0].router, 1);
    }

    #[test]
    fn only_first_injections_wait_in_the_start_cursor() {
        let first = Event::injection(50, 0, 0, 0);
        let later = Event::injection(70, 0, 0, 3);
        let arrival = Event { hop: 1, ..first };
        let ack = Event {
            hop: 2,
            ..arrival.ack()
        };
        let mut e = Engine::new(0, 1_000_000, false, SchedulerKind::default());
        e.adopt([later, ack, first, arrival]);
        assert_eq!(e.starts, vec![first]);
        assert_eq!(e.queue.len(), 3);
    }

    #[test]
    fn latency_includes_tx_and_propagation() {
        let net = net_line();
        let tables = RoutingTables::build(&net);
        let flows = vec![flow(0, 2, 1)];
        let partition = vec![0u32; 3];
        let (e, _) = engine_after(&net, &tables, &flows, &partition, false, u64::MAX);
        // Two hops, each 1500 B at 100 Mbps = 120 µs tx + 10 µs latency.
        assert_eq!(e.counters.latency_sum_us, 2 * (120 + 10));
    }

    #[test]
    fn cross_partition_packet_goes_to_outbox() {
        let net = net_line();
        let tables = RoutingTables::build(&net);
        let flows = vec![flow(0, 2, 1)];
        let partition = vec![0u32, 0, 1];
        let (mut e, _) = engine_after(&net, &tables, &flows, &partition, false, u64::MAX);
        let out: Vec<RemoteEvent> = e.drain_outbox().collect();
        assert_eq!(e.drain_outbox().count(), 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_engine, 1);
        assert_eq!(out[0].event.node, 2);
        assert_eq!(e.remote_sent(), 1);
        assert_eq!(e.counters.delivered, 0, "delivery happens on engine 1");
    }

    #[test]
    fn window_boundary_respected() {
        let net = net_line();
        let tables = RoutingTables::build(&net);
        let flows = vec![flow(0, 2, 3)]; // injections at 0, 200, 400
        let partition = vec![0u32; 3];
        let (e, n) = engine_after(&net, &tables, &flows, &partition, false, 150);
        // Only the first injection is below 150 (its downstream arrivals
        // land at 130 and 260; the 130 one is also in-window).
        assert_eq!(n, 2);
        assert!(e.next_time().unwrap() >= 150);
    }

    #[test]
    fn unreachable_destination_is_dropped() {
        let mut net = net_line();
        let island = net.add_host("island", 0);
        let tables = RoutingTables::build(&net);
        let flows = vec![flow(0, island, 2)];
        let partition = vec![0u32; 4];
        let (e, _) = engine_after(&net, &tables, &flows, &partition, false, u64::MAX);
        assert_eq!(e.counters.dropped, 2);
        assert_eq!(e.counters.delivered, 0);
    }

    #[test]
    fn table_lookups_follow_routes_not_packets() {
        // Lazy tables count every lookup they answer. A leaf asks twice
        // (its own record, then its access router's row for reachability),
        // the router once: three for the route's two hops, however many
        // packets cross them.
        let net = net_line();
        let partition = vec![0u32; 3];
        let lookups_after = |packets: u64| {
            let tables = RoutingTables::build_lazy(&net);
            let flows = vec![flow(0, 2, packets)];
            let (e, _) = engine_after(&net, &tables, &flows, &partition, false, u64::MAX);
            assert_eq!(e.counters.delivered, packets);
            tables.lookups().expect("lazy tables")
        };
        assert_eq!(lookups_after(1), 3);
        assert_eq!(lookups_after(1_000), 3);
    }

    #[test]
    #[should_panic(expected = "stale pin")]
    fn a_pin_the_tables_no_longer_name_is_caught() {
        let net = net_line();
        let tables = RoutingTables::build(&net);
        let flows = vec![flow(0, 2, 1)];
        let partition = vec![0u32; 3];
        let (mut e, _) = engine_after(&net, &tables, &flows, &partition, false, u64::MAX);
        let routes = Routes::of(&flows);
        let dirs = Directions::of(&net);
        let shared = Shared {
            net: &net,
            tables: &tables,
            flows: &flows,
            routes: &routes,
            dirs: &dirs,
            partition: &partition,
        };
        e.assert_pins_hold(&shared); // both hops as the tables have them
        e.pins.swap(0, routes.width()); // hop 0 leaves over hop 1's link
        e.assert_pins_hold(&shared);
    }

    #[test]
    #[should_panic(expected = "stale pin, hop 1")]
    fn a_pin_on_the_right_link_from_the_wrong_side_is_caught() {
        let net = net_line();
        let tables = RoutingTables::build(&net);
        let flows = vec![flow(0, 2, 1)];
        let partition = vec![0u32; 3];
        let (mut e, _) = engine_after(&net, &tables, &flows, &partition, false, u64::MAX);
        let (routes, dirs) = (Routes::of(&flows), Directions::of(&net));
        let shared = Shared {
            net: &net,
            tables: &tables,
            flows: &flows,
            routes: &routes,
            dirs: &dirs,
            partition: &partition,
        };
        e.pins[routes.width()] ^= 1; // hop 1 leaves its link from h1's end
        e.assert_pins_hold(&shared);
    }

    #[test]
    fn flows_of_one_pair_share_a_route() {
        // {1, 4} twice, {0, 2} in both directions, {0, 3}.
        let flows = vec![
            flow(4, 1, 1),
            flow(0, 2, 1),
            flow(4, 1, 9),
            flow(2, 0, 1),
            flow(0, 3, 1),
        ];
        let routes = Routes::of(&flows);
        assert_eq!(routes.of_flow, vec![2, 0, 2, 0, 1]);
        assert_eq!(routes.ends, vec![(0, 2), (0, 3), (1, 4)]);
        assert_eq!(Routes::of(&[]).width(), 0);
    }

    #[test]
    fn packet_sizing_last_packet_carries_remainder() {
        let f = FlowSpec {
            src: 0,
            dst: 1,
            start_us: 0,
            packets: 3,
            bytes: 3200,
            packet_interval_us: 1,
            window: None,
        };
        assert_eq!(packet_bytes(&f, 0), 1500);
        assert_eq!(packet_bytes(&f, 1), 1500);
        assert_eq!(packet_bytes(&f, 2), 200);
        let single = FlowSpec {
            src: 0,
            dst: 1,
            start_us: 0,
            packets: 1,
            bytes: 300,
            packet_interval_us: 1,
            window: None,
        };
        assert_eq!(packet_bytes(&single, 0), 300);
    }

    #[test]
    fn lookahead_is_min_cut_latency() {
        let net = net_line();
        assert_eq!(lookahead_us(&net, &[0, 0, 0]), u64::MAX / 4);
        assert_eq!(lookahead_us(&net, &[0, 0, 1]), 10);
        assert_eq!(lookahead_us(&net, &[0, 1, 1]), 10);
    }
}
