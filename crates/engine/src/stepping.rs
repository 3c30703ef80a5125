//! A steppable emulation with live node migration — the substrate for the
//! paper's §6 future work: "Dynamic remapping the virtual network during
//! the emulation is the only solution. Such dynamic remapping is a major
//! challenge for distributed emulators like MaSSF."
//!
//! [`SteppableEmulation`] is the executor: all engines, the two shims,
//! and a [`ProtocolState`]. Every
//! [`run_until`](SteppableEmulation::run_until) advances
//! [`crate::exec::protocol_loop`] to a virtual-time bound in slices of
//! [`SLICE_ROUNDS`] rounds, so control returns to the caller at any
//! boundary while the windows, their accounting and their
//! `debug_assert!` invariants stay the protocol's own — this module
//! contains no window logic. A slice runs on the calling thread over
//! `SeqShim`, or — when the run has more than one worker and the
//! previous slice's windows were dense ([`DENSE_EVENTS_PER_ROUND`]) — on
//! the worker threads over `PoolShim`; which of the two ran a slice
//! changes nothing that is counted. Between steps the caller
//! may take NetFlow epoch slices and install a new node→engine
//! assignment; pending events and link-occupancy state migrate with their
//! nodes, and a fixed wall-clock charge ([`MIGRATION`]) models the
//! checkpoint/transfer cost of moving virtual nodes between physical
//! engines. [`crate::exec::run`] is this executor run in one step.

use crate::engine::{lookahead_us, Engine, Routes, Shared};
use crate::exec::{finalize, protocol_loop, seeded_engines, EmulationConfig, ProtocolState};
use crate::link::Directions;
use crate::netflow::{merge_collectors, FlowRecord};
use crate::report::EmulationReport;
use crate::shim::{PoolShim, SeqShim};
use massf_routing::RoutingTables;
use massf_topology::Network;
use massf_traffic::FlowSpec;

/// Wall-clock cost of one remapping operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Fixed cost per remap (repartitioning + barrier), in µs.
    pub fixed_us: f64,
    /// Cost per migrated virtual node (checkpoint + transfer + restore),
    /// in µs.
    pub per_node_us: f64,
}

/// The charge every [`SteppableEmulation::repartition`] makes: moving a
/// virtual router's state (routing table, queues) across 100 Mbps
/// Ethernet is on the order of milliseconds.
pub const MIGRATION: MigrationCost = MigrationCost {
    fixed_us: 20_000.0,
    per_node_us: 2_000.0,
};

impl MigrationCost {
    /// The stall one remap that moves `moved` nodes imposes on every
    /// engine: checkpoint, transfer, restore.
    pub fn stall_us(&self, moved: usize) -> f64 {
        self.fixed_us + moved as f64 * self.per_node_us
    }
}

/// Rounds per slice, the grain at which the executor re-decides between
/// the calling thread and the workers: starting the workers (tens of µs)
/// vanishes in a dense slice (tens of ms), and a run of a few thousand
/// rounds still spends most of them past the first, sequential, slice.
pub const SLICE_ROUNDS: u64 = 256;

/// Events per round over a slice from which the next slice runs on the
/// workers. A round costs them what a sequential round does not (one
/// barrier, a line per worker and the events that cross cores, the wait
/// for the fuller half of an uneven window) against 0.05 µs per event
/// split between them. Measured on 2 cores, CBR on the 200-router BRITE
/// at 8 engines, two workers ÷ calling thread, best of 3: 0.26× at 7
/// events per round, 0.39× at 28, 0.62× at 57, 0.77–0.88× at 114, 1.08×
/// at 141, 1.23–1.33× at 171, 1.17–1.20× at 223, 1.28× at 283, 1.24× at
/// 452. The crossover lies between 114 and 141, where the gate is.
pub const DENSE_EVENTS_PER_ROUND: u64 = 128;

/// An emulation that can be advanced in increments and remapped between
/// them. Fully deterministic at every worker count.
pub struct SteppableEmulation<'a> {
    net: &'a Network,
    tables: &'a RoutingTables,
    flows: &'a [FlowSpec],
    /// [`Routes::of`] `flows`.
    routes: Routes,
    /// [`Directions::of`] `net`.
    dirs: Directions,
    cfg: EmulationConfig,
    engines: Vec<Engine>,
    shim: SeqShim,
    /// Engine → worker, and the workers' shim (`None` at one worker).
    deal: Vec<usize>,
    pool: Option<PoolShim>,
    /// Events per round over the last slice, and the density from which
    /// the next one goes to the workers.
    density: u64,
    dense_from: u64,
    lookahead: u64,
    state: ProtocolState,
    /// Total virtual nodes migrated across all remaps.
    pub migrated_nodes: usize,
    /// Number of remap operations performed.
    pub remaps: usize,
}

impl<'a> SteppableEmulation<'a> {
    /// Creates the emulation and seeds all flow injections.
    pub fn new(
        net: &'a Network,
        tables: &'a RoutingTables,
        flows: &'a [FlowSpec],
        cfg: EmulationConfig,
    ) -> Self {
        let n = cfg.nengines;
        let workers = cfg.workers.clamp(1, n);
        let mut emu = Self {
            engines: seeded_engines(net, flows, &cfg),
            routes: Routes::of(flows),
            dirs: Directions::of(net),
            shim: SeqShim::new(n),
            deal: Vec::new(),
            pool: None,
            density: 0,
            dense_from: 0,
            lookahead: lookahead_us(net, &cfg.partition),
            state: ProtocolState::default(),
            net,
            tables,
            flows,
            cfg,
            migrated_nodes: 0,
            remaps: 0,
        };
        // Consecutive, near-equal groups: engine e of n on worker ⌊e·w/n⌋.
        let deal = (0..n).map(|e| e * workers / n).collect();
        emu.set_workers(deal, DENSE_EVENTS_PER_ROUND);
        emu
    }

    /// Replaces the deal (`deal[e]` is engine `e`'s worker; the largest
    /// entry plus one is the worker count) and the density gate (0 puts
    /// every slice on the workers, `u64::MAX` none). Every choice produces
    /// the same report; this exists so that tests can show it.
    #[doc(hidden)]
    pub fn set_workers(&mut self, deal: Vec<usize>, dense_from: u64) {
        assert_eq!(deal.len(), self.cfg.nengines);
        let workers = deal.iter().max().map_or(1, |&w| w + 1);
        self.pool = (workers > 1).then(|| PoolShim::new(&deal));
        (self.deal, self.dense_from) = (deal, dense_from);
    }

    /// The current node→engine assignment.
    pub fn partition(&self) -> &[u32] {
        &self.cfg.partition
    }

    /// The conservative lookahead of the current partition, µs: the
    /// minimum latency of any cut link.
    pub fn lookahead_us(&self) -> u64 {
        self.lookahead
    }

    /// True when no events remain anywhere and every flow has started.
    pub fn finished(&self) -> bool {
        self.engines.iter().all(|e| e.next_time().is_none())
    }

    /// Advances the emulation until every pending event time is
    /// `>= until_us` (or until completion). Returns the number of windows
    /// executed.
    pub fn run_until(&mut self, until_us: u64) -> u64 {
        self.run_bounded(until_us, u64::MAX)
    }

    /// [`run_until`](Self::run_until) that also stops, between two
    /// rounds, once the run has executed `round_limit` rounds in total.
    pub fn run_bounded(&mut self, until_us: u64, round_limit: u64) -> u64 {
        let events = |engines: &[Engine]| engines.iter().map(|e| e.counters.events).sum::<u64>();
        let rounds_before = self.state.rounds;
        loop {
            let (rounds, before) = (self.state.rounds, events(&self.engines));
            let slice_end = rounds.saturating_add(SLICE_ROUNDS).min(round_limit);
            self.run_slice(until_us, slice_end);
            if self.state.rounds > rounds {
                self.density = (events(&self.engines) - before) / (self.state.rounds - rounds);
            }
            // Short of the slice's end: the time bound stopped it.
            if self.state.rounds < slice_end || slice_end == round_limit {
                return self.state.rounds - rounds_before;
            }
        }
    }

    /// One call of the protocol loop per participant: the calling thread
    /// alone over `SeqShim`, or, when the last slice was dense, one thread
    /// per worker (the caller is worker 0) over `PoolShim`.
    fn run_slice(&mut self, until: u64, limit: u64) {
        let shared = Shared {
            net: self.net,
            tables: self.tables,
            flows: self.flows,
            routes: &self.routes,
            dirs: &self.dirs,
            partition: &self.cfg.partition,
        };
        let (cfg, ahead, shim) = (&self.cfg, self.lookahead, &self.shim);
        let Some(pool) = self
            .pool
            .as_ref()
            .filter(|_| self.density >= self.dense_from)
        else {
            let (engines, state) = (&mut self.engines[..], &mut self.state);
            return protocol_loop(engines, shim, &shared, cfg, ahead, until, limit, state);
        };
        let mut groups: Vec<Vec<&mut Engine>> = Vec::new();
        groups.resize_with(pool.participants(), Vec::new);
        for (engine, &worker) in self.engines.iter_mut().zip(&self.deal) {
            groups[worker].push(engine);
        }
        let start = &self.state;
        let work = |me: usize, mut group: Vec<&mut Engine>| {
            let _poison = pool.poison_on_panic();
            let (seat, mut state) = (pool.seat(me), start.clone());
            protocol_loop(
                &mut group, &seat, &shared, cfg, ahead, until, limit, &mut state,
            );
            state
        };
        self.state = std::thread::scope(|scope| {
            let mut groups = groups.into_iter().enumerate();
            let (me, mine) = groups.next().expect("a pool has at least two workers");
            let spawned: Vec<_> = groups
                .map(|(w, g)| scope.spawn(move || work(w, g)))
                .collect();
            let state = work(me, mine);
            for handle in spawned {
                let theirs = handle.join().expect("a worker panicked");
                assert_eq!(theirs, state, "participants disagree on the protocol state");
            }
            state
        });
    }

    /// Runs to completion.
    pub fn run_to_completion(&mut self) {
        self.run_until(u64::MAX);
    }

    /// The engine-side epoch feed: NetFlow records for the traffic seen
    /// *since the previous call* (the first call covers everything so
    /// far). Every engine's collector is exported and flushed, so NetFlow's
    /// active timeout is the epoch: what the collectors hold never outgrows
    /// one epoch, and [`finish`](Self::finish)'s dump holds what the last
    /// slice left. A key the epoch continues starts at its first sighting
    /// in the epoch. The records are a function of virtual time only —
    /// the same epoch boundary always yields the same slice, no matter how
    /// execution was scheduled.
    pub fn netflow_epoch_slice(&mut self) -> Vec<FlowRecord> {
        let slice = merge_collectors(self.engines.iter().map(|e| &e.netflow));
        self.engines.iter_mut().for_each(|e| e.netflow.flush());
        slice
    }

    /// Installs a new node→engine assignment between two `run_until`
    /// calls: stop, migrate the moved nodes' pending events and outgoing
    /// link state (a flow that has not started is a pending event at its
    /// source) from the engines that owned them to the engines that now do,
    /// recompute the lookahead, charge [`MIGRATION`] to the wall clock,
    /// resume. An engine that neither lost nor gained a node is not
    /// touched. Returns the number of nodes that changed engines.
    pub fn repartition(&mut self, new_partition: Vec<u32>) -> usize {
        assert_eq!(new_partition.len(), self.net.node_count());
        assert!(new_partition
            .iter()
            .all(|&p| (p as usize) < self.cfg.nengines));
        let old = std::mem::replace(&mut self.cfg.partition, new_partition);
        let new = &self.cfg.partition;
        let leaving: Vec<bool> = old.iter().zip(new).map(|(a, b)| a != b).collect();
        let moved = leaving.iter().filter(|&&l| l).count();
        let owns =
            |part: &[u32], e: &Engine| (0..part.len()).any(|v| leaving[v] && part[v] == e.id);
        // The sender of a direction is where the opposite direction leads.
        let sender = |dir: u32| self.dirs.get(dir ^ 1).to as usize;

        let (mut events, mut link_state) = (Vec::new(), Vec::new());
        for e in self.engines.iter_mut().filter(|e| owns(&old, e)) {
            events.append(&mut e.take_events(|node| leaving[node as usize]));
            link_state.append(&mut e.take_link_state(|dir| leaving[sender(dir)]));
        }
        // Ascending: an empty calendar anchors at the first event it takes.
        events.sort_unstable();
        for e in self.engines.iter_mut().filter(|e| owns(new, e)) {
            let id = e.id;
            e.adopt(
                events
                    .iter()
                    .filter(|ev| new[ev.node as usize] == id)
                    .copied(),
            );
        }
        for (dir, busy) in link_state {
            self.engines[new[sender(dir)] as usize].insert_link_state(dir, busy);
        }
        self.lookahead = lookahead_us(self.net, new);

        // The remap stalls every engine for no virtual-time progress.
        self.state
            .wall
            .add_busy_window(&self.cfg.cost, MIGRATION.stall_us(moved), 0);
        self.migrated_nodes += moved;
        self.remaps += 1;
        moved
    }

    /// Takes the emulation apart at a stop point: the engines (pending
    /// events, link occupancy, counters), the configuration in force, and
    /// the protocol state. The model checker resumes these under every
    /// interleaving and compares stop states through them.
    pub fn into_parts(self) -> (Vec<Engine>, EmulationConfig, ProtocolState) {
        (self.engines, self.cfg, self.state)
    }

    /// Finalizes into a report (same shape as the batch executors').
    /// Under lazy tables the residency block is keyed by the *final*
    /// partition: rows of nodes moved by [`repartition`](Self::repartition)
    /// are charged to their destination engine — the migration ownership
    /// rule (DESIGN.md §16) falls out of sampling the current assignment.
    pub fn finish(self) -> EmulationReport {
        if cfg!(debug_assertions) {
            let shared = Shared {
                net: self.net,
                tables: self.tables,
                flows: self.flows,
                routes: &self.routes,
                dirs: &self.dirs,
                partition: &self.cfg.partition,
            };
            self.engines
                .iter()
                .for_each(|e| e.assert_pins_hold(&shared));
        }
        let (engines, cfg, state) = self.into_parts();
        finalize(engines, &cfg, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sequential;
    use crate::netflow::{epoch_slice, fold};
    use crate::sched::SchedulerKind;
    use massf_topology::brite::{generate, BriteConfig, GrowthModel};
    use massf_topology::{Network, NodeId};
    use massf_traffic::FlowSpec;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn net_and_flows() -> (Network, Vec<FlowSpec>) {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 0);
        net.add_link(r0, r1, 100.0, 500);
        let mut hosts = Vec::new();
        for i in 0..6 {
            let h = net.add_host(format!("h{i}"), 0);
            net.add_link(h, if i < 3 { r0 } else { r1 }, 100.0, 100);
            hosts.push(h);
        }
        let flows = vec![
            FlowSpec {
                src: hosts[0],
                dst: hosts[4],
                start_us: 0,
                packets: 20,
                bytes: 30_000,
                packet_interval_us: 150,
                window: None,
            },
            FlowSpec {
                src: hosts[5],
                dst: hosts[1],
                start_us: 2_000,
                packets: 15,
                bytes: 22_500,
                packet_interval_us: 200,
                window: None,
            },
            FlowSpec {
                src: hosts[2],
                dst: hosts[3],
                start_us: 8_000,
                packets: 10,
                bytes: 15_000,
                packet_interval_us: 100,
                window: None,
            },
        ];
        (net, flows)
    }

    fn partition_by_router(net: &Network) -> Vec<u32> {
        // Nodes attached to / equal to r0 -> engine 0, r1 side -> engine 1.
        net.nodes()
            .iter()
            .map(|n| {
                if n.id == 0 {
                    0
                } else if n.id == 1 {
                    1
                } else {
                    let (r, _) = net.neighbors(n.id)[0];
                    if r == 0 {
                        0
                    } else {
                        1
                    }
                }
            })
            .collect()
    }

    #[test]
    fn stepping_without_remap_matches_batch_run() {
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let part = partition_by_router(&net);
        let cfg = EmulationConfig::new(part, 2).with_netflow();
        let batch = run_sequential(&net, &tables, &flows, &cfg);

        // One unbounded step is the batch run, `rounds` and `wall` included.
        let mut whole = SteppableEmulation::new(&net, &tables, &flows, cfg.clone());
        whole.run_until(u64::MAX);
        assert_eq!(whole.finish(), batch);

        // Small increments cap windows at the boundaries. What is counted
        // per round (rounds, wall, stalls, scheduler depth) may then
        // differ; everything that was emulated may not.
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        let mut t = 1_000;
        while !step.finished() {
            step.run_until(t);
            t += 1_000;
        }
        let report = step.finish();
        assert!(report.rounds >= batch.rounds);
        let per_round = batch.clone();
        assert_eq!(
            EmulationReport {
                rounds: per_round.rounds,
                wall: per_round.wall,
                engine_stalls: per_round.engine_stalls,
                stall_series: per_round.stall_series,
                engine_queue_peak: per_round.engine_queue_peak,
                engine_sched_resizes: per_round.engine_sched_resizes,
                engine_reallocs: per_round.engine_reallocs,
                engine_sorted_inserts: per_round.engine_sorted_inserts,
                ..report
            },
            batch
        );
    }

    #[test]
    fn a_round_budget_cuts_the_run_without_changing_it() {
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let cfg = EmulationConfig::new(partition_by_router(&net), 2).with_netflow();
        let batch = run_sequential(&net, &tables, &flows, &cfg);
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        let mut budget = 0;
        while !step.finished() {
            budget += 3;
            assert!(step.run_bounded(u64::MAX, budget) <= 3);
            assert!(step.state.rounds <= budget);
        }
        assert!(budget > 6, "the run must have been cut more than once");
        assert_eq!(step.finish(), batch);
    }

    #[test]
    fn workers_reproduce_the_sequential_run_across_stops_and_remaps() {
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let part = partition_by_router(&net);
        let swapped: Vec<u32> = part.iter().map(|&p| 1 - p).collect();
        let run = |deal: Vec<usize>| {
            let cfg = EmulationConfig::new(part.clone(), 2).with_netflow();
            let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
            step.set_workers(deal, 0); // every slice on the workers, if any
            step.run_until(3_000);
            let mid = step.netflow_epoch_slice();
            step.repartition(swapped.clone());
            step.run_to_completion();
            (mid, step.finish())
        };
        let reference = run(vec![0, 0]);
        assert_eq!(run(vec![0, 1]), reference);
        assert_eq!(run(vec![1, 0]), reference);
    }

    #[test]
    fn a_bound_at_or_before_the_first_event_runs_nothing() {
        let (net, mut flows) = net_and_flows();
        for f in &mut flows {
            f.start_us += 500;
        }
        let tables = RoutingTables::build(&net);
        let cfg = EmulationConfig::new(partition_by_router(&net), 2);
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        for until in [0, 499, 500] {
            assert_eq!(step.run_until(until), 0);
            assert_eq!(step.state, ProtocolState::default());
        }
        assert_eq!(step.run_until(501), 1);
        assert_eq!(step.state.rounds, 1);
        assert_eq!(step.state.last_lbts, 501);
    }

    /// Two short flows 50 ms apart: between them nothing is in flight.
    fn early_and_late() -> (Network, Vec<FlowSpec>) {
        let (net, mut flows) = net_and_flows();
        flows.truncate(2);
        for (f, start_us) in flows.iter_mut().zip([0, 50_000]) {
            (f.start_us, f.packets, f.bytes) = (start_us, 2, 3_000);
        }
        (net, flows)
    }

    #[test]
    fn an_unstarted_flow_is_pending_at_every_stop_and_follows_its_source() {
        let (net, flows) = early_and_late();
        let tables = RoutingTables::build(&net);
        let part = partition_by_router(&net);
        let cfg = EmulationConfig::new(part.clone(), 2);
        let batch = run_sequential(&net, &tables, &flows, &cfg);
        let late_owner = |step: &SteppableEmulation| {
            let waiting = |e: &&Engine| e.next_time() == Some(50_000);
            step.engines.iter().find(waiting).map(|e| e.id)
        };

        // A round budget stops the run with the late start pending.
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg.clone());
        assert_eq!(step.run_bounded(u64::MAX, 1), 1);
        assert!(!step.finished());
        // So does a time bound, with nothing else left: not "done".
        step.run_until(50_000);
        assert!(step
            .engines
            .iter()
            .all(|e| e.queue().stats().peak_depth <= 2));
        assert!(!step.finished(), "a flow has yet to start");
        let src = flows[1].src as usize;
        assert_eq!(late_owner(&step), Some(part[src]));
        let rounds = step.state.rounds;
        step.run_to_completion();
        assert!(step.finished());
        assert!(step.state.rounds > rounds, "the late flow ran");
        assert_eq!(step.finish(), batch);

        // Its source migrates while it waits: it fires on the new owner.
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        step.run_until(50_000);
        let swapped: Vec<u32> = part.iter().map(|&p| 1 - p).collect();
        step.repartition(swapped.clone());
        assert_eq!(late_owner(&step), Some(swapped[src]));
        step.run_to_completion();
        let report = step.finish();
        assert_eq!(report.delivered, batch.delivered);
        assert_eq!(report.total_events(), batch.total_events());
    }

    #[test]
    fn the_schedule_length_shows_neither_in_queue_depth_nor_in_sorted_inserts() {
        // One flow every 3 ms, each 60 ms long: twenty are active at any
        // time however many the schedule holds, and the queues hold what
        // those have in flight. (Seeded with every start, the source's
        // engine peaked at the flow count and its calendar, sized on starts
        // seconds away, took nearly every push as a sorted insert.)
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let cfg = EmulationConfig::new(partition_by_router(&net), 2);
        let run = |count: u64| {
            let flows: Vec<FlowSpec> = (0..count)
                .map(|i| FlowSpec {
                    start_us: i * 3_000,
                    packet_interval_us: 3_000,
                    ..flows[0].clone()
                })
                .collect();
            let report = run_sequential(&net, &tables, &flows, &cfg);
            assert_eq!(report.delivered, count * flows[0].packets);
            let peak = *report.engine_queue_peak.iter().max().unwrap();
            (peak, report.sorted_insert_share())
        };
        let ((peak_short, share_short), (peak_long, share_long)) = (run(100), run(1_000));
        assert_eq!(peak_long, peak_short);
        assert!(
            share_long < share_short + 0.02,
            "sorted-insert share {share_short:.3} -> {share_long:.3}"
        );
    }

    #[test]
    fn repartition_preserves_every_packet() {
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let part = partition_by_router(&net);
        let cfg = EmulationConfig::new(part.clone(), 2);
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        step.run_until(3_000);
        // Swap the two engines entirely mid-flight.
        let swapped: Vec<u32> = part.iter().map(|&p| 1 - p).collect();
        let moved = step.repartition(swapped);
        assert_eq!(moved, net.node_count(), "every node changed engines");
        step.run_to_completion();
        let report = step.finish();
        let injected: u64 = flows.iter().map(|f| f.packets).sum();
        assert_eq!(report.delivered, injected, "no packet lost in migration");
        assert_eq!(report.dropped, 0);
        assert_eq!(
            step_total_is_stable(&net, &tables, &flows),
            report.total_events()
        );
    }

    #[test]
    fn a_remap_leaves_an_uninvolved_engine_alone() {
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        // r0, h0, h1 on engine 0; r1, h3, h4 on 1; h2 and h5 on 2.
        let part = vec![0, 1, 0, 0, 2, 1, 1, 2];
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let cfg = EmulationConfig::new(part.clone(), 3).with_scheduler(kind);
            let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
            step.run_until(3_000);
            let queue = |step: &SteppableEmulation| {
                let q = step.engines[2].queue();
                (q.stats(), q.len(), q.next_time())
            };
            let before = queue(&step);
            assert!(before.1 > 0, "h5's flow is mid-flight on engine 2");
            let mut remap = part.clone();
            remap[3] = 1; // h1, the destination of h5's flow, joins r1
            assert_eq!(step.repartition(remap), 1);
            assert_eq!(queue(&step), before, "engine 2 neither lost nor gained");
            step.run_to_completion();
            let report = step.finish();
            let injected: u64 = flows.iter().map(|f| f.packets).sum();
            assert_eq!(report.delivered, injected, "{kind:?}");
            assert_eq!(
                step_total_is_stable(&net, &tables, &flows),
                report.total_events()
            );
        }
    }

    #[test]
    fn link_occupancy_follows_its_sender() {
        // h0 — r0 ═ r1 — h1, ═ a 1 Mbps link: a packet every 5 ms, each
        // 12 ms on ═, so they queue at r0, and those that reach r0 after
        // the remap must still wait behind those sent before it.
        let mut net = Network::new();
        let [r0, r1] = ["r0", "r1"].map(|r| net.add_router(r, 0));
        let [h0, h1] = ["h0", "h1"].map(|h| net.add_host(h, 0));
        net.add_link(r0, r1, 1.0, 500);
        net.add_link(h0, r0, 100.0, 100);
        net.add_link(r1, h1, 100.0, 100);
        let flows = vec![FlowSpec {
            src: h0,
            dst: h1,
            start_us: 0,
            packets: 20,
            bytes: 30_000,
            packet_interval_us: 5_000,
            window: None,
        }];
        let tables = RoutingTables::build(&net);
        let part = vec![0, 1, 0, 1];
        let cfg = EmulationConfig::new(part.clone(), 2);
        let batch = run_sequential(&net, &tables, &flows, &cfg);
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        step.run_until(30_000); // r0 → r1 is busy until ~84 ms
        let mut remap = part;
        remap[r0 as usize] = 1;
        assert_eq!(step.repartition(remap), 1);
        step.run_to_completion();
        let report = step.finish();
        assert_eq!(report.delivered, 20);
        assert_eq!(report.latency_sum_us, batch.latency_sum_us);
        assert_eq!(report.virtual_end_us, batch.virtual_end_us);
    }

    /// Total kernel events of the never-remapped run (migration must not
    /// change what is emulated).
    fn step_total_is_stable(net: &Network, tables: &RoutingTables, flows: &[FlowSpec]) -> u64 {
        let part = partition_by_router(net);
        let cfg = EmulationConfig::new(part, 2);
        run_sequential(net, tables, flows, &cfg).total_events()
    }

    #[test]
    fn migration_cost_is_charged() {
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let part = partition_by_router(&net);

        let run = |remap: bool| -> (f64, usize) {
            let cfg = EmulationConfig::new(part.clone(), 2);
            let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
            step.run_until(3_000);
            let swapped: Vec<u32> = part.iter().map(|&p| 1 - p).collect();
            let moved = if remap { step.repartition(swapped) } else { 0 };
            step.run_to_completion();
            (step.finish().wall.total_us, moved)
        };
        let (without, _) = run(false);
        let (with, moved) = run(true);
        assert!(
            with >= without + MIGRATION.stall_us(moved) - 1.0,
            "remap cost missing: {with} vs {without}"
        );
    }

    #[test]
    fn identity_repartition_moves_nothing() {
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let part = partition_by_router(&net);
        let cfg = EmulationConfig::new(part.clone(), 2);
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        step.run_until(2_000);
        assert_eq!(step.repartition(part), 0);
        assert_eq!(step.migrated_nodes, 0);
        assert_eq!(step.remaps, 1);
    }

    #[test]
    fn epoch_slices_partition_the_netflow_dump() {
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let part = partition_by_router(&net);
        let cfg = EmulationConfig::new(part, 2).with_netflow();
        let batch = run_sequential(&net, &tables, &flows, &cfg).netflow;
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        let mut sliced = Vec::new();
        let mut t = 2_000;
        while !step.finished() {
            step.run_until(t);
            sliced.extend(step.netflow_epoch_slice());
            t += 2_000;
        }
        assert!(
            step.netflow_epoch_slice().is_empty(),
            "nothing ran since the last slice"
        );
        assert!(
            step.finish().netflow.is_empty(),
            "the last slice took it all"
        );
        assert!(sliced.len() > batch.len(), "keys continue across slices");
        assert_eq!(fold(sliced), batch, "epoch slices must partition the dump");
    }

    #[test]
    fn a_migrated_router_has_one_record_per_flow() {
        // A router observed on both engines: before the swap on one, after
        // it on the other. The dump folds the two into one record.
        let (net, flows) = net_and_flows();
        let tables = RoutingTables::build(&net);
        let part = partition_by_router(&net);
        let cfg = EmulationConfig::new(part.clone(), 2).with_netflow();
        let batch = run_sequential(&net, &tables, &flows, &cfg);
        let mut step = SteppableEmulation::new(&net, &tables, &flows, cfg);
        step.run_until(3_000);
        step.repartition(part.iter().map(|&p| 1 - p).collect());
        step.run_to_completion();
        assert_eq!(step.finish().netflow, batch.netflow);
    }

    fn brite_net(seed: u64) -> Network {
        generate(&BriteConfig {
            routers: 10,
            hosts: 8,
            model: GrowthModel::BarabasiAlbert { m: 2 },
            seed,
        })
    }

    /// Windowed and open-loop flows between random hosts, all starting in
    /// the first 200 ms.
    fn brite_flows(net: &Network, seed: u64) -> Vec<FlowSpec> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let hosts = net.hosts();
        (0..12)
            .filter_map(|_| {
                let src = hosts[rng.gen_range(0..hosts.len())];
                let dst = hosts[rng.gen_range(0..hosts.len())];
                (src != dst).then(|| FlowSpec {
                    src,
                    dst,
                    start_us: rng.gen_range(0..200_000),
                    packets: rng.gen_range(1..30),
                    bytes: rng.gen_range(200..45_000),
                    packet_interval_us: rng.gen_range(1..3_000),
                    window: rng.gen_bool(0.6).then(|| rng.gen_range(1..6)),
                })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Epoch slices against the cumulative dumps they replaced: a twin
        /// emulation whose collectors are never flushed, diffed at every
        /// boundary by the old `epoch_slice`. Both remap at the same
        /// boundary and run on the same deal. Each slice is the oracle's
        /// but for a continuing key's start, which moves from the previous
        /// epoch's last sighting to this epoch's first; the slices and the
        /// final dump fold back to the batch run's dump. A record carries
        /// the flow's ends exactly where its data packets pass, which the
        /// open-loop run of the same schedule shows.
        #[test]
        fn epoch_slices_match_the_cumulative_oracle(
            net_seed in any::<u64>(),
            flow_seed in any::<u64>(),
            steps in prop::collection::vec(500u64..60_000, 1..8),
            remap_at in 0usize..8,
            parts in prop::collection::vec((0u32..2, 0u32..2), 18..19),
            workers in 1usize..3,
        ) {
            let net = brite_net(net_seed);
            let tables = RoutingTables::build(&net);
            let flows = brite_flows(&net, flow_seed);
            prop_assume!(!flows.is_empty());
            let (mut before, mut after): (Vec<u32>, Vec<u32>) = parts.into_iter().unzip();
            // Each engine owns something before and after.
            (before[0], before[1], after[0], after[1]) = (0, 1, 1, 0);
            let cfg = EmulationConfig::new(before, 2).with_netflow();
            let batch = run_sequential(&net, &tables, &flows, &cfg).netflow;
            let emulation = || {
                let mut emu = SteppableEmulation::new(&net, &tables, &flows, cfg.clone());
                emu.set_workers((0..2).map(|e| e % workers).collect(), 0);
                emu
            };
            let (mut sliced, mut cumulative) = (emulation(), emulation());
            let remap_at = remap_at % steps.len();
            let (mut t, mut prev, mut all) = (0, Vec::new(), Vec::new());
            for (i, step) in steps.iter().enumerate() {
                if i == remap_at {
                    sliced.repartition(after.clone());
                    cumulative.repartition(after.clone());
                }
                t += step;
                sliced.run_until(t);
                cumulative.run_until(t);
                let slice = sliced.netflow_epoch_slice();
                let cur = merge_collectors(cumulative.engines.iter().map(|e| &e.netflow));
                let oracle = epoch_slice(&prev, &cur);
                prop_assert_eq!(slice.len(), oracle.len());
                for (s, o) in slice.iter().zip(&oracle) {
                    prop_assert!(o.first_us <= s.first_us && s.first_us <= s.last_us);
                    prop_assert_eq!(&FlowRecord { first_us: o.first_us, ..s.clone() }, o);
                }
                all.extend(slice);
                prev = cur;
            }
            sliced.run_to_completion();
            all.extend(sliced.finish().netflow);
            prop_assert_eq!(fold(all), batch.clone());

            let open: Vec<FlowSpec> =
                flows.iter().map(|f| FlowSpec { window: None, ..*f }).collect();
            let data_keys: Vec<(NodeId, u32)> = run_sequential(&net, &tables, &open, &cfg)
                .netflow
                .iter()
                .map(|r| (r.router, r.flow))
                .collect();
            for r in &batch {
                let f = &flows[r.flow as usize];
                let data_way = data_keys.binary_search(&(r.router, r.flow)).is_ok();
                let ends = if data_way { (f.src, f.dst) } else { (f.dst, f.src) };
                prop_assert_eq!((r.src, r.dst), ends, "router {} flow {}", r.router, r.flow);
            }
        }
    }
}
