//! Miniature emulation scenarios the checker explores exhaustively.
//!
//! Model checking pays per interleaving, so these are the smallest
//! configurations that still exercise every protocol mechanism: multiple
//! engines, cross-engine traffic in both directions, and several
//! conservative rounds (so LBTS advances more than once and remote
//! events span window boundaries).
//!
//! A scenario with a [`Stop`] runs in two *segments* — up to the stop
//! (a virtual time or a round budget), then, possibly under a new
//! partition, to completion — and the checker explores each segment on
//! its own. That is
//! sound because a segment's check is that *every* interleaving ends in
//! the one [`StopState`] the sequential stepping executor reaches: the
//! next segment then has a single possible start state, which the
//! checker rebuilds sequentially ([`Scenario::stepped_to`]). Schedule
//! counts therefore add across segments instead of multiplying.

use massf_engine::engine::{Engine, Routes, Shared};
use massf_engine::event::Event;
use massf_engine::exec::finalize;
use massf_engine::link::Directions;
use massf_engine::{EmulationConfig, EmulationReport, ProtocolState, SteppableEmulation};
use massf_routing::RoutingTables;
use massf_topology::Network;
use massf_traffic::FlowSpec;

/// When the extra flow of the stopped `two_cross` scenarios starts (µs).
pub const LATE_START_US: u64 = 900;

/// A stop/resume point: the first segment stops once every pending event
/// is at or after `at_us` or `at_round` rounds have run, whichever comes
/// first, and `partition`, if any, is installed through
/// [`SteppableEmulation::repartition`] before the run resumes.
pub struct Stop {
    /// Virtual time the first segment runs until (`u64::MAX`: no bound).
    pub at_us: u64,
    /// Round budget of the first segment (`u64::MAX`: none).
    pub at_round: u64,
    /// Node → engine assignment of the second segment, when it migrates.
    pub partition: Option<Vec<u32>>,
}

/// Everything a run consists of where [`massf_engine::protocol_loop`]
/// returned: what the engines counted so far, what they still hold, and
/// the protocol state a later call resumes from. Two executions that
/// stop in equal states are indistinguishable from then on.
#[derive(Debug, PartialEq)]
pub struct StopState {
    /// The engines' counters, series and NetFlow tables, finalized.
    pub report: EmulationReport,
    /// Pending events per engine, ascending — the first injections of its
    /// unstarted flows among them.
    pub pending: Vec<Vec<Event>>,
    /// Link-occupancy entries per engine, `(direction, busy until)` in
    /// direction order.
    pub links: Vec<Vec<(u32, u64)>>,
    /// The protocol state (wall clock, rounds, frontier, last LBTS).
    pub protocol: ProtocolState,
}

impl StopState {
    /// Takes `engines` (in id order) of a run of `scenario` apart at a stop
    /// point. Debug builds first check, as `SteppableEmulation::finish`
    /// does, that every engine's pinned next links are still the links
    /// the tables route over (eager tables only).
    pub fn of(
        mut engines: Vec<Engine>,
        cfg: &EmulationConfig,
        scenario: &Scenario,
        protocol: ProtocolState,
    ) -> StopState {
        if cfg!(debug_assertions) {
            let routes = Routes::of(&scenario.flows);
            let dirs = Directions::of(&scenario.net);
            let shared = Shared {
                net: &scenario.net,
                tables: &scenario.tables,
                flows: &scenario.flows,
                routes: &routes,
                dirs: &dirs,
                partition: &cfg.partition,
            };
            engines.iter().for_each(|e| e.assert_pins_hold(&shared));
        }
        let pending = engines.iter_mut().map(Engine::drain_events).collect();
        let links = engines
            .iter_mut()
            .map(|e| e.take_link_state(|_| true))
            .collect();
        StopState {
            report: finalize(engines, cfg, protocol.clone()),
            pending,
            links,
            protocol,
        }
    }
}

/// One self-contained checking scenario: topology, routes, traffic, and
/// the emulation configuration, and which participant owns which engine.
pub struct Scenario {
    /// Short CLI-stable name.
    pub name: &'static str,
    /// The virtual network.
    pub net: Network,
    /// All-pairs routes over `net`.
    pub tables: RoutingTables,
    /// The flow schedule.
    pub flows: Vec<FlowSpec>,
    /// Run configuration (partition, engine count, cost model).
    pub cfg: EmulationConfig,
    /// Engine → participant (checker thread); `participants()` of them.
    pub deal: Vec<usize>,
    /// Mid-run stop, if the scenario has one.
    pub stop: Option<Stop>,
}

impl Scenario {
    /// Two engines across one cut link, one flow each direction.
    ///
    /// Topology `h0 — r0 —(cut)— r1 — h1`, partitioned `[0,0 | 1,1]`.
    /// The 200 µs cut latency is the lookahead; the flows are timed so the
    /// run takes a handful of rounds with events crossing the cut in both
    /// directions.
    pub fn two_cross() -> Scenario {
        Self::two_cross_with("two_cross", RoutingTables::build)
    }

    /// [`two_cross`](Self::two_cross) over lazy on-demand routing tables:
    /// the checker proves that racing engines materializing rows through
    /// the shared once-cells still reproduce the sequential reference
    /// bit-for-bit — including the per-engine residency block, which is
    /// structural (the demanded row set) and therefore identical across
    /// every interleaving.
    pub fn two_cross_lazy() -> Scenario {
        Self::two_cross_with("two_cross_lazy", RoutingTables::build_lazy)
    }

    /// [`two_cross`](Self::two_cross) stopped at 500 µs — events in
    /// flight across the cut in both directions, both cut directions'
    /// link occupancy live, one flow yet to start — with the two engines'
    /// node sets swapped before it resumes, so every node, pending event,
    /// unstarted flow and occupancy entry changes engines.
    pub fn two_cross_migrate() -> Scenario {
        Scenario {
            stop: Some(Stop {
                at_us: 500,
                at_round: u64::MAX,
                partition: Some(vec![1, 1, 0, 0]),
            }),
            ..Self::two_cross_late("two_cross_migrate")
        }
    }

    /// [`two_cross`](Self::two_cross) stopped by a round budget after its
    /// second round and resumed — what the executor does at every slice
    /// boundary, where the run may also change shims — with one flow yet
    /// to start at the stop.
    pub fn two_cross_budget() -> Scenario {
        Scenario {
            stop: Some(Stop {
                at_us: u64::MAX,
                at_round: 2,
                partition: None,
            }),
            ..Self::two_cross_late("two_cross_budget")
        }
    }

    /// [`two_cross`](Self::two_cross) plus a flow that starts at
    /// [`LATE_START_US`], after either stop: until then it is no queue
    /// entry but the head of its source engine's start cursor, which the
    /// stop state must carry like any pending event.
    fn two_cross_late(name: &'static str) -> Scenario {
        let mut s = Self::two_cross_with(name, RoutingTables::build);
        s.flows.push(FlowSpec {
            start_us: LATE_START_US,
            packets: 1,
            bytes: 1_500,
            ..s.flows[0]
        });
        s
    }

    fn two_cross_with(name: &'static str, build: fn(&Network) -> RoutingTables) -> Scenario {
        let mut net = Network::new();
        let h0 = net.add_host("h0", 0);
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 1);
        let h1 = net.add_host("h1", 1);
        net.add_link(h0, r0, 100.0, 30);
        net.add_link(r0, r1, 100.0, 200);
        net.add_link(r1, h1, 100.0, 30);
        let tables = build(&net);
        let flows = vec![
            FlowSpec {
                src: h0,
                dst: h1,
                start_us: 0,
                packets: 2,
                bytes: 3_000,
                packet_interval_us: 400,
                window: None,
            },
            FlowSpec {
                src: h1,
                dst: h0,
                start_us: 100,
                packets: 1,
                bytes: 1_500,
                packet_interval_us: 400,
                window: None,
            },
        ];
        Scenario {
            name,
            net,
            tables,
            flows,
            cfg: EmulationConfig::new(vec![0, 0, 1, 1], 2),
            deal: vec![0, 1],
            stop: None,
        }
    }

    /// Three engines in a chain, traffic end to end.
    ///
    /// Topology `h0 — r0 —(cut)— r1 —(cut)— r2 — h2`, partitioned
    /// `[0,0 | 1 | 2,2]`. Exercises an engine (the middle one) that only
    /// forwards: it both receives and re-ships remote events.
    pub fn three_chain() -> Scenario {
        Self::three_chain_dealt("three_chain", vec![0, 1, 2])
    }

    /// [`three_chain`](Self::three_chain) on two participants, the first
    /// owning engines 0 and 1 — the pooled executor's shape, where one
    /// thread publishes, sends and drains for several engines in id order
    /// between the same barriers.
    pub fn three_chain_paired() -> Scenario {
        Self::three_chain_dealt("three_chain_paired", vec![0, 0, 1])
    }

    /// [`three_chain`](Self::three_chain) with a two-packet reply, stopped
    /// at 900 µs with `r0`, one of engine 0's two nodes, moved to engine 1
    /// before it resumes. At the stop engine 0 holds the first reply
    /// packet arriving at `h0` and the second arriving at `r0`, so its
    /// queue gives up a strict subset of its events and keeps the rest;
    /// engine 2 keeps its nodes and its event.
    pub fn three_chain_migrate() -> Scenario {
        let mut s = Self::three_chain_dealt("three_chain_migrate", vec![0, 1, 1]);
        s.flows[1] = FlowSpec {
            packets: 2,
            bytes: 3_000,
            packet_interval_us: 100,
            ..s.flows[1]
        };
        s.stop = Some(Stop {
            at_us: 900,
            at_round: u64::MAX,
            partition: Some(vec![0, 1, 1, 2, 2]),
        });
        s
    }

    fn three_chain_dealt(name: &'static str, deal: Vec<usize>) -> Scenario {
        let mut net = Network::new();
        let h0 = net.add_host("h0", 0);
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 1);
        let r2 = net.add_router("r2", 2);
        let h2 = net.add_host("h2", 2);
        net.add_link(h0, r0, 100.0, 30);
        net.add_link(r0, r1, 100.0, 200);
        net.add_link(r1, r2, 100.0, 200);
        net.add_link(r2, h2, 100.0, 30);
        let tables = RoutingTables::build(&net);
        let flows = vec![
            FlowSpec {
                src: h0,
                dst: h2,
                start_us: 0,
                packets: 1,
                bytes: 1_500,
                packet_interval_us: 400,
                window: None,
            },
            FlowSpec {
                src: h2,
                dst: h0,
                start_us: 50,
                packets: 1,
                bytes: 1_500,
                packet_interval_us: 400,
                window: None,
            },
        ];
        Scenario {
            name,
            net,
            tables,
            flows,
            cfg: EmulationConfig::new(vec![0, 0, 1, 2, 2], 3),
            deal,
            stop: None,
        }
    }

    /// Every scenario, in CLI order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::two_cross(),
            Scenario::three_chain(),
            Scenario::two_cross_lazy(),
            Scenario::two_cross_migrate(),
            Scenario::three_chain_paired(),
            Scenario::two_cross_budget(),
            Scenario::three_chain_migrate(),
        ]
    }

    /// Looks a scenario up by its CLI name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name == name)
    }

    /// How many checker threads run the protocol.
    pub fn participants(&self) -> usize {
        self.deal.iter().max().map_or(0, |&p| p + 1)
    }

    /// How many segments the checker explores: one, or two around a stop.
    pub fn segments(&self) -> usize {
        1 + usize::from(self.stop.is_some())
    }

    /// The virtual-time bound and round budget segment `segment` runs to.
    pub fn bounds(&self, segment: usize) -> (u64, u64) {
        match (&self.stop, segment) {
            (Some(stop), 0) => (stop.at_us, stop.at_round),
            _ => (u64::MAX, u64::MAX),
        }
    }

    /// The sequential stepping executor at the start of `segment`: fresh
    /// for segment 0, stopped (and repartitioned) for segment 1.
    pub fn stepped_to(&self, segment: usize) -> SteppableEmulation<'_> {
        let mut emu =
            SteppableEmulation::new(&self.net, &self.tables, &self.flows, self.cfg.clone());
        if segment > 0 {
            let stop = self.stop.as_ref().expect("only a stop adds a segment");
            emu.run_bounded(stop.at_us, stop.at_round);
            if let Some(partition) = &stop.partition {
                emu.repartition(partition.clone());
            }
        }
        emu
    }

    /// The state the sequential stepping executor stops `segment` in —
    /// what every explored schedule of that segment must reproduce
    /// bit-for-bit.
    pub fn stop_state(&self, segment: usize) -> StopState {
        let mut emu = self.stepped_to(segment);
        let (until_us, round_limit) = self.bounds(segment);
        emu.run_bounded(until_us, round_limit);
        let (engines, cfg, protocol) = emu.into_parts();
        StopState::of(engines, &cfg, self, protocol)
    }

    /// The sequential-execution report of the whole run.
    pub fn reference(&self) -> EmulationReport {
        self.stop_state(self.segments() - 1).report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_small_but_nontrivial() {
        for s in Scenario::all() {
            let r = s.reference();
            assert!(r.delivered > 0, "{}: nothing delivered", s.name);
            assert!(r.remote_messages > 0, "{}: no cross-engine traffic", s.name);
            assert!(
                (2..=8).contains(&r.rounds),
                "{}: {} rounds — retune the flows so exploration stays cheap",
                s.name,
                r.rounds
            );
        }
    }

    #[test]
    fn migration_stops_mid_flight_and_moves_everything() {
        let s = Scenario::two_cross_migrate();
        let stop = s.stop_state(0);
        assert!(stop.pending.iter().all(|q| !q.is_empty()), "{stop:?}");
        assert!(stop.links.iter().all(|l| !l.is_empty()), "{stop:?}");
        assert_eq!(stop.protocol.last_lbts, 500);
        assert_eq!(late_starts(&stop), [1, 0], "at its source's engine");
        let mut emu = s.stepped_to(1);
        assert_eq!(emu.migrated_nodes, s.net.node_count());
        // The unstarted flow followed its source: it is engine 1's next event.
        emu.run_until(LATE_START_US);
        let (engines, cfg, protocol) = emu.into_parts();
        assert_eq!(engines[1].next_time(), Some(LATE_START_US));
        let moved = StopState::of(engines, &cfg, &s, protocol);
        assert_eq!(late_starts(&moved), [0, 1]);
        let mut emu = s.stepped_to(1);
        emu.run_to_completion();
        assert_eq!(emu.finish(), s.reference());
        // Migration changes where events run, never what is emulated.
        assert_eq!(s.reference().delivered, unstopped(s).reference().delivered);
    }

    /// Per engine, the pending first injections at [`LATE_START_US`].
    fn late_starts(stop: &StopState) -> Vec<usize> {
        let late = |e: &&Event| e.time_us == LATE_START_US;
        stop.pending
            .iter()
            .map(|q| q.iter().filter(late).count())
            .collect()
    }

    /// The same network and flows run in one piece.
    fn unstopped(s: Scenario) -> Scenario {
        Scenario { stop: None, ..s }
    }

    #[test]
    fn a_partial_migration_splits_one_engine_and_leaves_another_alone() {
        let s = Scenario::three_chain_migrate();
        let stop = s.stop_state(0);
        let nodes = |q: &[Event]| q.iter().map(|e| e.node).collect::<Vec<_>>();
        // Engine 0 holds events at r0 (node 1, moving) and h0 (node 0,
        // staying): its queue gives up a strict subset of them.
        let at_zero = nodes(&stop.pending[0]);
        assert!(at_zero.contains(&0) && at_zero.contains(&1), "{stop:?}");
        assert!(!stop.pending[2].is_empty(), "{stop:?}");
        let emu = s.stepped_to(1);
        assert_eq!(emu.migrated_nodes, 1);
        let (mut engines, ..) = emu.into_parts();
        let after: Vec<Vec<Event>> = engines.iter_mut().map(Engine::drain_events).collect();
        assert!(nodes(&after[0]).iter().all(|&v| v == 0), "{after:?}");
        assert!(nodes(&after[1]).contains(&1), "{after:?}");
        assert_eq!(after[2], stop.pending[2], "engine 2 is untouched");
        // Migration changes where events run, never what is emulated.
        assert_eq!(s.reference().delivered, unstopped(s).reference().delivered);
    }

    #[test]
    fn the_round_budget_stops_between_two_rounds_of_the_same_run() {
        let s = Scenario::two_cross_budget();
        let stop = s.stop_state(0);
        assert_eq!(stop.protocol.rounds, 2);
        assert!(stop.protocol.last_lbts < LATE_START_US);
        assert_eq!(late_starts(&stop), [1, 0], "stopped with a start pending");
        // Where the rounds are cut changes nothing that is counted.
        assert_eq!(s.reference(), unstopped(s).reference());
    }

    #[test]
    fn lookup_by_name() {
        assert!(Scenario::by_name("two_cross").is_some());
        assert!(Scenario::by_name("nope").is_none());
    }
}
