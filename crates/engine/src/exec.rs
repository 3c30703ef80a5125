//! Executors: the synchronous conservative protocol.
//!
//! [`protocol_loop`] is the only window loop in the workspace — the one
//! caller of [`Engine::process_window`]. It stops at a virtual-time bound
//! or a round budget and resumes from a caller-owned [`ProtocolState`],
//! so every executor is a driver around it:
//!
//! * [`crate::stepping::SteppableEmulation`] is the one executor: it owns
//!   all engines and calls the loop slice by slice, on the calling thread
//!   or on [`EmulationConfig::workers`] worker threads — epoch boundaries
//!   and live migration are stop/resume points of the same protocol;
//! * [`run`] is that executor run in a single step, [`run_sequential`]
//!   the same at one worker (the strict reference), [`run_parallel`] at
//!   one worker per CPU;
//! * `massf-check` runs the loop on virtual primitives under every
//!   interleaving.
//!
//! All of them build their engines through [`seeded_engines`] and merge
//! them through [`finalize`], and produce bit-identical reports.

use crate::cost::{CostModel, WallClock};
use crate::counters::EngineCounters;
use crate::engine::{Engine, RemoteEvent, Shared};
use crate::event::Event;
use crate::netflow::merge_collectors;
use crate::report::EmulationReport;
use crate::sched::SchedulerKind;
use crate::shim::{SlotArray, SyncShim};
use crate::stepping::SteppableEmulation;
use massf_routing::RoutingTables;
use massf_topology::Network;
use massf_traffic::tracefile::MAX_PACKETS;
use massf_traffic::FlowSpec;
use std::borrow::BorrowMut;

/// The default bucket width (µs) of the fine-grained load series: the
/// paper samples "in two second intervals" (Figure 8).
pub const COUNTER_WINDOW_US: u64 = 2_000_000;

/// Configuration of one emulation run.
#[derive(Debug, Clone)]
pub struct EmulationConfig {
    /// Node → engine assignment (length = node count).
    pub partition: Vec<u32>,
    /// Number of engines (labels in `partition` must be `< nengines`).
    pub nengines: usize,
    /// Virtual-time bucket width for the fine-grained load series
    /// (default [`COUNTER_WINDOW_US`]).
    pub counter_window_us: u64,
    /// Enable NetFlow profiling (the PROFILE approach's initial run).
    pub netflow: bool,
    /// Wall-clock model.
    pub cost: CostModel,
    /// Relative CPU speed per engine (1.0 = baseline). `None` means the
    /// paper's homogeneous cluster. Only affects the modeled wall clock,
    /// never emulation results.
    pub engine_speeds: Option<Vec<f64>>,
    /// Event-scheduler implementation. Both kinds pop in the identical
    /// total event order, so this only affects throughput — never results.
    pub scheduler: SchedulerKind,
    /// Worker threads the engines are dealt to (capped at `nengines`).
    /// 1 is the strict single-threaded path; any count produces the same
    /// report.
    pub workers: usize,
}

impl EmulationConfig {
    /// A run over `partition` with sane defaults (2 s counter buckets,
    /// NetFlow off, replay cost model).
    pub fn new(partition: Vec<u32>, nengines: usize) -> Self {
        Self {
            partition,
            nengines,
            counter_window_us: COUNTER_WINDOW_US,
            netflow: false,
            cost: CostModel::default(),
            engine_speeds: None,
            scheduler: SchedulerKind::default(),
            workers: 1,
        }
    }

    /// Sets the worker-thread count (zero is clamped to one).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Selects the event-scheduler implementation.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The speed of engine `e`.
    fn speed(&self, e: usize) -> f64 {
        self.engine_speeds.as_ref().map(|v| v[e]).unwrap_or(1.0)
    }

    /// Enables NetFlow profiling.
    pub fn with_netflow(mut self) -> Self {
        self.netflow = true;
        self
    }
}

/// The one construction path of every executor: checks `cfg` against
/// `net`, builds one engine per partition label, and hands each the first
/// injections of the flows whose source it owns (its start cursor).
pub fn seeded_engines(net: &Network, flows: &[FlowSpec], cfg: &EmulationConfig) -> Vec<Engine> {
    assert_eq!(
        cfg.partition.len(),
        net.node_count(),
        "partition length mismatch"
    );
    assert!(cfg.nengines >= 1);
    // A packet id is `flow << 32 | packet_no` with bit 63 for the ACK.
    assert!(
        flows.len() <= 1 << 31 && flows.iter().all(|f| f.packets <= MAX_PACKETS),
        "flow schedule past the packet id"
    );
    assert!(
        cfg.partition.iter().all(|&p| (p as usize) < cfg.nengines),
        "partition label out of range"
    );
    (0..cfg.nengines as u32)
        .map(|id| {
            let mut engine = Engine::new(id, cfg.counter_window_us, cfg.netflow, cfg.scheduler);
            let mine = flows.iter().enumerate();
            let mine = mine.filter(|(_, f)| cfg.partition[f.src as usize] == id);
            engine.adopt(mine.map(|(i, f)| Event::injection(f.start_us, f.src, i as u32, 0)));
            engine
        })
        .collect()
}

/// What one protocol participant carries from window to window: the
/// modeled wall clock, the conservative rounds executed, the virtual-time
/// frontier, and the last agreed LBTS. Owned by the caller so that
/// [`protocol_loop`] can stop at a virtual-time bound or round budget and
/// resume later (the epoch boundaries and slices of [`crate::stepping`]).
/// Every participant of a parallel run computes identical values (each
/// reads the same published window statistics), which the model checker
/// and the executor both assert where the participants join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProtocolState {
    /// Modeled wall-clock accumulation over all windows (and migrations).
    pub wall: WallClock,
    /// Conservative synchronization rounds executed.
    pub rounds: u64,
    /// Virtual time reached (the last window's progress frontier).
    pub virtual_now: u64,
    /// LBTS of the last window; every pending event is at or above it.
    pub last_lbts: u64,
}

/// The windowed conservative protocol, written exactly once over the
/// [`SyncShim`] surface, resumable at any virtual-time bound.
///
/// `engines` are the engines owned by this participant (owned or
/// borrowed): all of them in a sequential slice, one worker's group in a
/// pooled slice and in the `massf-check` model checker. `cfg` is the
/// whole run's configuration; `shared.partition` is `cfg.partition`.
///
/// The loop runs windows until every pending event time is `>= until_us`
/// (`u64::MAX` runs to completion) or, at the top of a round, `state`
/// has counted `round_limit` rounds (`u64::MAX`: no budget) — a budget
/// never truncates a window, so where the rounds are cut changes nothing
/// that is counted. It accumulates into the caller-owned `state`; calling
/// it again with a later bound or budget continues the same run.
/// Between calls the caller may migrate events between engines and pass a
/// new `lookahead`, as long as no event moves below `state.last_lbts`.
///
/// A call publishes its engines' minimum and meets the others at one
/// barrier; then each round, on the slot and channel copies of its
/// parity:
///
/// 1. read every participant's minimum to agree on `gmin` (and thus
///    `LBTS = min(gmin + lookahead, until_us)`); stop once
///    `gmin >= until_us`;
/// 2. process every owned engine's window below LBTS and ship its
///    cross-engine events; publish the fold of the window (busy time,
///    frontier) and the next round's minimum, which counts the shipped
///    events, so it equals what the engines would publish once they
///    have them; barrier;
/// 3. drain every owned engine's inbox, then account the window against
///    every participant's fold.
///
/// The `debug_assert!`s state the protocol invariants the model checker
/// proves hold under every interleaving: LBTS never regresses, windows
/// are fully drained before they close, and no cross-engine event lands
/// inside a closed window.
#[allow(clippy::too_many_arguments)]
pub fn protocol_loop<S: SyncShim, E: BorrowMut<Engine>>(
    engines: &mut [E],
    shim: &S,
    shared: &Shared<'_>,
    cfg: &EmulationConfig,
    lookahead: u64,
    until_us: u64,
    round_limit: u64,
    state: &mut ProtocolState,
) {
    let cost = &cfg.cost;
    let parity = |rounds: u64| (rounds % 2) as usize;
    let idle = |e: &E| e.borrow().next_time().unwrap_or(u64::MAX);
    let next = engines.iter().map(idle).min().unwrap_or(u64::MAX);
    shim.publish(SlotArray::Mins, parity(state.rounds), next);
    shim.barrier_wait();
    let every = |array, p| (0..shim.participants()).map(move |w| shim.read(array, p, w));
    // Every participant counts the same rounds, so all stop here together.
    while state.rounds < round_limit {
        let p = parity(state.rounds);
        let gmin = every(SlotArray::Mins, p).min().unwrap_or(u64::MAX);
        if gmin >= until_us {
            break; // idle participants publish u64::MAX, so this is also "done"
        }
        debug_assert!(
            state.rounds == 0 || gmin >= state.last_lbts,
            "LBTS regressed: gmin {gmin} fell below the closed window at {}",
            state.last_lbts
        );
        let lbts = gmin.saturating_add(lookahead).min(until_us);
        state.last_lbts = lbts;
        if state.rounds == 0 {
            state.virtual_now = gmin;
        }

        // Process the window, ship remote events, fold the statistics.
        let (mut next, mut busy, mut frontier) = (u64::MAX, 0.0f64, lbts);
        for e in engines.iter_mut() {
            let e: &mut Engine = e.borrow_mut();
            let id = e.id as usize;
            let sent_before = e.remote_sent();
            let events = e.process_window(lbts, shared);
            if events == 0 {
                e.counters.record_stall(gmin);
            }
            debug_assert!(
                e.next_time().is_none_or(|t| t >= lbts),
                "window not drained: an event below LBTS {lbts} survived processing"
            );
            let sent = e.remote_sent() - sent_before;
            busy = busy.max(cost.engine_busy_us(events, sent, cfg.speed(id)));
            // An idle engine's frontier is its last processed event, not
            // lbts — with one engine the lookahead is effectively infinite
            // and lbts would wreck the virtual clock.
            let pending = e.next_time();
            frontier = frontier.min(pending.unwrap_or(e.counters.last_event_us));
            next = next.min(pending.unwrap_or(u64::MAX));
            for RemoteEvent { to_engine, event } in e.drain_outbox() {
                next = next.min(event.time_us);
                shim.send(p, id, to_engine as usize, event);
            }
        }
        shim.publish(SlotArray::WinBusy, p, busy.to_bits());
        shim.publish(SlotArray::WinProgress, p, frontier);
        shim.publish(SlotArray::Mins, 1 - p, next);
        shim.barrier_wait(); // all sends and folds complete

        // Drain inboxes, account the window.
        for e in engines.iter_mut() {
            let e: &mut Engine = e.borrow_mut();
            shim.recv_all(p, e.id as usize, &mut |event: Event| {
                debug_assert!(
                    event.time_us >= lbts,
                    "remote event at {} delivered into the closed window below {lbts}",
                    event.time_us
                );
                e.counters.record_remote_recv(event.time_us);
                e.enqueue(event);
            });
        }
        let max_busy = every(SlotArray::WinBusy, p)
            .map(f64::from_bits)
            .fold(0.0, f64::max);
        // Virtual progress this round: the new global frontier, capped by
        // lbts and never behind gmin.
        let progress = every(SlotArray::WinProgress, p)
            .fold(lbts, u64::min)
            .max(gmin);
        let span = progress.saturating_sub(state.virtual_now);
        state.virtual_now = state.virtual_now.max(progress);
        state.wall.add_busy_window(cost, max_busy, span);
        state.rounds += 1;
    }
}

/// Runs the emulation to completion on `cfg.workers` worker threads: the
/// steppable executor run in one step — there is one executor.
pub fn run(
    net: &Network,
    tables: &RoutingTables,
    flows: &[FlowSpec],
    cfg: EmulationConfig,
) -> EmulationReport {
    let mut emu = SteppableEmulation::new(net, tables, flows, cfg);
    emu.run_to_completion();
    emu.finish()
}

/// [`run`] in a single thread whatever `cfg.workers` says: the strict
/// reference every other configuration must reproduce.
pub fn run_sequential(
    net: &Network,
    tables: &RoutingTables,
    flows: &[FlowSpec],
    cfg: &EmulationConfig,
) -> EmulationReport {
    run(net, tables, flows, cfg.clone().with_workers(1))
}

/// [`run`] on one worker per available CPU. Produces the same report as
/// [`run_sequential`] for the same inputs: both run the identical
/// [`protocol_loop`], differing only in the [`SyncShim`] under it.
pub fn run_parallel(
    net: &Network,
    tables: &RoutingTables,
    flows: &[FlowSpec],
    cfg: &EmulationConfig,
) -> EmulationReport {
    let cpus = massf_par::Parallelism::available().get();
    run(net, tables, flows, cfg.clone().with_workers(cpus))
}

/// Merges per-engine state into the final report. Used by the executor
/// and the `massf-check` model checker, so all paths report identically.
pub fn finalize(
    engines: Vec<Engine>,
    cfg: &EmulationConfig,
    state: ProtocolState,
) -> EmulationReport {
    fn rows(c: &EngineCounters) -> [&[u64]; 3] {
        [c.windows(), c.stall_windows(), c.recv_windows()]
    }
    let each = |f: &dyn Fn(&Engine) -> u64| -> Vec<u64> { engines.iter().map(f).collect() };
    let counters = || engines.iter().map(|e| &e.counters);
    let total = |f: fn(&EngineCounters) -> u64| counters().map(f).sum();
    // One shared bucket count so every series row lines up.
    let buckets = counters()
        .flat_map(rows)
        .map(<[u64]>::len)
        .max()
        .unwrap_or(0);
    let series = |row: usize| -> Vec<Vec<u64>> {
        let padded = |c| {
            let mut w = rows(c)[row].to_vec();
            w.resize(buckets, 0);
            w
        };
        counters().map(padded).collect()
    };
    EmulationReport {
        nengines: cfg.nengines,
        engine_events: each(&|e| e.counters.events),
        engine_stalls: each(&|e| e.counters.stalled_rounds),
        engine_remote_sent: each(&|e| e.counters.remote_sent),
        engine_remote_recv: each(&|e| e.counters.remote_recv),
        engine_queue_peak: each(&|e| e.queue().stats().peak_depth),
        engine_sched_resizes: each(&|e| e.queue().stats().resizes),
        engine_reallocs: each(&|e| e.queue().stats().reallocs + e.counters.reallocs),
        engine_sorted_inserts: each(&|e| e.queue().stats().sorted_inserts),
        delivered: total(|c| c.delivered),
        dropped: total(|c| c.dropped),
        latency_sum_us: counters().map(|c| c.latency_sum_us).sum(),
        remote_messages: total(|c| c.remote_sent),
        rounds: state.rounds,
        virtual_end_us: counters().map(|c| c.last_event_us).max().unwrap_or(0),
        counter_window_us: cfg.counter_window_us,
        window_series: series(0),
        stall_series: series(1),
        recv_series: series(2),
        netflow: merge_collectors(engines.iter().map(|e| &e.netflow)),
        wall: state.wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::teragrid::teragrid;
    use massf_topology::Network;
    use massf_traffic::FlowSpec;

    fn star() -> Network {
        let mut net = Network::new();
        let r = net.add_router("r", 0);
        for i in 0..4 {
            let h = net.add_host(format!("h{i}"), 0);
            net.add_link(h, r, 100.0, 25);
        }
        net
    }

    /// Every slice on two workers, whatever its density (`run_parallel`
    /// leaves windows as sparse as these tests' on the calling thread).
    fn run_on_workers(
        net: &Network,
        tables: &RoutingTables,
        flows: &[FlowSpec],
        cfg: &EmulationConfig,
    ) -> EmulationReport {
        let mut emu = SteppableEmulation::new(net, tables, flows, cfg.clone());
        emu.set_workers((0..cfg.nengines).map(|e| e % 2).collect(), 0);
        emu.run_to_completion();
        emu.finish()
    }

    fn flows_star() -> Vec<FlowSpec> {
        vec![
            FlowSpec {
                src: 1,
                dst: 2,
                start_us: 0,
                packets: 10,
                bytes: 15_000,
                packet_interval_us: 100,
                window: None,
            },
            FlowSpec {
                src: 3,
                dst: 4,
                start_us: 50,
                packets: 5,
                bytes: 7_500,
                packet_interval_us: 200,
                window: None,
            },
            FlowSpec {
                src: 2,
                dst: 3,
                start_us: 1_000,
                packets: 3,
                bytes: 4_500,
                packet_interval_us: 50,
                window: None,
            },
        ]
    }

    #[test]
    fn sequential_delivers_everything() {
        let net = star();
        let tables = RoutingTables::build(&net);
        let cfg = EmulationConfig::new(vec![0, 0, 0, 1, 1], 2);
        let r = run_sequential(&net, &tables, &flows_star(), &cfg);
        assert_eq!(r.delivered, 18);
        assert_eq!(r.dropped, 0);
        // events: per packet, 1 inject + 1 router hop + 1 delivery = 3.
        assert_eq!(r.total_events(), 54);
        assert!(r.remote_messages > 0, "split partition must ship events");
        assert!(r.rounds > 0);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let net = star();
        let tables = RoutingTables::build(&net);
        for part in [
            vec![0u32, 0, 0, 1, 1],
            vec![0, 1, 0, 1, 0],
            vec![1, 0, 0, 0, 1],
        ] {
            let cfg = EmulationConfig::new(part.clone(), 2).with_netflow();
            let seq = run_sequential(&net, &tables, &flows_star(), &cfg);
            let par = run_on_workers(&net, &tables, &flows_star(), &cfg);
            assert_eq!(seq.engine_events, par.engine_events, "partition {part:?}");
            assert_eq!(seq.delivered, par.delivered);
            assert_eq!(seq.latency_sum_us, par.latency_sum_us);
            assert_eq!(seq.remote_messages, par.remote_messages);
            assert_eq!(seq.rounds, par.rounds);
            assert_eq!(seq.netflow, par.netflow);
            assert_eq!(seq.window_series, par.window_series);
            assert!((seq.wall.total_us - par.wall.total_us).abs() < 1e-6);
        }
    }

    #[test]
    fn lazy_slices_follow_engine_ownership() {
        let net = star();
        let tables = RoutingTables::build_lazy(&net);
        let cfg = EmulationConfig::new(vec![0, 0, 0, 1, 1], 2);
        let seq = run_sequential(&net, &tables, &flows_star(), &cfg);
        let slices = tables
            .slice_residency(&cfg.partition, 2)
            .expect("lazy tables have slices");
        assert_eq!(slices.len(), 2);
        assert_eq!(slices.iter().map(|s| s.sources).sum::<usize>(), 5);
        assert!(
            slices.iter().map(|s| s.rows_materialized).sum::<usize>() > 0,
            "forwarding must have materialized at least the router's row"
        );
        // A second run over the same shared tables demands the same rows:
        // the materialized set is idempotent, so the slices and the whole
        // report stay equal across executors.
        let par = run_on_workers(&net, &tables, &flows_star(), &cfg);
        assert_eq!(seq, par);
        assert_eq!(tables.slice_residency(&cfg.partition, 2), Some(slices));
    }

    #[test]
    fn netflow_disabled_by_default() {
        let net = star();
        let tables = RoutingTables::build(&net);
        let cfg = EmulationConfig::new(vec![0; 5], 1);
        let r = run_sequential(&net, &tables, &flows_star(), &cfg);
        assert!(r.netflow.is_empty());
    }

    #[test]
    fn netflow_counts_router_sightings() {
        let net = star();
        let tables = RoutingTables::build(&net);
        let cfg = EmulationConfig::new(vec![0; 5], 1).with_netflow();
        let r = run_sequential(&net, &tables, &flows_star(), &cfg);
        let total_pkts: u64 = r.netflow.iter().map(|f| f.packets).sum();
        assert_eq!(total_pkts, 18, "every packet crosses the one router once");
        assert_eq!(r.netflow.len(), 3, "one record per flow at the router");
    }

    #[test]
    fn single_engine_has_no_remote_traffic() {
        let net = star();
        let tables = RoutingTables::build(&net);
        let cfg = EmulationConfig::new(vec![0; 5], 1);
        let r = run_parallel(&net, &tables, &flows_star(), &cfg);
        assert_eq!(r.remote_messages, 0);
        assert_eq!(r.delivered, 18);
    }

    #[test]
    fn empty_flow_set_terminates_immediately() {
        let net = star();
        let tables = RoutingTables::build(&net);
        let cfg = EmulationConfig::new(vec![0, 0, 1, 1, 1], 2);
        let r = run_on_workers(&net, &tables, &[], &cfg);
        assert_eq!(r.total_events(), 0);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn worse_balance_costs_more_modeled_time() {
        let net = star();
        let tables = RoutingTables::build(&net);
        let flows = flows_star();
        // Balanced-ish: hosts split across engines. Skewed: everything on 0,
        // one idle host on 1 (same cut structure through the router).
        let balanced = EmulationConfig::new(vec![0, 0, 0, 1, 1], 2);
        let skewed = EmulationConfig::new(vec![0, 0, 0, 0, 1], 2);
        let rb = run_sequential(&net, &tables, &flows, &balanced);
        let rs = run_sequential(&net, &tables, &flows, &skewed);
        let ib = rb.engine_events.iter().copied().max().unwrap();
        let is_ = rs.engine_events.iter().copied().max().unwrap();
        assert!(
            is_ >= ib,
            "skewed partition should load engine 0 at least as much"
        );
    }

    #[test]
    fn teragrid_bulk_run_is_consistent() {
        let net = teragrid();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        let flows: Vec<FlowSpec> = (0..20)
            .map(|i| FlowSpec {
                src: hosts[i],
                dst: hosts[(i * 7 + 40) % hosts.len()],
                start_us: (i as u64) * 500,
                packets: 20,
                bytes: 30_000,
                packet_interval_us: 120,
                window: None,
            })
            .collect();
        // 5 engines: site s -> engine s-1 via AS id, backbone to engine 0.
        let part: Vec<u32> = net
            .nodes()
            .iter()
            .map(|n| if n.as_id == 0 { 0 } else { n.as_id - 1 })
            .collect();
        let cfg = EmulationConfig::new(part, 5);
        let seq = run_sequential(&net, &tables, &flows, &cfg);
        let par = run_on_workers(&net, &tables, &flows, &cfg);
        assert_eq!(seq.delivered, 400);
        assert_eq!(seq.engine_events, par.engine_events);
        assert_eq!(seq.rounds, par.rounds);
        assert_eq!(seq.latency_sum_us, par.latency_sum_us);
    }
}
