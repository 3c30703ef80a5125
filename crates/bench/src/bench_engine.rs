//! Engine event-core throughput: the calendar-queue scheduler against the
//! binary-heap baseline over the three Table 1 scenarios and one schedule
//! of thousands of late-starting flows (`Brite-ONOFF`: on/off sources on
//! the Brite shape), driven both sequentially (`-seq`) and with the engines
//! dealt to one worker thread per core (`-thr`, engaged only on dense
//! slices), and sequentially with NetFlow on (`netflow-seq`): the
//! `BENCH_engine` table.
//!
//! Both schedulers pop the identical total event order, so every run of a
//! scenario produces the same report — the row asserts this — and the
//! comparison isolates pure scheduler cost. Alongside events/second the
//! table records peak queue depth, conservative-window rounds, and logical
//! allocations, in total and per thousand events (scheduler buffer growth +
//! outbox growth, counted deterministically at the call sites). The
//! calendar's buffers are bounded by its peak depth, so that count must not
//! follow the event count: the row asserts [`MAX_ALLOCS_PER_KEVENT`] at
//! full scale and [`SMOKE_ALLOC_CEILINGS`] at smoke scale.
//!
//! `bytes/peak-event` is memory per pending event: the calendars'
//! `retained_bytes` at the end of a sequential run, summed over engines,
//! over their summed peak depths; the row asserts it under
//! [`SMOKE_BYTES_PER_PEAK_EVENT`] at smoke scale.
//!
//! `sorted-share` is the share of the calendar's pushes that were a
//! binary-search insert into its sorted front (`SchedStats::sorted_inserts`
//! over events): near 1 the calendar has degenerated into one sorted list,
//! which is what a queue holding every flow's start did on `Brite-ONOFF`.
//! The row asserts it below [`MAX_SORTED_SHARE`] under `--smoke` (the heap
//! reports 0).
//!
//! Forwarding asks the routing tables once per (engine, route, hop) and
//! pins the answer: `table-lookups/kev` is what a lazy table counted per
//! thousand events. That count follows routes, not packets — the row
//! asserts that playing the schedule twice back to back leaves it
//! unchanged.
//!
//! `--smoke` is tiny here (scale 0.08, one rep); the binary's self-check
//! then requires every throughput cell filled and positive.

use crate::{time_best, Ctx, Output};
use massf_core::engine::{
    run_parallel, run_sequential, EmulationReport, SchedulerKind, SteppableEmulation,
};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::traffic::onoff;
use massf_metrics::report::ResultTable;

/// Most logical allocations per thousand events the calendar may make at
/// full scale, where start-up growth is amortised over millions of events
/// (measured: 0.1–0.3; a queue leaking capacity per bucket made 8–51).
const MAX_ALLOCS_PER_KEVENT: f64 = 2.0;

/// Most logical allocations the calendar may make in the `--smoke` run of
/// each row: start-up growth dominates a run that short, so the total is
/// pinned instead — the first run's 47 / 84 / 112 / 88 plus a quarter (the
/// leaking queue made 1 125 / 577 / 990 on the Table 1 rows).
const SMOKE_ALLOC_CEILINGS: [u64; 4] = [60, 105, 140, 110];

/// Most bytes the `--smoke` run's calendars may hold per event of their
/// peak depth (`bytes/peak-event`): the first run's 70.4 / 67.8 / 50.6 /
/// 69.9 with 32-byte events plus an eighth. The same rows read 111.6 /
/// 102.3 / 79.5 / 107.3 with the 56-byte events that carried their
/// packet's endpoints and size.
const SMOKE_BYTES_PER_PEAK_EVENT: [f64; 4] = [80.0, 77.0, 57.0, 79.0];

/// Largest sorted-insert share a calendar row may show (measured: 0.02–0.21;
/// `benchmark/`'s `online_onoff` read 0.99 with every start in the queue).
const MAX_SORTED_SHARE: f64 = 0.25;

/// Emulated seconds of the `Brite-ONOFF` schedule at full scale: 48 sources
/// bursting once a second make some 2 900 flows, all but a few of which
/// start long after the first window.
const ONOFF_SECONDS: f64 = 60.0;

/// (engine events, delivered, rounds, virtual end, queue peaks).
type Fingerprint = (Vec<u64>, u64, u64, u64, Vec<u64>);

/// Simulated quantities that must not depend on scheduler or executor.
fn fingerprint(r: &EmulationReport) -> Fingerprint {
    (
        r.engine_events.clone(),
        r.delivered,
        r.rounds,
        r.virtual_end_us,
        r.engine_queue_peak.clone(),
    )
}

/// The `bench_engine` row.
pub fn run(ctx: &Ctx) -> Output {
    let smoke = ctx.smoke;
    let scale = if smoke { 0.08 } else { ctx.scale };
    let reps = ctx.reps();

    // The `-thr` cells run one worker per core, so they mean nothing
    // without the core count they ran on.
    let mut t = ResultTable::new(
        "BENCH_engine",
        format!(
            "Engine throughput (events/second unless noted): heap baseline vs calendar queue; \
             -seq on one thread, -thr on one worker per core, {} core(s)",
            Parallelism::available()
        ),
    );

    let cases = Topology::TABLE1.map(|t| (t, false)).into_iter();
    let cases = cases.chain([(Topology::Brite, true)]);
    let ceilings = SMOKE_ALLOC_CEILINGS
        .into_iter()
        .zip(SMOKE_BYTES_PER_PEAK_EVENT);
    for ((topo, bursty), (smoke_ceiling, smoke_bytes)) in cases.zip(ceilings) {
        let mut built = Scenario::new(topo, Workload::Scalapack)
            .with_scale(scale)
            .build();
        let row = format!("{}{}", topo.label(), if bursty { "-ONOFF" } else { "" });
        let row = row.as_str();
        if bursty {
            let sources = onoff::OnOffConfig {
                sessions: 48,
                ..onoff::OnOffConfig::default()
            };
            let hosts = built.study.net.hosts();
            built.flows = onoff::generate(&hosts, &sources, (ONOFF_SECONDS * scale * 1e6) as u64);
            built.predicted = onoff::predict(&hosts, &sources);
        }
        let partition = built
            .study
            .map(Approach::Top, &built.predicted, &built.flows);
        let base = EmulationConfig::new(partition.part.clone(), partition.nparts);
        let net = &built.study.net;

        let mut reference: Option<Fingerprint> = None;
        let mut eps_seq = [0.0f64; 2];
        for (i, kind) in [SchedulerKind::Heap, SchedulerKind::Calendar]
            .into_iter()
            .enumerate()
        {
            let cfg = base.clone().with_scheduler(kind);
            let (secs, report) = time_best(reps, || {
                run_sequential(net, &built.study.tables, &built.flows, &cfg)
            });
            let events = report.total_events() as f64;
            eps_seq[i] = events / secs.max(1e-9);
            t.set(row, format!("{}-seq", kind.label()), eps_seq[i]);

            let (secs, preport) = time_best(reps, || {
                run_parallel(net, &built.study.tables, &built.flows, &cfg)
            });
            t.set(
                row,
                format!("{}-thr", kind.label()),
                events / secs.max(1e-9),
            );

            // Same simulated outcome for every scheduler and executor.
            for r in [&report, &preport] {
                let fp = fingerprint(r);
                match &reference {
                    None => reference = Some(fp),
                    Some(want) => assert_eq!(want, &fp, "{row}: results diverged"),
                }
            }

            let sorted_share = report.sorted_insert_share();
            if kind == SchedulerKind::Heap {
                assert_eq!(sorted_share, 0.0, "{row}: the heap has no sorted front");
            } else {
                t.set(row, "sorted-share", sorted_share);
                assert!(
                    !smoke || sorted_share < MAX_SORTED_SHARE,
                    "{row}: {sorted_share:.3} of the pushes were sorted inserts"
                );
                let profiled = cfg.clone().with_netflow();
                let (secs, nreport) = time_best(reps, || {
                    run_sequential(net, &built.study.tables, &built.flows, &profiled)
                });
                assert_eq!(
                    reference,
                    Some(fingerprint(&nreport)),
                    "{row}: NetFlow diverged"
                );
                t.set(row, "netflow-seq", events / secs.max(1e-9));
                let allocs: u64 = report.engine_reallocs.iter().sum();
                t.set(row, "allocs", allocs as f64);
                let per_kevent = 1000.0 * allocs as f64 / events.max(1.0);
                t.set(row, "allocs/kev", per_kevent);
                if smoke {
                    assert!(
                        allocs <= smoke_ceiling,
                        "{row}: {allocs} allocations > {smoke_ceiling}"
                    );
                } else if scale == 1.0 {
                    assert!(
                        per_kevent <= MAX_ALLOCS_PER_KEVENT,
                        "{row}: {per_kevent:.2} allocations per thousand events"
                    );
                }
                let peak = report.engine_queue_peak.iter().max().copied().unwrap_or(0);
                t.set(row, "queue-peak", peak as f64);
                // Deterministic: the same pushes grow the same buffers.
                let tables = &built.study.tables;
                let mut emu = SteppableEmulation::new(net, tables, &built.flows, cfg.clone());
                emu.run_to_completion();
                let (engines, ..) = emu.into_parts();
                let held: usize = engines.iter().map(|e| e.queue().retained_bytes()).sum();
                let depth: u64 = engines.iter().map(|e| e.queue().stats().peak_depth).sum();
                let per_event = held as f64 / depth.max(1) as f64;
                t.set(row, "bytes/peak-event", per_event);
                assert!(
                    !smoke || per_event <= smoke_bytes,
                    "{row}: the calendars hold {per_event:.1} B per peak event > {smoke_bytes}"
                );
                t.set(row, "rounds", report.rounds as f64);
            }
        }
        t.set(row, "seq-speedup", eps_seq[1] / eps_seq[0].max(1e-9));

        // Table lookups of one emulation of `flows`, counted by fresh lazy
        // tables, with the events they served.
        let lookups_of = |flows: &[FlowSpec]| {
            let lazy = RoutingTables::build_lazy(net);
            let report = run_sequential(net, &lazy, flows, &base);
            let lookups = lazy.lookups().expect("lazy tables count");
            (lookups, report)
        };
        let (lookups, once) = lookups_of(&built.flows);
        assert_eq!(reference, Some(fingerprint(&once)), "{row}: lazy diverged");
        let replay = built.flows.iter().map(|f| FlowSpec {
            start_us: f.start_us + once.virtual_end_us + 1_000_000,
            ..*f
        });
        let twice: Vec<FlowSpec> = built.flows.iter().cloned().chain(replay).collect();
        let (lookups_twice, both) = lookups_of(&twice);
        assert_eq!(both.total_events(), 2 * once.total_events());
        assert_eq!(
            lookups_twice, lookups,
            "{row}: table lookups followed packets, not routes"
        );
        t.set(
            row,
            "table-lookups/kev",
            1000.0 * lookups as f64 / once.total_events().max(1) as f64,
        );
    }

    let mut notes = String::new();
    for row in &t.rows {
        if let Some(s) = t.get(row, "seq-speedup") {
            notes += &format!("  {row}: calendar is {s:.2}x the heap baseline (sequential)\n");
        }
    }
    Output {
        positive: &[
            "heap-seq",
            "calendar-seq",
            "heap-thr",
            "calendar-thr",
            "netflow-seq",
        ],
        ..Output::new(vec![(t, 1)], notes)
    }
}
