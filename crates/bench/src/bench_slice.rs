//! Per-engine routing-slice benchmark: eager-full compressed tables vs
//! lazy on-demand row materialization (DESIGN.md §16): the
//! `BENCH_routing_slice` table.
//!
//! Two sections:
//!
//! 1. **Shipped scenarios** (Table 1 + the §4.2.3 scale-up). For each
//!    topology the row times the eager-full and lazy builds, runs the
//!    ScaLapack-plus-background emulation over the lazy tables under the
//!    TOP partition, and samples the per-engine residency
//!    (`slice_residency`): only rows an engine's own traffic demanded are
//!    resident. The acceptance bar is a `≥ k/2×` reduction of the
//!    largest per-engine resident footprint vs the eager-full table on
//!    at least one k-engine scenario — and since the resident row set is
//!    a deterministic function of the flow schedule, the check is
//!    flake-free. Afterwards both tables are held to `bench_routing`'s
//!    n × n Dijkstra oracle on every `(src, dst)` pair (hop, link,
//!    latency, visit list — so eager and lazy are bit-identical), and an
//!    independent single-scratch Dijkstra sweep re-verifies latencies
//!    while measuring the allocations the reused [`SpfScratch`] saves —
//!    the same mechanism the eager build path now uses per worker.
//!
//! 2. **Synthetic million-host** ([`BriteConfig::million_host`]):
//!    Barabási–Albert growth toward 20 000 routers / 1 000 000 hosts at
//!    `scale = 1.0`. Eager tables are infeasible here by design — that
//!    is the point — so the lazy build is timed, demand is driven by
//!    walking sampled host-pair paths (`for_each_hop`, the engines'
//!    forwarding query) across an 8-way block partition, and the
//!    bounded per-engine residency is reported against the projected
//!    dense footprint. Sampled sources are re-checked against a fresh
//!    Dijkstra run.
//!
//! Scale 1.0 is the full million-host run; `--smoke` is quarter scale,
//! which still instantiates ≈250k hosts — the ≥100k-host lazy-sliced
//! smoke.

use crate::bench_routing::oracle::Oracle;
use crate::{time_best, Ctx, Output};
use massf_core::engine::run_sequential;
use massf_core::prelude::*;
use massf_core::routing::spf::{SpfScratch, SPF_RUN_ALLOCS};
use massf_core::routing::RoutingTables;
use massf_core::topology::brite::{self, BriteConfig};
use massf_core::topology::NodeId;
use massf_metrics::report::ResultTable;
use rand::{Rng, SeedableRng};

/// The largest per-engine resident footprint of `lazy` under
/// `assignment`, in bytes, and the rows materialized so far.
fn max_resident_bytes(lazy: &RoutingTables, assignment: &[u32], nengines: usize) -> (u64, usize) {
    let slices = lazy
        .slice_residency(assignment, nengines)
        .expect("lazy tables have slices");
    let max = slices.iter().map(|s| s.resident_bytes).max();
    (
        max.expect("at least one engine"),
        lazy.run_stats().unique_rows,
    )
}

/// Re-derives every source's distances with ONE reused Dijkstra scratch
/// and checks them against the (now fully materialized) lazy tables.
/// Returns the allocations the reuse saved over fresh-scratch-per-source.
fn scratch_verify_all(net: &Network, lazy: &RoutingTables, row: &str) -> u64 {
    let n = net.node_count() as NodeId;
    let mut scratch = SpfScratch::new();
    for src in 0..n {
        scratch.run(net, src);
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let d = scratch.dist_us()[dst as usize];
            let got = lazy.latency_us(src, dst);
            assert_eq!(
                got,
                (d != u64::MAX).then_some(d),
                "{row}: scratch oracle diverges at {src}->{dst}"
            );
        }
    }
    assert_eq!(scratch.runs(), n as u64);
    scratch.allocs_saved()
}

/// The shipped-scenario section; returns the best per-engine reduction
/// achieved relative to that scenario's own `k/2` bar.
fn shipped_section(t: &mut ResultTable, scale: f64, reps: usize) -> bool {
    let mut any_met_bar = false;
    for topo in [
        Topology::Campus,
        Topology::TeraGrid,
        Topology::Brite,
        Topology::BriteScaleup,
    ] {
        let row = topo.label();
        let built = Scenario::new(topo, Workload::Scalapack)
            .with_scale(scale)
            .build();
        let net = &built.study.net;
        let par = Parallelism::available();
        let k = topo.engines();

        let (eager_secs, eager) = time_best(reps, || {
            RoutingTables::build_kind(net, RoutingKind::Compressed, par)
        });
        let (lazy_secs, lazy) = time_best(reps, || RoutingTables::build_lazy(net));

        // Drive demand exactly the way the emulator does: run the full
        // flow schedule under the TOP partition over the lazy tables.
        let partition = built
            .study
            .map(Approach::Top, &built.predicted, &built.flows);
        let cfg = EmulationConfig::new(partition.part.clone(), partition.nparts);
        let report = run_sequential(net, &lazy, &built.flows, &cfg);
        assert!(report.delivered > 0, "{row}: emulation delivered nothing");

        let (max_engine_bytes, rows) = max_resident_bytes(&lazy, &partition.part, partition.nparts);
        // Every materialized row was one counted lookup; the rest hit.
        let lookups = lazy.lookups().expect("lazy tables count");
        let reduction = eager.table_bytes() as f64 / max_engine_bytes.max(1) as f64;
        if reduction >= k as f64 / 2.0 {
            any_met_bar = true;
        }

        t.set(row, "nodes", net.node_count() as f64);
        t.set(row, "engines", k as f64);
        t.set(row, "eager-kb", eager.table_bytes() as f64 / 1024.0);
        t.set(row, "resident-kb-max", max_engine_bytes as f64 / 1024.0);
        t.set(row, "reduction-x", reduction);
        t.set(row, "rows-mat", rows as f64);
        t.set(row, "demand-hits", (lookups - rows as u64) as f64);
        t.set(row, "demand-misses", rows as f64);
        t.set(row, "build-eager-ms", eager_secs * 1e3);
        t.set(row, "build-lazy-ms", lazy_secs * 1e3);

        // Correctness: all pairs bit-identical (this sweep materializes
        // the remaining rows — residency was sampled above, first), then
        // the independent one-scratch Dijkstra oracle.
        let oracle = Oracle::build(net);
        oracle.assert_answers(&eager, row);
        oracle.assert_answers(&lazy, row);
        let saved = scratch_verify_all(net, &lazy, row);
        assert_eq!(saved, (net.node_count() as u64 - 1) * SPF_RUN_ALLOCS);
        t.set(row, "spf-allocs-saved", saved as f64);
    }
    any_met_bar
}

/// The synthetic section: lazy-sliced routing at (a scale of) a million
/// hosts, where eager tables cannot be built at all.
fn million_section(t: &mut ResultTable, scale: f64) {
    let row = "million-host";
    let cfg = BriteConfig::million_host(scale);
    let (gen_secs, net) = time_best(1, || brite::generate(&cfg));
    let hosts = net.hosts().len();
    if scale >= 0.25 {
        assert!(
            hosts >= 100_000,
            "synthetic section must cover >=100k hosts, got {hosts}"
        );
    }

    let (lazy_secs, lazy) = time_best(1, || RoutingTables::build_lazy(&net));
    let n = net.node_count();

    // 8-way block partition; demand = chain walks over sampled host
    // pairs, the exact per-hop query `Engine::forward` issues.
    let nengines = brite::BRITE_ENGINES;
    let assignment: Vec<u32> = (0..n).map(|v| (v * nengines / n) as u32).collect();
    let host_ids = net.hosts();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x51fce);
    let pairs = 16 + (240.0 * scale) as usize;
    let (walk_secs, hops) = time_best(1, || {
        let mut hops = 0u64;
        for _ in 0..pairs {
            let src = host_ids[rng.gen_range(0..host_ids.len())];
            let dst = host_ids[rng.gen_range(0..host_ids.len())];
            let ok = lazy.for_each_hop(src, dst, |_, _| hops += 1);
            assert!(ok, "{row}: sampled pair {src}->{dst} unreachable");
        }
        hops
    });
    assert!(hops as usize >= pairs, "walks must traverse hops");

    let (max_engine_bytes, rows) = max_resident_bytes(&lazy, &assignment, nengines);

    // Demand-bounded residency: sampled paths touch a tiny fraction of
    // the network, so almost every row stays pending and the resident
    // footprint is nowhere near the (projected) precomputed matrices.
    assert!(
        rows > 0 && rows < n / 10,
        "{row}: expected sparse residency, got {rows}/{n} rows"
    );
    assert!(
        lazy.table_bytes() < lazy.dense_bytes() / 100,
        "{row}: lazy residency should be <1% of the dense projection"
    );

    // Spot-check sampled sources against a fresh Dijkstra oracle.
    let mut scratch = SpfScratch::new();
    for _ in 0..3 {
        let src = host_ids[rng.gen_range(0..host_ids.len())];
        scratch.run(&net, src);
        for _ in 0..64 {
            let dst = host_ids[rng.gen_range(0..host_ids.len())] as usize;
            let d = scratch.dist_us()[dst];
            if src as usize == dst {
                continue;
            }
            assert_eq!(
                lazy.latency_us(src, dst as NodeId),
                (d != u64::MAX).then_some(d),
                "{row}: oracle diverges at {src}->{dst}"
            );
        }
    }

    t.set(row, "nodes", n as f64);
    t.set(row, "hosts", hosts as f64);
    t.set(row, "engines", nengines as f64);
    t.set(row, "gen-ms", gen_secs * 1e3);
    t.set(row, "build-lazy-ms", lazy_secs * 1e3);
    t.set(row, "walk-ms", walk_secs * 1e3);
    t.set(row, "pairs-walked", pairs as f64);
    t.set(row, "rows-mat", rows as f64);
    t.set(row, "resident-kb-max", max_engine_bytes as f64 / 1024.0);
    t.set(row, "lazy-total-kb", lazy.table_bytes() as f64 / 1024.0);
    t.set(
        row,
        "dense-projected-gb",
        lazy.dense_bytes() as f64 / (1024.0 * 1024.0 * 1024.0),
    );
}

/// The `bench_slice` row.
pub fn run(ctx: &Ctx) -> Output {
    let mut t = ResultTable::new(
        "BENCH_routing_slice",
        "Per-engine routing slices: eager-full compressed tables vs lazy \
         on-demand rows (routes asserted bit-identical; residency sampled \
         after emulation-driven demand)",
    );

    let met_bar = shipped_section(&mut t, ctx.scale, ctx.reps());
    million_section(&mut t, ctx.scale);

    // The tentpole acceptance bar: on at least one k-engine scenario the
    // largest per-engine resident footprint is >= k/2 times smaller than
    // the eager-full table every engine would otherwise hold.
    assert!(
        met_bar,
        "no shipped scenario met the >= k/2 per-engine reduction bar"
    );

    let mut notes = String::new();
    for row in &t.rows {
        if let (Some(r), Some(k)) = (t.get(row, "reduction-x"), t.get(row, "engines")) {
            notes += &format!(
                "  {row}: max per-engine slice {r:.1}x smaller than eager-full (k = {k:.0})\n"
            );
        }
    }
    notes += "slices bounded by demand, routes bit-identical";
    Output {
        positive: &["nodes", "rows-mat", "resident-kb-max", "build-lazy-ms"],
        ..Output::new(vec![(t, 2)], notes)
    }
}
