//! Routing-table benchmark: the interval-row table (DESIGN.md §13) over
//! the Table 1 scenarios plus the 200-router scale-up, sized against the
//! analytic `n × n` baseline: the `BENCH_routing` table.
//!
//! For every topology the row builds the tables and the test-only
//! n × n Dijkstra oracle, **asserts identical routing** (next hop, next
//! link, latency and the hop-visitor trace on every (src, dst) pair),
//! then records table bytes and the ratio to `dense_bytes()`, the row/run
//! shape (leaf / unique rows, runs per row), build wall-clock, and
//! lookup throughput (`next_link_raw` over all
//! pairs — the forwarding hot-loop query), and the audit's two routing
//! probes (MC014 asymmetry + MC015 ECMP, `massf_routing::probes`) beside
//! the pairwise reference they replaced, **asserting equal output** and
//! that the intact tables certify (no asymmetry compare runs).
//!
//! All size and shape cells are deterministic functions of the topology,
//! so the `ratio ≥ 10×` acceptance check is flake-free by construction;
//! only the timing cells vary run to run. The scale is ignored — table
//! size depends only on the topology; `--smoke` takes one timing rep.

use crate::{time_best, Ctx, Output};
use massf_core::prelude::*;
use massf_core::routing::probes::{self, AsymmetricPair, EcmpSite};
use massf_core::routing::spf::SpfTree;
use massf_core::routing::RoutingTables;
use massf_core::topology::{LinkId, NodeId};
use massf_metrics::report::ResultTable;

/// The n × n routing oracle `massf-routing` keeps for its own tests,
/// mounted from its source so there is one copy.
#[path = "../../routing/src/tables/oracle.rs"]
pub(crate) mod oracle;

/// The pairwise oracle `massf-routing` keeps for its own tests, mounted
/// from its source so there is one copy.
#[path = "../../routing/src/probes/naive.rs"]
mod naive;

/// Witness cap the audit passes (the MC catalog's `CAP - 1`).
const AUDIT_CAP: usize = 24;

/// All-pairs `next_link_raw` sweep; returns lookups per second.
fn lookup_throughput(tables: &RoutingTables, reps: usize) -> f64 {
    let n = tables.node_count() as NodeId;
    let (secs, checksum) = time_best(reps, || {
        let mut acc = 0u64;
        for a in 0..n {
            for b in 0..n {
                acc = acc.wrapping_add(tables.next_link_raw(a, b).0 as u64);
            }
        }
        acc
    });
    assert!(checksum > 0, "sweep must touch real links");
    (n as f64 * n as f64) / secs.max(1e-9)
}

/// Both audit probes over `tables`, timed, and the pairwise oracle timed
/// once; panics unless the tables certify and both return the same
/// witnesses and totals. Returns `(probes_ms, naive_ms)`.
fn audit_probes(net: &Network, tables: &RoutingTables, reps: usize, row: &str) -> (f64, f64) {
    let (secs, found) = time_best(reps, || probes::sweep(net, tables, AUDIT_CAP));
    assert!(found.certified, "{row}: intact tables fail the certificate");
    let got = (found.asymmetric, found.ecmp);
    let (naive_secs, want) = time_best(1, || {
        (
            naive::asymmetric_latencies(tables, AUDIT_CAP),
            naive::ecmp_sites(net, tables, AUDIT_CAP),
        )
    });
    assert_eq!(got, want, "{row}: probes diverge from the pairwise oracle");
    (secs * 1e3, naive_secs * 1e3)
}

/// The `bench_routing` row.
pub fn run(ctx: &Ctx) -> Output {
    let reps = ctx.reps();

    let mut t = ResultTable::new(
        "BENCH_routing",
        "Routing tables: compressed interval rows, sized against the analytic \
         n\u{b2} baseline (routes asserted equal to the Dijkstra oracle on every pair)",
    );

    let mut best_ratio = 0.0f64;
    for topo in [
        Topology::Campus,
        Topology::TeraGrid,
        Topology::Brite,
        Topology::BriteScaleup,
    ] {
        let net = topo.build();
        let row = topo.label();
        let par = Parallelism::available();

        let (comp_secs, comp) = time_best(reps, || RoutingTables::build_with(&net, par));
        oracle::Oracle::build(&net).assert_answers(&comp, row);

        let ratio = comp.dense_bytes() as f64 / comp.table_bytes().max(1) as f64;
        best_ratio = best_ratio.max(ratio);
        let stats = comp.run_stats();

        t.set(row, "nodes", net.node_count() as f64);
        t.set(row, "dense-kb", comp.dense_bytes() as f64 / 1024.0);
        t.set(row, "comp-kb", comp.table_bytes() as f64 / 1024.0);
        t.set(row, "ratio", ratio);
        t.set(row, "rows-leaf", stats.leaf_rows as f64);
        t.set(row, "rows-unique", stats.unique_rows as f64);
        t.set(row, "runs-mean", stats.runs_mean_per_row);
        t.set(row, "runs-max", stats.runs_max_per_row as f64);
        t.set(row, "build-comp-ms", comp_secs * 1e3);
        t.set(row, "lookup-comp-M/s", lookup_throughput(&comp, reps) / 1e6);
        let (probes_ms, naive_ms) = audit_probes(&net, &comp, reps, row);
        t.set(row, "audit-probes-comp-ms", probes_ms);
        t.set(row, "audit-naive-comp-ms", naive_ms);
    }

    // The tentpole acceptance bar: a ≥10× reduction on at least one
    // shipped scenario. Byte counts are deterministic, so this cannot
    // flake.
    assert!(
        best_ratio >= 10.0,
        "expected a >=10x table-size reduction on some scenario, best was {best_ratio:.1}x"
    );

    let mut notes = String::new();
    for row in &t.rows {
        if let (Some(r), Some(m)) = (t.get(row, "ratio"), t.get(row, "runs-mean")) {
            notes += &format!("  {row}: {r:.1}x smaller, {m:.1} runs per unique row\n");
        }
    }
    notes += &format!("routes equal the oracle, best ratio {best_ratio:.1}x");
    Output {
        positive: &["dense-kb", "comp-kb", "ratio", "runs-mean"],
        ..Output::new(vec![(t, 2)], notes)
    }
}
