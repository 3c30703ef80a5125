//! Mapping-pipeline thread scaling: times the three parallelized stages
//! (routing-table build, predicted-traffic accumulation, partitioner
//! restart search) plus the end-to-end PROFILE mapping of a built scenario
//! (its routing tables and the mapping) at 1/2/4 worker threads, and
//! checks the results are identical at every count: the
//! `BENCH_pipeline` table. Neither the scale nor the tables' size enter —
//! the stages run at fixed sizes.
//!
//! Thread 1 runs the exact serial reference paths, so the `1` column is
//! the pre-parallelization baseline. Speedups only materialize with real
//! cores; on a single-core machine every column should be ~equal.

use crate::{time_best, Ctx, Output};
use massf_core::mapping::place::foreground_prediction;
use massf_core::mapping::weights::{accumulate_predicted_with, latency_graph};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_metrics::report::ResultTable;

const THREADS: [usize; 3] = [1, 2, 4];

/// The `bench_pipeline` row.
pub fn run(ctx: &Ctx) -> Output {
    let reps = ctx.reps();
    let mut t = ResultTable::new(
        "BENCH_pipeline",
        "Mapping-pipeline stage wall-clock (seconds) by worker threads",
    );
    let net = Topology::BriteScaleup.build();
    let hosts = net.hosts();
    let pred = foreground_prediction(&net, &hosts);
    let graph = latency_graph(&net);

    let built = Scenario::new(Topology::TeraGrid, Workload::Scalapack)
        .with_scale(0.12)
        .build();

    let mut reference: Vec<Option<RoutingTables>> = vec![None];
    for &threads in &THREADS {
        let col = threads.to_string();
        let par = Parallelism::new(threads);

        let (secs, tables) = time_best(reps, || RoutingTables::build_with(&net, par));
        t.set("routing-tables", &col, secs);
        match &reference[0] {
            None => reference[0] = Some(tables),
            Some(r) => assert_eq!(r, &tables, "tables differ at {threads} threads"),
        }
        let tables = reference[0].as_ref().expect("set above");

        let (secs, _) = time_best(reps, || accumulate_predicted_with(&net, tables, &pred, par));
        t.set("accumulate-predicted", &col, secs);

        let (secs, _) = time_best(reps, || {
            partition_kway(&graph, &PartitionConfig::new(8).with_threads(par))
        });
        t.set("partition-restarts", &col, secs);

        let (secs, _) = time_best(reps, || {
            let cfg = built.study.cfg.clone().with_parallelism(par);
            MappingStudy::new(built.study.net.clone(), cfg).map(
                Approach::Profile,
                &built.predicted,
                &built.flows,
            )
        });
        t.set("profile-end-to-end", &col, secs);
    }

    let mut notes = String::new();
    for row in &t.rows {
        if let (Some(serial), Some(four)) = (t.get(row, "1"), t.get(row, "4")) {
            notes += &format!("  {row}: {:.2}x speedup at 4 threads\n", serial / four);
        }
    }
    notes += &format!(
        "(machine has {} core(s); speedup is bounded by physical cores)",
        Parallelism::available()
    );
    Output::new(vec![(t, 4)], notes)
}
