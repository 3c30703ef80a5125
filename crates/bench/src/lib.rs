//! # massf-bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation section (run them with
//! `cargo run -p massf-bench --release --bin <id>`), plus criterion
//! timing benches (`cargo bench`).
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `table1` | Table 1 — network topology setup |
//! | `fig2` | Figure 2 — load variation over the emulation lifetime |
//! | `fig3` | Figure 3 — TeraGrid site architecture (structure print) |
//! | `fig4` / `fig5` | Figures 4/5 — load imbalance (ScaLapack / GridNPB) |
//! | `fig6` / `fig7` | Figures 6/7 — application emulation time |
//! | `fig8` | Figure 8 — fine-grained load imbalance (GridNPB, Campus) |
//! | `fig9` / `fig10` | Figures 9/10 — isolated network emulation (replay) |
//! | `table2` | Table 2 — ScaLapack on the 200-router scale-up |
//! | `ablate_p` | §5 — latency/traffic priority sweep |
//! | `ablate_mem` | §5 — memory-constraint weight study |
//! | `ablate_baselines` | §5 — multilevel vs greedy k-cluster / random / BFS |
//! | `ablate_restarts` | §5 — best-of-N partitioner restart study |
//! | `ablate_routing` | §5 — flat SPF vs hierarchical AS routing |
//! | `ablate_topology_model` | §5 — BA vs Waxman BRITE growth models |
//! | `ablate_hetero` | extension — heterogeneous engine capacities |
//! | `ablate_dynamic` | extension — dynamic remapping (§6 future work) |
//! | `ablate_online` | extension — incremental vs global online repartitioning |
//! | `ablate_transport` | extension — paced vs window/ACK transport |
//! | `bench_pipeline` | mapping-pipeline thread-scaling wall-clock |
//! | `bench_engine` | event-core throughput: calendar queue vs heap baseline |
//! | `bench_routing` | routing tables: interval rows vs the analytic n² baseline, oracle-checked |
//! | `bench_slice` | lazy on-demand rows + per-engine residency slicing |
//! | `all_experiments` | the §4 set (Table 1, Figures 4–10, Table 2) |
//!
//! Every binary accepts an optional first argument: the problem-size scale
//! in `(0, 1]` (default 1.0 = the paper's sizes). `0.25` gives a quick
//! smoke run. Tables land in `results/<id>.json` (see
//! [`dump_json`]); EXPERIMENTS.md documents the regeneration workflow and
//! the paper-vs-measured tolerance per experiment. For per-run stage
//! timings and load timelines, use the CLI's `--report` run report
//! (DESIGN.md §11) rather than ad-hoc prints.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use massf_core::prelude::*;
use massf_metrics::report::ResultTable;

/// Parses the scale argument (first CLI arg, default 1.0). `--smoke` is
/// shorthand for a quick quarter-scale run, matching the CI smoke steps.
pub fn scale_from_args() -> f64 {
    let arg = std::env::args().nth(1); // srclint: allow(SA004) — shared flag parsing for the bench binaries
    if arg.as_deref() == Some("--smoke") {
        return 0.25;
    }
    let scale = arg.and_then(|s| s.parse::<f64>().ok()).unwrap_or(1.0);
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    scale
}

/// Runs the three approaches for one workload on the Table 1 topologies.
/// Returns `(topology, results)` rows.
pub fn run_grid(workload: Workload, scale: f64) -> Vec<(Topology, Vec<ApproachResult>)> {
    Topology::TABLE1
        .iter()
        .map(|&topo| {
            let built = Scenario::new(topo, workload).with_scale(scale).build();
            (topo, built.run_all())
        })
        .collect()
}

/// Builds a topology × approach table from a metric extractor.
pub fn grid_table(
    id: &str,
    caption: &str,
    grid: &[(Topology, Vec<ApproachResult>)],
    metric: impl Fn(&ApproachResult) -> f64,
) -> ResultTable {
    let mut t = ResultTable::new(id, caption);
    for (topo, results) in grid {
        for r in results {
            t.set(topo.label(), r.approach.label(), metric(r));
        }
    }
    t
}

/// Prints the table and the improvement summary the paper quotes
/// (PROFILE vs TOP, per row).
pub fn print_with_improvements(table: &ResultTable, precision: usize) {
    // srclint: allow(SA005) — bench output helper shared by the bin targets
    print!("{}", table.render(precision));
    for row in &table.rows {
        if let (Some(top), Some(profile)) = (table.get(row, "TOP"), table.get(row, "PROFILE")) {
            // srclint: allow(SA005) — bench output helper shared by the bin targets
            println!(
                "  {row}: PROFILE improves on TOP by {:.0}%",
                massf_metrics::improvement_pct(top, profile)
            );
        }
    }
    println!(); // srclint: allow(SA005) — bench output helper shared by the bin targets
}

/// Writes a table's JSON next to the binary outputs (under `results/`).
pub fn dump_json(table: &ResultTable) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{}.json", table.id));
        if let Err(e) = std::fs::write(&path, table.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display()); // srclint: allow(SA005) — bench output helper shared by the bin targets
        } else {
            println!("(wrote {})", path.display()); // srclint: allow(SA005) — bench output helper shared by the bin targets
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_at_tiny_scale() {
        let grid = run_grid(Workload::Scalapack, 0.07);
        assert_eq!(grid.len(), 3);
        let t = grid_table("t", "c", &grid, |r| r.load_imbalance);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.cols.len(), 3);
        for row in &t.rows {
            for col in &t.cols {
                assert!(t.get(row, col).is_some(), "missing {row}/{col}");
            }
        }
    }
}
