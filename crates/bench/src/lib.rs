//! # massf-bench
//!
//! The paper's evaluation section as one table: [`REGISTRY`] has one row
//! per experiment — the ids it answers to, the result tables it returns,
//! whether those are a pure function of the scale, and the function that
//! computes them. The `massf-bench` binary is the only front end:
//!
//! ```sh
//! cargo run -p massf-bench --release -- list              # the registry
//! cargo run -p massf-bench --release -- fig4 table2       # some rows
//! cargo run -p massf-bench --release -- all               # every deterministic row
//! cargo run -p massf-bench --release -- 0.25 fig4         # quarter problem size
//! cargo run -p massf-bench --release -- --smoke bench_engine
//! ```
//!
//! The scale is a problem-size factor in `(0, 1]` (default 1.0 = the
//! paper's sizes). `--smoke` is the CI setting: quarter scale (0.08 for
//! `bench_engine`), one timing repetition, and nothing written. Every
//! other run writes each table to `results/<table>.json`; the
//! deterministic ones are checked in and CI fails when a full-scale run
//! changes them. EXPERIMENTS.md holds the measured-vs-paper record. For
//! per-run stage timings and load timelines, use the CLI's `--report` run
//! report (DESIGN.md §11).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ablate;
mod bench_engine;
mod bench_pipeline;
mod bench_routing;
mod bench_slice;
mod paper;

use massf_core::metrics::timeseries::mean_active_imbalance;
use massf_core::prelude::*;
use massf_metrics::report::ResultTable;

/// What the command line asked of every row it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ctx {
    /// Problem-size factor in `(0, 1]`.
    pub scale: f64,
    /// The CI setting: one timing repetition, nothing written.
    pub smoke: bool,
}

impl Ctx {
    /// Timing repetitions a wall-clock row takes the best of.
    pub fn reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// Best-of-`reps` wall-clock seconds for `f`, with its last result.
pub fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now(); // srclint: allow(SA002) — benchmark wall-clock is the measurement itself
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// What one row hands back for the binary to print, check and write.
pub struct Output {
    /// Each table with the decimals it prints at.
    pub tables: Vec<(ResultTable, usize)>,
    /// Columns that must be filled and positive in every row of every
    /// table (the self-check of the wall-clock rows).
    pub positive: &'static [&'static str],
    /// The paper's shape: per table id, columns whose cells must fall
    /// strictly from left to right in every row of that table (checked on
    /// full-scale runs only).
    pub falling: &'static [(&'static str, &'static [&'static str])],
    /// Text printed after the tables: what the paper reports, the shape
    /// to look for, or the whole of a figure that is not a table.
    pub notes: String,
}

impl Output {
    /// `tables`, each with its decimals, followed by `notes`.
    pub fn new(tables: Vec<(ResultTable, usize)>, notes: impl Into<String>) -> Self {
        Self {
            tables,
            positive: &[],
            falling: &[],
            notes: notes.into(),
        }
    }
}

/// One experiment of the evaluation.
pub struct Experiment {
    /// Names the command line accepts. A grid row answers to the three
    /// figures it computes together.
    pub ids: &'static [&'static str],
    /// Ids of the tables `run` returns, in order: `results/<id>.json`.
    pub tables: &'static [&'static str],
    /// One line for `massf-bench list`.
    pub about: &'static str,
    /// Whether the tables are a pure function of the scale. Those are
    /// checked in and gated by CI; the others record wall-clock.
    pub deterministic: bool,
    /// Computes the tables.
    pub run: fn(&Ctx) -> Output,
}

/// Every experiment, in the order `all` runs them and `list` prints them.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        ids: &["table1"],
        tables: &["table1"],
        about: "Table 1 — network topology setup",
        deterministic: true,
        run: paper::table1,
    },
    Experiment {
        ids: &["fig2"],
        tables: &[],
        about: "Figure 2 — load variation over the emulation lifetime",
        deterministic: true,
        run: paper::fig2,
    },
    Experiment {
        ids: &["fig3"],
        tables: &[],
        about: "Figure 3 — TeraGrid site architecture",
        deterministic: true,
        run: paper::fig3,
    },
    Experiment {
        ids: &["fig4", "fig6", "fig9"],
        tables: &["fig4", "fig6", "fig9"],
        about: "Figures 4/6/9 — ScaLapack: load imbalance, emulation time, isolated replay",
        deterministic: true,
        run: paper::scalapack_grid,
    },
    Experiment {
        ids: &["fig5", "fig7", "fig10"],
        tables: &["fig5", "fig7", "fig10"],
        about: "Figures 5/7/10 — GridNPB: load imbalance, emulation time, isolated replay",
        deterministic: true,
        run: paper::gridnpb_grid,
    },
    Experiment {
        ids: &["fig8"],
        tables: &[],
        about: "Figure 8 — fine-grained load imbalance (GridNPB, Campus)",
        deterministic: true,
        run: paper::fig8,
    },
    Experiment {
        ids: &["table2"],
        tables: &["table2"],
        about: "Table 2 — ScaLapack on the 200-router scale-up",
        deterministic: true,
        run: paper::table2,
    },
    Experiment {
        ids: &["ablate_p"],
        tables: &["ablate_p"],
        about: "§5 — latency/traffic priority sweep",
        deterministic: true,
        run: ablate::p,
    },
    Experiment {
        ids: &["ablate_mem"],
        tables: &["ablate_mem"],
        about: "§5 — memory-constraint weight study",
        deterministic: true,
        run: ablate::mem,
    },
    Experiment {
        ids: &["ablate_baselines"],
        tables: &["ablate_baselines"],
        about: "§5 — multilevel vs greedy k-cluster / random / BFS",
        deterministic: true,
        run: ablate::baselines,
    },
    Experiment {
        ids: &["ablate_restarts"],
        tables: &["ablate_restarts"],
        about: "§5 — best-of-N partitioner restart study",
        deterministic: true,
        run: ablate::restarts,
    },
    Experiment {
        ids: &["ablate_routing"],
        tables: &["ablate_routing"],
        about: "§5 — flat SPF vs hierarchical AS routing",
        deterministic: true,
        run: ablate::routing,
    },
    Experiment {
        ids: &["ablate_topology_model"],
        tables: &["ablate_topology_model"],
        about: "§5 — BA vs Waxman BRITE growth models",
        deterministic: true,
        run: ablate::topology_model,
    },
    Experiment {
        ids: &["ablate_hetero"],
        tables: &["ablate_hetero"],
        about: "extension — heterogeneous engine capacities",
        deterministic: true,
        run: ablate::hetero,
    },
    Experiment {
        ids: &["ablate_online"],
        tables: &["ablate_online"],
        about: "extension — online incremental repartitioning (§6)",
        deterministic: true,
        run: ablate::online,
    },
    Experiment {
        ids: &["ablate_transport"],
        tables: &["ablate_transport"],
        about: "extension — paced vs window/ACK transport",
        deterministic: true,
        run: ablate::transport,
    },
    Experiment {
        ids: &["bench_pipeline"],
        tables: &["BENCH_pipeline"],
        about: "mapping-pipeline stages at 1/2/4 worker threads",
        deterministic: false,
        run: bench_pipeline::run,
    },
    Experiment {
        ids: &["bench_engine"],
        tables: &["BENCH_engine"],
        about: "event-core throughput: calendar queue vs heap baseline",
        deterministic: false,
        run: bench_engine::run,
    },
    Experiment {
        ids: &["bench_routing"],
        tables: &["BENCH_routing"],
        about: "routing tables: interval rows vs the analytic n² baseline, oracle-checked",
        deterministic: false,
        run: bench_routing::run,
    },
    Experiment {
        ids: &["bench_slice"],
        tables: &["BENCH_routing_slice"],
        about: "lazy on-demand rows + per-engine residency slicing",
        deterministic: false,
        run: bench_slice::run,
    },
];

/// The registry as `massf-bench list` prints it (README.md carries the
/// same block).
pub fn listing() -> String {
    let mut out = String::new();
    for e in REGISTRY {
        let kind = match (e.deterministic, e.tables) {
            (true, []) => " (text only)".to_string(),
            (true, _) => String::new(),
            (false, tables) => format!(" (wall-clock; results/{}.json)", tables.join(", ")),
        };
        out += &format!("{:<22} {}{kind}\n", e.ids.join(" "), e.about);
    }
    out
}

/// Parses `[scale | --smoke] <id>… | all | list`, words in any order,
/// into the context and the rows asked for — each once, in order of first
/// mention; none means "print the listing". `all` is every deterministic
/// row. The error is one line.
pub fn parse(args: &[String]) -> Result<(Ctx, Vec<&'static Experiment>), String> {
    let mut ctx = None;
    let mut rows: Vec<&'static Experiment> = Vec::new();
    for arg in args {
        let mut known = arg == "list";
        for e in REGISTRY {
            if (arg == "all" && e.deterministic) || e.ids.contains(&arg.as_str()) {
                known = true;
                if !rows.iter().any(|r| std::ptr::eq(*r, e)) {
                    rows.push(e);
                }
            }
        }
        if known {
            continue;
        }
        let smoke = arg == "--smoke";
        let scale = if smoke { Some(0.25) } else { arg.parse().ok() };
        let Some(scale) = scale else {
            return Err(format!(
                "{arg:?} is neither an experiment id (see `massf-bench list`) nor a scale in (0, 1]"
            ));
        };
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(format!("scale must be in (0, 1], got {arg:?}"));
        }
        if ctx.replace(Ctx { scale, smoke }).is_some() {
            return Err(format!("{arg:?}: the scale is already set"));
        }
    }
    let ctx = ctx.unwrap_or(Ctx {
        scale: 1.0,
        smoke: false,
    });
    Ok((ctx, rows))
}

/// Fills `row` with the named columns of an emulation report: the one
/// definition of what the ablation tables' shared column names mean.
fn fill(t: &mut ResultTable, row: &str, r: &EmulationReport, cols: &[&str]) {
    for &col in cols {
        let value = match col {
            "imbalance" => load_imbalance(&r.engine_events),
            "fine_grained" => mean_active_imbalance(&r.window_series, 32),
            "time_s" | "net_time_s" => r.emulation_time_s(),
            "events" => r.total_events() as f64,
            "remote_msgs" => r.remote_messages as f64,
            "sync_rounds" => r.rounds as f64,
            "virt_end_s" => r.virtual_end_us as f64 / 1e6,
            // One emulation under one partition moves nothing.
            "migrated" | "remaps" => 0.0,
            _ => unreachable!("no report column named {col}"),
        };
        t.set(row, col, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn words(line: &[&str]) -> Vec<String> {
        line.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn registry_runs_at_tiny_scale() {
        // Ids are unique, and every id the listing prints selects its row.
        let ids: Vec<&str> = REGISTRY.iter().flat_map(|e| e.ids).copied().collect();
        assert_eq!(ids.iter().collect::<BTreeSet<_>>().len(), ids.len());
        for (line, e) in listing().lines().zip(REGISTRY) {
            assert!(line.starts_with(&e.ids.join(" ")), "{line}");
            for &id in e.ids {
                let (_, rows) = parse(&words(&[id])).unwrap();
                assert!(std::ptr::eq(rows[0], e), "{id}");
            }
        }
        let (_, all) = parse(&words(&["fig4", "all", "fig9"])).unwrap();
        assert_eq!(
            all.len(),
            REGISTRY.iter().filter(|e| e.deterministic).count()
        );

        // Every deterministic row returns the tables it declares, full.
        let (ctx, _) = parse(&words(&["0.07"])).unwrap();
        let mut checked_in = BTreeSet::new();
        for e in REGISTRY {
            checked_in.extend(e.tables.iter().map(|t| format!("{t}.json")));
            if !e.deterministic {
                continue;
            }
            let out = (e.run)(&ctx);
            let got: Vec<&str> = out.tables.iter().map(|(t, _)| t.id.as_str()).collect();
            assert_eq!(got, e.tables, "{:?}", e.ids);
            assert!(!out.notes.is_empty());
            for (t, _) in &out.tables {
                assert!(!t.rows.is_empty() && !t.cols.is_empty(), "{}", t.id);
                for (row, col) in t
                    .rows
                    .iter()
                    .flat_map(|r| t.cols.iter().map(move |c| (r, c)))
                {
                    assert!(t.get(row, col).is_some(), "{}: no {row}/{col}", t.id);
                }
            }
        }

        // `results/` holds exactly the registry's tables.
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results)
            .unwrap()
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(on_disk, checked_in);
    }

    #[test]
    fn bad_words_are_one_line_errors_and_readme_carries_the_listing() {
        for bad in [
            &["fig11"][..],
            &["abc", "fig4"],
            &["0"],
            &["1.5"],
            &["-0.5"],
            &["nan"],
        ] {
            let e = parse(&words(bad)).err().expect("refused");
            assert!(!e.contains('\n') && e.contains(bad[0]), "{bad:?}: {e}");
        }
        assert!(parse(&words(&["--smoke", "0.5"])).is_err());
        let (smoke, _) = parse(&words(&["bench_engine", "--smoke"])).unwrap();
        assert_eq!(
            smoke,
            Ctx {
                scale: 0.25,
                smoke: true
            }
        );
        assert_eq!(smoke.reps(), 1);
        assert!(parse(&[]).unwrap().1.is_empty());

        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).unwrap();
        assert!(
            readme.contains(&listing()),
            "README.md's experiment block drifted from `massf-bench list`:\n{}",
            listing()
        );
    }
}
