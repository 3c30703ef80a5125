//! The §4 set: Table 1, Figures 2–10, Table 2.

use crate::{Ctx, Output};
use massf_core::metrics::report::bar;
use massf_core::metrics::timeseries::{imbalance_series, mean_active_imbalance};
use massf_core::prelude::*;
use massf_core::routing::RoutingTables;
use massf_core::topology::teragrid::SITES;
use massf_core::topology::NodeKind;
use massf_metrics::report::ResultTable;
use std::fmt::Write;

/// Table 1 — network topology setup: routers, hosts, emulation engine
/// nodes per topology (plus link counts as a bonus column).
pub fn table1(_: &Ctx) -> Output {
    let mut t = ResultTable::new("table1", "Network Topology Setup (paper Table 1)");
    for topo in Topology::TABLE1 {
        let net = topo.build();
        t.set(topo.label(), "Router", net.router_count() as f64);
        t.set(topo.label(), "Host", net.host_count() as f64);
        t.set(topo.label(), "Engines", topo.engines() as f64);
        t.set(topo.label(), "Links", net.link_count() as f64);
    }
    Output::new(
        vec![(t, 0)],
        "paper: Campus 20/40/3, TeraGrid 27/150/5, Brite 160/132/8",
    )
}

/// GridNPB on Campus with the counter window Figures 2 and 8 sample at.
/// The paper samples 2 s intervals over a ~15 min run (~0.2% of the
/// horizon); our scaled runs last seconds, so sample proportionally.
fn campus_gridnpb(ctx: &Ctx, counter_window_us: u64) -> BuiltScenario {
    let mut built = Scenario::new(Topology::Campus, Workload::GridNpb)
        .with_scale(ctx.scale)
        .build();
    built.study.counter_window_us = counter_window_us;
    built
}

/// Figure 2 — load variation over the lifetime of an emulation: per-engine
/// kernel-event load in each virtual-time interval (GridNPB on Campus
/// under the TOP partition, the configuration §3.3 motivates with).
pub fn fig2(ctx: &Ctx) -> Output {
    let report = campus_gridnpb(ctx, 250_000)
        .run_approach(Approach::Top)
        .report;

    let mut out = format!(
        "== fig2 — Load Variation Over the Lifetime of an Emulation ==\n\
         GridNPB on Campus, TOP partition, {} ms intervals, {} engines\n\n",
        report.counter_window_us / 1000,
        report.nengines
    );
    let buckets = report.window_series.first().map(Vec::len).unwrap_or(0);
    let max = report
        .window_series
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap_or(1) as f64;
    let _ = writeln!(
        out,
        "{:>8} {:>10}  per-engine load (events/interval)",
        "t (s)", "total"
    );
    for b in 0..buckets {
        let loads: Vec<u64> = report.window_series.iter().map(|e| e[b]).collect();
        let total: u64 = loads.iter().sum();
        let _ = write!(
            out,
            "{:>8.1} {total:>10} ",
            b as f64 * report.counter_window_us as f64 / 1e6
        );
        for (e, &l) in loads.iter().enumerate() {
            let _ = write!(out, " e{e}:{:<12}", bar(l as f64, max, 10));
        }
        let _ = writeln!(out, "  {loads:?}");
    }
    out.push_str(
        "\nThe dominating engine changes across stages — the load-imbalance\n\
         pattern varies over the emulation's lifetime, motivating the §3.3\n\
         multi-constraint segmentation.",
    );
    Output::new(vec![], out)
}

/// Figure 3 — the TeraGrid site network architecture: five sites joined by
/// a 40 Gbps backbone. The paper shows a diagram; this prints the emulated
/// network's actual structure so it can be checked against it.
pub fn fig3(_: &Ctx) -> Output {
    let net = Topology::TeraGrid.build();
    let tables = RoutingTables::build(&net);

    let mut out = format!(
        "== fig3 — TeraGrid Site Network Architecture ==\n\n  {}  <== 40 Gbps ==>  {}\n\n",
        net.node(0).name,
        net.node(1).name
    );
    for (s, site) in SITES.iter().enumerate() {
        let in_site = |kind| {
            let as_id = s as u32 + 1;
            net.nodes()
                .iter()
                .filter(move |n| n.as_id == as_id && n.kind == kind)
        };
        let routers: Vec<&str> = in_site(NodeKind::Router).map(|n| n.name.as_str()).collect();
        let hosts = in_site(NodeKind::Host).count();
        let gw = net
            .nodes()
            .iter()
            .find(|n| n.name == format!("{site}-gw"))
            .expect("gateway exists");
        let (hub, link) = net.neighbors(gw.id)[0];
        let _ = writeln!(
            out,
            "{site:5}: {} routers ({}), {hosts} hosts; gw --{:.0}G/{:.1}ms--> {}",
            routers.len(),
            routers.join(", "),
            net.link(link).bandwidth_mbps / 1000.0,
            net.link(link).latency_us as f64 / 1000.0,
            net.node(hub).name
        );
    }
    // Cross-country RTT sample, as the diagram's 40 Gbps mesh implies.
    let hosts = net.hosts();
    let rtt = 2 * tables.latency_us(hosts[0], hosts[40]).expect("connected");
    let _ = write!(
        out,
        "\nsample NCSA <-> SDSC RTT (propagation): {:.1} ms\n\
         paper: any of the five sites connected with 40Gbps network ✓",
        rtt as f64 / 1000.0
    );
    Output::new(vec![], out)
}

/// The three approaches on every Table 1 topology under one workload,
/// read three ways: load imbalance, application emulation time, and the
/// recorded trace replayed as fast as possible (a direct measurement of
/// the mapping quality). `figures` is (table id, caption) in that order.
fn grid(ctx: &Ctx, workload: Workload, figures: [(&str, &str); 3], notes: &str) -> Output {
    let mut tables: Vec<_> = std::iter::zip(figures, [3, 2, 2])
        .map(|((id, caption), precision)| (ResultTable::new(id, caption), precision))
        .collect();
    for topo in Topology::TABLE1 {
        let built = Scenario::new(topo, workload).with_scale(ctx.scale).build();
        for r in built.run_all() {
            let metrics = [r.load_imbalance, r.emulation_time_s, r.replay_time_s];
            for ((t, _), metric) in tables.iter_mut().zip(metrics) {
                t.set(topo.label(), r.approach.label(), metric);
            }
        }
    }
    Output::new(tables, notes)
}

/// Figures 4, 6 and 9 — ScaLapack.
pub fn scalapack_grid(ctx: &Ctx) -> Output {
    grid(
        ctx,
        Workload::Scalapack,
        [
            ("fig4", "Load Imbalance for ScaLapack (paper Figure 4)"),
            (
                "fig6",
                "Emulation Time for ScaLapack, seconds (paper Figure 6)",
            ),
            (
                "fig9",
                "ScaLapack Isolated Network Emulation, seconds (paper Figure 9)",
            ),
        ],
        "paper shape, Figure 4: TOP > PLACE >= PROFILE on every topology; PROFILE\n\
         improves on TOP by up to 66%; imbalance grows with engine count.\n\
         Figure 6: PLACE cuts ~40% off TOP; PROFILE up to 50%.\n\
         Figure 9: significant improvement, consistent with Figure 6.",
    )
}

/// Figures 5, 7 and 10 — GridNPB.
pub fn gridnpb_grid(ctx: &Ctx) -> Output {
    let out = grid(
        ctx,
        Workload::GridNpb,
        [
            ("fig5", "Load Imbalance for GridNPB (paper Figure 5)"),
            (
                "fig7",
                "Emulation Time for GridNPB, seconds (paper Figure 7)",
            ),
            (
                "fig10",
                "GridNPB Isolated Network Emulation, seconds (paper Figure 10)",
            ),
        ],
        "paper shape, Figure 5: PROFILE's edge over PLACE is larger than for\n\
         ScaLapack — GridNPB's irregular traffic defeats the placement\n\
         prediction (paper: up to 48% PROFILE improvement).\n\
         Figure 7: improvements much smaller than ScaLapack (~17%) — GridNPB is\n\
         computation- rather than communication-intensive, so faster network\n\
         emulation buys little overall runtime.\n\
         Figure 10: ~30% network-emulation-time reduction even though\n\
         whole-application time (Figure 7) barely moves.",
    );
    Output {
        falling: &[("fig5", &["PLACE", "PROFILE"])],
        ..out
    }
}

/// Figure 8 — fine-grained load imbalance of GridNPB on Campus: the
/// per-interval imbalance series under TOP vs PROFILE ("we collected the
/// actual load of simulation engine nodes in two second intervals and
/// calculate the load imbalances for each period").
pub fn fig8(ctx: &Ctx) -> Output {
    let built = campus_gridnpb(ctx, 500_000);
    let [(top, top_ws), (prof, prof_ws)] = [Approach::Top, Approach::Profile].map(|approach| {
        let ws = built.run_approach(approach).report.window_series;
        (imbalance_series(&ws, 32), ws)
    });
    let window_us = built.study.counter_window_us;

    let mut out = format!(
        "== fig8 — Fine-Grained Load Imbalance of GridNPB (Campus) ==\n\
         per-{}-ms-interval imbalance, TOP vs PROFILE\n\n\
         {:>8}  {:<24} {:<24}\n",
        window_us / 1000,
        "t (s)",
        "TOP",
        "PROFILE"
    );
    for b in 0..top.len().max(prof.len()) {
        let at = |s: &[f64]| s.get(b).copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{:>8.1}  {:6.3} {:<16}  {:6.3} {:<16}",
            b as f64 * window_us as f64 / 1e6,
            at(&top),
            bar(at(&top), 1.5, 14),
            at(&prof),
            bar(at(&prof), 1.5, 14),
        );
    }
    // Activity-weighted mean: intervals that process more events matter
    // more for wall time, and they are the ones a mapping can balance.
    let weighted = |s: &[f64], ws: &[Vec<u64>]| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (b, &imb) in s.iter().enumerate() {
            let w: u64 = ws.iter().map(|e| e.get(b).copied().unwrap_or(0)).sum();
            num += imb * w as f64;
            den += w as f64;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    };
    let _ = write!(
        out,
        "\nmean active-interval imbalance: TOP {:.3}, PROFILE {:.3}\n\
         activity-weighted imbalance   : TOP {:.3}, PROFILE {:.3}\n\
         paper shape: PROFILE's per-interval imbalance is greatly improved\n\
         over TOP even where the overall execution time moves little.",
        mean_active_imbalance(&top_ws, 32),
        mean_active_imbalance(&prof_ws, 32),
        weighted(&top, &top_ws),
        weighted(&prof, &prof_ws),
    );
    Output::new(vec![], out)
}

/// Table 2 — ScaLapack on the larger network: BRITE 200 routers / 364
/// hosts, single AS, 20 simulation engines, 10 application hosts. Reports
/// load imbalance (normalized std-dev) and execution time per approach.
pub fn table2(ctx: &Ctx) -> Output {
    let built = Scenario::new(Topology::BriteScaleup, Workload::Scalapack)
        .with_scale(ctx.scale)
        .build();
    let mut t = ResultTable::new(
        "table2",
        "Results of ScaLapack on Larger Network (paper Table 2): 200 routers, 364 hosts, 20 engines",
    );
    for r in built.run_all() {
        let col = r.approach.label();
        t.set("Load Imbalance (Std. Deviation)", col, r.load_imbalance);
        t.set("Execution Time (second)", col, r.emulation_time_s);
    }
    Output {
        falling: &[("table2", &["TOP", "PLACE", "PROFILE"])],
        ..Output::new(
            vec![(t, 3)],
            "paper: imbalance 1.019 / 0.722 / 0.688; time 559.3 / 484.6 / 460.5 s\n\
             shape to match: TOP > PLACE > PROFILE on both rows.",
        )
    }
}
