//! Dynamic remapping in action (the paper's §6 future work): watch the
//! emulation migrate virtual nodes between engines as GridNPB's load
//! shifts across workflow stages.
//!
//! ```sh
//! cargo run --release --example dynamic_remap
//! ```

use massf_core::mapping::run_online;
use massf_core::prelude::*;

fn main() {
    let built = Scenario::new(Topology::Campus, Workload::GridNpb)
        .with_scale(0.5)
        .without_background()
        .build();
    println!("GridNPB on {}\n", built.study.net.summary());

    // Static baseline: the best static mapping the paper offers.
    let static_p = built
        .study
        .map(Approach::Profile, &built.predicted, &built.flows);
    let static_r = built
        .study
        .evaluate(&static_p, &built.flows, CostModel::live_application());

    // Dynamic: repartition from live NetFlow at each epoch boundary.
    // `drift_threshold: 0.0` opens the quiet-epoch gate, so every
    // boundary remaps.
    let cfg = IncrementalConfig {
        epochs: 4,
        drift_threshold: 0.0,
        ..Default::default()
    };
    let out = run_online(&built.study, &built.flows, &[], &cfg, RebalanceMode::Global);

    println!(
        "static PROFILE : imbalance {:.3}, time {:.1}s",
        load_imbalance(&static_r.engine_events),
        static_r.emulation_time_s()
    );
    println!(
        "dynamic x{}    : imbalance {:.3}, time {:.1}s ({} remaps, {} nodes migrated)",
        cfg.epochs,
        load_imbalance(&out.report.engine_events),
        out.report.emulation_time_s(),
        out.remaps_applied,
        out.migrated_nodes
    );

    println!("\npartitions per epoch (nodes per engine):");
    for (i, p) in out.epoch_partitions.iter().enumerate() {
        println!("  epoch {i}: {:?}", p.part_sizes());
    }
    println!(
        "\nThe paper (§6): \"Static partitions are fundamentally limited for\n\
         large emulation if traffic varies widely. Dynamic remapping the\n\
         virtual network during the emulation is the only solution.\""
    );
}
