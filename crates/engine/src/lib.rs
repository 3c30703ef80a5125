//! # massf-engine
//!
//! A conservative, windowed, parallel discrete-event network emulator —
//! the reproduction's stand-in for MaSSF (the paper's large-scale network
//! emulator built inside MicroGrid).
//!
//! ## What it models
//!
//! The virtual network is partitioned across `k` *simulation engines* (the
//! paper's physical cluster nodes; here, plain structs dealt to worker
//! threads). Packets are
//! *references*, not payloads ("the real network traffic data does not
//! actually travel through the emulator; only packet references are
//! processed by it", §3.3). Each packet hop is one kernel event — the
//! paper's load metric is "the simulation kernel event rate (essentially
//! one per packet)" (§4.1.1).
//!
//! ## Synchronization
//!
//! Engines run the classical synchronous conservative protocol: every
//! round, all engines agree on `LBTS = min(next event time) + lookahead`
//! with lookahead = the minimum latency of any *cut* link, process all
//! events below it, exchange cross-engine packets, and barrier. This is
//! why the paper's first objective *maximizes* link latency across
//! partitions (§2.2.3): larger cut latencies mean larger windows and fewer
//! synchronizations.
//!
//! The round loop is written once ([`exec::protocol_loop`]) and driven by
//! one executor, [`stepping::SteppableEmulation`], which can be stopped
//! and resumed at epoch boundaries with live node migration in between.
//! It deals the engines to [`exec::EmulationConfig::workers`] worker
//! threads and engages them slice by slice, only while the windows hold
//! enough events to pay for the synchronization; [`exec::run_sequential`]
//! (one worker, the strict reference) and [`exec::run_parallel`] (one per
//! CPU) run it in one step, and every worker count produces the same
//! report bit for bit.
//!
//! ## Event scheduling
//!
//! Each engine's pending events live in a deterministic calendar queue
//! ([`sched`]) tuned to the windowed access pattern — O(1) amortized
//! push/pop versus the binary heap's O(log n), popping in the identical
//! total event order (the heap remains selectable via
//! [`exec::EmulationConfig::with_scheduler`] as the benchmark baseline).
//!
//! ## Instrumentation
//!
//! * [`netflow`] — Cisco-NetFlow-like per-router flow records (§3.3);
//! * [`counters`] — per-engine kernel-event counters and virtual-time
//!   window series (Figures 2 and 8);
//! * [`cost`] — a deterministic wall-clock model (busy time of the slowest
//!   engine per window + cross-engine messaging + sync overhead, with an
//!   optional real-time floor for application compute), standing in for
//!   the paper's cluster wall-clock measurements;
//! * [`trace`] — traffic-trace recording and the replay-schedule
//!   compression behind the paper's isolated network-emulation experiments
//!   (Figures 9 and 10).

//! ```
//! use massf_engine::{run_sequential, EmulationConfig};
//! use massf_routing::RoutingTables;
//! use massf_topology::Network;
//! use massf_traffic::FlowSpec;
//!
//! // Two hosts behind one router; one 5-packet flow.
//! let mut net = Network::new();
//! let a = net.add_host("a", 0);
//! let r = net.add_router("r", 0);
//! let b = net.add_host("b", 0);
//! net.add_link(a, r, 100.0, 50);
//! net.add_link(r, b, 100.0, 50);
//! let tables = RoutingTables::build(&net);
//! let flow = FlowSpec::from_bytes(a, b, 0, 7_500, 50.0);
//!
//! let cfg = EmulationConfig::new(vec![0, 0, 0], 1);
//! let report = run_sequential(&net, &tables, &[flow], &cfg);
//! assert_eq!(report.delivered, 5);
//! assert_eq!(report.total_events(), 5 * 3); // inject + router + deliver
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// CSR-style code indexes several parallel arrays with one counter; the
// iterator rewrites clippy suggests are less clear there.
#![allow(clippy::needless_range_loop)]

pub mod cost;
pub mod counters;
pub mod engine;
pub mod event;
pub mod exec;
pub mod link;
pub mod netflow;
pub mod probe;
pub mod report;
pub mod sched;
pub mod shim;
pub mod stepping;
pub mod trace;

pub use cost::CostModel;
pub use exec::{protocol_loop, run, run_parallel, run_sequential, EmulationConfig, ProtocolState};
pub use report::EmulationReport;
pub use sched::{SchedStats, SchedulerKind};
pub use shim::{SlotArray, SyncShim};
pub use stepping::{MigrationCost, SteppableEmulation};

#[cfg(test)]
mod tests {
    /// DESIGN.md §3 names every library crate's modules: for each
    /// `crates/*/src/lib.rs`, the backticked names of the last cell of the
    /// crate's row are that file's non-test `mod` declarations, in order.
    #[test]
    fn design_inventory_lists_every_crates_modules() {
        let crates = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let design = std::fs::read_to_string(format!("{crates}/../DESIGN.md")).expect("DESIGN.md");
        let mut dirs: Vec<String> = std::fs::read_dir(crates)
            .expect("crates/ lists")
            .map(|e| {
                e.expect("crates/ entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        dirs.sort();
        let mut checked = 0;
        for dir in dirs {
            let Ok(lib) = std::fs::read_to_string(format!("{crates}/{dir}/src/lib.rs")) else {
                continue;
            };
            let mut declared = Vec::new();
            let mut test_gated = false;
            for line in lib.lines() {
                let decl = line.strip_prefix("pub mod ").or(line.strip_prefix("mod "));
                if let (Some(rest), false) = (decl, test_gated) {
                    declared.push(rest.trim_end_matches([';', '{']).trim_end());
                }
                test_gated = line == "#[cfg(test)]";
            }
            let row = design
                .lines()
                .find(|l| l.starts_with(&format!("| `crates/{dir}` ")))
                .unwrap_or_else(|| panic!("DESIGN.md §3 has no crates/{dir} row"));
            let cell = row.trim_end_matches([' ', '|']).rsplit('|').next().unwrap();
            let listed: Vec<&str> = cell.split('`').skip(1).step_by(2).collect();
            assert_eq!(
                listed, declared,
                "DESIGN.md §3 drifted from crates/{dir}/src/lib.rs"
            );
            checked += 1;
        }
        let rows = design
            .lines()
            .filter(|l| l.starts_with("| `crates/"))
            .count();
        assert_eq!(rows, checked, "a DESIGN.md §3 row names no crate");
    }
}
