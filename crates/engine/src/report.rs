//! The outcome of an emulation run.
//!
//! Besides the totals the mapping study consumes, the report carries the
//! observability series the run report is built from: per-engine executed
//! events, lookahead stalls, and remote sends/receives, plus the aligned
//! virtual-time window series for each (`window_series`, `stall_series`,
//! `recv_series`). All of these are simulated quantities — identical in
//! sequential and parallel execution.

use crate::cost::WallClock;
use crate::netflow::FlowRecord;

/// Everything a mapping study needs from one emulation run.
///
/// Derives `PartialEq` so executors can be checked against each other
/// field-for-field: the determinism guarantee is that sequential,
/// parallel, and every model-checked interleaving produce `==` reports
/// (the `wall` floats are computed by the identical instruction sequence
/// in all executors, so even they compare bit-equal).
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationReport {
    /// Number of simulation engines.
    pub nengines: usize,
    /// Kernel events processed per engine — the paper's load metric.
    pub engine_events: Vec<u64>,
    /// Rounds in which each engine had no event inside the window.
    pub engine_stalls: Vec<u64>,
    /// Cross-engine events sent per engine.
    pub engine_remote_sent: Vec<u64>,
    /// Cross-engine events received per engine.
    pub engine_remote_recv: Vec<u64>,
    /// Peak scheduler depth per engine (largest number of pending events
    /// observed). A simulated quantity: identical across executors and
    /// scheduler kinds.
    pub engine_queue_peak: Vec<u64>,
    /// Calendar-queue rebuilds per engine (0 under the heap scheduler).
    pub engine_sched_resizes: Vec<u64>,
    /// Logical event-path allocations per engine: capacity-growth events
    /// of the scheduler's buffers plus the cross-engine outbox. Counted
    /// deterministically at the call sites.
    pub engine_reallocs: Vec<u64>,
    /// Pushes per engine that were a binary-search insert into the
    /// calendar's sorted front (0 under the heap scheduler); see
    /// [`sorted_insert_share`](Self::sorted_insert_share).
    pub engine_sorted_inserts: Vec<u64>,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Packets dropped (unreachable destinations).
    pub dropped: u64,
    /// Sum of end-to-end latencies over delivered packets (µs).
    pub latency_sum_us: u128,
    /// Total cross-engine event shipments.
    pub remote_messages: u64,
    /// Conservative synchronization rounds executed.
    pub rounds: u64,
    /// Largest event timestamp processed (virtual end of the run).
    pub virtual_end_us: u64,
    /// Width of the virtual-time buckets in `window_series`.
    pub counter_window_us: u64,
    /// Kernel events per engine per virtual-time bucket
    /// (`[engine][bucket]`, all rows equal length).
    pub window_series: Vec<Vec<u64>>,
    /// Stalled rounds per engine per virtual-time bucket (aligned with
    /// `window_series`).
    pub stall_series: Vec<Vec<u64>>,
    /// Remote receives per engine per virtual-time bucket (aligned with
    /// `window_series`).
    pub recv_series: Vec<Vec<u64>>,
    /// Merged NetFlow records since the last epoch slice — the whole run
    /// when nothing sliced (empty unless profiling was enabled).
    pub netflow: Vec<FlowRecord>,
    /// Modeled wall-clock accounting.
    pub wall: WallClock,
}

impl EmulationReport {
    /// Total kernel events across engines.
    pub fn total_events(&self) -> u64 {
        self.engine_events.iter().sum()
    }

    /// Share of the schedulers' pushes that were sorted inserts — every
    /// event is pushed once, so over the events: how far the calendars ran
    /// as one sorted list each (DESIGN.md §12).
    pub fn sorted_insert_share(&self) -> f64 {
        let sorted: u64 = self.engine_sorted_inserts.iter().sum();
        sorted as f64 / self.total_events().max(1) as f64
    }

    /// Mean end-to-end packet latency in µs (0 when nothing delivered).
    pub fn mean_latency_us(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum_us as f64 / self.delivered as f64
        }
    }

    /// Modeled emulation time in seconds — the quantity Figures 6/7/9/10
    /// report.
    pub fn emulation_time_s(&self) -> f64 {
        self.wall.total_seconds()
    }

    /// Per-engine imbalance summary line for logs and examples.
    pub fn balance_line(&self) -> String {
        let total = self.total_events().max(1);
        let shares: Vec<String> = self
            .engine_events
            .iter()
            .map(|&e| format!("{:.1}%", 100.0 * e as f64 / total as f64))
            .collect();
        format!("events/engine: [{}] of {}", shares.join(", "), total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> EmulationReport {
        EmulationReport {
            nengines: 2,
            engine_events: vec![30, 10],
            engine_stalls: vec![0, 2],
            engine_remote_sent: vec![1, 1],
            engine_remote_recv: vec![1, 1],
            engine_queue_peak: vec![6, 3],
            engine_sched_resizes: vec![1, 0],
            engine_reallocs: vec![2, 1],
            engine_sorted_inserts: vec![5, 0],
            delivered: 4,
            dropped: 0,
            latency_sum_us: 400,
            remote_messages: 2,
            rounds: 7,
            virtual_end_us: 1000,
            counter_window_us: 100,
            window_series: vec![vec![3, 0], vec![1, 0]],
            stall_series: vec![vec![0, 0], vec![1, 1]],
            recv_series: vec![vec![1, 0], vec![0, 1]],
            netflow: vec![],
            wall: WallClock {
                total_us: 2_000_000.0,
                busy_us: 100.0,
                windows: 7,
            },
        }
    }

    #[test]
    fn totals_and_means() {
        let r = report();
        assert_eq!(r.total_events(), 40);
        assert!((r.mean_latency_us() - 100.0).abs() < 1e-9);
        assert!((r.emulation_time_s() - 2.0).abs() < 1e-9);
        assert!((r.sorted_insert_share() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn zero_delivery_mean_is_zero() {
        let mut r = report();
        r.delivered = 0;
        assert_eq!(r.mean_latency_us(), 0.0);
    }

    #[test]
    fn balance_line_shows_shares() {
        let line = report().balance_line();
        assert!(line.contains("75.0%"), "{line}");
        assert!(line.contains("25.0%"), "{line}");
    }
}
