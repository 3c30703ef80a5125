//! Kernel-event counters: totals per engine and virtual-time window series.
//!
//! "We define the load of a simulation engine node as the simulation kernel
//! event rate (essentially one per packet)" (§4.1.1). Figure 2 and Figure 8
//! need the same counters bucketed by virtual-time intervals ("we collected
//! the actual load of simulation engine nodes in two second intervals").
//!
//! Three things are sampled into parallel window series, all bucketed by
//! **virtual** time so they are identical in sequential and parallel runs:
//! executed kernel events ([`EngineCounters::record_event`]), lookahead
//! stalls — rounds where the engine had no work inside the conservative
//! window ([`EngineCounters::record_stall`], bucketed at the window's gmin)
//! — and cross-engine receives ([`EngineCounters::record_remote_recv`],
//! bucketed at the event's timestamp). The run report's per-engine
//! timelines come straight from these series.

/// Per-engine event accounting with virtual-time bucketing.
#[derive(Debug, Clone)]
pub struct EngineCounters {
    /// Total kernel events processed.
    pub events: u64,
    /// Packets delivered at hosts owned by this engine.
    pub delivered: u64,
    /// Packets dropped (unreachable destination).
    pub dropped: u64,
    /// Sum of end-to-end packet latencies for delivered packets (µs).
    pub latency_sum_us: u128,
    /// Cross-engine messages sent.
    pub remote_sent: u64,
    /// Cross-engine messages received.
    pub remote_recv: u64,
    /// Rounds in which this engine executed no event inside the window.
    pub stalled_rounds: u64,
    /// Logical allocations on the event path outside the scheduler
    /// (outbox capacity growth), counted deterministically.
    pub reallocs: u64,
    /// Timestamp of the most recent kernel event (0 if none yet).
    pub last_event_us: u64,
    /// Width of a virtual-time bucket in µs.
    window_us: u64,
    /// Events per virtual-time bucket.
    windows: Vec<u64>,
    /// Stalled rounds per virtual-time bucket.
    stall_windows: Vec<u64>,
    /// Remote receives per virtual-time bucket.
    recv_windows: Vec<u64>,
}

impl EngineCounters {
    /// Creates counters bucketing at `window_us` (clamped to ≥ 1).
    pub fn new(window_us: u64) -> Self {
        Self {
            events: 0,
            delivered: 0,
            dropped: 0,
            latency_sum_us: 0,
            remote_sent: 0,
            remote_recv: 0,
            stalled_rounds: 0,
            reallocs: 0,
            last_event_us: 0,
            window_us: window_us.max(1),
            windows: Vec::new(),
            stall_windows: Vec::new(),
            recv_windows: Vec::new(),
        }
    }

    #[inline]
    fn bump(series: &mut Vec<u64>, window_us: u64, now_us: u64) {
        let bucket = (now_us / window_us) as usize;
        if bucket >= series.len() {
            series.resize(bucket + 1, 0);
        }
        series[bucket] += 1;
    }

    /// Counts one kernel event at virtual time `now_us`.
    #[inline]
    pub fn record_event(&mut self, now_us: u64) {
        self.events += 1;
        self.last_event_us = self.last_event_us.max(now_us);
        Self::bump(&mut self.windows, self.window_us, now_us);
    }

    /// Counts a delivery with end-to-end latency.
    #[inline]
    pub fn record_delivery(&mut self, latency_us: u64) {
        self.delivered += 1;
        self.latency_sum_us += latency_us as u128;
    }

    /// Counts a round in which this engine had no event inside the
    /// conservative window, bucketed at the window's lower bound `gmin_us`.
    #[inline]
    pub fn record_stall(&mut self, gmin_us: u64) {
        self.stalled_rounds += 1;
        Self::bump(&mut self.stall_windows, self.window_us, gmin_us);
    }

    /// Counts one cross-engine event received, bucketed at the event's
    /// virtual timestamp `time_us`.
    #[inline]
    pub fn record_remote_recv(&mut self, time_us: u64) {
        self.remote_recv += 1;
        Self::bump(&mut self.recv_windows, self.window_us, time_us);
    }

    /// The bucket width.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Events per bucket (trailing buckets may be absent).
    pub fn windows(&self) -> &[u64] {
        &self.windows
    }

    /// Stalled rounds per bucket (trailing buckets may be absent).
    pub fn stall_windows(&self) -> &[u64] {
        &self.stall_windows
    }

    /// Remote receives per bucket (trailing buckets may be absent).
    pub fn recv_windows(&self) -> &[u64] {
        &self.recv_windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_bucket_by_virtual_time() {
        let mut c = EngineCounters::new(1000);
        c.record_event(0);
        c.record_event(999);
        c.record_event(1000);
        c.record_event(5500);
        assert_eq!(c.events, 4);
        assert_eq!(c.windows(), &[2, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn deliveries_accumulate_latency() {
        let mut c = EngineCounters::new(1000);
        c.record_delivery(100);
        c.record_delivery(250);
        assert_eq!(c.delivered, 2);
        assert_eq!(c.latency_sum_us, 350);
    }

    #[test]
    fn zero_window_clamped() {
        let c = EngineCounters::new(0);
        assert_eq!(c.window_us(), 1);
    }

    #[test]
    fn stalls_and_receives_bucket_independently() {
        let mut c = EngineCounters::new(1000);
        c.record_stall(0);
        c.record_stall(2500);
        c.record_remote_recv(1500);
        assert_eq!(c.stalled_rounds, 2);
        assert_eq!(c.remote_recv, 1);
        assert_eq!(c.stall_windows(), &[1, 0, 1]);
        assert_eq!(c.recv_windows(), &[0, 1]);
        // Stall/recv sampling never leaks into the event series.
        assert_eq!(c.events, 0);
        assert!(c.windows().is_empty());
    }
}
