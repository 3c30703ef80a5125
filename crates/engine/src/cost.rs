//! Deterministic wall-clock model.
//!
//! The paper measures emulation times on a physical cluster (24 dual
//! Pentium-II nodes on switched 100 Mbps Ethernet). We cannot reproduce
//! those machines, so the reproduction models wall time from first
//! principles — the same quantities the paper identifies as costs:
//!
//! * event processing on the critical (most loaded) engine each window —
//!   the synchronous protocol cannot advance past the slowest engine;
//! * cross-engine event transfer ("it is expensive to transfer a
//!   simulation event across physical nodes", §2.2.3);
//! * per-window synchronization overhead (why the latency objective
//!   matters);
//! * an optional real-time floor for live application compute: the
//!   emulator paces virtual time while the application computes, which is
//!   why GridNPB's overall times improve little even when its network
//!   emulation improves a lot (§4.2.2).
//!
//! Every term is deterministic, so "emulation time" figures are exactly
//! reproducible on any machine.

/// Cost coefficients (µs per unit). The defaults are hand-set figures for
/// the paper's Pentium-II-era cluster, not fitted to any measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one kernel event on an engine, in µs.
    pub event_cost_us: f64,
    /// Cost of shipping one event across engines, in µs (sender side; the
    /// cluster interconnect is often "a performance bottleneck for the
    /// whole emulation", §2.2.3).
    pub remote_msg_cost_us: f64,
    /// Fixed synchronization cost per conservative window, in µs.
    pub sync_cost_us: f64,
    /// Real-time pacing floor: wall-µs that must elapse per virtual-µs
    /// (application compute runs live). 0 disables pacing — the replay
    /// mode, which "tries to send out traffic as fast as possible"
    /// (§4.1.1).
    pub rt_factor: f64,
}

impl Default for CostModel {
    /// Hand-set for the paper's dual-550 MHz Pentium-II engines: ~30 k
    /// kernel events/s per node (35 µs/event), ~25 µs of sender-side cost
    /// per cross-engine event on switched 100 Mbps Ethernet, and ~50 µs of
    /// per-window synchronization (MaSSF's conservative channels are
    /// asynchronous, so the window cost is small but not free).
    fn default() -> Self {
        Self {
            event_cost_us: 35.0,
            remote_msg_cost_us: 25.0,
            sync_cost_us: 50.0,
            rt_factor: 0.0,
        }
    }
}

impl CostModel {
    /// The model used for live-application runs (Figures 6 and 7):
    /// real-time pacing on. The emulator must keep pace with the live
    /// application (`rt_factor = 1`), so load balance only buys wall time
    /// in the windows where the engines are *saturated* — which is why the
    /// communication-bound ScaLapack improves ~40-50 % but the
    /// computation-bound GridNPB only ~17 % (§4.2.2).
    pub fn live_application() -> Self {
        Self {
            rt_factor: 1.0,
            ..Self::default()
        }
    }

    /// The model used for trace replay (Figures 9 and 10): no pacing.
    pub fn replay() -> Self {
        Self::default()
    }

    /// Wall time of one window from the critical engine's busy time
    /// ([`engine_busy_us`](Self::engine_busy_us) of the slowest engine);
    /// `virtual_span_us` is how far virtual time advanced.
    #[inline]
    pub fn window_wall_from_busy_us(&self, busy_us: f64, virtual_span_us: u64) -> f64 {
        let floor = virtual_span_us as f64 * self.rt_factor;
        busy_us.max(floor) + self.sync_cost_us
    }

    /// Busy time of one engine this window. `speed` is the engine's
    /// relative CPU speed (1.0 = the baseline Pentium-II node); event
    /// processing scales with CPU speed, message shipping is bound by the
    /// cluster interconnect and does not.
    #[inline]
    pub fn engine_busy_us(&self, events: u64, remote_sent: u64, speed: f64) -> f64 {
        debug_assert!(speed > 0.0);
        events as f64 * self.event_cost_us / speed + remote_sent as f64 * self.remote_msg_cost_us
    }
}

/// Running wall-clock accumulator, fed once per window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallClock {
    /// Total modeled wall time (µs).
    pub total_us: f64,
    /// The busy (event + messaging) component only, without pacing floors
    /// or sync: the "network emulation work" share.
    pub busy_us: f64,
    /// Number of windows accumulated.
    pub windows: u64,
}

impl WallClock {
    /// Accumulates one window from the critical engine's busy time.
    pub fn add_busy_window(&mut self, model: &CostModel, busy_us: f64, virtual_span_us: u64) {
        self.total_us += model.window_wall_from_busy_us(busy_us, virtual_span_us);
        self.busy_us += busy_us;
        self.windows += 1;
    }

    /// Total wall time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_us / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One window's wall time when the critical engine (baseline speed)
    /// handled `events` kernel events and shipped `remote` messages.
    fn window_wall_us(m: &CostModel, events: u64, remote: u64, span_us: u64) -> f64 {
        m.window_wall_from_busy_us(m.engine_busy_us(events, remote, 1.0), span_us)
    }

    #[test]
    fn busy_window_costs_events_and_messages() {
        let m = CostModel::default();
        let w = window_wall_us(&m, 100, 10, 0);
        assert!(
            (w - (100.0 * m.event_cost_us + 10.0 * m.remote_msg_cost_us + m.sync_cost_us)).abs()
                < 1e-9
        );
    }

    #[test]
    fn idle_window_pays_the_pacing_floor() {
        let m = CostModel::live_application();
        // 1 event but 1 s of virtual time: the floor dominates.
        let w = window_wall_us(&m, 1, 0, 1_000_000);
        assert!((w - (1_000_000.0 * m.rt_factor + m.sync_cost_us)).abs() < 1e-9);
    }

    #[test]
    fn replay_has_no_floor() {
        let m = CostModel::replay();
        let w = window_wall_us(&m, 1, 0, 1_000_000);
        assert!((w - (m.event_cost_us + m.sync_cost_us)).abs() < 1e-9);
    }

    #[test]
    fn imbalance_costs_wall_time() {
        // Same total events, worse balance -> more wall time. This is the
        // entire premise of the paper.
        let m = CostModel::default();
        let balanced = window_wall_us(&m, 50, 0, 0) + window_wall_us(&m, 50, 0, 0);
        let skewed = window_wall_us(&m, 90, 0, 0) + window_wall_us(&m, 10, 0, 0);
        assert!(skewed > balanced - 1e-9);
    }

    #[test]
    fn clock_accumulates() {
        let m = CostModel::default();
        let mut c = WallClock::default();
        c.add_busy_window(&m, m.engine_busy_us(10, 0, 1.0), 0);
        c.add_busy_window(&m, m.engine_busy_us(20, 5, 1.0), 0);
        assert_eq!(c.windows, 2);
        assert!((c.busy_us - (30.0 * m.event_cost_us + 5.0 * m.remote_msg_cost_us)).abs() < 1e-9);
        assert!(c.total_us > c.busy_us);
        assert!(c.total_seconds() > 0.0);
    }
}
