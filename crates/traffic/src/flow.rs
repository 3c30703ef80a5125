//! The flow abstraction: scheduled packet trains and bandwidth predictions.

use massf_topology::NodeId;

/// Maximum transmission unit used to packetize flows (Ethernet payload).
pub const MTU_BYTES: u64 = 1500;

/// A concrete, scheduled traffic flow: `packets` packets of `bytes` total,
/// injected at `src` starting at `start_us`, one packet every
/// `packet_interval_us`, destined for `dst`.
///
/// The emulator turns each `FlowSpec` into packet-injection events; the
/// NetFlow profiler aggregates what actually traversed each router back
/// into per-flow records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Virtual start time in microseconds.
    pub start_us: u64,
    /// Number of packets in the flow (≥ 1).
    pub packets: u64,
    /// Total bytes carried (for records; load is driven by packet count,
    /// §3.3: "we use the number of packets in a flow, since the real load
    /// in the emulator depends on the number of packets it processes").
    pub bytes: u64,
    /// Inter-packet injection gap in microseconds (≥ 1).
    pub packet_interval_us: u64,
    /// Transport mode: `None` = open-loop pacing (UDP-like, the default);
    /// `Some(w)` = window/ACK-clocked sending with window `w` (TCP-like).
    ///
    /// Windowed flows inject packets `0..w` at the pacing interval and
    /// then release packet `k + w` when the ACK for packet `k` returns —
    /// the emulator generates and routes the 40-byte ACKs as real packets,
    /// so windowed traffic is bidirectional and RTT-sensitive, like the
    /// MPICH-over-TCP applications MaSSF emulates.
    pub window: Option<u32>,
}

impl FlowSpec {
    /// Builds a flow from a byte count, packetizing at the MTU and pacing
    /// at `rate_mbps`.
    pub fn from_bytes(src: NodeId, dst: NodeId, start_us: u64, bytes: u64, rate_mbps: f64) -> Self {
        assert!(rate_mbps > 0.0, "rate must be positive");
        let packets = bytes.div_ceil(MTU_BYTES).max(1);
        // Time to serialize one MTU at rate_mbps, in µs: bits / Mbps.
        let interval = ((MTU_BYTES * 8) as f64 / rate_mbps).round() as u64;
        Self {
            src,
            dst,
            start_us,
            packets,
            bytes,
            packet_interval_us: interval.max(1),
            window: None,
        }
    }

    /// Virtual time at which the last packet is injected, assuming
    /// open-loop pacing. For windowed flows this is a lower bound: the
    /// actual finish depends on emulated ACK round trips.
    pub fn end_us(&self) -> u64 {
        self.start_us + (self.packets - 1) * self.packet_interval_us
    }
}

/// A *predicted* flow: what PLACE knows before running anything — just an
/// expected average bandwidth between two endpoints (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedFlow {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Predicted average bandwidth in Mbps.
    pub bandwidth_mbps: f64,
}

/// Total packets across a set of flows.
pub fn total_packets(flows: &[FlowSpec]) -> u64 {
    flows.iter().map(|f| f.packets).sum()
}

/// Virtual-time horizon: the latest injection instant across `flows`.
pub fn horizon_us(flows: &[FlowSpec]) -> u64 {
    flows.iter().map(|f| f.end_us()).max().unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Average injected bandwidth of `f` in Mbps over its injection window.
    pub(crate) fn rate_mbps(f: &FlowSpec) -> f64 {
        (f.bytes * 8) as f64 / (f.end_us() - f.start_us + f.packet_interval_us) as f64
    }

    #[test]
    fn from_bytes_packetizes_at_mtu() {
        let f = FlowSpec::from_bytes(0, 1, 100, 4500, 12.0);
        assert_eq!(f.packets, 3);
        assert_eq!(f.bytes, 4500);
        // 1500 B = 12000 bits at 12 Mbps -> 1000 µs.
        assert_eq!(f.packet_interval_us, 1000);
        assert_eq!(f.end_us(), 100 + 2 * 1000);
    }

    #[test]
    fn tiny_flow_is_one_packet() {
        let f = FlowSpec::from_bytes(0, 1, 0, 1, 100.0);
        assert_eq!(f.packets, 1);
        assert_eq!(f.end_us(), 0);
    }

    #[test]
    fn average_rate_close_to_requested() {
        let f = FlowSpec::from_bytes(0, 1, 0, 150_000, 50.0);
        let avg = rate_mbps(&f);
        assert!((avg - 50.0).abs() / 50.0 < 0.05, "avg {avg} vs 50");
    }

    #[test]
    fn aggregates() {
        let flows = vec![
            FlowSpec::from_bytes(0, 1, 0, 3000, 10.0),
            FlowSpec::from_bytes(1, 0, 500_000, 1500, 10.0),
        ];
        assert_eq!(total_packets(&flows), 3);
        assert_eq!(horizon_us(&flows), 500_000);
    }

    #[test]
    fn empty_horizon_is_zero() {
        assert_eq!(horizon_us(&[]), 0);
    }
}
