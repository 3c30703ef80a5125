//! In-emulator ICMP-style probing (§3.2).
//!
//! The paper implements "the ICMP protocol inside the MaSSF" so the real
//! Linux `traceroute` can discover routes. Here probes are tiny flows run
//! through the discrete-event engine itself: a ping is an echo-request
//! packet emulated hop by hop (sharing the links, the queues, and the
//! store-and-forward model with all other traffic) plus the mirrored
//! reply. Comparing the emulated RTT against the routing tables'
//! propagation latency validates both substrates against each other.

use crate::exec::{run_sequential, EmulationConfig};
use massf_routing::RoutingTables;
use massf_topology::{Network, NodeId};
use massf_traffic::FlowSpec;

/// Result of an emulated ping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingReport {
    /// One-way delivery latency of the echo request (µs).
    pub request_us: u64,
    /// One-way delivery latency of the echo reply (µs).
    pub reply_us: u64,
}

impl PingReport {
    /// Round-trip time in µs.
    pub fn rtt_us(&self) -> u64 {
        self.request_us + self.reply_us
    }
}

/// ICMP echo payload size (64 bytes, the classic ping default).
pub const ECHO_BYTES: u64 = 64;

/// Emulates `ping src -> dst` on an otherwise idle network; returns `None`
/// when `dst` is unreachable.
///
/// The request is emulated first, then the reply (the reply leaves only
/// after the request arrives, as in the real protocol).
pub fn ping(net: &Network, tables: &RoutingTables, src: NodeId, dst: NodeId) -> Option<PingReport> {
    let request_us = one_way(net, tables, src, dst)?;
    let reply_us = one_way(net, tables, dst, src)?;
    Some(PingReport {
        request_us,
        reply_us,
    })
}

/// Emulates a single `ECHO_BYTES` packet and returns its delivery latency.
fn one_way(net: &Network, tables: &RoutingTables, src: NodeId, dst: NodeId) -> Option<u64> {
    if src == dst {
        return Some(0);
    }
    tables.latency_us(src, dst)?;
    let flow = FlowSpec {
        src,
        dst,
        start_us: 0,
        packets: 1,
        bytes: ECHO_BYTES,
        packet_interval_us: 1,
        window: None,
    };
    let cfg = EmulationConfig::new(vec![0; net.node_count()], 1);
    let report = run_sequential(net, tables, &[flow], &cfg);
    (report.delivered == 1).then_some(report.latency_sum_us as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::teragrid::teragrid;
    use massf_topology::Network;

    #[test]
    fn ping_matches_tables_plus_serialization() {
        // The engine-emulated probe must equal the tables' propagation
        // latency plus per-hop serialization, exactly — this cross-checks
        // the two substrates against each other.
        let net = teragrid();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        // Per-hop store-and-forward delay of `ECHO_BYTES`.
        let serialization_us = |a, b| -> u64 {
            let links = tables.path_links(a, b).unwrap();
            let tx = |&l| crate::link::tx_time_us(ECHO_BYTES as u32, net.link(l).bandwidth_mbps);
            links.iter().map(tx).sum()
        };
        for (a, b) in [
            (hosts[0], hosts[40]),
            (hosts[10], hosts[149]),
            (hosts[5], hosts[6]),
        ] {
            let report = ping(&net, &tables, a, b).expect("teragrid connected");
            let expect = tables.latency_us(a, b).unwrap() + serialization_us(a, b);
            assert_eq!(report.request_us, expect, "{a}->{b}");
            // Symmetric topology: the reply takes the mirror path.
            assert_eq!(report.reply_us, expect, "{b}->{a}");
            assert_eq!(report.rtt_us(), 2 * expect);
        }
    }

    #[test]
    fn ping_self_is_zero() {
        let net = teragrid();
        let tables = RoutingTables::build(&net);
        let h = net.hosts()[0];
        assert_eq!(
            ping(&net, &tables, h, h),
            Some(PingReport {
                request_us: 0,
                reply_us: 0
            })
        );
    }

    #[test]
    fn ping_unreachable_is_none() {
        let mut net = teragrid();
        let island = net.add_host("island", 0);
        let tables = RoutingTables::build(&net);
        assert_eq!(ping(&net, &tables, net.hosts()[0], island), None);
    }

    #[test]
    fn probe_rtt_reflects_wan_distance() {
        let net = teragrid();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        // Same site (NCSA) vs cross-country (NCSA -> SDSC).
        let local = ping(&net, &tables, hosts[0], hosts[1]).unwrap();
        let remote = ping(&net, &tables, hosts[0], hosts[40]).unwrap();
        assert!(
            remote.rtt_us() > 5 * local.rtt_us(),
            "WAN rtt {} should dwarf LAN rtt {}",
            remote.rtt_us(),
            local.rtt_us()
        );
    }

    #[test]
    fn small_net_ping_exact_value() {
        let mut net = Network::new();
        let h0 = net.add_host("a", 0);
        let r = net.add_router("r", 0);
        let h1 = net.add_host("b", 0);
        net.add_link(h0, r, 100.0, 1_000);
        net.add_link(r, h1, 100.0, 1_000);
        let tables = RoutingTables::build(&net);
        let p = ping(&net, &tables, h0, h1).unwrap();
        // 64 B at 100 Mbps = ceil(5.12) = 6 µs per hop; 2 hops + 2 ms prop.
        assert_eq!(p.request_us, 2_000 + 12);
        assert_eq!(p.rtt_us(), 2 * (2_000 + 12));
    }
}
