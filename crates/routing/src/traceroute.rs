//! Traceroute-style route discovery.
//!
//! The PLACE approach learns routes by running the real Linux `traceroute`
//! against ICMP implemented inside the emulator (§3.2). Here the emulated
//! network is the in-memory model, so a traceroute is a walk of the routing
//! tables that reports the same per-hop information the tool would print —
//! including the paper's optimization of probing only one representative
//! endpoint per sub-network.

use crate::tables::RoutingTables;
use massf_topology::{Network, NodeId};
use std::collections::BTreeMap;

/// One hop of a traceroute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The responding node.
    pub node: NodeId,
    /// Round-trip time to this hop in microseconds (2 × one-way latency,
    /// as ICMP TTL-exceeded replies traverse the reverse path).
    pub rtt_us: u64,
}

/// Traceroute from `src` to `dst`: the sequence of hops after `src`,
/// ending with `dst`. `None` when unreachable.
pub fn traceroute(tables: &RoutingTables, src: NodeId, dst: NodeId) -> Option<Vec<Hop>> {
    let path = tables.path(src, dst)?;
    let mut hops = Vec::with_capacity(path.len().saturating_sub(1));
    for &node in &path[1..] {
        let one_way = tables
            .latency_us(src, node)
            .expect("on-path node reachable");
        hops.push(Hop {
            node,
            rtt_us: 2 * one_way,
        });
    }
    Some(hops)
}

/// Number of probe packets a traceroute to this destination would inject
/// (three per hop, like the real tool). Used to budget discovery overhead.
pub fn probe_count(hops: &[Hop]) -> usize {
    hops.len() * 3
}

/// Picks one representative host per AS ("we could use one representative
/// endpoint for each sub-network and only discover the route paths between
/// those sub-network representatives", §3.2). The lowest host id of each AS
/// is chosen for determinism.
pub fn subnet_representatives(net: &Network) -> Vec<NodeId> {
    let mut reps: BTreeMap<u32, NodeId> = BTreeMap::new();
    for h in net.hosts() {
        let as_id = net.node(h).as_id;
        reps.entry(as_id).or_insert(h);
    }
    reps.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::teragrid::teragrid;

    #[test]
    fn hops_end_at_destination() {
        let net = teragrid();
        let t = RoutingTables::build(&net);
        let hosts = net.hosts();
        let (src, dst) = (hosts[0], hosts[149]);
        let hops = traceroute(&t, src, dst).unwrap();
        assert_eq!(hops.last().unwrap().node, dst);
        assert!(
            hops.len() >= 4,
            "cross-site route must traverse several routers"
        );
    }

    #[test]
    fn rtts_are_monotonic() {
        let net = teragrid();
        let t = RoutingTables::build(&net);
        let hosts = net.hosts();
        let hops = traceroute(&t, hosts[0], hosts[100]).unwrap();
        for w in hops.windows(2) {
            assert!(w[0].rtt_us <= w[1].rtt_us, "rtt decreased along path");
        }
        // RTT is twice the one-way latency.
        let last = hops.last().unwrap();
        assert_eq!(last.rtt_us, 2 * t.latency_us(hosts[0], hosts[100]).unwrap());
    }

    #[test]
    fn traceroute_to_self_is_empty() {
        let net = teragrid();
        let t = RoutingTables::build(&net);
        let h = net.hosts()[0];
        assert_eq!(traceroute(&t, h, h), Some(vec![]));
    }

    #[test]
    fn one_representative_per_site() {
        let net = teragrid();
        let reps = subnet_representatives(&net);
        // TeraGrid hosts live in ASes 1..=5 (backbone AS 0 has no hosts).
        assert_eq!(reps.len(), 5);
        let as_ids: Vec<u32> = reps.iter().map(|&r| net.node(r).as_id).collect();
        assert_eq!(as_ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn probe_budget() {
        let hops = vec![
            Hop {
                node: 1,
                rtt_us: 10,
            },
            Hop {
                node: 2,
                rtt_us: 20,
            },
        ];
        assert_eq!(probe_count(&hops), 6);
    }
}
