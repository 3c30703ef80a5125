//! The topology-based mapping approach — TOP (§3.1).
//!
//! "Each virtual node is weighted with the total bandwidth in and out of
//! it. The optimization objective is to maximize the link latency between
//! simulation engine nodes. … This basic approach is simple and fast,
//! therefore, it forms a performance baseline for our experiments."

use crate::weights::{bandwidth_weight, partition_views};
use crate::MapperConfig;
use massf_obs::Recorder;
use massf_partition::Partitioning;
use massf_topology::Network;

/// Maps the network using topology information only.
pub fn map_top(net: &Network, cfg: &MapperConfig) -> Partitioning {
    map_top_obs(net, cfg, &mut Recorder::new())
}

/// [`map_top`] with observability: records the `mapping/top/weights` and
/// `mapping/top/polish` spans and the partitioner's `top` restart batch.
pub(crate) fn map_top_obs(net: &Network, cfg: &MapperConfig, rec: &mut Recorder) -> Partitioning {
    let span = rec.start();
    let nodes = net.nodes().iter();
    let columns = (1, nodes.map(|n| bandwidth_weight(net, n.id)).collect());
    let span = ("mapping/top/weights", span);
    partition_views(net, cfg, columns, None, None, "top", span, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::latency_graph;
    use massf_partition::quality::worst_balance;
    use massf_topology::campus::campus;
    use massf_topology::teragrid::teragrid;

    #[test]
    fn campus_three_way_is_valid_and_balanced() {
        let net = campus();
        let p = map_top(&net, &MapperConfig::new(3));
        assert_eq!(p.nparts, 3);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
        let g = latency_graph(&net);
        assert!(worst_balance(&g, &p.part, 3) < 1.6);
    }

    #[test]
    fn teragrid_cuts_prefer_high_latency_links() {
        // TOP should cut backbone/site links (high latency, low weight)
        // rather than LAN links: the minimum *cut weight* corresponds to
        // the maximum cut latency.
        let net = teragrid();
        let p = map_top(&net, &MapperConfig::new(5));
        let g = latency_graph(&net);
        let min_cut = (0..g.nvtxs() as u32)
            .flat_map(|u| g.edges(u).map(move |(v, w)| (u, v, w)))
            .filter(|&(u, v, _)| p.part[u as usize] != p.part[v as usize])
            .map(|(_, _, w)| w)
            .min()
            .expect("5 parts cut something");
        // Site gateway links have latency 2000 µs -> weight 500; LAN links
        // weight 10000 or 100000. A good TOP cut stays at low weights.
        assert!(
            min_cut <= 10_000,
            "expected cut on a wide-area link, min cut weight {min_cut}"
        );
    }

    #[test]
    fn memory_constraint_accepted() {
        let net = teragrid();
        let cfg = MapperConfig {
            include_memory: true,
            ..MapperConfig::new(5)
        };
        let p = map_top(&net, &cfg);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn deterministic() {
        let net = campus();
        let cfg = MapperConfig::new(3);
        assert_eq!(map_top(&net, &cfg), map_top(&net, &cfg));
    }
}
