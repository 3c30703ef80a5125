//! The application-placement-based mapping approach — PLACE (§3.2).
//!
//! Traffic is *predicted* from two sources:
//!
//! * background generators describe their own average bandwidth per
//!   endpoint pair (a reasonable ask, since background traffic is an
//!   aggregate);
//! * the foreground application is assumed to saturate its injection
//!   points, "every node talks to all other nodes with evenly distributed
//!   bandwidth".
//!
//! Both predictions are routed (route discovery via the emulated ICMP /
//! traceroute path, here the routing tables) and accumulated per link and
//! node; the §2.3 multi-objective combination then balances the latency
//! objective against cut-traffic minimization.

use crate::weights::{accumulate_predicted_with, partition_views, quantize};
use crate::MapperConfig;
use massf_obs::Recorder;
use massf_partition::Partitioning;
use massf_routing::RoutingTables;
use massf_topology::{Network, NodeId};
use massf_traffic::PredictedFlow;

/// Builds the foreground prediction for an application attached at
/// `injection_points`: each point saturates its access link and spreads
/// the bandwidth evenly over all other points (§3.2).
pub fn foreground_prediction(net: &Network, injection_points: &[NodeId]) -> Vec<PredictedFlow> {
    let access: Vec<f64> = injection_points
        .iter()
        .map(|&h| net.total_bandwidth(h))
        .collect();
    massf_traffic::scalapack::predict_uniform(injection_points, &access)
}

/// Maps the network using placement-predicted traffic.
///
/// `predicted` is the concatenation of background-generator predictions and
/// [`foreground_prediction`]s for every application in the experiment.
pub fn map_place(
    net: &Network,
    tables: &RoutingTables,
    predicted: &[PredictedFlow],
    cfg: &MapperConfig,
) -> Partitioning {
    map_place_obs(net, tables, predicted, cfg, &mut Recorder::new())
}

/// [`map_place`] with observability: records the `mapping/place/{weights,
/// polish}` spans and the `place/{latency,bandwidth,combined}` batches.
pub(crate) fn map_place_obs(
    net: &Network,
    tables: &RoutingTables,
    predicted: &[PredictedFlow],
    cfg: &MapperConfig,
    rec: &mut Recorder,
) -> Partitioning {
    let span = rec.start();
    let (per_link, per_node) = accumulate_predicted_with(net, tables, predicted, cfg.parallelism);
    // Both objective views balance the same quantity: the predicted
    // per-node traffic (the computation constraint of §2.2.2).
    let columns = (1, per_node.into_iter().map(quantize).collect());
    let traffic = per_link.into_iter().map(quantize).collect();
    let span = ("mapping/place/weights", span);
    partition_views(net, cfg, columns, Some(traffic), None, "place", span, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top::map_top;
    use crate::weights::build_graph;
    use crate::Parallelism;
    use massf_partition::quality::edge_cut;
    use massf_topology::campus::campus;
    use massf_topology::teragrid::teragrid;

    #[test]
    fn foreground_prediction_saturates_access_links() {
        let net = campus();
        let hosts: Vec<NodeId> = net.hosts().into_iter().take(4).collect();
        let pred = foreground_prediction(&net, &hosts);
        assert_eq!(pred.len(), 12);
        // Each host's 100 Mbps access link spread over 3 peers.
        for p in &pred {
            assert!((p.bandwidth_mbps - 100.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn place_partition_is_valid() {
        let net = teragrid();
        let tables = RoutingTables::build(&net);
        let hosts: Vec<NodeId> = net.hosts().into_iter().take(10).collect();
        let pred = foreground_prediction(&net, &hosts);
        let p = map_place(&net, &tables, &pred, &MapperConfig::new(5));
        assert_eq!(p.nparts, 5);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn place_balances_predicted_load_better_than_top() {
        // The point of PLACE: the *predicted per-node load* ends up balanced
        // across engines, which traffic-blind TOP cannot guarantee.
        let net = teragrid();
        let tables = RoutingTables::build(&net);
        // Application on 10 hosts of two sites: heavy site-to-site traffic.
        let hosts = net.hosts();
        let injection: Vec<NodeId> = hosts
            .iter()
            .take(5)
            .chain(hosts.iter().skip(30).take(5))
            .copied()
            .collect();
        let pred = foreground_prediction(&net, &injection);
        let cfg = MapperConfig::new(5);
        let top = map_top(&net, &cfg);
        let place = map_place(&net, &tables, &pred, &cfg);

        let (per_link, per_node) =
            accumulate_predicted_with(&net, &tables, &pred, Parallelism::serial());
        let rows = per_node.iter().map(|&m| [quantize(m)]);
        let traffic_graph = build_graph(&net, 1, rows, |i| quantize(per_link[i]));
        let bal_top = massf_partition::quality::worst_balance(&traffic_graph, &top.part, 5);
        let bal_place = massf_partition::quality::worst_balance(&traffic_graph, &place.part, 5);
        assert!(
            bal_place < bal_top,
            "PLACE predicted-load balance {bal_place:.3} should beat TOP {bal_top:.3}"
        );
        // And it does so without abandoning cut quality entirely: the cut
        // must stay below the all-edges total.
        let cut_place = edge_cut(&traffic_graph, &place.part);
        assert!(cut_place < traffic_graph.adjwgt().iter().sum::<i64>() / 2);
    }

    #[test]
    fn prediction_totals_scale_with_injection_points() {
        let net = campus();
        let tables = RoutingTables::build(&net);
        let hosts = net.hosts();
        let small = foreground_prediction(&net, &hosts[..4]);
        let large = foreground_prediction(&net, &hosts[..8]);
        let (_, node_small) =
            accumulate_predicted_with(&net, &tables, &small, Parallelism::serial());
        let (_, node_large) =
            accumulate_predicted_with(&net, &tables, &large, Parallelism::serial());
        let sum_small: f64 = node_small.iter().sum();
        let sum_large: f64 = node_large.iter().sum();
        assert!(sum_large > sum_small);
    }

    #[test]
    fn deterministic() {
        let net = campus();
        let tables = RoutingTables::build(&net);
        let pred = foreground_prediction(&net, &net.hosts()[..6]);
        let cfg = MapperConfig::new(3);
        assert_eq!(
            map_place(&net, &tables, &pred, &cfg),
            map_place(&net, &tables, &pred, &cfg)
        );
    }
}
