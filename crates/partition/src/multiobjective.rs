//! The paper's §2.3 multi-objective combination algorithm
//! (after Schloegel, Karypis & Kumar, Euro-Par '99).
//!
//! Two edge-weight functions — a latency objective and a traffic objective —
//! are combined into a single weight in a normalized, user-controllable way:
//!
//! 1. Partition with the latency weights alone → optimal cut `C_latency`.
//! 2. Partition with the traffic weights alone → optimal cut `C_bandwidth`.
//! 3. Set every edge's combined weight to
//!    `p·w_lat/C_lat + (1−p)·w_bw/C_bw`, scaled to integers.
//! 4. Partition once more with the combined weights.
//!
//! `p` is the latency-objective priority; the paper's default is 0.6 (a
//! "latency/traffic priority ratio" of 6:4).

use crate::quality::edge_cut;
use crate::{partition_kway_obs, PartitionConfig, Partitioning};
use massf_graph::{CsrGraph, Weight};
use massf_obs::Recorder;

/// Fixed-point scale applied when converting normalized combined weights
/// back to the integer weights the partitioner consumes.
const COMBINE_SCALE: f64 = 10_000.0;

/// Builds the combined-weight graph from two aligned weight views.
///
/// `g_latency` and `g_bandwidth` must be the same graph structure (same
/// vertices and adjacency) differing only in edge weights; `c_lat`/`c_bw`
/// are the single-objective cuts used as normalizers (clamped to ≥ 1).
pub fn combine_edge_weights(
    g_latency: &CsrGraph,
    g_bandwidth: &CsrGraph,
    c_lat: Weight,
    c_bw: Weight,
    p: f64,
) -> CsrGraph {
    assert_eq!(
        g_latency.nvtxs(),
        g_bandwidth.nvtxs(),
        "objective graphs differ in vertices"
    );
    assert_eq!(
        g_latency.adjncy(),
        g_bandwidth.adjncy(),
        "objective graphs differ in structure"
    );
    assert!((0.0..=1.0).contains(&p), "priority p must be in [0, 1]");
    let cl = c_lat.max(1) as f64;
    let cb = c_bw.max(1) as f64;
    let bw_weights = g_bandwidth.adjwgt();
    let mut i = 0usize;
    g_latency.map_edge_weights(|_, _, w_lat| {
        let w_bw = bw_weights[i];
        i += 1;
        let combined = p * w_lat as f64 / cl + (1.0 - p) * w_bw as f64 / cb;
        (combined * COMBINE_SCALE).round() as Weight
    })
}

/// Runs the full §2.3 pipeline: two single-objective partitions to obtain
/// the normalizers, then the final partition on combined weights. The
/// three partitioner calls record restart batches `{stage_prefix}/latency`,
/// `{stage_prefix}/bandwidth`, and `{stage_prefix}/combined` on `rec`.
pub fn combine_and_partition(
    g_latency: &CsrGraph,
    g_bandwidth: &CsrGraph,
    p: f64,
    cfg: &PartitionConfig,
    stage_prefix: &str,
    rec: &mut Recorder,
) -> Partitioning {
    let part_lat = partition_kway_obs(g_latency, cfg, &format!("{stage_prefix}/latency"), rec);
    let part_bw = partition_kway_obs(g_bandwidth, cfg, &format!("{stage_prefix}/bandwidth"), rec);
    let c_lat = edge_cut(g_latency, &part_lat.part);
    let c_bw = edge_cut(g_bandwidth, &part_bw.part);

    let combined = combine_edge_weights(g_latency, g_bandwidth, c_lat, c_bw, p);
    partition_kway_obs(&combined, cfg, &format!("{stage_prefix}/combined"), rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_graph::{GraphBuilder, VertexId};

    /// A ring of 8 vertices. Latency weights favour cutting edges {3,4} and
    /// {7,0}; bandwidth weights favour cutting {1,2} and {5,6}.
    fn ring_views() -> (CsrGraph, CsrGraph) {
        let build = |weights: [Weight; 8]| {
            let mut b = GraphBuilder::new(1);
            b.add_unit_vertices(8);
            for i in 0..8u32 {
                let j = (i + 1) % 8;
                b.add_edge(i, j, weights[i as usize]).unwrap();
            }
            b.build().unwrap()
        };
        // Edge i connects i and i+1. Low weight = good to cut.
        let lat = build([9, 9, 9, 1, 9, 9, 9, 1]); // cheap cuts at 3-4, 7-0
        let bw = build([9, 1, 9, 9, 9, 1, 9, 9]); // cheap cuts at 1-2, 5-6
        (lat, bw)
    }

    #[test]
    fn p_one_recovers_latency_objective() {
        let (lat, bw) = ring_views();
        let cfg = PartitionConfig::new(2);
        let r = combine_and_partition(&lat, &bw, 1.0, &cfg, "combine", &mut Recorder::new());
        // Cutting 3-4 and 7-0 yields latency cut 2; any other balanced
        // 2-way ring cut costs >= 10 in latency weight.
        assert_eq!(edge_cut(&lat, &r.part), 2);
    }

    #[test]
    fn p_zero_recovers_bandwidth_objective() {
        let (lat, bw) = ring_views();
        let cfg = PartitionConfig::new(2);
        let r = combine_and_partition(&lat, &bw, 0.0, &cfg, "combine", &mut Recorder::new());
        assert_eq!(edge_cut(&bw, &r.part), 2);
    }

    #[test]
    fn combined_weights_are_normalized_sum() {
        let (lat, bw) = ring_views();
        let g = combine_edge_weights(&lat, &bw, 2, 2, 0.5);
        // Edge 0-1 has lat 9, bw 9 -> 0.5*9/2 + 0.5*9/2 = 4.5 -> 45000.
        assert_eq!(g.edge_weight_between(0, 1), Some(45_000));
        // Edge 3-4 has lat 1, bw 9 -> 0.5*0.5 + 0.5*4.5 = 2.5 -> 25000.
        assert_eq!(g.edge_weight_between(3, 4), Some(25_000));
    }

    #[test]
    fn zero_cut_normalizers_clamped() {
        let (lat, bw) = ring_views();
        // c = 0 must not divide by zero.
        let g = combine_edge_weights(&lat, &bw, 0, 0, 0.5);
        assert!(g.adjwgt().iter().sum::<i64>() / 2 > 0);
    }

    #[test]
    #[should_panic(expected = "structure")]
    fn mismatched_structure_panics() {
        let (lat, _) = ring_views();
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(8);
        for i in 0..7u32 {
            b.add_edge(i as VertexId, i + 1, 1).unwrap();
        }
        let other = b.build().unwrap();
        combine_edge_weights(&lat, &other, 1, 1, 0.5);
    }
}
