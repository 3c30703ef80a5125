//! Synthetic ScaLapack foreground workload (§4.1.4).
//!
//! The paper runs a 3000×3000 dense solve on 10 nodes over MPICH-G. What
//! the mapping study needs from it is its *traffic shape*: a block-cyclic
//! LU factorization produces per-iteration panel broadcasts along process
//! rows and update broadcasts along process columns, with volumes that are
//! near-uniform across process pairs and shrink as the trailing matrix
//! shrinks. That regularity is why the PLACE prediction is accurate for
//! ScaLapack (§4.2.1).
//!
//! The model: a [`GRID_ROWS`] × [`GRID_COLS`] process grid (2×5 =
//! [`PROCESSES`] processes), one iteration per [`BLOCK`]-column panel; at
//! iteration `k` the pivot-column processes broadcast the panel along
//! their rows and the pivot-row processes broadcast the U block along
//! their columns, every flow paced at [`RATE_MBPS`] and every element
//! [`ELEMENT_BYTES`] wide; a compute gap of [`BASE_COMPUTE_US`] scaled by
//! the trailing-matrix area separates iterations.

use crate::flow::{FlowSpec, PredictedFlow};
use massf_topology::NodeId;

/// Block size: columns per panel iteration.
pub const BLOCK: usize = 200;
/// Process-grid rows.
pub const GRID_ROWS: usize = 2;
/// Process-grid columns.
pub const GRID_COLS: usize = 5;
/// Number of processes, one host each (the paper's 10 nodes).
pub const PROCESSES: usize = GRID_ROWS * GRID_COLS;
/// Bytes per matrix element (f64).
pub const ELEMENT_BYTES: u64 = 8;
/// Transfer rate of each flow in Mbps (MPICH-G over the access links).
pub const RATE_MBPS: f64 = 200.0;
/// Compute time of the *first* trailing update, in µs; later iterations
/// scale by the shrinking trailing-matrix area.
pub const BASE_COMPUTE_US: u64 = 450_000;

/// Parameters of the ScaLapack traffic model.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalapackConfig {
    /// Matrix dimension (paper: 3000).
    pub matrix_n: usize,
    /// Optional TCP-like transport window (MPICH-G runs over TCP); `None`
    /// keeps the open-loop paced model.
    pub transport_window: Option<u32>,
}

impl Default for ScalapackConfig {
    fn default() -> Self {
        Self {
            matrix_n: 3000,
            transport_window: None,
        }
    }
}

impl ScalapackConfig {
    /// Number of panel iterations.
    pub fn iterations(&self) -> usize {
        self.matrix_n.div_ceil(BLOCK)
    }
}

/// Generates the flow schedule for the solve, with processes placed on
/// `placement` (one host per process, `placement.len() == PROCESSES`).
pub fn flows(cfg: &ScalapackConfig, placement: &[NodeId]) -> Vec<FlowSpec> {
    assert_eq!(placement.len(), PROCESSES, "one host per process required");
    let (pr, pc) = (GRID_ROWS, GRID_COLS);
    let proc_at = |r: usize, c: usize| placement[r * pc + c];
    let mut out = Vec::new();
    let mut t = 0u64;

    let niter = cfg.iterations();
    for k in 0..niter {
        let remaining = cfg.matrix_n - k * BLOCK.min(cfg.matrix_n / niter.max(1));
        let remaining = remaining.max(BLOCK);
        // Panel: `remaining × block` elements held by the pivot column,
        // split across its `pr` row-members; each broadcasts its slice to
        // the other `pc - 1` processes in its row.
        let pivot_col = k % pc;
        let panel_bytes = (remaining * BLOCK) as u64 * ELEMENT_BYTES;
        let slice = panel_bytes / pr as u64;
        for r in 0..pr {
            let src = proc_at(r, pivot_col);
            for c in 0..pc {
                if c == pivot_col {
                    continue;
                }
                out.push(FlowSpec::from_bytes(
                    src,
                    proc_at(r, c),
                    t,
                    slice.max(1),
                    RATE_MBPS,
                ));
            }
        }
        // U block: same volume travels down the columns from the pivot row.
        let pivot_row = k % pr;
        let u_slice = panel_bytes / pc as u64;
        let bcast_t = t + 2_000;
        for c in 0..pc {
            let src = proc_at(pivot_row, c);
            for r in 0..pr {
                if r == pivot_row {
                    continue;
                }
                out.push(FlowSpec::from_bytes(
                    src,
                    proc_at(r, c),
                    bcast_t,
                    u_slice.max(1),
                    RATE_MBPS,
                ));
            }
        }
        // Trailing update compute gap, shrinking quadratically.
        let frac = remaining as f64 / cfg.matrix_n as f64;
        let compute = (BASE_COMPUTE_US as f64 * frac * frac) as u64;
        // Next iteration starts after transfers (approximate by the longest
        // slice serialization) plus compute.
        let longest = out
            .iter()
            .rev()
            .take((pr + pc) * 2)
            .map(|f| f.end_us())
            .max()
            .unwrap_or(t);
        t = longest + compute + 1_000;
    }
    if let Some(w) = cfg.transport_window {
        for f in out.iter_mut() {
            f.window = Some(w);
        }
    }
    out.sort_by_key(|f| (f.start_us, f.src, f.dst));
    out
}

/// The PLACE prediction for ScaLapack (§3.2): "the application fully
/// utilizes the network link at each injection point and every node talks
/// to all other nodes with evenly distributed bandwidth". The caller
/// supplies each injection point's access-link bandwidth.
pub fn predict_uniform(placement: &[NodeId], access_mbps: &[f64]) -> Vec<PredictedFlow> {
    assert_eq!(placement.len(), access_mbps.len());
    let n = placement.len();
    let mut out = Vec::with_capacity(n * (n - 1));
    for (i, &src) in placement.iter().enumerate() {
        let share = access_mbps[i] / (n as f64 - 1.0).max(1.0);
        for &dst in placement.iter() {
            if dst != src {
                out.push(PredictedFlow {
                    src,
                    dst,
                    bandwidth_mbps: share,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::total_packets;
    use std::collections::HashMap;

    fn placement() -> Vec<NodeId> {
        (100..110).collect()
    }

    #[test]
    fn default_is_paper_shape() {
        let cfg = ScalapackConfig::default();
        assert_eq!(PROCESSES, 10, "paper uses 10 nodes");
        assert_eq!(cfg.matrix_n, 3000, "paper solves 3000x3000");
        assert_eq!(cfg.iterations(), 15);
    }

    #[test]
    fn flow_count_matches_broadcast_structure() {
        let cfg = ScalapackConfig::default();
        let fl = flows(&cfg, &placement());
        // Per iteration: pr*(pc-1) panel flows + pc*(pr-1) U flows = 8+5=13.
        assert_eq!(fl.len(), cfg.iterations() * 13);
    }

    #[test]
    fn traffic_is_evenly_distributed() {
        // The defining property: per-host injected volume is near-uniform.
        let cfg = ScalapackConfig::default();
        let fl = flows(&cfg, &placement());
        let mut by_src: HashMap<NodeId, u64> = HashMap::new();
        for f in &fl {
            *by_src.entry(f.src).or_insert(0) += f.bytes;
        }
        let vols: Vec<u64> = placement().iter().map(|h| by_src[h]).collect();
        let max = *vols.iter().max().unwrap() as f64;
        let min = *vols.iter().min().unwrap() as f64;
        assert!(max / min < 3.0, "regular workload too skewed: {vols:?}");
    }

    #[test]
    fn volumes_shrink_over_iterations() {
        let cfg = ScalapackConfig::default();
        let fl = flows(&cfg, &placement());
        let first = fl.first().unwrap();
        let last = fl.last().unwrap();
        assert!(last.bytes < first.bytes, "trailing matrix must shrink");
    }

    #[test]
    fn all_endpoints_are_placed_hosts() {
        let cfg = ScalapackConfig::default();
        let pl = placement();
        for f in flows(&cfg, &pl) {
            assert!(pl.contains(&f.src) && pl.contains(&f.dst));
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn total_volume_is_order_matrix_squared() {
        let cfg = ScalapackConfig::default();
        let fl = flows(&cfg, &placement());
        let bytes: u64 = fl.iter().map(|f| f.bytes).sum();
        // Row bcast sends (pc-1) copies of each panel, column bcast (pr-1):
        // sum_k (pc-1+pr-1) * remaining_k * nb * 8 ≈ 5 * 8 * N²/2 = 20 N².
        let expect = 20.0 * (cfg.matrix_n as f64).powi(2);
        let ratio = bytes as f64 / expect;
        assert!(
            (0.4..2.5).contains(&ratio),
            "total {bytes} vs expected ~{expect}"
        );
        assert!(total_packets(&fl) > 10_000);
    }

    #[test]
    fn uniform_prediction_all_pairs() {
        let pl = placement();
        let bw = vec![100.0; 10];
        let pred = predict_uniform(&pl, &bw);
        assert_eq!(pred.len(), 90);
        for p in &pred {
            assert!((p.bandwidth_mbps - 100.0 / 9.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "one host per process")]
    fn wrong_placement_len_panics() {
        flows(&ScalapackConfig::default(), &[1, 2, 3]);
    }
}
