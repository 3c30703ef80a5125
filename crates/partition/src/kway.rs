//! The multilevel k-way driver: coarsen → initial partition → uncoarsen with
//! refinement at every level.

use crate::coarsen::coarsen_to;
use crate::initial::initial_partition;
use crate::refine::{fm_pass, kway_refine, rebalance, BalanceSpec};
use crate::{PartitionConfig, Partitioning};
use massf_graph::CsrGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Coarsening stops when the graph has at most `max(COARSEN_TO, 4 *
/// nparts)` vertices.
const COARSEN_TO: usize = 40;

/// Maximum greedy refinement passes per level.
const REFINE_PASSES: usize = 8;

/// Multilevel k-way partitioning (the classical METIS scheme).
///
/// 1. Coarsen with heavy-edge matching until at most
///    `max(COARSEN_TO, 4 * nparts)` vertices remain.
/// 2. Partition the coarsest graph by greedy-growing recursive bisection.
/// 3. Walk the levels back up, projecting the partition through each
///    matching and running rebalance, greedy refinement and one
///    Fiduccia–Mattheyses pass (with rollback, so it escapes local minima
///    the greedy pass cannot) at every level.
///
/// Deterministic for a fixed `cfg.seed`.
///
/// # Panics
/// Panics when `cfg.nparts == 0` or `cfg.nparts > g.nvtxs()`.
pub fn multilevel_kway(g: &CsrGraph, cfg: &PartitionConfig) -> Partitioning {
    assert!(cfg.nparts >= 1, "nparts must be >= 1");
    assert!(
        cfg.nparts <= g.nvtxs(),
        "cannot split {} vertices into {} parts",
        g.nvtxs(),
        cfg.nparts
    );
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    if cfg.nparts == 1 {
        return Partitioning {
            part: vec![0; g.nvtxs()],
            nparts: 1,
        };
    }

    let target = COARSEN_TO.max(4 * cfg.nparts);
    let levels = coarsen_to(g, target, &mut rng);
    let coarsest: &CsrGraph = levels.last().map(|l| &l.graph).unwrap_or(g);

    let ubs: Vec<f64> = (0..g.ncon()).map(|c| cfg.ub_for(c)).collect();
    let spec = match &cfg.target_fractions {
        Some(f) => {
            assert_eq!(f.len(), cfg.nparts, "one target fraction per part");
            BalanceSpec {
                ubs: ubs.clone(),
                fractions: f.clone(),
            }
        }
        None => BalanceSpec::uniform(cfg.nparts, ubs.clone()),
    };
    let mut part = initial_partition(coarsest, &spec.fractions, &ubs, &mut rng);
    rebalance(coarsest, &mut part, &spec, &mut rng);
    kway_refine(coarsest, &mut part, &spec, REFINE_PASSES, &mut rng);
    fm_pass(coarsest, &mut part, &spec);

    // Uncoarsen: levels run finest -> coarsest, so walk them in reverse.
    for i in (0..levels.len()).rev() {
        let fine: &CsrGraph = if i == 0 { g } else { &levels[i - 1].graph };
        let map = &levels[i].coarse_of;
        let mut fine_part = vec![0u32; fine.nvtxs()];
        for v in 0..fine.nvtxs() {
            fine_part[v] = part[map[v] as usize];
        }
        rebalance(fine, &mut fine_part, &spec, &mut rng);
        kway_refine(fine, &mut fine_part, &spec, REFINE_PASSES, &mut rng);
        fm_pass(fine, &mut fine_part, &spec);
        part = fine_part;
    }

    debug_assert_eq!(part.len(), g.nvtxs());
    Partitioning {
        part,
        nparts: cfg.nparts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{edge_cut, worst_balance};
    use massf_graph::{GraphBuilder, VertexId};

    fn grid(w: usize, h: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(w * h);
        let id = |x: usize, y: usize| (y * w + x) as VertexId;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.add_edge(id(x, y), id(x + 1, y), 1).unwrap();
                }
                if y + 1 < h {
                    b.add_edge(id(x, y), id(x, y + 1), 1).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn grid_4way_is_balanced_and_low_cut() {
        let g = grid(12, 12);
        let p = multilevel_kway(&g, &PartitionConfig::new(4));
        assert!(worst_balance(&g, &p.part, 4) <= 1.15);
        // Perfect 4-way of a 12x12 grid cuts 24 edges; allow 2x slack.
        let cut = edge_cut(&g, &p.part);
        assert!(cut <= 48, "cut = {cut}");
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid(9, 9);
        let cfg = PartitionConfig::new(3).with_seed(1234);
        let p1 = multilevel_kway(&g, &cfg);
        let p2 = multilevel_kway(&g, &cfg);
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_seeds_both_valid() {
        let g = grid(8, 8);
        for seed in [1u64, 2, 3] {
            let p = multilevel_kway(&g, &PartitionConfig::new(4).with_seed(seed));
            assert!(worst_balance(&g, &p.part, 4) <= 1.25, "seed {seed}");
        }
    }

    #[test]
    fn one_part_trivial() {
        let g = grid(3, 3);
        let p = multilevel_kway(&g, &PartitionConfig::new(1));
        assert!(p.part.iter().all(|&x| x == 0));
    }

    #[test]
    fn separates_two_cliques() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(12);
        for s in [0u32, 6] {
            for i in s..s + 6 {
                for j in i + 1..s + 6 {
                    b.add_edge(i, j, 10).unwrap();
                }
            }
        }
        b.add_edge(0, 6, 1).unwrap();
        let g = b.build().unwrap();
        let p = multilevel_kway(&g, &PartitionConfig::new(2));
        assert_eq!(edge_cut(&g, &p.part), 1);
    }

    #[test]
    fn nparts_equals_nvtxs() {
        let g = grid(2, 2);
        let p = multilevel_kway(&g, &PartitionConfig::new(4));
        let mut sizes = p.part_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 1, 1]);
    }

    #[test]
    fn multiconstraint_both_balanced() {
        // 16 vertices; constraint 1 lives on a diagonal stripe.
        let mut b = GraphBuilder::new(2);
        for v in 0..16 {
            let w1 = if v % 4 == 0 { 10 } else { 0 };
            b.add_vertex(&[1, w1]);
        }
        let id = |x: usize, y: usize| (y * 4 + x) as VertexId;
        for y in 0..4 {
            for x in 0..4 {
                if x + 1 < 4 {
                    b.add_edge(id(x, y), id(x + 1, y), 1).unwrap();
                }
                if y + 1 < 4 {
                    b.add_edge(id(x, y), id(x, y + 1), 1).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        let p = multilevel_kway(&g, &PartitionConfig::new(2).with_ubfactor(1.25));
        let wb = worst_balance(&g, &p.part, 2);
        assert!(wb <= 1.5, "worst balance {wb}, part = {:?}", p.part);
    }
}
