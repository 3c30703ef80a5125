//! Heavy-edge-matching coarsening for the multilevel partitioner.

use massf_graph::{CsrGraph, VertexId, Weight};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// One coarsening level: the coarse graph plus the projection map.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarsened graph.
    pub graph: CsrGraph,
    /// `coarse_of[fine_vertex] == coarse vertex id`.
    pub coarse_of: Vec<VertexId>,
}

/// Computes a heavy-edge matching and contracts it.
///
/// Vertices are visited in a seeded-random order; each unmatched vertex is
/// matched to its unmatched neighbour of maximal edge weight (ties broken by
/// lower id for determinism). Unmatched vertices survive as singletons.
/// Contracted vertex weights are component-wise sums; parallel coarse edges
/// merge by summing weights; edges internal to a matched pair disappear.
pub fn heavy_edge_matching<R: Rng>(g: &CsrGraph, rng: &mut R) -> CoarseLevel {
    let n = g.nvtxs();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(rng);

    const UNMATCHED: VertexId = VertexId::MAX;
    let mut mate = vec![UNMATCHED; n];
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(Weight, VertexId)> = None;
        for (u, w) in g.edges(v) {
            if mate[u as usize] == UNMATCHED {
                let better = match best {
                    None => true,
                    Some((bw, bu)) => w > bw || (w == bw && u < bu),
                };
                if better {
                    best = Some((w, u));
                }
            }
        }
        match best {
            Some((_, u)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // singleton
        }
    }

    // Assign coarse ids: the lower endpoint of each pair owns the id.
    let mut coarse_of = vec![UNMATCHED; n];
    let mut next = 0 as VertexId;
    for v in 0..n as VertexId {
        if coarse_of[v as usize] != UNMATCHED {
            continue;
        }
        let m = mate[v as usize];
        coarse_of[v as usize] = next;
        if m != v {
            coarse_of[m as usize] = next;
        }
        next += 1;
    }
    let cn = next as usize;

    // Coarse vertex weights.
    let ncon = g.ncon();
    let mut vwgt = vec![0 as Weight; cn * ncon];
    for v in 0..n {
        let cv = coarse_of[v] as usize;
        let wv = g.vertex_weight(v as VertexId);
        for c in 0..ncon {
            vwgt[cv * ncon + c] += wv[c];
        }
    }

    // Coarse edges: accumulate into per-source maps. BTreeMap so the
    // add_edge order below is the neighbor order, not a hasher's — the
    // built CSR is then identical across runs (srclint SA001).
    let mut maps: Vec<BTreeMap<VertexId, Weight>> = vec![BTreeMap::new(); cn];
    for v in 0..n as VertexId {
        let cv = coarse_of[v as usize];
        for (u, w) in g.edges(v) {
            let cu = coarse_of[u as usize];
            if cv < cu {
                *maps[cv as usize].entry(cu).or_insert(0) += w;
            }
        }
    }

    let mut b = massf_graph::GraphBuilder::with_capacity(ncon, cn, g.nedges());
    for cv in 0..cn {
        b.add_vertex(&vwgt[cv * ncon..(cv + 1) * ncon]);
    }
    for (cv, map) in maps.into_iter().enumerate() {
        for (cu, w) in map {
            b.add_edge(cv as VertexId, cu, w)
                .expect("coarse edge valid by construction");
        }
    }
    CoarseLevel {
        graph: b.build().expect("coarse graph valid"),
        coarse_of,
    }
}

/// Coarsens repeatedly until the graph has at most `target` vertices or the
/// reduction per level stalls (< 10 % shrink). Returns the levels finest →
/// coarsest; empty when `g` is already small enough.
pub fn coarsen_to<R: Rng>(g: &CsrGraph, target: usize, rng: &mut R) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut current = g.clone();
    while current.nvtxs() > target {
        let level = heavy_edge_matching(&current, rng);
        let shrink = level.graph.nvtxs() as f64 / current.nvtxs() as f64;
        if shrink > 0.95 {
            break; // mostly isolated vertices or a clique of matched pairs; stop
        }
        current = level.graph.clone();
        levels.push(level);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

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
    fn matching_preserves_total_vertex_weight() {
        let g = grid(6, 6);
        let lvl = heavy_edge_matching(&g, &mut rng());
        assert_eq!(lvl.graph.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn matching_roughly_halves() {
        let g = grid(8, 8);
        let lvl = heavy_edge_matching(&g, &mut rng());
        assert!(lvl.graph.nvtxs() <= g.nvtxs());
        assert!(
            lvl.graph.nvtxs() >= g.nvtxs() / 2,
            "cannot shrink below half"
        );
        assert!(
            lvl.graph.nvtxs() < (g.nvtxs() * 7) / 10,
            "should match most vertices"
        );
    }

    #[test]
    fn coarse_map_total_is_dense() {
        let g = grid(5, 5);
        let lvl = heavy_edge_matching(&g, &mut rng());
        let cn = lvl.graph.nvtxs() as VertexId;
        assert!(lvl.coarse_of.iter().all(|&c| c < cn));
        // Every coarse vertex must own at least one fine vertex.
        let mut seen = vec![false; cn as usize];
        for &c in &lvl.coarse_of {
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn matched_pairs_are_adjacent() {
        // HEM invariant that holds for every visit order: two fine vertices
        // sharing a coarse vertex were connected by an edge.
        let g = grid(7, 5);
        let lvl = heavy_edge_matching(&g, &mut rng());
        let cn = lvl.graph.nvtxs();
        let mut groups: Vec<Vec<VertexId>> = vec![Vec::new(); cn];
        for (v, &c) in lvl.coarse_of.iter().enumerate() {
            groups[c as usize].push(v as VertexId);
        }
        for grp in groups {
            assert!(
                grp.len() <= 2,
                "matching contracted more than a pair: {grp:?}"
            );
            if let [a, b] = grp[..] {
                assert!(
                    g.edge_weight_between(a, b).is_some(),
                    "matched non-adjacent pair {a},{b}"
                );
            }
        }
    }

    #[test]
    fn isolated_heavy_pair_always_matches() {
        // Component {0,1} with one edge: both visit orders match them.
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(4);
        b.add_edge(0, 1, 100).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let g = b.build().unwrap();
        let lvl = heavy_edge_matching(&g, &mut rng());
        assert_eq!(lvl.coarse_of[0], lvl.coarse_of[1]);
        assert_eq!(lvl.coarse_of[2], lvl.coarse_of[3]);
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = grid(10, 10);
        let levels = coarsen_to(&g, 12, &mut rng());
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().graph;
        assert!(
            coarsest.nvtxs() <= 25,
            "coarsest too big: {}",
            coarsest.nvtxs()
        );
        // Total weight preserved through every level.
        assert_eq!(coarsest.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn multiconstraint_weights_sum_componentwise() {
        let mut b = GraphBuilder::new(2);
        b.add_vertex(&[1, 10]);
        b.add_vertex(&[2, 20]);
        b.add_edge(0, 1, 5).unwrap();
        let g = b.build().unwrap();
        let lvl = heavy_edge_matching(&g, &mut rng());
        assert_eq!(lvl.graph.nvtxs(), 1);
        assert_eq!(lvl.graph.vertex_weight(0), &[3, 30]);
        assert_eq!(lvl.graph.nedges(), 0);
    }

    #[test]
    fn disconnected_graph_coarsens() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(6);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        // 4 and 5 isolated.
        let g = b.build().unwrap();
        let lvl = heavy_edge_matching(&g, &mut rng());
        assert_eq!(lvl.graph.nvtxs(), 4); // two pairs + two singletons
    }
}
