//! Partition quality metrics: edge cut, balance, and boundary statistics.

use massf_graph::{CsrGraph, VertexId, Weight};

/// Sum of weights of edges whose endpoints lie in different parts.
pub fn edge_cut(g: &CsrGraph, part: &[u32]) -> Weight {
    debug_assert_eq!(part.len(), g.nvtxs());
    let mut cut = 0;
    for u in 0..g.nvtxs() as VertexId {
        for (v, w) in g.edges(u) {
            if u < v && part[u as usize] != part[v as usize] {
                cut += w;
            }
        }
    }
    cut
}

/// Per-part totals of each vertex-weight component: `[nparts][ncon]`.
pub fn part_weights(g: &CsrGraph, part: &[u32], nparts: usize) -> Vec<Vec<Weight>> {
    let ncon = g.ncon();
    let mut pw = vec![vec![0 as Weight; ncon]; nparts];
    for v in 0..g.nvtxs() {
        let p = part[v] as usize;
        let wv = g.vertex_weight(v as VertexId);
        for c in 0..ncon {
            pw[p][c] += wv[c];
        }
    }
    pw
}

/// Balance of constraint `c`: `nparts * max_part_weight / total_weight`.
///
/// 1.0 is perfect; METIS reports the same statistic. Returns 1.0 when the
/// total weight of the component is zero.
pub fn balance(g: &CsrGraph, part: &[u32], nparts: usize, c: usize) -> f64 {
    let pw = part_weights(g, part, nparts);
    let total: Weight = pw.iter().map(|p| p[c]).sum();
    if total == 0 {
        return 1.0;
    }
    let max = pw.iter().map(|p| p[c]).max().unwrap_or(0);
    nparts as f64 * max as f64 / total as f64
}

/// Worst balance over all constraints.
pub fn worst_balance(g: &CsrGraph, part: &[u32], nparts: usize) -> f64 {
    (0..g.ncon())
        .map(|c| balance(g, part, nparts, c))
        .fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_graph::GraphBuilder;

    fn path4() -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(4);
        b.add_edge(0, 1, 5).unwrap();
        b.add_edge(1, 2, 7).unwrap();
        b.add_edge(2, 3, 9).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cut_of_middle_split() {
        let g = path4();
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 7);
    }

    #[test]
    fn cut_of_alternating_split() {
        let g = path4();
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 21);
    }

    #[test]
    fn no_cut_when_single_part() {
        let g = path4();
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn perfect_balance_is_one() {
        let g = path4();
        assert!((balance(&g, &[0, 0, 1, 1], 2, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_balance() {
        let g = path4();
        // 3 vertices vs 1: max = 3, total = 4, nparts = 2 -> 1.5
        assert!((balance(&g, &[0, 0, 0, 1], 2, 0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn multiconstraint_balance_independent() {
        let mut b = GraphBuilder::new(2);
        b.add_vertex(&[1, 100]);
        b.add_vertex(&[1, 0]);
        b.add_vertex(&[1, 0]);
        b.add_vertex(&[1, 100]);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let g = b.build().unwrap();
        // Split {0,1} | {2,3}: constraint 0 perfect, constraint 1 perfect.
        assert!((worst_balance(&g, &[0, 0, 1, 1], 2) - 1.0).abs() < 1e-12);
        // Split {0,3} | {1,2}: constraint 1 totally skewed -> 2.0.
        assert!((worst_balance(&g, &[0, 1, 1, 0], 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_total_weight_component_is_balanced() {
        let mut b = GraphBuilder::new(2);
        b.add_vertex(&[1, 0]);
        b.add_vertex(&[1, 0]);
        let g = b.build().unwrap();
        assert!((balance(&g, &[0, 1], 2, 1) - 1.0).abs() < 1e-12);
    }
}

/// Balance of constraint `c` against *per-part target fractions*:
/// `max_p( weight_p / (fraction_p * total) )`. Equals [`balance`] for
/// uniform fractions; 1.0 is perfect. Returns 1.0 for zero total weight.
pub fn target_balance(g: &CsrGraph, part: &[u32], fractions: &[f64], c: usize) -> f64 {
    let nparts = fractions.len();
    let pw = part_weights(g, part, nparts);
    let total: Weight = pw.iter().map(|p| p[c]).sum();
    if total == 0 {
        return 1.0;
    }
    let mut worst = 0.0f64;
    for p in 0..nparts {
        debug_assert!(fractions[p] > 0.0);
        worst = worst.max(pw[p][c] as f64 / (fractions[p] * total as f64));
    }
    worst
}

/// Connected-component count of each part's induced subgraph: `counts[p]`
/// is how many pieces part `p` falls into under `g`'s edges. `1` is a
/// contiguous part, `0` an empty one, `>1` a fragmented one. Contiguity is
/// the partition-shape property the artifact audit (MC013) checks: a
/// fragmented engine region pays cut latency between its own fragments.
pub fn part_component_counts(g: &CsrGraph, part: &[u32], nparts: usize) -> Vec<usize> {
    debug_assert_eq!(part.len(), g.nvtxs());
    massf_graph::subgraph::split_by_partition(g, part, nparts)
        .iter()
        .map(|sg| {
            if sg.graph.nvtxs() == 0 {
                0
            } else {
                massf_graph::connectivity::connected_components(&sg.graph).count as usize
            }
        })
        .collect()
}

/// A constraint no `nparts`-way partition can balance within `ubfactor`:
/// some single vertex already outweighs the per-part capacity
/// `ubfactor * total / nparts`, so wherever it lands, that part busts the
/// tolerance. Used by preflight lints to reject infeasible requests before
/// the partitioner burns restarts on them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfeasibleConstraint {
    /// Constraint (weight-component) index.
    pub constraint: usize,
    /// The heaviest single vertex in that component.
    pub max_vertex_weight: Weight,
    /// The per-part capacity it exceeds.
    pub capacity: f64,
}

/// Returns every constraint for which balance within `ubfactor` is
/// mathematically unreachable for a `nparts`-way partition of `g`
/// (see [`InfeasibleConstraint`]). Empty means a feasible partition may
/// exist; it does not guarantee the partitioner finds one.
pub fn infeasible_constraints(
    g: &CsrGraph,
    nparts: usize,
    ubfactor: f64,
) -> Vec<InfeasibleConstraint> {
    if nparts == 0 || g.nvtxs() == 0 {
        return vec![];
    }
    let ncon = g.ncon();
    let mut out = Vec::new();
    for c in 0..ncon {
        let mut total: Weight = 0;
        let mut max: Weight = 0;
        for v in 0..g.nvtxs() {
            let w = g.vwgt()[v * ncon + c];
            total += w;
            max = max.max(w);
        }
        let capacity = ubfactor * total as f64 / nparts as f64;
        if max as f64 > capacity {
            out.push(InfeasibleConstraint {
                constraint: c,
                max_vertex_weight: max,
                capacity,
            });
        }
    }
    out
}

/// [`infeasible_constraints`] generalized to heterogeneous per-part target
/// fractions (`fractions[p]` of the total weight belongs on part `p`; see
/// `PartitionConfig::with_capacities`). A constraint is infeasible when the
/// heaviest single vertex exceeds even the *largest* part's capacity
/// `ubfactor * max(fractions) * total` — wherever that vertex lands, the
/// balance target is busted. Uniform fractions reduce this to
/// [`infeasible_constraints`].
pub fn infeasible_target_constraints(
    g: &CsrGraph,
    fractions: &[f64],
    ubfactor: f64,
) -> Vec<InfeasibleConstraint> {
    let max_fraction = fractions.iter().copied().fold(0.0f64, f64::max);
    if fractions.is_empty() || g.nvtxs() == 0 || max_fraction <= 0.0 {
        return vec![];
    }
    let ncon = g.ncon();
    let mut out = Vec::new();
    for c in 0..ncon {
        let mut total: Weight = 0;
        let mut max: Weight = 0;
        for v in 0..g.nvtxs() {
            let w = g.vwgt()[v * ncon + c];
            total += w;
            max = max.max(w);
        }
        let capacity = ubfactor * max_fraction * total as f64;
        if max as f64 > capacity {
            out.push(InfeasibleConstraint {
                constraint: c,
                max_vertex_weight: max,
                capacity,
            });
        }
    }
    out
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use massf_graph::GraphBuilder;

    /// Path 0-1-2-3-4-5.
    fn path6() -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1, 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn contiguous_parts_have_one_component_each() {
        let g = path6();
        assert_eq!(
            part_component_counts(&g, &[0, 0, 0, 1, 1, 1], 2),
            vec![1, 1]
        );
    }

    #[test]
    fn fragmented_and_empty_parts_are_counted() {
        let g = path6();
        // Part 0 owns {0, 2, 4}: three isolated fragments of the path.
        // Part 2 owns nothing.
        let counts = part_component_counts(&g, &[0, 1, 0, 1, 0, 1], 3);
        assert_eq!(counts, vec![3, 3, 0]);
    }
}

#[cfg(test)]
mod target_feasibility_tests {
    use super::*;
    use massf_graph::GraphBuilder;

    fn weighted(vwgts: &[Weight]) -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        for &w in vwgts {
            b.add_vertex(&[w]);
        }
        for i in 0..vwgts.len() as u32 - 1 {
            b.add_edge(i, i + 1, 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn uniform_fractions_match_homogeneous_check() {
        let g = weighted(&[90, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        let uniform = vec![0.5, 0.5];
        assert_eq!(
            infeasible_target_constraints(&g, &uniform, 1.25).len(),
            infeasible_constraints(&g, 2, 1.25).len()
        );
        assert_eq!(infeasible_target_constraints(&g, &uniform, 1.25).len(), 1);
    }

    #[test]
    fn a_large_target_part_absorbs_the_heavy_vertex() {
        // The 90-weight vertex fits a part targeted at 95% of the total:
        // capacity = 1.10 * 0.95 * 100 = 104.5 > 90.
        let g = weighted(&[90, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert!(infeasible_target_constraints(&g, &[0.95, 0.05], 1.10).is_empty());
    }

    #[test]
    fn skewed_small_targets_are_infeasible() {
        // Total 100, max fraction 0.4: capacity = 1.10 * 40 = 44 < 90.
        let g = weighted(&[90, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        let inf = infeasible_target_constraints(&g, &[0.4, 0.3, 0.3], 1.10);
        assert_eq!(inf.len(), 1);
        assert_eq!(inf[0].max_vertex_weight, 90);
        assert!(inf[0].capacity < 90.0);
    }

    #[test]
    fn degenerate_fraction_vectors_are_vacuously_feasible() {
        let g = weighted(&[90, 1]);
        assert!(infeasible_target_constraints(&g, &[], 1.10).is_empty());
        assert!(infeasible_target_constraints(&g, &[0.0, 0.0], 1.10).is_empty());
    }
}

#[cfg(test)]
mod feasibility_tests {
    use super::*;
    use massf_graph::GraphBuilder;

    #[test]
    fn balanced_weights_are_feasible() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(8);
        for i in 0..7u32 {
            b.add_edge(i, i + 1, 1).unwrap();
        }
        let g = b.build().unwrap();
        assert!(infeasible_constraints(&g, 4, 1.10).is_empty());
    }

    #[test]
    fn dominant_vertex_is_infeasible() {
        // One vertex holds 90 of 100 total weight: no 2-way split can keep
        // any part under 1.25 * 100 / 2 = 62.5.
        let mut b = GraphBuilder::new(1);
        b.add_vertex(&[90]);
        for _ in 0..10 {
            b.add_vertex(&[1]);
        }
        for i in 0..10u32 {
            b.add_edge(i, i + 1, 1).unwrap();
        }
        let g = b.build().unwrap();
        let inf = infeasible_constraints(&g, 2, 1.25);
        assert_eq!(inf.len(), 1);
        assert_eq!(inf[0].constraint, 0);
        assert_eq!(inf[0].max_vertex_weight, 90);
        assert!((inf[0].capacity - 62.5).abs() < 1e-9);
    }

    #[test]
    fn per_constraint_independence() {
        // Constraint 0 is balanced, constraint 1 has a dominant vertex.
        let mut b = GraphBuilder::new(2);
        b.add_vertex(&[1, 99]);
        b.add_vertex(&[1, 1]);
        b.add_vertex(&[1, 1]);
        b.add_vertex(&[1, 1]);
        for i in 0..3u32 {
            b.add_edge(i, i + 1, 1).unwrap();
        }
        let g = b.build().unwrap();
        let inf = infeasible_constraints(&g, 2, 1.10);
        assert_eq!(inf.len(), 1);
        assert_eq!(inf[0].constraint, 1);
    }

    #[test]
    fn degenerate_inputs_are_empty() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert!(infeasible_constraints(&g, 3, 1.1).is_empty());
    }
}

#[cfg(test)]
mod target_tests {
    use super::*;
    use massf_graph::GraphBuilder;

    fn weighted_path() -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        for w in [30i64, 30, 20, 20] {
            b.add_vertex(&[w]);
        }
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn uniform_targets_match_balance() {
        let g = weighted_path();
        let part = vec![0, 0, 1, 1];
        let uni = vec![0.5, 0.5];
        assert!((target_balance(&g, &part, &uni, 0) - balance(&g, &part, 2, 0)).abs() < 1e-12);
    }

    #[test]
    fn proportional_targets_perfect_when_matched() {
        // Part 0 target 60%, part 1 target 40% — exactly the weight split.
        let g = weighted_path();
        let part = vec![0, 0, 1, 1];
        let t = target_balance(&g, &part, &[0.6, 0.4], 0);
        assert!((t - 1.0).abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn mismatched_targets_show_overload() {
        // Give part 1 only 20% target while it holds 40% of the weight.
        let g = weighted_path();
        let part = vec![0, 0, 1, 1];
        let t = target_balance(&g, &part, &[0.8, 0.2], 0);
        assert!((t - 2.0).abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn target_balance_reads_the_given_constraint() {
        let mut b = GraphBuilder::new(2);
        b.add_vertex(&[10, 0]);
        b.add_vertex(&[10, 100]);
        b.add_edge(0, 1, 1).unwrap();
        let g = b.build().unwrap();
        let t = target_balance(&g, &[0, 1], &[0.5, 0.5], 1);
        assert!((t - 2.0).abs() < 1e-12, "constraint 1 fully on part 1: {t}");
    }
}
