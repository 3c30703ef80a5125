//! Property-based tests for the graph substrate: arbitrary edge soups must
//! always produce validated CSR graphs with the expected aggregate weights.

use massf_graph::connectivity::connected_components;
use massf_graph::subgraph::induced_subgraph;
use massf_graph::traversal::bfs_distances;
use massf_graph::validate::validate;
use massf_graph::{GraphBuilder, VertexId};
use proptest::prelude::*;
use std::collections::HashMap;

/// An arbitrary undirected multigraph as an edge soup (self-loops filtered).
fn edge_soup(max_n: usize, max_e: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32, i64)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edge =
            (0..n as u32, 0..n as u32, 0i64..1000).prop_filter_map("no self loops", |(u, v, w)| {
                if u == v {
                    None
                } else {
                    Some((u, v, w))
                }
            });
        (Just(n), prop::collection::vec(edge, 0..max_e))
    })
}

proptest! {
    #[test]
    fn builder_output_always_validates((n, edges) in edge_soup(40, 120)) {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(n);
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w).unwrap();
        }
        let g = b.build().unwrap();
        prop_assert!(validate(&g).is_ok());
        prop_assert_eq!(g.nvtxs(), n);
    }

    #[test]
    fn total_edge_weight_is_preserved((n, edges) in edge_soup(30, 100)) {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(n);
        let mut expected = 0i64;
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w).unwrap();
            expected += w;
        }
        let g = b.build().unwrap();
        prop_assert_eq!(g.adjwgt().iter().sum::<i64>() / 2, expected);
    }

    #[test]
    fn merged_edge_weight_matches_sum((n, edges) in edge_soup(15, 60)) {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(n);
        let mut sums: HashMap<(u32, u32), i64> = HashMap::new();
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w).unwrap();
            let key = (u.min(v), u.max(v));
            *sums.entry(key).or_insert(0) += w;
        }
        let g = b.build().unwrap();
        for (&(u, v), &w) in &sums {
            prop_assert_eq!(g.edge_weight_between(u, v), Some(w));
            prop_assert_eq!(g.edge_weight_between(v, u), Some(w));
        }
        prop_assert_eq!(g.nedges(), sums.len());
    }

    #[test]
    fn bfs_reaches_exactly_the_component((n, edges) in edge_soup(30, 100)) {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(n);
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w.max(1)).unwrap();
        }
        let g = b.build().unwrap();
        let comps = connected_components(&g);
        let reached: Vec<bool> = bfs_distances(&g, 0).iter().map(|&d| d != usize::MAX).collect();
        let comp0: Vec<bool> = comps.labels.iter().map(|&l| l == comps.labels[0]).collect();
        prop_assert_eq!(reached, comp0);
    }

    #[test]
    fn bfs_distance_triangle_inequality_on_edges((n, edges) in edge_soup(25, 80)) {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(n);
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w.max(1)).unwrap();
        }
        let g = b.build().unwrap();
        let d = bfs_distances(&g, 0);
        for u in 0..n as VertexId {
            for &v in g.neighbors(u) {
                let (du, dv) = (d[u as usize], d[v as usize]);
                if du != usize::MAX {
                    prop_assert!(dv != usize::MAX && dv <= du + 1);
                }
            }
        }
    }

    #[test]
    fn induced_subgraph_preserves_weights((n, edges) in edge_soup(20, 70)) {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(n);
        for &(u, v, w) in &edges {
            b.add_edge(u, v, w).unwrap();
        }
        let g = b.build().unwrap();
        // Keep the even-numbered vertices.
        let keep: Vec<VertexId> = (0..n as VertexId).filter(|v| v % 2 == 0).collect();
        let s = induced_subgraph(&g, &keep);
        prop_assert!(validate(&s.graph).is_ok());
        for li in 0..s.graph.nvtxs() as VertexId {
            for (ln, w) in s.graph.edges(li) {
                let (pu, pv) = (s.to_parent[li as usize], s.to_parent[ln as usize]);
                prop_assert_eq!(g.edge_weight_between(pu, pv), Some(w));
            }
        }
    }
}
