//! Induced subgraph extraction.

use crate::{CsrGraph, GraphBuilder, VertexId};

/// An induced subgraph together with the id mapping back to the parent.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The extracted graph over renumbered vertices `0..k`.
    pub graph: CsrGraph,
    /// `to_parent[local] == parent id`.
    pub to_parent: Vec<VertexId>,
}

/// Extracts the subgraph induced by `keep` (order defines local numbering;
/// duplicates are a caller bug and panic in debug builds).
pub fn induced_subgraph(g: &CsrGraph, keep: &[VertexId]) -> Subgraph {
    let mut local_of = vec![u32::MAX; g.nvtxs()];
    for (i, &v) in keep.iter().enumerate() {
        debug_assert_eq!(
            local_of[v as usize],
            u32::MAX,
            "duplicate vertex in keep set"
        );
        local_of[v as usize] = i as u32;
    }
    let mut b = GraphBuilder::with_capacity(g.ncon(), keep.len(), keep.len() * 2);
    for &v in keep {
        b.add_vertex(g.vertex_weight(v));
    }
    for (li, &v) in keep.iter().enumerate() {
        for (n, w) in g.edges(v) {
            let ln = local_of[n as usize];
            // Emit each retained edge once, from the lower local id.
            if ln != u32::MAX && (li as u32) < ln {
                b.add_edge(li as VertexId, ln, w)
                    .expect("induced edge valid by construction");
            }
        }
    }
    Subgraph {
        graph: b.build().expect("induced subgraph valid"),
        to_parent: keep.to_vec(),
    }
}

/// Splits `g` by a partition vector into one induced subgraph per part.
pub fn split_by_partition(g: &CsrGraph, part: &[u32], nparts: usize) -> Vec<Subgraph> {
    assert_eq!(part.len(), g.nvtxs());
    let mut groups: Vec<Vec<VertexId>> = vec![Vec::new(); nparts];
    for (v, &p) in part.iter().enumerate() {
        assert!((p as usize) < nparts, "partition label out of range");
        groups[p as usize].push(v as VertexId);
    }
    groups.iter().map(|ks| induced_subgraph(g, ks)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn square() -> CsrGraph {
        // 0-1
        // |  |
        // 3-2   plus diagonal 0-2
        let mut b = GraphBuilder::new(1);
        for w in 1..=4 {
            b.add_vertex(&[w]);
        }
        for (u, v, w) in [(0, 1, 10), (1, 2, 20), (2, 3, 30), (3, 0, 40), (0, 2, 50)] {
            b.add_edge(u, v, w).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = square();
        let s = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(s.graph.nvtxs(), 3);
        assert_eq!(s.graph.nedges(), 3); // 0-1, 1-2, 0-2
        assert_eq!(s.graph.edge_weight_between(0, 2), Some(50));
        assert_eq!(s.to_parent[2], 2);
        assert_eq!(s.graph.vertex_weight0(1), 2);
    }

    #[test]
    fn renumbering_follows_keep_order() {
        let g = square();
        let s = induced_subgraph(&g, &[3, 1]);
        assert_eq!(s.to_parent, vec![3, 1]);
        assert_eq!(s.graph.nedges(), 0); // 3 and 1 not adjacent
    }

    #[test]
    fn split_by_partition_covers_graph() {
        let g = square();
        let part = vec![0, 0, 1, 1];
        let subs = split_by_partition(&g, &part, 2);
        assert_eq!(subs[0].graph.nvtxs() + subs[1].graph.nvtxs(), 4);
        assert_eq!(subs[0].graph.nedges(), 1); // 0-1
        assert_eq!(subs[1].graph.nedges(), 1); // 2-3
    }

    #[test]
    fn empty_part_yields_empty_graph() {
        let g = square();
        let subs = split_by_partition(&g, &[0, 0, 0, 0], 2);
        assert_eq!(subs[1].graph.nvtxs(), 0);
    }
}
