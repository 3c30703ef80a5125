//! Incremental graph construction with parallel-edge merging.

use crate::{CsrGraph, GraphError, VertexId, Weight};

/// Builds a [`CsrGraph`] incrementally.
///
/// Vertices are created with [`GraphBuilder::add_vertex`] and receive dense
/// ids in creation order. Edges may be added in any order; duplicates
/// (including the reversed direction) are merged by *summing* their weights,
/// which matches how the paper aggregates multiple traffic flows sharing one
/// physical link.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    ncon: usize,
    vwgt: Vec<Weight>,
    /// Normalized (min, max) endpoint pairs with weights; merged at build.
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for graphs with `ncon` weight components per vertex.
    ///
    /// # Panics
    /// Panics if `ncon == 0`; every vertex needs at least one balance weight.
    pub fn new(ncon: usize) -> Self {
        assert!(ncon >= 1, "ncon must be >= 1");
        Self {
            ncon,
            vwgt: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Creates a builder pre-sized for `nvtxs` vertices and `nedges` edges.
    pub fn with_capacity(ncon: usize, nvtxs: usize, nedges: usize) -> Self {
        assert!(ncon >= 1, "ncon must be >= 1");
        Self {
            ncon,
            vwgt: Vec::with_capacity(nvtxs * ncon),
            edges: Vec::with_capacity(nedges),
        }
    }

    /// Number of vertices added so far.
    pub fn nvtxs(&self) -> usize {
        self.vwgt.len() / self.ncon
    }

    /// Adds a vertex with the given weight components; returns its id.
    ///
    /// # Panics
    /// Panics if `weights.len() != ncon` or any component is negative —
    /// these are programming errors in weight-model code, not data errors.
    pub fn add_vertex(&mut self, weights: &[Weight]) -> VertexId {
        assert_eq!(weights.len(), self.ncon, "vertex weight arity mismatch");
        assert!(weights.iter().all(|&w| w >= 0), "negative vertex weight");
        let id = self.nvtxs() as VertexId;
        self.vwgt.extend_from_slice(weights);
        id
    }

    /// Adds `n` vertices of unit weight; returns the first new id.
    pub fn add_unit_vertices(&mut self, n: usize) -> VertexId {
        let first = self.nvtxs() as VertexId;
        self.vwgt.extend(std::iter::repeat_n(1, n * self.ncon));
        first
    }

    /// Adds an undirected edge `{u, v}` with weight `w`.
    ///
    /// Errors on self-loops, out-of-range endpoints, or negative weight.
    /// Edges to vertices not yet added are rejected, so add vertices first.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), GraphError> {
        let nvtxs = self.nvtxs();
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for x in [u, v] {
            if x as usize >= nvtxs {
                return Err(GraphError::VertexOutOfRange { vertex: x, nvtxs });
            }
        }
        if w < 0 {
            return Err(GraphError::NegativeWeight);
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
        Ok(())
    }

    /// Finalizes into a validated [`CsrGraph`].
    ///
    /// Parallel edges are merged by summing weights. Runs in
    /// O(E log E + V + E).
    pub fn build(mut self) -> Result<CsrGraph, GraphError> {
        let nvtxs = self.nvtxs();
        // Merge parallel edges.
        self.edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut merged: Vec<(VertexId, VertexId, Weight)> = Vec::with_capacity(self.edges.len());
        for (a, b, w) in self.edges {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => last.2 += w,
                _ => merged.push((a, b, w)),
            }
        }

        // Counting pass for CSR offsets: each undirected edge appears in two
        // adjacency lists.
        let mut xadj = vec![0usize; nvtxs + 1];
        for &(a, b, _) in &merged {
            xadj[a as usize + 1] += 1;
            xadj[b as usize + 1] += 1;
        }
        for i in 0..nvtxs {
            xadj[i + 1] += xadj[i];
        }

        let total = xadj[nvtxs];
        let mut adjncy = vec![0 as VertexId; total];
        let mut adjwgt = vec![0 as Weight; total];
        let mut cursor = xadj.clone();
        // Insertion in (a, b) sorted order keeps each adjacency list sorted:
        // for list u, neighbours > u arrive in ascending order from edges
        // (u, b); neighbours < u arrive in ascending order of a from edges
        // (a, u), and all a < u precede... — not guaranteed interleaved, so
        // sort each list afterwards for robustness.
        for &(a, b, w) in &merged {
            adjncy[cursor[a as usize]] = b;
            adjwgt[cursor[a as usize]] = w;
            cursor[a as usize] += 1;
            adjncy[cursor[b as usize]] = a;
            adjwgt[cursor[b as usize]] = w;
            cursor[b as usize] += 1;
        }
        for v in 0..nvtxs {
            let (s, e) = (xadj[v], xadj[v + 1]);
            let mut pairs: Vec<(VertexId, Weight)> = adjncy[s..e]
                .iter()
                .copied()
                .zip(adjwgt[s..e].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(n, _)| n);
            for (i, (n, w)) in pairs.into_iter().enumerate() {
                adjncy[s + i] = n;
                adjwgt[s + i] = w;
            }
        }

        CsrGraph::from_parts(self.ncon, xadj, adjncy, adjwgt, self.vwgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_edges_merge_by_sum() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(2);
        b.add_edge(0, 1, 5).unwrap();
        b.add_edge(1, 0, 7).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.nedges(), 1);
        assert_eq!(g.edge_weight_between(0, 1), Some(12));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(1);
        assert_eq!(b.add_edge(0, 0, 1), Err(GraphError::SelfLoop(0)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(1);
        assert!(matches!(
            b.add_edge(0, 3, 1),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn negative_edge_weight_rejected() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(2);
        assert_eq!(b.add_edge(0, 1, -1), Err(GraphError::NegativeWeight));
    }

    #[test]
    fn isolated_vertices_allowed() {
        let mut b = GraphBuilder::new(2);
        b.add_vertex(&[3, 4]);
        b.add_vertex(&[5, 6]);
        let g = b.build().unwrap();
        assert_eq!(g.nvtxs(), 2);
        assert_eq!(g.nedges(), 0);
        assert_eq!(g.vertex_weight(1), &[5, 6]);
    }

    #[test]
    fn unsorted_insert_order_still_sorted_lists() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(5);
        for (u, v) in [(4, 2), (0, 4), (3, 0), (1, 0), (2, 1)] {
            b.add_edge(u, v, 1).unwrap();
        }
        let g = b.build().unwrap();
        for v in 0..5 {
            let n = g.neighbors(v);
            assert!(
                n.windows(2).all(|w| w[0] < w[1]),
                "unsorted list at {v}: {n:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_vertex(&[1]);
    }
}
