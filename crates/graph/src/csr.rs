//! Compressed-sparse-row representation of an undirected weighted graph.

use crate::{GraphError, VertexId, Weight};

/// An undirected graph in CSR form.
///
/// Every undirected edge `{u, v}` is stored twice, once in each endpoint's
/// adjacency list, with identical weight. Adjacency lists are sorted by
/// neighbour id, parallel edges have been merged (weights summed), and
/// self-loops are forbidden.
///
/// Vertex weights are multi-constraint: each vertex carries `ncon`
/// non-negative components, flattened row-major into `vwgt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// Number of weight components per vertex (`>= 1`).
    ncon: usize,
    /// Offsets into `adjncy`/`adjwgt`; length `nvtxs + 1`.
    xadj: Vec<usize>,
    /// Concatenated adjacency lists; length `2 * nedges`.
    adjncy: Vec<VertexId>,
    /// Edge weights parallel to `adjncy`.
    adjwgt: Vec<Weight>,
    /// Flattened `[nvtxs * ncon]` vertex weights.
    vwgt: Vec<Weight>,
}

impl CsrGraph {
    /// Assembles a graph from raw CSR arrays, validating structure.
    ///
    /// Intended for callers that already hold CSR data (e.g. the coarsener);
    /// most users should go through [`crate::GraphBuilder`].
    pub fn from_parts(
        ncon: usize,
        xadj: Vec<usize>,
        adjncy: Vec<VertexId>,
        adjwgt: Vec<Weight>,
        vwgt: Vec<Weight>,
    ) -> Result<Self, GraphError> {
        let g = Self {
            ncon,
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        crate::validate::validate(&g)?;
        Ok(g)
    }

    /// Number of vertices.
    #[inline]
    pub fn nvtxs(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn nedges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of weight components per vertex.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Neighbour ids of vertex `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Edge weights parallel to [`Self::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> &[Weight] {
        let v = v as usize;
        &self.adjwgt[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Iterates `(neighbour, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// The `ncon` weight components of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: VertexId) -> &[Weight] {
        let v = v as usize;
        &self.vwgt[v * self.ncon..(v + 1) * self.ncon]
    }

    /// First weight component of `v` (the common single-constraint case).
    #[inline]
    pub fn vertex_weight0(&self, v: VertexId) -> Weight {
        self.vwgt[v as usize * self.ncon]
    }

    /// Weight of the edge `{u, v}` if present.
    pub fn edge_weight_between(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let nbrs = self.neighbors(u);
        nbrs.binary_search(&v).ok().map(|i| self.edge_weights(u)[i])
    }

    /// Sum of each weight component over all vertices.
    pub fn total_vertex_weight(&self) -> Vec<Weight> {
        let mut tot = vec![0; self.ncon];
        for v in 0..self.nvtxs() {
            for c in 0..self.ncon {
                tot[c] += self.vwgt[v * self.ncon + c];
            }
        }
        tot
    }

    /// Replaces all edge weights. `new_weights(u, v, old)` is called once per
    /// directed arc; it must be symmetric in `(u, v)` for the result to
    /// remain a valid undirected graph (checked in debug builds).
    pub fn map_edge_weights(
        &self,
        mut new_weight: impl FnMut(VertexId, VertexId, Weight) -> Weight,
    ) -> Self {
        let mut adjwgt = Vec::with_capacity(self.adjwgt.len());
        for u in 0..self.nvtxs() as VertexId {
            for (v, w) in self.edges(u) {
                adjwgt.push(new_weight(u, v, w));
            }
        }
        let g = Self {
            ncon: self.ncon,
            xadj: self.xadj.clone(),
            adjncy: self.adjncy.clone(),
            adjwgt,
            vwgt: self.vwgt.clone(),
        };
        debug_assert!(crate::validate::validate(&g).is_ok());
        g
    }

    /// Raw CSR access: offsets array (length `nvtxs + 1`).
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw CSR access: concatenated adjacency lists.
    #[inline]
    pub fn adjncy(&self) -> &[VertexId] {
        &self.adjncy
    }

    /// Raw CSR access: edge weights parallel to `adjncy`.
    #[inline]
    pub fn adjwgt(&self) -> &[Weight] {
        &self.adjwgt
    }

    /// Raw CSR access: flattened vertex weights.
    #[inline]
    pub fn vwgt(&self) -> &[Weight] {
        &self.vwgt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(&[1]);
        b.add_vertex(&[2]);
        b.add_vertex(&[3]);
        b.add_edge(0, 1, 10).unwrap();
        b.add_edge(1, 2, 20).unwrap();
        b.add_edge(2, 0, 30).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.nvtxs(), 3);
        assert_eq!(g.nedges(), 3);
        assert_eq!(g.ncon(), 1);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.edge_weight_between(0, 2), Some(30));
        assert_eq!(g.edge_weight_between(2, 0), Some(30));
        assert_eq!(g.edge_weight_between(0, 0), None);
    }

    #[test]
    fn weights_totals() {
        let g = triangle();
        assert_eq!(g.total_vertex_weight(), vec![6]);
        assert_eq!(g.adjwgt().iter().sum::<Weight>() / 2, 60);
        assert_eq!(g.vertex_weight0(2), 3);
    }

    #[test]
    fn degree_and_has_edge() {
        let g = triangle();
        assert_eq!(g.degree(1), 2);
        assert!(g.edge_weight_between(1, 2).is_some());
        assert!(g.edge_weight_between(1, 1).is_none());
    }

    #[test]
    fn map_edge_weights_rescales() {
        let g = triangle();
        let h = g.map_edge_weights(|_, _, w| w * 2);
        assert_eq!(h.edge_weight_between(1, 2), Some(40));
        assert_eq!(h.adjwgt().iter().sum::<Weight>() / 2, 120);
    }

    #[test]
    fn edges_iterator_pairs() {
        let g = triangle();
        let e: Vec<_> = g.edges(2).collect();
        assert_eq!(e, vec![(0, 30), (1, 20)]);
    }
}
