//! Breadth-first traversal utilities shared by partitioning heuristics.

use crate::{CsrGraph, VertexId};
use std::collections::VecDeque;

/// Unweighted hop distance from `start` to every vertex
/// (`usize::MAX` when unreachable).
pub fn bfs_distances(g: &CsrGraph, start: VertexId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.nvtxs()];
    let mut queue = VecDeque::new();
    dist[start as usize] = 0;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &n in g.neighbors(v) {
            if dist[n as usize] == usize::MAX {
                dist[n as usize] = d + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

/// A pseudo-peripheral vertex: repeatedly jumps to the farthest vertex from
/// the current one until eccentricity stops growing. Classic seed choice for
/// graph-growing partitioners.
pub fn pseudo_peripheral(g: &CsrGraph, start: VertexId) -> VertexId {
    let mut current = start;
    let mut ecc = 0usize;
    loop {
        let dist = bfs_distances(g, current);
        let (far, far_d) = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != usize::MAX)
            .max_by_key(|&(_, &d)| d)
            .map(|(v, &d)| (v as VertexId, d))
            .unwrap_or((current, 0));
        if far_d <= ecc {
            return current;
        }
        ecc = far_d;
        current = far;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, (i + 1) as VertexId, 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn distances_on_path() {
        let g = path(4);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_is_max() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(3);
        b.add_edge(0, 1, 1).unwrap();
        let g = b.build().unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    fn pseudo_peripheral_finds_path_end() {
        let g = path(9);
        let p = pseudo_peripheral(&g, 4);
        assert!(p == 0 || p == 8, "expected an end of the path, got {p}");
    }
}
