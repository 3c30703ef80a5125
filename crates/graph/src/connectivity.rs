//! Connected-component analysis.

use crate::{CsrGraph, VertexId};

/// Result of a connected-components sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component label per vertex, dense in `0..count`.
    pub labels: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes.into_iter().max().unwrap_or(0)
    }
}

/// Labels connected components with an iterative DFS.
pub fn connected_components(g: &CsrGraph) -> Components {
    let n = g.nvtxs();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack = Vec::new();
    for s in 0..n as VertexId {
        if labels[s as usize] != u32::MAX {
            continue;
        }
        labels[s as usize] = count;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &nb in g.neighbors(v) {
                if labels[nb as usize] == u32::MAX {
                    labels[nb as usize] = count;
                    stack.push(nb);
                }
            }
        }
        count += 1;
    }
    Components {
        labels,
        count: count as usize,
    }
}

/// True when the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &CsrGraph) -> bool {
    g.nvtxs() == 0 || connected_components(g).count == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn two_components() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let g = b.build().unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.labels[0], c.labels[1]);
        assert_ne!(c.labels[0], c.labels[2]);
        assert_eq!(c.labels[2], c.labels[3]);
        assert_eq!(c.largest(), 2);
        assert!(!is_connected(&g));
    }

    #[test]
    fn single_component() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        let g = b.build().unwrap();
        assert!(is_connected(&g));
    }

    #[test]
    fn empty_graph_connected() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).count, 0);
    }

    #[test]
    fn isolated_vertices_each_own_component() {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(3);
        let g = b.build().unwrap();
        assert_eq!(connected_components(&g).count, 3);
    }
}
