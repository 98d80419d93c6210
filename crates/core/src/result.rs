//! Common result types for spanning-forest algorithms.

use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::JobMetrics;

/// A rooted spanning forest plus execution statistics.
#[derive(Clone, Debug)]
pub struct SpanningForest {
    /// `parents[v]` is v's parent in its tree, or
    /// [`NO_VERTEX`] when v is a root.
    pub parents: Vec<VertexId>,
    /// The tree roots, one per connected component. A direct Bader–Cong
    /// run (like [`crate::seq::bfs_forest_from`]) lists them in
    /// discovery order: the requested start root first, then the others
    /// by ascending id. Results read off a parent array (SV, HCS, the
    /// starvation fallback, degree-2 preprocessing) list them in vertex
    /// order, the start root included.
    pub roots: Vec<VertexId>,
    /// Execution statistics (empty for runs outside an engine job).
    pub stats: AlgoStats,
}

impl SpanningForest {
    /// A forest over `parents` with its roots read off in vertex order.
    pub(crate) fn from_parents(parents: Vec<VertexId>, stats: AlgoStats) -> Self {
        let roots: Vec<VertexId> = (0..parents.len() as VertexId)
            .filter(|&v| parents[v as usize] == NO_VERTEX)
            .collect();
        Self {
            parents,
            roots,
            stats,
        }
    }

    /// Number of trees (= components).
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// Number of tree edges (n − #roots).
    pub fn num_tree_edges(&self) -> usize {
        self.parents.len() - self.roots.len()
    }

    /// The tree edges as (child, parent) pairs.
    pub fn tree_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.parents
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != NO_VERTEX)
            .map(|(v, &p)| (v as VertexId, p))
    }

    /// Convenience re-check against the graph (delegates to
    /// [`st_graph::validate::is_spanning_forest`]).
    pub fn is_valid_for(&self, g: &CsrGraph) -> bool {
        st_graph::validate::is_spanning_forest(g, &self.parents)
    }
}

/// Execution statistics of an engine job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlgoStats {
    /// Whether the starvation detector aborted the traversal and the SV
    /// fallback produced the result.
    pub fallback_triggered: bool,
    /// The job's one observability record: per-rank counters (barrier
    /// episodes, steals, processed vertices, multi-colored vertices,
    /// grafts, graft iterations, …), merged totals, wall time, per-phase
    /// totals and (under `obs-trace`) phase spans. Default (empty) for
    /// runs outside an engine job, such as the sequential baselines.
    pub metrics: JobMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen::chain;

    #[test]
    fn tree_edge_iteration() {
        let f = SpanningForest {
            parents: vec![NO_VERTEX, 0, 1],
            roots: vec![0],
            stats: AlgoStats::default(),
        };
        assert_eq!(f.num_trees(), 1);
        assert_eq!(f.num_tree_edges(), 2);
        let edges: Vec<_> = f.tree_edges().collect();
        assert_eq!(edges, vec![(1, 0), (2, 1)]);
        assert!(f.is_valid_for(&chain(3)));
    }
}
