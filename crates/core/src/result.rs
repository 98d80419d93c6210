//! Common result types for spanning-forest algorithms.

use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::JobMetrics;

/// A rooted spanning forest plus execution statistics.
#[derive(Clone, Debug)]
pub struct SpanningForest {
    /// `parents[v]` is v's parent in its tree, or
    /// [`NO_VERTEX`] when v is a root.
    pub parents: Vec<VertexId>,
    /// The tree roots, one per connected component, in discovery order.
    pub roots: Vec<VertexId>,
    /// Execution statistics (which fields are populated depends on the
    /// algorithm).
    pub stats: AlgoStats,
}

impl SpanningForest {
    /// A forest over `parents` with its roots read off in vertex order;
    /// `stats.components` is set to the root count.
    pub(crate) fn from_parents(parents: Vec<VertexId>, mut stats: AlgoStats) -> Self {
        let roots: Vec<VertexId> = (0..parents.len() as VertexId)
            .filter(|&v| parents[v as usize] == NO_VERTEX)
            .collect();
        stats.components = roots.len();
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

/// Execution statistics. Every algorithm fills the subset of fields that
/// makes sense for it and leaves the rest at their defaults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlgoStats {
    /// Connected components discovered.
    pub components: usize,
    /// Vertices observed to be colored concurrently by two or more
    /// processors (the paper's "< 10 per millions of vertices" claim —
    /// experiment CLAIM-RACE).
    pub multi_colored: usize,
    /// Successful steal operations across all processors.
    pub steals: usize,
    /// Total queue items moved by steals.
    pub stolen_items: usize,
    /// Graft-and-shortcut iterations (SV / HCS; the labeling-sensitivity
    /// experiment CLAIM-SVLABEL counts these).
    pub iterations: usize,
    /// Total grafts performed (SV / HCS).
    pub grafts: usize,
    /// Total pointer-jumping rounds across all shortcut phases (SV /
    /// HCS).
    pub shortcut_rounds: usize,
    /// Whether the starvation detector aborted the traversal and the SV
    /// fallback produced the result.
    pub fallback_triggered: bool,
    /// Vertices dequeued (processed) by each processor; duplicates from
    /// benign races count every time they are processed.
    pub per_proc_processed: Vec<usize>,
    /// Barrier episodes executed (the B term of the Helman–JáJá triplet).
    pub barriers: usize,
    /// The full observability report for the job: per-rank counter
    /// snapshots, merged totals, wall time, and (under `obs-trace`)
    /// phase spans. The flat fields above are convenience views of the
    /// same data; this carries everything.
    pub metrics: JobMetrics,
}

impl AlgoStats {
    /// Total vertices processed across processors.
    pub fn total_processed(&self) -> usize {
        self.per_proc_processed.iter().sum()
    }

    /// Load imbalance: max over processors of processed / mean
    /// (1.0 = perfectly balanced). Returns 0.0 when nothing was
    /// processed.
    pub fn load_imbalance(&self) -> f64 {
        let total = self.total_processed();
        if total == 0 || self.per_proc_processed.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.per_proc_processed.len() as f64;
        let max = *self.per_proc_processed.iter().max().unwrap() as f64;
        max / mean
    }
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

    #[test]
    fn load_imbalance_math() {
        let mut s = AlgoStats::default();
        assert_eq!(s.load_imbalance(), 0.0);
        s.per_proc_processed = vec![10, 10, 10, 10];
        assert!((s.load_imbalance() - 1.0).abs() < 1e-12);
        s.per_proc_processed = vec![40, 0, 0, 0];
        assert!((s.load_imbalance() - 4.0).abs() < 1e-12);
        assert_eq!(s.total_processed(), 40);
    }
}
