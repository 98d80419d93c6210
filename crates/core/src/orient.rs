//! Orienting an undirected spanning forest into rooted parent arrays.
//!
//! Shiloach–Vishkin and HCS natively produce spanning forests as *sets of
//! undirected tree edges* (one per graft). Turning that into the rooted
//! parent-array form every consumer expects requires a traversal of the
//! forest itself. We run that traversal with the same parallel
//! work-stealing engine as the main algorithm (one team session, one
//! round per forest component), so the SV/HCS pipelines stay parallel
//! end to end. The orientation inherits the engine's two-level frontier
//! (see [`crate::traversal`]'s module docs): tree adjacency is sparse,
//! exactly the regime where batching publication away from the shared
//! queues pays off.

use st_graph::{CsrGraph, EdgeList, VertexId, NO_VERTEX};
use st_smp::Executor;

use crate::engine::Workspace;
use crate::traversal::TraversalConfig;

fn forest_adjacency(n: usize, tree_edges: &[(VertexId, VertexId)]) -> CsrGraph {
    let mut el = EdgeList::with_capacity(n, tree_edges.len());
    for &(u, v) in tree_edges {
        el.push(u, v);
    }
    CsrGraph::from_edge_list(&el)
}

/// Orients the forest given by `tree_edges` over `n` vertices into a
/// parent array on `exec`'s team, with scratch drawn from `ws`. Each
/// forest component is rooted at its smallest vertex id; vertices not
/// covered by `tree_edges` become singleton roots.
///
/// `tree_edges` must actually be a forest (cycles indicate a bug in the
/// producing algorithm and surface as validation failures downstream).
pub fn orient_forest(
    n: usize,
    tree_edges: &[(VertexId, VertexId)],
    exec: &Executor,
    ws: &mut Workspace,
) -> Vec<VertexId> {
    let forest = forest_adjacency(n, tree_edges);
    let t = ws.traversal(&forest, exec, TraversalConfig::default());
    let mut cursor: VertexId = 0;
    t.run_rounds(exec, |t, _round| {
        while (cursor as usize) < n {
            if !t.is_colored(cursor) {
                t.seed(0, cursor, NO_VERTEX);
                return true;
            }
            cursor += 1;
        }
        false
    });
    t.into_parents()
}

/// Orients `tree_edges` while preserving an existing partial orientation.
///
/// `oriented_mask[v]` marks vertices whose `parents[v]` entry is already
/// final (the starvation fallback's partially-built trees). These act as
/// BFS seeds; every other vertex reached through `tree_edges` gets its
/// parent assigned, and unreachable unoriented vertices become singleton
/// roots.
pub fn orient_forest_with_mask(
    n: usize,
    tree_edges: &[(VertexId, VertexId)],
    oriented_mask: &[bool],
    parents: &mut [VertexId],
    exec: &Executor,
    ws: &mut Workspace,
) {
    assert_eq!(oriented_mask.len(), n);
    assert_eq!(parents.len(), n);
    let p = exec.size();
    let forest = forest_adjacency(n, tree_edges);
    let t = ws.traversal(&forest, exec, TraversalConfig::default());
    let mut cursor: VertexId = 0;
    let parents_in: &[VertexId] = parents;
    t.run_rounds(exec, |t, round| {
        if round == 0 {
            // Seed every pre-oriented vertex round-robin, keeping its
            // existing parent.
            let mut rank = 0usize;
            let mut any = false;
            for v in 0..n {
                if oriented_mask[v] {
                    t.seed(rank, v as VertexId, parents_in[v]);
                    rank = (rank + 1) % p;
                    any = true;
                }
            }
            if any {
                return true;
            }
            // Fall through to the component scan when nothing was
            // pre-oriented.
        }
        while (cursor as usize) < n {
            if !t.is_colored(cursor) {
                t.seed(0, cursor, NO_VERTEX);
                return true;
            }
            cursor += 1;
        }
        false
    });
    let oriented: Vec<VertexId> = t.into_parents();
    parents.copy_from_slice(&oriented);
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen::{chain, random_connected};
    use st_graph::validate::{check_spanning_forest, is_spanning_forest};

    /// `orient_forest` on a fresh team of `p`.
    fn orient(n: usize, edges: &[(VertexId, VertexId)], p: usize) -> Vec<VertexId> {
        orient_forest(n, edges, &Executor::new(p), &mut Workspace::new())
    }

    /// `orient_forest_with_mask` on a fresh team of `p`.
    fn orient_masked(
        edges: &[(VertexId, VertexId)],
        mask: &[bool],
        parents: &mut [VertexId],
        p: usize,
    ) {
        let exec = Executor::new(p);
        orient_forest_with_mask(
            mask.len(),
            edges,
            mask,
            parents,
            &exec,
            &mut Workspace::new(),
        );
    }

    #[test]
    fn orients_a_simple_path() {
        // Forest edges of the path 0-1-2-3.
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let parents = orient(4, &edges, 2);
        let g = chain(4);
        assert!(is_spanning_forest(&g, &parents));
    }

    #[test]
    fn orients_two_components_and_isolated() {
        // Components {0,1}, {2,3,4}, {5}.
        let edges = vec![(0, 1), (2, 3), (3, 4)];
        let parents = orient(6, &edges, 3);
        let roots = parents.iter().filter(|&&p| p == NO_VERTEX).count();
        assert_eq!(roots, 3);
    }

    #[test]
    fn orients_spanning_tree_of_random_graph() {
        let g = random_connected(500, 400, 5);
        let seq = crate::seq::bfs_forest(&g);
        let edges: Vec<_> = seq.tree_edges().collect();
        let parents = orient(g.num_vertices(), &edges, 4);
        assert!(is_spanning_forest(&g, &parents));
    }

    #[test]
    fn orients_many_components_in_one_session() {
        // 100 disjoint 2-vertex components.
        let edges: Vec<(VertexId, VertexId)> = (0..100).map(|i| (2 * i, 2 * i + 1)).collect();
        let parents = orient(200, &edges, 4);
        let roots = parents.iter().filter(|&&p| p == NO_VERTEX).count();
        assert_eq!(roots, 100);
    }

    #[test]
    fn shared_team_orients_repeatedly() {
        // Reusing one executor + workspace across orientations must give
        // the same results as fresh teams.
        let exec = Executor::new(3);
        let mut ws = Workspace::new();
        for n in [10u32, 200, 50] {
            let edges: Vec<(VertexId, VertexId)> = (1..n).map(|v| (v - 1, v)).collect();
            let on = orient_forest(n as usize, &edges, &exec, &mut ws);
            assert!(is_spanning_forest(&chain(n as usize), &on), "n = {n}");
        }
    }

    #[test]
    fn mask_preserves_existing_orientation() {
        // Path 0-1-2-3-4; vertices 0,1 already oriented (1 -> 0).
        let g = chain(5);
        let mut parents = vec![NO_VERTEX; 5];
        parents[1] = 0;
        let mask = vec![true, true, false, false, false];
        let edges = vec![(1, 2), (2, 3), (3, 4)];
        orient_masked(&edges, &mask, &mut parents, 2);
        assert_eq!(parents[0], NO_VERTEX);
        assert_eq!(parents[1], 0);
        assert_eq!(parents[2], 1);
        assert_eq!(parents[3], 2);
        assert_eq!(parents[4], 3);
        assert!(is_spanning_forest(&g, &parents));
    }

    #[test]
    fn mask_handles_untouched_components() {
        // Two components; only the first has pre-oriented vertices.
        let mut parents = vec![NO_VERTEX; 5];
        parents[1] = 0;
        let mask = vec![true, true, false, false, false];
        let edges = vec![(3, 4)]; // component {3, 4}; vertex 2 isolated
        orient_masked(&edges, &mask, &mut parents, 2);
        let check = check_spanning_forest(
            &{
                let mut el = st_graph::EdgeList::new(5);
                el.push(0, 1);
                el.push(3, 4);
                CsrGraph::from_edge_list(&el)
            },
            &parents,
        );
        assert!(check.is_valid(), "{check:?}");
    }

    #[test]
    fn empty_mask_behaves_like_fresh_orientation() {
        let mut parents = vec![NO_VERTEX; 4];
        let mask = vec![false; 4];
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        orient_masked(&edges, &mask, &mut parents, 2);
        assert!(is_spanning_forest(&chain(4), &parents));
    }
}
