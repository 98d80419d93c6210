//! Orienting an undirected spanning forest into rooted parent arrays.
//!
//! Shiloach–Vishkin and HCS natively produce spanning forests as *sets of
//! undirected tree edges* (one per graft). Turning that into the rooted
//! parent-array form every consumer expects requires a traversal of the
//! forest itself. It runs through Bader–Cong's forest driver
//! ([`crate::bader_cong`]) on the forest's adjacency, in the caller's
//! job window: trees shorter than the driver's walk budget are finished
//! by the walk, and only larger ones get a work-stealing round, so the
//! SV/HCS pipelines stay parallel end to end without paying a round per
//! component.

use st_graph::{CsrGraph, EdgeList, VertexId};
use st_smp::Executor;

use crate::bader_cong::{grow_forest, Config};
use crate::engine::Workspace;

/// The forest given by `tree_edges` as a graph over `n` vertices.
pub(crate) fn forest_adjacency(n: usize, tree_edges: &[(VertexId, VertexId)]) -> CsrGraph {
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
    let Config {
        traversal,
        stub_factor,
        ..
    } = Config::default();
    grow_forest(&forest, exec, ws, traversal, stub_factor, None).parents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bader_cong::WALK_BUDGET;
    use st_graph::dsu::DisjointSets;
    use st_graph::gen::{chain, random_connected};
    use st_graph::label::{random_permutation, relabel};
    use st_graph::validate::is_spanning_forest;
    use st_graph::NO_VERTEX;

    /// `orient_forest` on a fresh team of `p`.
    fn orient(n: usize, edges: &[(VertexId, VertexId)], p: usize) -> Vec<VertexId> {
        orient_forest(n, edges, &Executor::new(p), &mut Workspace::new())
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

    /// A forest with one random tree of 4·B vertices, stars and chains
    /// of 2 to B − 1 vertices, and isolated vertices, all relabelled so
    /// that no tree's smallest id is where it was built from.
    fn mixed_forest() -> CsrGraph {
        let b = WALK_BUDGET;
        let big = random_connected(4 * b, 0, 3);
        let mut el = EdgeList::new(4 * b + 2 * (b - 2) * (b + 1) / 2 + 40);
        for (u, v) in big.edges() {
            el.push(u, v);
        }
        let mut start = (4 * b) as VertexId;
        for len in 2..b as VertexId {
            // A chain of `len` vertices, then a star of `len` vertices.
            for i in 1..len {
                el.push(start + i - 1, start + i);
            }
            start += len;
            for i in 1..len {
                el.push(start, start + i);
            }
            start += len;
        }
        let g = CsrGraph::from_edge_list(&el);
        relabel(&g, &random_permutation(g.num_vertices(), 17))
    }

    #[test]
    fn every_component_is_rooted_at_its_smallest_vertex() {
        let g = mixed_forest();
        let n = g.num_vertices();
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let mut dsu = DisjointSets::new(n);
        for &(u, v) in &edges {
            dsu.union(u, v);
        }
        let mut smallest = vec![NO_VERTEX; n];
        for v in (0..n as VertexId).rev() {
            smallest[dsu.find(v) as usize] = v;
        }
        let components = smallest.iter().filter(|&&v| v != NO_VERTEX).count();
        assert!(components > 2 * WALK_BUDGET, "test forest lost its shape");
        for p in [1, 2, 4] {
            let parents = orient(n, &edges, p);
            assert!(is_spanning_forest(&g, &parents), "p = {p}");
            let roots: Vec<VertexId> = (0..n as VertexId)
                .filter(|&v| parents[v as usize] == NO_VERTEX)
                .collect();
            assert_eq!(roots.len(), components, "p = {p}");
            for r in roots {
                assert_eq!(r, smallest[dsu.find(r) as usize], "p = {p}");
            }
        }
    }
}
