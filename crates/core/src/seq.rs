//! Sequential spanning-tree baselines.
//!
//! "The best sequential algorithm for finding a spanning tree … uses
//! depth- or breadth-first graph traversal, whose time complexity is
//! O(m + n)" (§1). In the paper's experiments the horizontal "Sequential"
//! line is breadth-first search; we provide both BFS and DFS so the
//! harness can pick the faster one per input, exactly as "best
//! sequential" demands.

use std::collections::VecDeque;

use st_graph::{CsrGraph, VertexId, NO_VERTEX};

use crate::result::{AlgoStats, SpanningForest};

/// BFS spanning forest. Components are rooted at their smallest-id
/// unvisited vertex, scanned in id order.
pub fn bfs_forest(g: &CsrGraph) -> SpanningForest {
    bfs_forest_from(g, 0)
}

/// BFS spanning forest whose first root is `start` (remaining components
/// are rooted by an id-order scan). `start` out of range falls back to 0.
pub fn bfs_forest_from(g: &CsrGraph, start: VertexId) -> SpanningForest {
    let n = g.num_vertices();
    let mut parents = vec![NO_VERTEX; n];
    let mut visited = vec![false; n];
    let mut roots = Vec::new();
    let mut queue = VecDeque::new();

    let mut run_from = |s: VertexId,
                        visited: &mut Vec<bool>,
                        parents: &mut Vec<VertexId>,
                        roots: &mut Vec<VertexId>| {
        if visited[s as usize] {
            return;
        }
        visited[s as usize] = true;
        roots.push(s);
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    parents[w as usize] = v;
                    queue.push_back(w);
                }
            }
        }
    };

    if n > 0 {
        let s = if (start as usize) < n { start } else { 0 };
        run_from(s, &mut visited, &mut parents, &mut roots);
    }
    for s in 0..n as VertexId {
        run_from(s, &mut visited, &mut parents, &mut roots);
    }

    SpanningForest {
        parents,
        roots,
        stats: AlgoStats::default(),
    }
}

/// BFS spanning tree of a connected graph rooted at `root`; `None` when
/// the graph is not connected (or `root` is out of range).
pub fn bfs_tree(g: &CsrGraph, root: VertexId) -> Option<Vec<VertexId>> {
    if (root as usize) >= g.num_vertices() {
        return None;
    }
    let f = bfs_forest_from(g, root);
    (f.roots.len() == 1).then_some(f.parents)
}

/// DFS spanning forest (iterative, explicit stack).
pub fn dfs_forest(g: &CsrGraph) -> SpanningForest {
    let n = g.num_vertices();
    let mut parents = vec![NO_VERTEX; n];
    let mut visited = vec![false; n];
    let mut roots = Vec::new();
    // Stack of (vertex, index of the next neighbor to try).
    let mut stack: Vec<(VertexId, usize)> = Vec::new();

    for s in 0..n as VertexId {
        if visited[s as usize] {
            continue;
        }
        visited[s as usize] = true;
        roots.push(s);
        stack.push((s, 0));
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let nb = g.neighbors(v);
            if *i < nb.len() {
                let w = nb[*i];
                *i += 1;
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    parents[w as usize] = v;
                    stack.push((w, 0));
                }
            } else {
                stack.pop();
            }
        }
    }

    SpanningForest {
        parents,
        roots,
        stats: AlgoStats::default(),
    }
}

/// DFS spanning tree of a connected graph rooted at 0-scan order; `None`
/// when disconnected.
pub fn dfs_tree(g: &CsrGraph, root: VertexId) -> Option<Vec<VertexId>> {
    if (root as usize) >= g.num_vertices() {
        return None;
    }
    // Run a DFS rooted at `root` first by a trivial relabel-free trick:
    // temporarily treat `root` as the scan start.
    let n = g.num_vertices();
    let mut parents = vec![NO_VERTEX; n];
    let mut visited = vec![false; n];
    let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
    visited[root as usize] = true;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        let nb = g.neighbors(v);
        if *i < nb.len() {
            let w = nb[*i];
            *i += 1;
            if !visited[w as usize] {
                visited[w as usize] = true;
                parents[w as usize] = v;
                stack.push((w, 0));
            }
        } else {
            stack.pop();
        }
    }
    visited.iter().all(|&b| b).then_some(parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen::{chain, complete, random_connected, random_gnm, star, torus2d};
    use st_graph::validate::{
        count_components, forest_depths, is_spanning_forest, is_spanning_tree,
    };

    #[test]
    fn bfs_tree_on_torus() {
        let g = torus2d(8, 8);
        let t = bfs_tree(&g, 0).unwrap();
        assert!(is_spanning_tree(&g, &t, 0));
    }

    #[test]
    fn bfs_tree_rejects_disconnected() {
        let g = random_gnm(50, 20, 1); // too sparse to be connected
        assert!(bfs_tree(&g, 0).is_none());
    }

    #[test]
    fn bfs_tree_rejects_bad_root() {
        let g = chain(4);
        assert!(bfs_tree(&g, 99).is_none());
    }

    #[test]
    fn bfs_forest_on_disconnected() {
        let g = random_gnm(100, 50, 3);
        let f = bfs_forest(&g);
        assert!(is_spanning_forest(&g, &f.parents));
        assert_eq!(f.roots.len(), count_components(&g));
    }

    #[test]
    fn bfs_forest_from_custom_start() {
        let g = chain(5);
        let f = bfs_forest_from(&g, 3);
        assert_eq!(f.roots, vec![3]);
        assert!(is_spanning_forest(&g, &f.parents));
    }

    #[test]
    fn bfs_depths_are_graph_distances() {
        let g = star(10);
        let t = bfs_tree(&g, 0).unwrap();
        let d = forest_depths(&t);
        assert_eq!(d[0], 0);
        assert!(d[1..].iter().all(|&x| x == 1));
    }

    #[test]
    fn dfs_forest_matches_component_structure() {
        let g = random_gnm(80, 60, 7);
        let f = dfs_forest(&g);
        assert!(is_spanning_forest(&g, &f.parents));
        let b = bfs_forest(&g);
        assert_eq!(f.roots.len(), b.roots.len());
    }

    #[test]
    fn dfs_tree_on_connected_graphs() {
        for g in [complete(12), torus2d(5, 5), random_connected(64, 32, 9)] {
            let t = dfs_tree(&g, 2).unwrap();
            assert!(is_spanning_tree(&g, &t, 2));
        }
    }

    #[test]
    fn dfs_tree_rejects_disconnected() {
        let g = random_gnm(30, 5, 2);
        assert!(dfs_tree(&g, 0).is_none());
    }

    #[test]
    fn dfs_on_chain_is_a_path() {
        let g = chain(6);
        let t = dfs_tree(&g, 0).unwrap();
        let d = forest_depths(&t);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let f = bfs_forest(&CsrGraph::empty(0));
        assert!(f.parents.is_empty());
        assert!(f.roots.is_empty());

        let f = bfs_forest(&CsrGraph::empty(3));
        assert_eq!(f.roots.len(), 3);
        assert!(f.parents.iter().all(|&p| p == NO_VERTEX));

        let f = dfs_forest(&CsrGraph::empty(2));
        assert_eq!(f.roots.len(), 2);
    }
}
