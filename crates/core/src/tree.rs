//! The rooted-forest index.
//!
//! Spanning trees are only useful as building blocks if the downstream
//! algorithms can walk them efficiently. Biconnectivity and ear
//! decomposition, the two applications the paper's introduction names,
//! both start from one rooting step, as in FAST-BCC (Dong, Wang, Gu and
//! Sun): preorder numbers and subtree sizes, so that every subtree is one
//! contiguous interval of the preorder. [`preorder`] builds that index
//! once from a parent array, together with depths, a CSR-style children
//! layout and the roots. Ear decomposition's lowest-common-ancestor
//! queries are all known up front, so they are answered in one batch by
//! Tarjan's offline algorithm over the index's children and a
//! union-find, in O((n + q) α(n)) with O(n + q) extra memory.

use st_graph::{DisjointSets, VertexId, NO_VERTEX};

/// The rooted-forest index of a parent array: preorder numbers, subtree
/// sizes, depths and children.
#[derive(Clone, Debug)]
pub struct Preorder {
    /// Preorder number of each vertex (trees in root id order).
    pub pre: Vec<u32>,
    /// Subtree size of each vertex.
    pub sz: Vec<u32>,
    /// Depth of each vertex (root = 0).
    pub depth: Vec<u32>,
    /// Vertices sorted by preorder number (the traversal order): the
    /// subtree of `v` is `order[pre[v]..pre[v] + sz[v]]`.
    pub order: Vec<VertexId>,
    /// `children[child_start[v]..child_start[v + 1]]` are v's children.
    child_start: Vec<usize>,
    children: Vec<VertexId>,
    roots: Vec<VertexId>,
}

impl Preorder {
    /// Children of `v`, in id order.
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        &self.children[self.child_start[v as usize]..self.child_start[v as usize + 1]]
    }

    /// The forest's roots in id order.
    pub fn roots(&self) -> &[VertexId] {
        &self.roots
    }

    /// True when `u` is an ancestor of `w` (inclusive): `w` lies in the
    /// preorder interval of `u`'s subtree.
    pub fn is_ancestor(&self, u: VertexId, w: VertexId) -> bool {
        let (pu, pw) = (self.pre[u as usize], self.pre[w as usize]);
        pu <= pw && pw < pu + self.sz[u as usize]
    }
}

/// Builds the [`Preorder`] index of the rooted forest given as a parent
/// array, in O(n).
pub fn preorder(parents: &[VertexId]) -> Preorder {
    let n = parents.len();
    // Children lists via counting sort on parents.
    let mut roots = Vec::new();
    let mut child_start = vec![0usize; n + 1];
    for (v, &p) in parents.iter().enumerate() {
        if p == NO_VERTEX {
            roots.push(v as VertexId);
        } else {
            child_start[p as usize + 1] += 1;
        }
    }
    for v in 0..n {
        child_start[v + 1] += child_start[v];
    }
    let mut children = vec![0 as VertexId; child_start[n]];
    let mut cursor = child_start.clone();
    for (v, &p) in parents.iter().enumerate() {
        if p != NO_VERTEX {
            children[cursor[p as usize]] = v as VertexId;
            cursor[p as usize] += 1;
        }
    }

    let mut pre = vec![0u32; n];
    let mut sz = vec![1u32; n];
    let mut depth = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(VertexId, usize)> = Vec::new();
    for &root in &roots {
        pre[root as usize] = order.len() as u32;
        order.push(root);
        stack.push((root, child_start[root as usize]));
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            if *ci < child_start[v as usize + 1] {
                let c = children[*ci];
                *ci += 1;
                pre[c as usize] = order.len() as u32;
                depth[c as usize] = depth[v as usize] + 1;
                order.push(c);
                stack.push((c, child_start[c as usize]));
            } else {
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    sz[parent as usize] += sz[v as usize];
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    Preorder {
        pre,
        sz,
        depth,
        order,
        child_start,
        children,
        roots,
    }
}

/// Lowest common ancestors of `queries` in the indexed forest, by
/// Tarjan's offline algorithm: one depth-first pass over the children
/// with a union-find. `answers[i]` is the LCA of `queries[i]`, or
/// [`NO_VERTEX`] when its endpoints lie in different trees.
pub(crate) fn offline_lca(index: &Preorder, queries: &[(VertexId, VertexId)]) -> Vec<VertexId> {
    let n = index.pre.len();
    // Each vertex's queries, CSR-style; a query sits at both endpoints.
    let mut start = vec![0usize; n + 1];
    for &(a, b) in queries {
        start[a as usize + 1] += 1;
        start[b as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut at = vec![0u32; start[n]];
    let mut cursor = start.clone();
    for (i, &(a, b)) in queries.iter().enumerate() {
        for x in [a, b] {
            at[cursor[x as usize]] = i as u32;
            cursor[x as usize] += 1;
        }
    }

    // A finished vertex's set is merged into its parent's;
    // `ancestor[find(w)]` is then the deepest vertex on the current path
    // above w, which is lca(w, v) for the vertex v being finished.
    let mut sets = DisjointSets::new(n);
    let mut ancestor: Vec<VertexId> = (0..n as VertexId).collect();
    let mut done = vec![false; n];
    let mut answers = vec![NO_VERTEX; queries.len()];
    let mut stack: Vec<(VertexId, usize)> = Vec::new();
    for &root in index.roots() {
        stack.push((root, 0));
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if let Some(&c) = index.children(v).get(*next) {
                *next += 1;
                stack.push((c, 0));
                continue;
            }
            stack.pop();
            done[v as usize] = true;
            for &i in &at[start[v as usize]..start[v as usize + 1]] {
                let (a, b) = queries[i as usize];
                let w = if a == v { b } else { a };
                if done[w as usize] {
                    let l = ancestor[sets.find(w) as usize];
                    // An earlier tree's root is no ancestor of v.
                    if index.is_ancestor(l, v) {
                        answers[i as usize] = l;
                    }
                }
            }
            if let Some(&(parent, _)) = stack.last() {
                sets.union(parent, v);
                ancestor[sets.find(parent) as usize] = parent;
            }
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen::{binary_tree, chain, random_connected, random_gnm};
    use st_graph::validate::forest_depths;

    fn path_parents(n: usize) -> Vec<VertexId> {
        // 0 <- 1 <- 2 <- ...
        (0..n)
            .map(|v| if v == 0 { NO_VERTEX } else { v as VertexId - 1 })
            .collect()
    }

    /// The LCA of one pair, through the offline batch.
    fn lca(parents: &[VertexId], a: VertexId, b: VertexId) -> VertexId {
        offline_lca(&preorder(parents), &[(a, b)])[0]
    }

    /// Bader–Cong forests of random graphs: one random tree, and sparse
    /// random graphs with many trees and isolated vertices.
    fn random_forests() -> Vec<Vec<VertexId>> {
        let mut engine = crate::engine::Engine::new(2);
        let algo = crate::BaderCong::with_defaults();
        let mut graphs = vec![random_connected(300, 0, 9)];
        graphs.extend((0..3).map(|seed| random_gnm(300, 250, seed)));
        graphs
            .iter()
            .map(|g| engine.run(&algo, g).parents)
            .collect()
    }

    #[test]
    fn index_children_match_parent_scan() {
        for parents in random_forests() {
            let po = preorder(&parents);
            let n = parents.len() as VertexId;
            for v in 0..n {
                let naive: Vec<VertexId> = (0..n).filter(|&c| parents[c as usize] == v).collect();
                assert_eq!(po.children(v), naive.as_slice(), "children of {v}");
            }
            let roots: Vec<VertexId> = (0..n)
                .filter(|&v| parents[v as usize] == NO_VERTEX)
                .collect();
            assert_eq!(po.roots(), roots.as_slice());
        }
    }

    #[test]
    fn index_subtrees_are_contiguous_preorder_intervals() {
        for parents in random_forests() {
            let po = preorder(&parents);
            let n = parents.len();
            // Naive subtrees: every vertex joins the subtree of each of
            // its ancestors, itself included.
            let mut subtree: Vec<Vec<VertexId>> = vec![Vec::new(); n];
            for u in 0..n as VertexId {
                let mut a = u;
                while a != NO_VERTEX {
                    subtree[a as usize].push(u);
                    a = parents[a as usize];
                }
            }
            for v in 0..n as VertexId {
                let (pre, sz) = (po.pre[v as usize] as usize, po.sz[v as usize] as usize);
                assert_eq!(po.order[pre], v);
                let mut interval = po.order[pre..pre + sz].to_vec();
                interval.sort_unstable();
                assert_eq!(interval, subtree[v as usize], "subtree of {v}");
                for &u in &interval {
                    assert!(po.is_ancestor(v, u));
                }
            }
        }
    }

    #[test]
    fn lca_depth_matches_index() {
        // Every vertex's LCA with itself is itself, and with its tree's
        // root is that root; depths agree with the validator's.
        for parents in random_forests() {
            let po = preorder(&parents);
            assert_eq!(po.depth, forest_depths(&parents));
            let n = parents.len() as VertexId;
            let mut queries = Vec::new();
            for v in 0..n {
                let mut root = v;
                while parents[root as usize] != NO_VERTEX {
                    root = parents[root as usize];
                }
                queries.push((v, v));
                queries.push((root, v));
            }
            let answers = offline_lca(&po, &queries);
            for (&(a, b), &l) in queries.iter().zip(&answers) {
                assert_eq!(l, a, "lca({a}, {b})");
            }
        }
    }

    #[test]
    fn lca_on_path() {
        let parents = path_parents(10);
        assert_eq!(lca(&parents, 9, 3), 3);
        assert_eq!(lca(&parents, 3, 9), 3);
        assert_eq!(lca(&parents, 7, 7), 7);
        assert_eq!(lca(&parents, 0, 9), 0);
    }

    #[test]
    fn lca_on_binary_tree() {
        // Heap-indexed complete binary tree: parent(v) = (v-1)/2.
        let g = binary_tree(15);
        let parents = crate::seq::bfs_tree(&g, 0).unwrap();
        let queries = [(7, 8), (7, 4), (7, 14), (0, 9)];
        let answers = offline_lca(&preorder(&parents), &queries);
        // Siblings under 3, cousins under 1, opposite halves, the root.
        assert_eq!(answers, vec![3, 1, 0, 0]);
    }

    #[test]
    fn lca_cross_tree_is_no_vertex() {
        // Two separate paths.
        let parents = vec![NO_VERTEX, 0, NO_VERTEX, 2];
        let answers = offline_lca(&preorder(&parents), &[(1, 3), (0, 2), (3, 1), (1, 0)]);
        assert_eq!(answers, vec![NO_VERTEX, NO_VERTEX, NO_VERTEX, 0]);
    }

    #[test]
    fn lca_matches_naive_walk_on_random_trees() {
        let naive = |parents: &[VertexId], depths: &[u32], mut a: VertexId, mut b: VertexId| {
            while a != b {
                if a == NO_VERTEX || b == NO_VERTEX {
                    return NO_VERTEX;
                }
                if depths[a as usize] >= depths[b as usize] {
                    a = parents[a as usize];
                } else {
                    b = parents[b as usize];
                }
            }
            a
        };
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        // One random tree, then forests with many trees.
        for parents in random_forests() {
            let depths = forest_depths(&parents);
            let queries: Vec<(VertexId, VertexId)> = (0..500)
                .map(|_| (rng.gen_range(0..300u32), rng.gen_range(0..300u32)))
                .collect();
            let answers = offline_lca(&preorder(&parents), &queries);
            for (&(a, b), &l) in queries.iter().zip(&answers) {
                assert_eq!(l, naive(&parents, &depths, a, b), "lca({a}, {b})");
            }
        }
    }

    #[test]
    fn depths_agree_with_validate() {
        let parents = path_parents(20);
        assert_eq!(preorder(&parents).depth, forest_depths(&parents));
    }

    #[test]
    fn chain_graph_end_to_end() {
        let g = chain(64);
        let parents = crate::seq::bfs_tree(&g, 0).unwrap();
        let po = preorder(&parents);
        assert_eq!(po.depth[63], 63);
        assert_eq!(offline_lca(&po, &[(63, 1)]), vec![1]);
    }
}
