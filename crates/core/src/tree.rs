//! The rooted-forest index and fast LCA.
//!
//! Spanning trees are only useful as building blocks if the downstream
//! algorithms can walk them efficiently. Biconnectivity and ear
//! decomposition, the two applications the paper's introduction names,
//! both start from one rooting step, as in FAST-BCC (Dong, Wang, Gu and
//! Sun): preorder numbers and subtree sizes, so that every subtree is one
//! contiguous interval of the preorder. [`preorder`] builds that index
//! once from a parent array, together with depths, a CSR-style children
//! layout and the roots; [`Lca`] answers lowest-common-ancestor queries
//! over it by binary lifting in O(log n) after O(n log n) setup.

use st_graph::{VertexId, NO_VERTEX};

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

/// Binary-lifting LCA structure over a rooted forest.
#[derive(Clone, Debug)]
pub struct Lca {
    /// `up[k][v]` = 2^k-th ancestor of v ([`NO_VERTEX`] beyond the
    /// root).
    up: Vec<Vec<VertexId>>,
    depth: Vec<u32>,
}

impl Lca {
    /// Builds the lifting tables (O(n log n)) for the forest `parents`,
    /// taking depths from its [`preorder`] index.
    pub fn new(parents: &[VertexId], index: &Preorder) -> Self {
        let n = parents.len();
        let depth = index.depth.clone();
        let levels = (usize::BITS - n.max(2).leading_zeros()) as usize;
        let mut up: Vec<Vec<VertexId>> = Vec::with_capacity(levels);
        up.push(parents.to_vec());
        for k in 1..levels {
            let prev = &up[k - 1];
            let next: Vec<VertexId> = (0..n)
                .map(|v| {
                    let mid = prev[v];
                    if mid == NO_VERTEX {
                        NO_VERTEX
                    } else {
                        prev[mid as usize]
                    }
                })
                .collect();
            up.push(next);
        }
        Self { up, depth }
    }

    /// Depth of `v` (root = 0).
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v as usize]
    }

    /// The `k`-th ancestor of `v`, or [`NO_VERTEX`] if the chain is
    /// shorter.
    pub fn ancestor(&self, mut v: VertexId, mut k: u32) -> VertexId {
        let mut level = 0;
        while k > 0 && v != NO_VERTEX {
            if k & 1 == 1 {
                if level >= self.up.len() {
                    return NO_VERTEX;
                }
                v = self.up[level][v as usize];
            }
            k >>= 1;
            level += 1;
        }
        v
    }

    /// Lowest common ancestor of `a` and `b`; [`NO_VERTEX`] when they
    /// are in different trees.
    pub fn lca(&self, mut a: VertexId, mut b: VertexId) -> VertexId {
        if self.depth(a) < self.depth(b) {
            std::mem::swap(&mut a, &mut b);
        }
        a = self.ancestor(a, self.depth(a) - self.depth(b));
        if a == b || a == NO_VERTEX {
            return a;
        }
        for level in (0..self.up.len()).rev() {
            let ua = self.up[level][a as usize];
            let ub = self.up[level][b as usize];
            if ua != ub {
                if ua == NO_VERTEX || ub == NO_VERTEX {
                    // Different trees: lifting diverges at the roots.
                    continue;
                }
                a = ua;
                b = ub;
            }
        }
        let pa = self.up[0][a as usize];
        let pb = self.up[0][b as usize];
        if pa == pb {
            pa
        } else {
            NO_VERTEX
        }
    }
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

    /// Builds the LCA structure of `parents` over its own index.
    fn lca_of(parents: &[VertexId]) -> Lca {
        Lca::new(parents, &preorder(parents))
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
        for parents in random_forests() {
            let po = preorder(&parents);
            let l = Lca::new(&parents, &po);
            assert_eq!(po.depth, forest_depths(&parents));
            for (v, &d) in po.depth.iter().enumerate() {
                assert_eq!(l.depth(v as VertexId), d);
            }
        }
    }

    #[test]
    fn lca_on_path() {
        let parents = path_parents(10);
        let l = lca_of(&parents);
        assert_eq!(l.lca(9, 3), 3);
        assert_eq!(l.lca(3, 9), 3);
        assert_eq!(l.lca(7, 7), 7);
        assert_eq!(l.ancestor(9, 4), 5);
        assert_eq!(l.ancestor(9, 9), 0);
        assert_eq!(l.ancestor(9, 10), NO_VERTEX);
    }

    #[test]
    fn lca_on_binary_tree() {
        // Heap-indexed complete binary tree: parent(v) = (v-1)/2.
        let g = binary_tree(15);
        let parents = crate::seq::bfs_tree(&g, 0).unwrap();
        let l = lca_of(&parents);
        assert_eq!(l.lca(7, 8), 3); // siblings under 3
        assert_eq!(l.lca(7, 4), 1);
        assert_eq!(l.lca(7, 14), 0);
        assert_eq!(l.lca(0, 9), 0);
    }

    #[test]
    fn lca_cross_tree_is_no_vertex() {
        // Two separate paths.
        let parents = vec![NO_VERTEX, 0, NO_VERTEX, 2];
        let l = lca_of(&parents);
        assert_eq!(l.lca(1, 3), NO_VERTEX);
        assert_eq!(l.lca(0, 2), NO_VERTEX);
    }

    #[test]
    fn lca_matches_naive_walk_on_random_trees() {
        let g = random_connected(300, 0, 9); // a random tree
        let f = crate::engine::Engine::new(2).run(&crate::BaderCong::with_defaults(), &g);
        let parents = f.parents;
        let l = lca_of(&parents);
        let depths = forest_depths(&parents);
        let naive = |mut a: VertexId, mut b: VertexId| -> VertexId {
            while a != b {
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
        for _ in 0..500 {
            let a = rng.gen_range(0..300u32);
            let b = rng.gen_range(0..300u32);
            assert_eq!(l.lca(a, b), naive(a, b), "lca({a}, {b})");
        }
    }

    #[test]
    fn depths_agree_with_validate() {
        let parents = path_parents(20);
        let l = lca_of(&parents);
        let reference = forest_depths(&parents);
        for v in 0..20u32 {
            assert_eq!(l.depth(v), reference[v as usize]);
        }
    }

    #[test]
    fn chain_graph_end_to_end() {
        let g = chain(64);
        let parents = crate::seq::bfs_tree(&g, 0).unwrap();
        let l = lca_of(&parents);
        assert_eq!(l.lca(63, 1), 1);
    }
}
