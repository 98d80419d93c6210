//! Rooted-tree utilities: children arrays, Euler tours, and fast LCA.
//!
//! Spanning trees are only useful as building blocks if the downstream
//! algorithms can traverse them efficiently; the PRAM literature the
//! paper builds on (Tarjan–Vishkin, tree contraction — which the
//! authors' own WAE/HiPC work [2, 3] parallelizes) is organized around
//! the **Euler tour** of the tree. This module provides the shared
//! structure: a CSR-style children layout, the Euler tour, and
//! binary-lifting LCA queries in O(log n) after O(n log n) setup.

use st_graph::{VertexId, NO_VERTEX};

/// CSR-style children layout of a rooted forest.
#[derive(Clone, Debug)]
pub struct ChildrenIndex {
    start: Vec<usize>,
    children: Vec<VertexId>,
    roots: Vec<VertexId>,
}

impl ChildrenIndex {
    /// Builds from a parent array.
    pub fn new(parents: &[VertexId]) -> Self {
        let n = parents.len();
        let mut count = vec![0usize; n];
        let mut roots = Vec::new();
        for (v, &p) in parents.iter().enumerate() {
            if p == NO_VERTEX {
                roots.push(v as VertexId);
            } else {
                count[p as usize] += 1;
            }
        }
        let mut start = vec![0usize; n + 1];
        for v in 0..n {
            start[v + 1] = start[v] + count[v];
        }
        let mut cursor = start.clone();
        let mut children = vec![0 as VertexId; start[n]];
        for (v, &p) in parents.iter().enumerate() {
            if p != NO_VERTEX {
                children[cursor[p as usize]] = v as VertexId;
                cursor[p as usize] += 1;
            }
        }
        Self {
            start,
            children,
            roots,
        }
    }

    /// Children of `v`.
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        &self.children[self.start[v as usize]..self.start[v as usize + 1]]
    }

    /// The forest's roots in id order.
    pub fn roots(&self) -> &[VertexId] {
        &self.roots
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// True when the forest has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An Euler tour of a rooted forest: the sequence of vertices visited by
/// a DFS that records every entry and return (2·(size) − 1 entries per
/// tree).
#[derive(Clone, Debug)]
pub struct EulerTour {
    /// The tour itself (concatenated per tree, in root id order).
    pub tour: Vec<VertexId>,
    /// First index of each vertex in `tour`.
    pub first: Vec<usize>,
    /// Depth of each vertex.
    pub depth: Vec<u32>,
}

impl EulerTour {
    /// Builds the tour of the forest described by `parents`.
    pub fn new(parents: &[VertexId]) -> Self {
        let n = parents.len();
        let idx = ChildrenIndex::new(parents);
        let mut tour = Vec::with_capacity(2 * n);
        let mut first = vec![usize::MAX; n];
        let mut depth = vec![0u32; n];
        let mut stack: Vec<(VertexId, usize)> = Vec::new();
        for &root in idx.roots() {
            stack.push((root, 0));
            first[root as usize] = tour.len();
            tour.push(root);
            while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
                let kids = idx.children(v);
                if *ci < kids.len() {
                    let c = kids[*ci];
                    *ci += 1;
                    depth[c as usize] = depth[v as usize] + 1;
                    first[c as usize] = tour.len();
                    tour.push(c);
                    stack.push((c, 0));
                } else {
                    stack.pop();
                    if let Some(&(parent, _)) = stack.last() {
                        tour.push(parent);
                    }
                }
            }
        }
        Self { tour, first, depth }
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
    /// Builds the lifting tables (O(n log n)).
    pub fn new(parents: &[VertexId]) -> Self {
        let n = parents.len();
        let tour = EulerTour::new(parents);
        let depth = tour.depth;
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
    use st_graph::gen::{binary_tree, chain, random_connected};
    use st_graph::validate::forest_depths;

    fn path_parents(n: usize) -> Vec<VertexId> {
        // 0 <- 1 <- 2 <- ...
        (0..n)
            .map(|v| if v == 0 { NO_VERTEX } else { v as VertexId - 1 })
            .collect()
    }

    #[test]
    fn children_index_structure() {
        // Star rooted at 0 plus an isolated vertex 4.
        let parents = vec![NO_VERTEX, 0, 0, 0, NO_VERTEX];
        let idx = ChildrenIndex::new(&parents);
        assert_eq!(idx.len(), 5);
        let mut kids = idx.children(0).to_vec();
        kids.sort_unstable();
        assert_eq!(kids, vec![1, 2, 3]);
        assert!(idx.children(1).is_empty());
        assert_eq!(idx.roots(), &[0, 4]);
    }

    #[test]
    fn euler_tour_of_path() {
        let parents = path_parents(3);
        let t = EulerTour::new(&parents);
        assert_eq!(t.tour, vec![0, 1, 2, 1, 0]);
        assert_eq!(t.first, vec![0, 1, 2]);
        assert_eq!(t.depth, vec![0, 1, 2]);
    }

    #[test]
    fn euler_tour_length_is_2n_minus_roots() {
        let parents = vec![NO_VERTEX, 0, 0, 1, NO_VERTEX];
        let t = EulerTour::new(&parents);
        // Per tree: 2*size - 1 entries. Tree A size 4 -> 7; tree B size
        // 1 -> 1.
        assert_eq!(t.tour.len(), 8);
    }

    #[test]
    fn lca_on_path() {
        let parents = path_parents(10);
        let l = Lca::new(&parents);
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
        let l = Lca::new(&parents);
        assert_eq!(l.lca(7, 8), 3); // siblings under 3
        assert_eq!(l.lca(7, 4), 1);
        assert_eq!(l.lca(7, 14), 0);
        assert_eq!(l.lca(0, 9), 0);
    }

    #[test]
    fn lca_cross_tree_is_no_vertex() {
        // Two separate paths.
        let parents = vec![NO_VERTEX, 0, NO_VERTEX, 2];
        let l = Lca::new(&parents);
        assert_eq!(l.lca(1, 3), NO_VERTEX);
        assert_eq!(l.lca(0, 2), NO_VERTEX);
    }

    #[test]
    fn lca_matches_naive_walk_on_random_trees() {
        let g = random_connected(300, 0, 9); // a random tree
        let f = crate::engine::Engine::new(2).run(&crate::BaderCong::with_defaults(), &g);
        let parents = f.parents;
        let l = Lca::new(&parents);
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
        let l = Lca::new(&parents);
        let reference = forest_depths(&parents);
        for v in 0..20u32 {
            assert_eq!(l.depth(v), reference[v as usize]);
        }
    }

    #[test]
    fn chain_graph_end_to_end() {
        let g = chain(64);
        let parents = crate::seq::bfs_tree(&g, 0).unwrap();
        let l = Lca::new(&parents);
        assert_eq!(l.lca(63, 1), 1);
    }
}
