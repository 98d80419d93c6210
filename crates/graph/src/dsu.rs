//! Disjoint-set union (union-find).
//!
//! Used by the Kruskal MST baseline, by `DynForest`'s component merge
//! and as an independent oracle for the connectivity algorithms. Path
//! halving + union by size gives the standard near-constant amortized
//! operations.

use crate::repr::VertexId;

/// A disjoint-set forest over `0..n`.
#[derive(Clone, Debug, Default)]
pub struct DisjointSets {
    parent: Vec<VertexId>,
    size: Vec<u32>,
    sets: usize,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as VertexId).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Back to `n` singleton sets, keeping the allocations: a reset to
    /// no more elements than were ever held allocates nothing.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as VertexId);
        self.size.clear();
        self.size.resize(n, 1);
        self.sets = n;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Representative of `v`'s set (path halving).
    pub fn find(&mut self, mut v: VertexId) -> VertexId {
        loop {
            let p = self.parent[v as usize];
            if p == v {
                return v;
            }
            let gp = self.parent[p as usize];
            self.parent[v as usize] = gp;
            v = gp;
        }
    }

    /// True when `u` and `v` are in the same set.
    pub fn same(&mut self, u: VertexId, v: VertexId) -> bool {
        self.find(u) == self.find(v)
    }

    /// Merges the sets of `u` and `v`; returns `true` when they were
    /// distinct (union by size).
    pub fn union(&mut self, u: VertexId, v: VertexId) -> bool {
        let (mut ru, mut rv) = (self.find(u), self.find(v));
        if ru == rv {
            return false;
        }
        if self.size[ru as usize] < self.size[rv as usize] {
            std::mem::swap(&mut ru, &mut rv);
        }
        self.parent[rv as usize] = ru;
        self.size[ru as usize] += self.size[rv as usize];
        self.sets -= 1;
        true
    }

    /// Size of `v`'s set.
    pub fn set_size(&mut self, v: VertexId) -> usize {
        let r = self.find(v);
        self.size[r as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut d = DisjointSets::new(4);
        assert_eq!(d.num_sets(), 4);
        assert!(!d.same(0, 1));
        assert_eq!(d.set_size(2), 1);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }

    #[test]
    fn union_merges_and_counts() {
        let mut d = DisjointSets::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(!d.union(0, 2), "already merged");
        assert_eq!(d.num_sets(), 3);
        assert!(d.same(0, 2));
        assert!(!d.same(0, 3));
        assert_eq!(d.set_size(1), 3);
    }

    #[test]
    fn chain_of_unions_compresses() {
        let n = 1000;
        let mut d = DisjointSets::new(n);
        for v in 1..n as VertexId {
            d.union(v - 1, v);
        }
        assert_eq!(d.num_sets(), 1);
        assert_eq!(d.set_size(0), n);
        // After finds, paths are short: every find terminates quickly
        // (smoke test for path halving).
        for v in 0..n as VertexId {
            assert_eq!(d.find(v), d.find(0));
        }
    }

    #[test]
    fn reset_starts_over_with_singletons() {
        let mut d = DisjointSets::new(8);
        for v in 1..8 {
            d.union(v - 1, v);
        }
        d.reset(5);
        assert_eq!((d.len(), d.num_sets()), (5, 5));
        assert!(!d.same(0, 4));
        assert!(d.union(0, 4));
        assert_eq!(d.set_size(4), 2);
    }

    #[test]
    fn matches_component_structure_of_random_graph() {
        let g = crate::gen::random_gnm(300, 250, 9);
        let mut d = DisjointSets::new(300);
        for (u, v) in g.edges() {
            d.union(u, v);
        }
        assert_eq!(d.num_sets(), crate::validate::count_components(&g));
    }
}
