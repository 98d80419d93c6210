//! Connected components.
//!
//! SV is natively a connectivity algorithm (§2: "The Shiloach-Vishkin
//! algorithm (SV) is in fact a connected-components algorithm"), and the
//! paper lists connected components among the problems its techniques
//! target. Both routes are provided: component labels straight from the
//! SV hook array, and labels derived from any spanning forest (the new
//! algorithm's output included).

use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_smp::{CancelToken, Executor};

use crate::engine::Workspace;
use crate::sv::{self, SvConfig};

/// Component labeling of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// `labels[v]` is a component id in `0..count`.
    pub labels: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// True when `u` and `v` are in the same component.
    pub fn same(&self, u: VertexId, v: VertexId) -> bool {
        self.labels[u as usize] == self.labels[v as usize]
    }

    /// Sizes of the components, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }
}

/// Compacts per-vertex representatives (vertex ids) into consecutive
/// labels `0..count` (order of first appearance).
fn compact(reps: &[VertexId]) -> Components {
    let mut label_of = vec![u32::MAX; reps.len()];
    let mut count = 0;
    let labels = reps
        .iter()
        .map(|&r| {
            let l = &mut label_of[r as usize];
            if *l == u32::MAX {
                *l = count as u32;
                count += 1;
            }
            *l
        })
        .collect();
    Components { labels, count }
}

/// Connected components via parallel SV on an existing team, with all
/// scratch drawn from `ws`.
pub fn connected_components(g: &CsrGraph, exec: &Executor, ws: &mut Workspace) -> Components {
    let out = sv::sv_core(g, exec, ws, None, SvConfig::default(), &CancelToken::none())
        .expect("inert token cannot cancel");
    compact(&out.labels)
}

/// Connected components read off an existing spanning forest's parent
/// array (each vertex labeled by its tree root).
pub fn components_from_forest(parents: &[VertexId]) -> Components {
    compact(&tree_roots(parents))
}

/// The root of every vertex's tree in a parent array, by parent chasing
/// with memoization.
pub(crate) fn tree_roots(parents: &[VertexId]) -> Vec<VertexId> {
    let n = parents.len();
    let mut root = vec![NO_VERTEX; n];
    let mut chain = Vec::new();
    for v in 0..n {
        if root[v] != NO_VERTEX {
            continue;
        }
        chain.clear();
        let mut cur = v;
        let r = loop {
            if root[cur] != NO_VERTEX {
                break root[cur];
            }
            chain.push(cur);
            let p = parents[cur];
            if p == NO_VERTEX {
                break cur as VertexId;
            }
            cur = p as usize;
            assert!(chain.len() <= n, "parent chains cycle; not a forest");
        };
        for &u in &chain {
            root[u] = r;
        }
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen;
    use st_graph::validate::component_labels;

    /// `connected_components` on a fresh team of `p`.
    fn components(g: &CsrGraph, p: usize) -> Components {
        connected_components(g, &Executor::new(p), &mut Workspace::new())
    }

    /// Two labelings agree up to renaming.
    fn assert_same_partition(a: &[u32], b: &[u32]) {
        assert_eq!(a.len(), b.len());
        let mut fwd = std::collections::HashMap::new();
        let mut bwd = std::collections::HashMap::new();
        for (&x, &y) in a.iter().zip(b.iter()) {
            assert_eq!(*fwd.entry(x).or_insert(y), y, "partition mismatch");
            assert_eq!(*bwd.entry(y).or_insert(x), x, "partition mismatch");
        }
    }

    #[test]
    fn sv_components_match_reference() {
        for seed in 0..4 {
            let g = gen::random_gnm(500, 400, seed);
            let cc = components(&g, 4);
            let reference = component_labels(&g);
            assert_same_partition(&cc.labels, &reference);
        }
    }

    #[test]
    fn forest_components_match_reference() {
        let g = gen::mesh2d_p(25, 25, 0.55, 7);
        let f = crate::engine::Engine::new(4).run(&crate::BaderCong::with_defaults(), &g);
        let cc = components_from_forest(&f.parents);
        assert_same_partition(&cc.labels, &component_labels(&g));
        assert_eq!(cc.count, f.roots.len());
    }

    #[test]
    fn same_and_sizes() {
        let g = {
            let mut el = st_graph::EdgeList::new(5);
            el.push(0, 1);
            el.push(2, 3);
            st_graph::CsrGraph::from_edge_list(&el)
        };
        let cc = components(&g, 2);
        assert_eq!(cc.count, 3);
        assert!(cc.same(0, 1));
        assert!(!cc.same(1, 2));
        let mut sizes = cc.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn empty_graph() {
        let cc = components(&st_graph::CsrGraph::empty(0), 2);
        assert_eq!(cc.count, 0);
        assert!(cc.labels.is_empty());
    }

    #[test]
    fn singleton_components() {
        let cc = components(&st_graph::CsrGraph::empty(4), 2);
        assert_eq!(cc.count, 4);
        assert_eq!(cc.sizes(), vec![1, 1, 1, 1]);
    }
}
