//! Ear decomposition — the second application the paper's introduction
//! names for spanning trees ("biconnected components and ear
//! decomposition").
//!
//! An **ear decomposition** of a 2-edge-connected graph partitions its
//! edges into a cycle E₀ and paths ("ears") E₁, E₂, …, each ear's two
//! endpoints lying on earlier ears and its interior vertices being new.
//! The classic parallel construction (Maon–Schieber–Vishkin) runs off a
//! spanning tree: every non-tree edge e = (u, v) closes exactly one
//! cycle — the tree path u⇝v plus e — and is given the label
//! `(depth(lca(u, v)), edge id)`; every tree edge is assigned to the
//! smallest-labeled non-tree edge whose cycle covers it. The edge set of
//! each non-tree edge (the edge itself plus its assigned tree edges)
//! forms one ear, and ordering ears by label makes every ear after the
//! first attach to earlier ones.
//!
//! The label minimization over covering cycles is the same bottom-up
//! sweep as the `low`/`high` computation in
//! [`biconnected`](crate::biconnected); the spanning tree is again the
//! building block.

use st_graph::{CsrGraph, VertexId, NO_VERTEX};

use crate::bader_cong::BaderCong;
use crate::biconnected::{preorder, Preorder};
use crate::engine::Engine;

/// An ear decomposition of a 2-edge-connected graph.
#[derive(Clone, Debug)]
pub struct EarDecomposition {
    /// Ears in order: `ears[0]` is the initial cycle; each later ear is
    /// a path (or cycle, for a non-open decomposition) attached to
    /// earlier ears. Edges are (u, v) pairs.
    pub ears: Vec<Vec<(VertexId, VertexId)>>,
}

impl EarDecomposition {
    /// Number of ears.
    pub fn len(&self) -> usize {
        self.ears.len()
    }

    /// True when there are no ears (edgeless input).
    pub fn is_empty(&self) -> bool {
        self.ears.is_empty()
    }

    /// Total edges across all ears.
    pub fn num_edges(&self) -> usize {
        self.ears.iter().map(Vec::len).sum()
    }
}

/// Errors from [`ear_decomposition`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EarError {
    /// The graph is not connected.
    NotConnected,
    /// The graph has a bridge (ear decompositions exist only for
    /// 2-edge-connected graphs); the offending tree edge is returned as
    /// (child, parent).
    HasBridge(VertexId, VertexId),
    /// The graph has no edges at all.
    Empty,
}

impl std::fmt::Display for EarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EarError::NotConnected => write!(f, "graph is not connected"),
            EarError::HasBridge(u, v) => {
                write!(f, "graph has a bridge ({u}, {v}); not 2-edge-connected")
            }
            EarError::Empty => write!(f, "graph has no edges"),
        }
    }
}

impl std::error::Error for EarError {}

/// Computes an ear decomposition of a 2-edge-connected graph, using a
/// Bader–Cong spanning tree built on `engine`'s team as the skeleton.
pub fn ear_decomposition(engine: &mut Engine, g: &CsrGraph) -> Result<EarDecomposition, EarError> {
    if g.num_edges() == 0 {
        return Err(EarError::Empty);
    }
    let forest = engine.run(&BaderCong::with_defaults(), g);
    if forest.roots.len() != 1 {
        return Err(EarError::NotConnected);
    }
    let parents = &forest.parents;
    let po: Preorder = preorder(parents);

    // Non-tree edges with their (lca depth, edge id) labels. Binary-
    // lifting LCA keeps this O((n + m) log n) even on high-depth trees
    // (a cycle's spanning tree is a path).
    let is_tree_edge =
        |u: VertexId, v: VertexId| parents[u as usize] == v || parents[v as usize] == u;
    let lca_index = crate::tree::Lca::new(parents);
    let lca = |a: VertexId, b: VertexId| -> VertexId { lca_index.lca(a, b) };

    let mut non_tree: Vec<(VertexId, VertexId)> = Vec::new();
    for u in g.vertices() {
        for &v in g.neighbors(u) {
            if u < v && !is_tree_edge(u, v) {
                non_tree.push((u, v));
            }
        }
    }
    // Labels: (lca depth, sequence id). Smaller label = earlier ear;
    // the master cycle E0 comes from the shallowest lca.
    let mut labeled: Vec<(u32, u32, VertexId, VertexId)> = non_tree
        .iter()
        .enumerate()
        .map(|(i, &(u, v))| (po.depth[lca(u, v) as usize], i as u32, u, v))
        .collect();
    labeled.sort_unstable();
    // Rank of each non-tree edge after sorting.
    let mut ear_of_nontree: std::collections::HashMap<(VertexId, VertexId), usize> =
        std::collections::HashMap::new();
    for (rank, &(_, _, u, v)) in labeled.iter().enumerate() {
        ear_of_nontree.insert((u, v), rank);
    }

    // Assign each tree edge (v, parent(v)) to the minimum-ranked
    // non-tree edge covering it, by bottom-up min propagation: cover(v)
    // starts as the min rank of non-tree edges incident to v, and flows
    // upward, but a non-tree edge (u, w) covers exactly the tree edges
    // on the paths u⇝lca and w⇝lca — so its rank must stop flowing at
    // the lca. Standard trick: add the rank at both endpoints and
    // *cancel* it at the lca by only propagating values whose cycle
    // extends above the current vertex. We implement it directly: each
    // vertex v keeps min over {ranks of non-tree edges whose cycle
    // covers the edge (v, p(v))}; a cycle of (u, w) covers (v, p(v))
    // iff v is on u⇝lca or w⇝lca, i.e. v is an ancestor-or-self of u or
    // w and strictly below the lca. Equivalently: min over non-tree
    // edges incident to the subtree of v whose other endpoint is
    // outside the subtree of v... which is exactly a low/high-style
    // sweep over ranks.
    let n = g.num_vertices();
    let mut cover = vec![u32::MAX; n]; // min rank covering (v, p(v))
    for &v in po.order.iter().rev() {
        let mut best = u32::MAX;
        // Non-tree edges incident to v whose other endpoint is outside
        // v's subtree (their cycle passes through (v, p(v))).
        for &u in g.neighbors(v) {
            if is_tree_edge(v, u) {
                continue;
            }
            let key = if v < u { (v, u) } else { (u, v) };
            let rank = ear_of_nontree[&key] as u32;
            let inside = po.pre[u as usize] >= po.pre[v as usize]
                && po.pre[u as usize] < po.pre[v as usize] + po.sz[v as usize];
            if !inside {
                best = best.min(rank);
            }
        }
        // Children's covers extend through v iff their cycles reach
        // above v: child's covering edge has its lca strictly above v,
        // i.e. the cycle also covers (v, p(v)). A child cover extends
        // iff the corresponding non-tree edge's lca is a proper
        // ancestor of v; checking depth(lca) < depth(v) via the stored
        // rank's label would need the label — recompute cheaply:
        for u in children(&po, parents, v) {
            let c = cover[u as usize];
            if c != u32::MAX {
                let (_, _, a, b) = labeled[c as usize];
                let l = lca(a, b);
                if po.depth[l as usize] < po.depth[v as usize] {
                    best = best.min(c);
                }
            }
        }
        cover[v as usize] = best;
        if parents[v as usize] != NO_VERTEX && best == u32::MAX {
            return Err(EarError::HasBridge(v, parents[v as usize]));
        }
    }

    // Group edges into ears.
    let mut ears: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); labeled.len()];
    for (rank, &(_, _, u, v)) in labeled.iter().enumerate() {
        ears[rank].push((u, v));
    }
    for v in 0..n as VertexId {
        let pv = parents[v as usize];
        if pv == NO_VERTEX {
            continue;
        }
        ears[cover[v as usize] as usize].push((v, pv));
    }
    ears.retain(|e| !e.is_empty());
    Ok(EarDecomposition { ears })
}

/// Children of `v` under the parent array (helper; small graphs only —
/// the decomposition rebuilds this lazily per call site).
fn children(po: &Preorder, parents: &[VertexId], v: VertexId) -> Vec<VertexId> {
    // Children appear as a contiguous preorder segment after v; scan the
    // subtree interval and pick direct children.
    let start = po.pre[v as usize] as usize;
    let end = start + po.sz[v as usize] as usize;
    po.order[start..end]
        .iter()
        .copied()
        .filter(|&c| parents[c as usize] == v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::gen::{chain, complete, cycle, torus2d};
    use st_graph::EdgeList;

    /// Checks the ear-decomposition invariants:
    /// 1. Edges partition the graph's edge set.
    /// 2. Ear 0 is a cycle.
    /// 3. Every later ear's endpoints touch earlier ears; its interior
    ///    vertices are new.
    fn assert_valid_ears(g: &CsrGraph, ed: &EarDecomposition) {
        // 1. Partition.
        let mut all: Vec<(VertexId, VertexId)> = ed
            .ears
            .iter()
            .flatten()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        all.sort_unstable();
        let mut expect: Vec<(VertexId, VertexId)> = g.edges().collect();
        expect.sort_unstable();
        assert_eq!(all.len(), expect.len(), "edge counts differ");
        assert_eq!(all, expect, "ears do not partition the edge set");

        // Per-ear structure: compute vertex degrees within the ear.
        let mut seen_vertices: std::collections::HashSet<VertexId> =
            std::collections::HashSet::new();
        for (i, ear) in ed.ears.iter().enumerate() {
            let mut deg: std::collections::HashMap<VertexId, usize> =
                std::collections::HashMap::new();
            for &(u, v) in ear {
                *deg.entry(u).or_insert(0) += 1;
                *deg.entry(v).or_insert(0) += 1;
            }
            if i == 0 {
                // 2. A cycle: every vertex has degree 2 within the ear.
                assert!(
                    deg.values().all(|&d| d == 2),
                    "ear 0 is not a cycle: {ear:?}"
                );
                seen_vertices.extend(deg.keys().copied());
            } else {
                // 3. A path or cycle whose attachment points were seen.
                let endpoints: Vec<VertexId> = deg
                    .iter()
                    .filter(|&(_, &d)| d == 1)
                    .map(|(&v, _)| v)
                    .collect();
                assert!(
                    deg.values().all(|&d| d <= 2),
                    "ear {i} is not a path/cycle: {ear:?}"
                );
                if endpoints.is_empty() {
                    // Closed ear (cycle): at least one vertex must be old.
                    assert!(
                        deg.keys().any(|v| seen_vertices.contains(v)),
                        "closed ear {i} floats free"
                    );
                } else {
                    assert_eq!(endpoints.len(), 2, "ear {i} has {endpoints:?}");
                    for e in &endpoints {
                        assert!(
                            seen_vertices.contains(e),
                            "ear {i} endpoint {e} not on earlier ears"
                        );
                    }
                    // Interior vertices must be new.
                    for (&v, &d) in deg.iter() {
                        if d == 2 {
                            assert!(
                                !seen_vertices.contains(&v),
                                "ear {i} interior vertex {v} already used"
                            );
                        }
                    }
                }
                seen_vertices.extend(deg.keys().copied());
            }
        }
    }

    #[test]
    fn cycle_is_a_single_ear() {
        let g = cycle(8);
        let ed = ear_decomposition(&mut Engine::new(2), &g).unwrap();
        assert_eq!(ed.len(), 1);
        assert_eq!(ed.num_edges(), 8);
        assert_valid_ears(&g, &ed);
    }

    #[test]
    fn complete_graph_decomposes() {
        let g = complete(6);
        let ed = ear_decomposition(&mut Engine::new(2), &g).unwrap();
        // K6: m - n + 1 = 15 - 6 + 1 = 10 ears.
        assert_eq!(ed.len(), 10);
        assert_valid_ears(&g, &ed);
    }

    #[test]
    fn torus_decomposes() {
        let g = torus2d(4, 4);
        let ed = ear_decomposition(&mut Engine::new(4), &g).unwrap();
        assert_eq!(ed.len(), g.num_edges() - g.num_vertices() + 1);
        assert_valid_ears(&g, &ed);
    }

    #[test]
    fn theta_graph() {
        // Two vertices joined by three internally-disjoint paths: the
        // canonical 2-ear example (cycle + one ear).
        let mut el = EdgeList::new(8);
        // Path A: 0-1-2-7
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 7);
        // Path B: 0-3-4-7
        el.push(0, 3);
        el.push(3, 4);
        el.push(4, 7);
        // Path C: 0-5-6-7
        el.push(0, 5);
        el.push(5, 6);
        el.push(6, 7);
        let g = CsrGraph::from_edge_list(&el);
        let ed = ear_decomposition(&mut Engine::new(2), &g).unwrap();
        assert_eq!(ed.len(), 2);
        assert_valid_ears(&g, &ed);
    }

    #[test]
    fn bridge_is_rejected() {
        // Two triangles joined by a bridge.
        let mut el = EdgeList::new(6);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 0);
        el.push(3, 4);
        el.push(4, 5);
        el.push(5, 3);
        el.push(2, 3);
        let g = CsrGraph::from_edge_list(&el);
        match ear_decomposition(&mut Engine::new(2), &g) {
            Err(EarError::HasBridge(a, b)) => {
                assert!(
                    (a == 2 && b == 3) || (a == 3 && b == 2),
                    "wrong bridge ({a}, {b})"
                );
            }
            other => panic!("expected bridge error, got {other:?}"),
        }
    }

    #[test]
    fn tree_is_rejected() {
        let g = chain(5);
        assert!(matches!(
            ear_decomposition(&mut Engine::new(2), &g),
            Err(EarError::HasBridge(_, _))
        ));
    }

    #[test]
    fn disconnected_is_rejected() {
        let mut el = EdgeList::new(6);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 0);
        el.push(3, 4);
        el.push(4, 5);
        el.push(5, 3);
        let g = CsrGraph::from_edge_list(&el);
        assert!(matches!(
            ear_decomposition(&mut Engine::new(2), &g),
            Err(EarError::NotConnected)
        ));
    }

    #[test]
    fn empty_is_rejected() {
        let g = CsrGraph::empty(3);
        assert!(matches!(
            ear_decomposition(&mut Engine::new(2), &g),
            Err(EarError::Empty)
        ));
    }

    #[test]
    fn random_biconnected_graphs_decompose() {
        // Build 2-edge-connected graphs: cycle + random chords.
        use rand::Rng;
        use rand::SeedableRng;
        for seed in 0..5 {
            let n = 40;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut el = EdgeList::new(n);
            for v in 0..n as VertexId {
                el.push(v, (v + 1) % n as VertexId);
            }
            for _ in 0..30 {
                let a = rng.gen_range(0..n as VertexId);
                let b = rng.gen_range(0..n as VertexId);
                if a != b {
                    el.push(a, b);
                }
            }
            el.dedup_simple();
            let g = CsrGraph::from_edge_list(&el);
            let ed = ear_decomposition(&mut Engine::new(3), &g).unwrap();
            assert_eq!(ed.len(), g.num_edges() - g.num_vertices() + 1);
            assert_valid_ears(&g, &ed);
        }
    }

    #[test]
    fn error_display() {
        assert!(EarError::NotConnected.to_string().contains("connected"));
        assert!(EarError::HasBridge(1, 2).to_string().contains("bridge"));
        assert!(EarError::Empty.to_string().contains("no edges"));
    }
}
