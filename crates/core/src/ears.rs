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
//! [`biconnected`](crate::biconnected), and both run on the one rooted
//! index of [`tree`](crate::tree); the spanning tree is again the
//! building block.

use st_graph::{CsrGraph, VertexId, NO_VERTEX};

use crate::bader_cong::BaderCong;
use crate::engine::Engine;
use crate::tree::{offline_lca, preorder};

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
///
/// After the spanning tree, this takes O((n + m) log n) time on any tree
/// shape: one rooting, one offline LCA pass answering every non-tree
/// edge's query, a sort of the labels, and one bottom-up sweep that
/// visits each vertex's children once.
pub fn ear_decomposition(engine: &mut Engine, g: &CsrGraph) -> Result<EarDecomposition, EarError> {
    if g.num_edges() == 0 {
        return Err(EarError::Empty);
    }
    let forest = engine.run(&BaderCong::with_defaults(), g);
    if forest.roots.len() != 1 {
        return Err(EarError::NotConnected);
    }
    let parents = &forest.parents;
    let po = preorder(parents);

    // Non-tree edges with their (lca depth, edge id) labels. Smaller
    // label = earlier ear; the master cycle E0 comes from the shallowest
    // lca.
    let is_tree_edge =
        |u: VertexId, v: VertexId| parents[u as usize] == v || parents[v as usize] == u;
    let non_tree: Vec<(VertexId, VertexId)> = g
        .edges()
        .filter(|&(u, v)| u < v && !is_tree_edge(u, v))
        .collect();
    let mut labeled: Vec<(u32, u32, VertexId, VertexId)> = non_tree
        .iter()
        .zip(offline_lca(&po, &non_tree))
        .enumerate()
        .map(|(id, (&(u, v), l))| (po.depth[l as usize], id as u32, u, v))
        .collect();
    labeled.sort_unstable();

    // Each tree edge (v, p(v)) goes to the minimum-ranked non-tree edge
    // whose cycle covers it. The cycle of (a, b) covers (v, p(v)) iff
    // exactly one of a, b lies in v's subtree. Seed each vertex with the
    // smallest rank of such an edge incident to it (ranks arrive in
    // order, so the first one wins), then sweep bottom-up: a child's
    // cover also covers (v, p(v)) iff its lca lies strictly above v.
    let n = g.num_vertices();
    let mut cover = vec![u32::MAX; n];
    for (rank, &(_, _, a, b)) in labeled.iter().enumerate() {
        for (x, y) in [(a, b), (b, a)] {
            if cover[x as usize] == u32::MAX && !po.is_ancestor(x, y) {
                cover[x as usize] = rank as u32;
            }
        }
    }
    for &v in po.order.iter().rev() {
        let mut best = cover[v as usize];
        // Every child already has a cover, or the sweep returned at it.
        for &c in po.children(v) {
            let rank = cover[c as usize];
            if labeled[rank as usize].0 < po.depth[v as usize] {
                best = best.min(rank);
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
        // The long cycle's spanning tree is a path: as deep as trees get.
        for n in [8, 1 << 15] {
            let g = cycle(n);
            let ed = ear_decomposition(&mut Engine::new(2), &g).unwrap();
            assert_eq!(ed.len(), 1);
            assert_eq!(ed.num_edges(), n);
            assert_valid_ears(&g, &ed);
        }
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
        for side in [4, 64] {
            let g = torus2d(side, side);
            let ed = ear_decomposition(&mut Engine::new(4), &g).unwrap();
            assert_eq!(ed.len(), g.num_edges() - g.num_vertices() + 1);
            assert_valid_ears(&g, &ed);
        }
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
