//! Biconnected components, bridges, and articulation points.
//!
//! The paper's opening sentence motivates spanning trees as "an
//! important building block for many graph algorithms, for example,
//! biconnected components and ear decomposition". This module closes
//! that loop with the Tarjan–Vishkin reduction: biconnectivity of G
//! reduces to *connectivity of an auxiliary graph over G's spanning-tree
//! edges* — so both halves of the pipeline run on this crate's parallel
//! machinery (the Bader–Cong spanning forest, then SV connectivity).
//!
//! Given a rooted spanning forest with preorder numbers `pre`, subtree
//! sizes `sz`, and per-vertex `low`/`high` (the min/max preorder label
//! reachable from the subtree by a single non-tree edge), the auxiliary
//! graph has one vertex per tree edge (identified by its child vertex)
//! and joins:
//!
//! 1. `(u, p(u)) — (v, p(v))` for every non-tree edge {u, v} whose
//!    endpoints are unrelated (neither an ancestor of the other); and
//! 2. `(v, w) — (w, p(w))` for every tree edge (v, w = p(v)) with
//!    non-root w whose subtree escapes w's interval:
//!    `low(v) < pre(w)` or `high(v) ≥ pre(w) + sz(w)`.
//!
//! Connected components of the auxiliary graph are exactly the
//! biconnected components (Tarjan & Vishkin 1985; JáJá §5). Bridges are
//! the tree edges whose subtree does not escape itself; articulation
//! points are the vertices incident to two or more blocks.

use st_graph::{CsrGraph, VertexId, NO_VERTEX};

use crate::connected::connected_components;
use crate::engine::{Engine, SpanningAlgorithm};
use crate::result::SpanningForest;
use crate::tree::{preorder, Preorder};

/// Biconnectivity structure of a graph.
#[derive(Clone, Debug)]
pub struct Biconnectivity {
    /// The spanning forest the decomposition was built on.
    pub forest: SpanningForest,
    /// For each non-root vertex v, the block id of the tree edge
    /// (v, parent(v)); `u32::MAX` for roots (no tree edge).
    pub tree_edge_block: Vec<u32>,
    /// Number of biconnected components (blocks).
    pub num_blocks: usize,
    /// Bridge edges (every bridge is a tree edge), as (child, parent).
    pub bridges: Vec<(VertexId, VertexId)>,
    /// Articulation (cut) vertices, ascending.
    pub articulation_points: Vec<VertexId>,
}

impl Biconnectivity {
    /// Block id of the graph edge {u, v}.
    ///
    /// Tree edges carry their stored block; a non-tree edge {u, v} lies
    /// in the same block as the deeper endpoint's tree edge.
    ///
    /// # Panics
    ///
    /// Panics if {u, v} is not an edge handled by the decomposition
    /// (e.g. both endpoints are roots).
    pub fn block_of_edge(&self, u: VertexId, v: VertexId, pre: &Preorder) -> u32 {
        let parents = &self.forest.parents;
        if parents[u as usize] == v {
            return self.tree_edge_block[u as usize];
        }
        if parents[v as usize] == u {
            return self.tree_edge_block[v as usize];
        }
        // Non-tree edge: the deeper endpoint's tree edge is in the
        // cycle the edge closes.
        let deeper = if pre.depth[u as usize] >= pre.depth[v as usize] {
            u
        } else {
            v
        };
        assert!(
            parents[deeper as usize] != NO_VERTEX,
            "({u}, {v}) does not touch any tree edge"
        );
        self.tree_edge_block[deeper as usize]
    }

    /// True when the tree edge above `v` is a bridge.
    pub fn is_bridge_edge(&self, v: VertexId) -> bool {
        self.bridges.binary_search_by_key(&v, |&(c, _)| c).is_ok()
    }

    /// True when `v` is an articulation point.
    pub fn is_articulation(&self, v: VertexId) -> bool {
        self.articulation_points.binary_search(&v).is_ok()
    }
}

/// Computes the biconnectivity structure of `g` on `engine`'s team,
/// building the spanning forest with any spanning-forest producer and
/// the auxiliary-graph connectivity with SV; both pipeline halves reuse
/// the engine's workspace.
///
/// ```
/// use st_core::biconnected::biconnected_components;
/// use st_core::{BaderCong, Engine};
/// use st_graph::gen;
///
/// let mut engine = Engine::new(2);
/// let algo = BaderCong::with_defaults();
///
/// // A cycle is one block: no bridges, no articulation points.
/// let bc = biconnected_components(&mut engine, &algo, &gen::cycle(6));
/// assert_eq!(bc.num_blocks, 1);
/// assert!(bc.bridges.is_empty());
///
/// // A path is all bridges.
/// let bc = biconnected_components(&mut engine, &algo, &gen::chain(4));
/// assert_eq!(bc.bridges.len(), 3);
/// assert_eq!(bc.articulation_points, vec![1, 2]);
/// ```
pub fn biconnected_components(
    engine: &mut Engine,
    algo: &dyn SpanningAlgorithm,
    g: &CsrGraph,
) -> Biconnectivity {
    let forest = engine.run(algo, g);
    biconnected_from_forest(engine, g, forest)
}

/// As [`biconnected_components`], but reusing an existing spanning
/// forest of `g`; the auxiliary-graph connectivity runs on `engine`'s
/// team.
pub fn biconnected_from_forest(
    engine: &mut Engine,
    g: &CsrGraph,
    forest: SpanningForest,
) -> Biconnectivity {
    let n = g.num_vertices();
    let parents = &forest.parents;
    let po = preorder(parents);
    let (pre, sz) = (&po.pre, &po.sz);

    let is_tree_edge =
        |u: VertexId, v: VertexId| parents[u as usize] == v || parents[v as usize] == u;

    // low/high in reverse preorder (children before parents).
    let mut low: Vec<u32> = pre.clone();
    let mut high: Vec<u32> = pre.clone();
    for &v in po.order.iter().rev() {
        for &u in g.neighbors(v) {
            if is_tree_edge(v, u) {
                continue;
            }
            low[v as usize] = low[v as usize].min(pre[u as usize]);
            high[v as usize] = high[v as usize].max(pre[u as usize]);
        }
        let pv = parents[v as usize];
        if pv != NO_VERTEX {
            let lo = low[v as usize];
            let hi = high[v as usize];
            low[pv as usize] = low[pv as usize].min(lo);
            high[pv as usize] = high[pv as usize].max(hi);
        }
    }

    // Auxiliary graph over tree edges (vertex v stands for edge
    // (v, parent(v)); roots remain isolated aux vertices).
    let mut aux = st_graph::EdgeList::new(n);
    for u in g.vertices() {
        for &v in g.neighbors(u) {
            if u >= v || is_tree_edge(u, v) {
                continue;
            }
            // Rule 1: unrelated endpoints.
            if !po.is_ancestor(u, v) && !po.is_ancestor(v, u) {
                aux.push(u, v);
            }
        }
    }
    for v in 0..n as VertexId {
        // Rule 2: tree edge (v, w) whose subtree escapes w's interval.
        let w = parents[v as usize];
        if w == NO_VERTEX || parents[w as usize] == NO_VERTEX {
            continue;
        }
        let escapes = low[v as usize] < pre[w as usize]
            || high[v as usize] >= pre[w as usize] + sz[w as usize];
        if escapes {
            aux.push(v, w);
        }
    }
    let aux_graph = CsrGraph::from_edge_list(&aux);
    let (exec, ws) = engine.parts_mut();
    let aux_cc = connected_components(&aux_graph, exec, ws);

    // Blocks = aux components restricted to non-root vertices, compacted.
    let mut block_of_label = vec![u32::MAX; aux_cc.count];
    let mut num_blocks = 0;
    let mut tree_edge_block = vec![u32::MAX; n];
    for v in 0..n {
        if parents[v] == NO_VERTEX {
            continue;
        }
        let b = &mut block_of_label[aux_cc.labels[v] as usize];
        if *b == u32::MAX {
            *b = num_blocks as u32;
            num_blocks += 1;
        }
        tree_edge_block[v] = *b;
    }

    // Bridges: the subtree of v has no non-tree edge escaping itself.
    let mut bridges = Vec::new();
    for v in 0..n as VertexId {
        let w = parents[v as usize];
        if w == NO_VERTEX {
            continue;
        }
        let closed = low[v as usize] >= pre[v as usize]
            && high[v as usize] < pre[v as usize] + sz[v as usize];
        if closed {
            bridges.push((v, w));
        }
    }

    // Articulation points: incident to >= 2 distinct blocks. The blocks
    // incident to v are those of its own tree edge and of its
    // children's tree edges.
    let mut articulation_points = Vec::new();
    let mut incident: Vec<u32> = Vec::new();
    for v in 0..n {
        incident.clear();
        if parents[v] != NO_VERTEX {
            incident.push(tree_edge_block[v]);
        }
        for &c in po.children(v as VertexId) {
            incident.push(tree_edge_block[c as usize]);
        }
        incident.sort_unstable();
        incident.dedup();
        if incident.len() >= 2 {
            articulation_points.push(v as VertexId);
        }
    }

    Biconnectivity {
        forest,
        tree_edge_block,
        num_blocks,
        bridges,
        articulation_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bader_cong::BaderCong;
    use st_graph::gen::{chain, complete, cycle, random_gnm, torus2d};
    use st_graph::validate::count_components;
    use st_graph::EdgeList;

    /// `biconnected_components` with Bader–Cong on a fresh engine of `p`.
    fn bicc(g: &CsrGraph, p: usize) -> Biconnectivity {
        biconnected_components(&mut Engine::new(p), &BaderCong::with_defaults(), g)
    }

    /// Brute-force bridge oracle: removing the edge increases the
    /// component count.
    fn bridges_brute(g: &CsrGraph) -> Vec<(VertexId, VertexId)> {
        let base = count_components(g);
        let mut out = Vec::new();
        for (u, v) in g.edges() {
            let mut el = EdgeList::new(g.num_vertices());
            for (a, b) in g.edges() {
                if (a, b) != (u, v) {
                    el.push(a, b);
                }
            }
            let h = CsrGraph::from_edge_list(&el);
            if count_components(&h) > base {
                out.push((u, v));
            }
        }
        out
    }

    /// Brute-force articulation oracle: removing the vertex increases
    /// the component count (among the remaining vertices).
    fn articulation_brute(g: &CsrGraph) -> Vec<VertexId> {
        let base = count_components(g);
        let n = g.num_vertices();
        let mut out = Vec::new();
        for v in 0..n as VertexId {
            let mut el = EdgeList::new(n);
            for (a, b) in g.edges() {
                if a != v && b != v {
                    el.push(a, b);
                }
            }
            let h = CsrGraph::from_edge_list(&el);
            // Removing v leaves it isolated in h; discount it.
            let comps_without_v = count_components(&h) - 1;
            let base_without_v = base - usize::from(g.degree(v) == 0);
            if comps_without_v > base_without_v {
                out.push(v);
            }
        }
        out
    }

    fn check_against_brute(g: &CsrGraph, p: usize) -> Biconnectivity {
        let bc = bicc(g, p);
        let mut got_bridges: Vec<(VertexId, VertexId)> = bc
            .bridges
            .iter()
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        got_bridges.sort_unstable();
        let mut want_bridges = bridges_brute(g);
        want_bridges.sort_unstable();
        assert_eq!(got_bridges, want_bridges, "bridges disagree");

        let want_arts = articulation_brute(g);
        assert_eq!(bc.articulation_points, want_arts, "articulations disagree");
        bc
    }

    #[test]
    fn triangle_is_one_block() {
        let g = cycle(3);
        let bc = check_against_brute(&g, 2);
        assert_eq!(bc.num_blocks, 1);
        assert!(bc.bridges.is_empty());
        assert!(bc.articulation_points.is_empty());
    }

    #[test]
    fn path_is_all_bridges() {
        let g = chain(5);
        let bc = check_against_brute(&g, 2);
        assert_eq!(bc.num_blocks, 4);
        assert_eq!(bc.bridges.len(), 4);
        assert_eq!(bc.articulation_points, vec![1, 2, 3]);
        for v in 0..5 {
            let has_tree_edge = bc.forest.parents[v as usize] != NO_VERTEX;
            assert_eq!(bc.is_bridge_edge(v), has_tree_edge, "vertex {v}");
        }
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        // Blocks {0,1,2} and {2,3,4}; articulation at 2.
        let mut el = EdgeList::new(5);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 0);
        el.push(2, 3);
        el.push(3, 4);
        el.push(4, 2);
        let g = CsrGraph::from_edge_list(&el);
        let bc = check_against_brute(&g, 2);
        assert_eq!(bc.num_blocks, 2);
        assert_eq!(bc.articulation_points, vec![2]);
        assert!(bc.bridges.is_empty());
        assert!((0..5).all(|v| !bc.is_bridge_edge(v)));
    }

    #[test]
    fn barbell_graph() {
        // Two triangles joined by a bridge 2-3.
        let mut el = EdgeList::new(6);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 0);
        el.push(3, 4);
        el.push(4, 5);
        el.push(5, 3);
        el.push(2, 3);
        let g = CsrGraph::from_edge_list(&el);
        let bc = check_against_brute(&g, 2);
        assert_eq!(bc.num_blocks, 3);
        assert_eq!(bc.bridges.len(), 1);
        assert_eq!(bc.articulation_points, vec![2, 3]);
    }

    #[test]
    fn complete_graph_is_one_block() {
        let g = complete(8);
        let bc = check_against_brute(&g, 3);
        assert_eq!(bc.num_blocks, 1);
    }

    #[test]
    fn torus_is_biconnected() {
        let g = torus2d(5, 5);
        let bc = bicc(&g, 4);
        assert_eq!(bc.num_blocks, 1);
        assert!(bc.bridges.is_empty());
        assert!(bc.articulation_points.is_empty());
    }

    #[test]
    fn long_cycle_is_one_block() {
        // A cycle's spanning tree is a path: as deep as trees get.
        let bc = bicc(&cycle(1 << 15), 2);
        assert_eq!(bc.num_blocks, 1);
        assert!(bc.bridges.is_empty());
        assert!(bc.articulation_points.is_empty());
    }

    #[test]
    fn disconnected_graph_handled_per_component() {
        // A triangle and a path, plus an isolated vertex.
        let mut el = EdgeList::new(7);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 0);
        el.push(3, 4);
        el.push(4, 5);
        let g = CsrGraph::from_edge_list(&el);
        let bc = check_against_brute(&g, 2);
        assert_eq!(bc.num_blocks, 3); // triangle + two path edges
    }

    #[test]
    fn random_graphs_match_brute_force() {
        for seed in 0..6 {
            let g = random_gnm(40, 55, seed);
            check_against_brute(&g, 3);
        }
    }

    #[test]
    fn denser_random_graphs_match_brute_force() {
        for seed in 0..4 {
            let g = random_gnm(30, 90, seed + 100);
            check_against_brute(&g, 2);
        }
    }

    #[test]
    fn block_of_edge_queries() {
        let mut el = EdgeList::new(5);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 0);
        el.push(2, 3);
        el.push(3, 4);
        el.push(4, 2);
        let g = CsrGraph::from_edge_list(&el);
        let bc = bicc(&g, 2);
        let po = preorder(&bc.forest.parents);
        // Edges inside each triangle share a block; across, they differ.
        let b01 = bc.block_of_edge(0, 1, &po);
        let b12 = bc.block_of_edge(1, 2, &po);
        let b34 = bc.block_of_edge(3, 4, &po);
        assert_eq!(b01, b12);
        assert_ne!(b01, b34);
        assert!(bc.is_articulation(2));
        assert!(!bc.is_articulation(0));
    }

    /// Sequential Hopcroft–Tarjan biconnectivity (DFS lowpoints + edge
    /// stack): an independent oracle for the whole block *partition*,
    /// not just bridges/articulations. Returns, for each undirected
    /// edge (canonical (min, max)), a block id.
    fn blocks_hopcroft_tarjan(
        g: &CsrGraph,
    ) -> std::collections::HashMap<(VertexId, VertexId), u32> {
        let n = g.num_vertices();
        let mut disc = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut timer = 0u32;
        let mut edge_stack: Vec<(VertexId, VertexId)> = Vec::new();
        let mut block_of: std::collections::HashMap<(VertexId, VertexId), u32> =
            std::collections::HashMap::new();
        let mut next_block = 0u32;

        fn canon(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
            if u < v {
                (u, v)
            } else {
                (v, u)
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn dfs(
            g: &CsrGraph,
            u: VertexId,
            parent: VertexId,
            disc: &mut [u32],
            low: &mut [u32],
            timer: &mut u32,
            edge_stack: &mut Vec<(VertexId, VertexId)>,
            block_of: &mut std::collections::HashMap<(VertexId, VertexId), u32>,
            next_block: &mut u32,
        ) {
            disc[u as usize] = *timer;
            low[u as usize] = *timer;
            *timer += 1;
            let mut parent_skipped = false;
            for &v in g.neighbors(u) {
                if v == parent && !parent_skipped {
                    parent_skipped = true;
                    continue;
                }
                if disc[v as usize] == u32::MAX {
                    edge_stack.push((u, v));
                    dfs(g, v, u, disc, low, timer, edge_stack, block_of, next_block);
                    low[u as usize] = low[u as usize].min(low[v as usize]);
                    if low[v as usize] >= disc[u as usize] {
                        // u separates: pop the block.
                        let b = *next_block;
                        *next_block += 1;
                        while let Some(&(a, c)) = edge_stack.last() {
                            if disc[a as usize] >= disc[v as usize] {
                                edge_stack.pop();
                                block_of.insert(canon(a, c), b);
                            } else {
                                break;
                            }
                        }
                        // The tree edge (u, v) itself closes the block.
                        if let Some(&(a, c)) = edge_stack.last() {
                            if (a, c) == (u, v) {
                                edge_stack.pop();
                            }
                        }
                        block_of.insert(canon(u, v), b);
                    }
                } else if disc[v as usize] < disc[u as usize] {
                    // Back edge.
                    edge_stack.push((u, v));
                    low[u as usize] = low[u as usize].min(disc[v as usize]);
                }
            }
        }

        for s in 0..n as VertexId {
            if disc[s as usize] == u32::MAX {
                dfs(
                    g,
                    s,
                    NO_VERTEX,
                    &mut disc,
                    &mut low,
                    &mut timer,
                    &mut edge_stack,
                    &mut block_of,
                    &mut next_block,
                );
            }
        }
        block_of
    }

    /// The Tarjan–Vishkin block partition must equal the Hopcroft–
    /// Tarjan one (compared on our tree edges, as a partition).
    fn check_block_partition(g: &CsrGraph, p: usize) {
        let bc = bicc(&g.clone(), p);
        let oracle = blocks_hopcroft_tarjan(g);
        // Map: our block id -> oracle block id must be a bijection on
        // the tree edges.
        let mut fwd: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut bwd: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for v in 0..g.num_vertices() {
            let pv = bc.forest.parents[v];
            if pv == NO_VERTEX {
                continue;
            }
            let ours = bc.tree_edge_block[v];
            let key = if (v as VertexId) < pv {
                (v as VertexId, pv)
            } else {
                (pv, v as VertexId)
            };
            let theirs = *oracle
                .get(&key)
                .unwrap_or_else(|| panic!("oracle missing edge {key:?}"));
            assert_eq!(
                *fwd.entry(ours).or_insert(theirs),
                theirs,
                "our block {ours} maps to two oracle blocks"
            );
            assert_eq!(
                *bwd.entry(theirs).or_insert(ours),
                ours,
                "oracle block {theirs} maps to two of our blocks"
            );
        }
    }

    #[test]
    fn block_partition_matches_hopcroft_tarjan() {
        for seed in 0..8 {
            let g = random_gnm(35, 60, seed + 7);
            check_block_partition(&g, 2);
        }
        for seed in 0..4 {
            let g = random_gnm(25, 24, seed); // sparse: many bridges
            check_block_partition(&g, 3);
        }
        check_block_partition(&torus2d(4, 5), 2);
        check_block_partition(&complete(7), 2);
        check_block_partition(&chain(12), 2);
    }

    #[test]
    fn any_algorithm_backs_the_pipeline() {
        // The block structure is a graph invariant: any spanning-forest
        // producer behind the trait must yield the same decomposition.
        let mut engine = Engine::new(3);
        for seed in 0..3 {
            let g = random_gnm(40, 55, seed + 50);
            let via_hcs = biconnected_components(&mut engine, &crate::hcs::Hcs, &g);
            let via_default = bicc(&g, 3);
            assert_eq!(via_hcs.num_blocks, via_default.num_blocks);
            assert_eq!(via_hcs.articulation_points, via_default.articulation_points);
            let canon = |mut b: Vec<(VertexId, VertexId)>| {
                for e in &mut b {
                    *e = (e.0.min(e.1), e.0.max(e.1));
                }
                b.sort_unstable();
                b
            };
            assert_eq!(canon(via_hcs.bridges), canon(via_default.bridges));
        }
    }

    #[test]
    fn preorder_structure() {
        // Star rooted at 0.
        let parents = vec![NO_VERTEX, 0, 0, 0];
        let po = preorder(&parents);
        assert_eq!(po.pre[0], 0);
        assert_eq!(po.sz[0], 4);
        assert_eq!(po.depth, vec![0, 1, 1, 1]);
        assert_eq!(po.order.len(), 4);
        // Chain 0 <- 1 <- 2.
        let parents = vec![NO_VERTEX, 0, 1];
        let po = preorder(&parents);
        assert_eq!(po.pre, vec![0, 1, 2]);
        assert_eq!(po.sz, vec![3, 2, 1]);
    }

    #[test]
    fn empty_and_singletons() {
        let bc = bicc(&CsrGraph::empty(3), 2);
        assert_eq!(bc.num_blocks, 0);
        assert!(bc.bridges.is_empty());
        assert!(bc.articulation_points.is_empty());
    }
}
