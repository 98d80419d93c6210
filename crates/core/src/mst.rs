//! Minimum spanning forest — the paper's stated future work.
//!
//! "We plan to apply the techniques discussed in this paper to other
//! related graph problems, for instance, minimum spanning tree (forest)"
//! (§5). This module does exactly that with the same substrate the
//! spanning-tree algorithms use:
//!
//! * [`kruskal`] — the sequential baseline (sort + union-find), the
//!   comparator the Chung–Condon study the paper cites also measures
//!   against.
//! * [`boruvka`] — parallel Borůvka with the HCS-style atomic
//!   min-reduction: every component finds its lexicographically minimum
//!   incident edge by `fetch_min` over packed (weight, edge-id) keys and
//!   hooks across it (mutual pairs broken toward the smaller root). The
//!   pointer jumping back to rooted stars is SV's graft-and-shortcut
//!   loop, with "minimum" instead of "any" as its hook phase.
//!
//! Packing the unique edge id into the low bits makes every component's
//! minimum *strict*, which is what rules out hook cycles longer than the
//! mutual pair: in any would-be cycle of chosen edges, the largest edge
//! cannot be its tail component's minimum because the previous cycle
//! edge is also incident to it and smaller.

use std::sync::atomic::{AtomicU64, Ordering};

use st_graph::dsu::DisjointSets;
use st_graph::weighted::{Weight, WeightedGraph};
use st_graph::VertexId;
use st_obs::JobMetrics;
use st_smp::{CancelToken, Executor};

use crate::engine::{Workspace, EMPTY_SLOT};
use crate::sv::{graft_and_shortcut, pack, Hook, HookStep};

/// Result of a minimum-spanning-forest computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstResult {
    /// The forest edges (one per union), as graph edges.
    pub tree_edges: Vec<(VertexId, VertexId)>,
    /// Sum of the forest's edge weights.
    pub total_weight: u64,
    /// What the run did: Borůvka's job window (its `GraftIterations`,
    /// `ShortcutRounds`, `Grafts` and `Barriers`); empty for Kruskal.
    pub metrics: JobMetrics,
}

/// Sequential Kruskal: the baseline.
///
/// ```
/// use st_core::mst;
/// use st_graph::WeightedGraph;
///
/// let wg = WeightedGraph::from_weighted_edges(
///     3,
///     vec![(0, 1, 5), (1, 2, 2), (0, 2, 9)],
/// );
/// let k = mst::kruskal(&wg);
/// assert_eq!(k.total_weight, 7); // edges (1,2) and (0,1)
/// let mut engine = st_core::Engine::new(2);
/// let (exec, ws) = engine.parts_mut();
/// assert_eq!(k.total_weight, mst::boruvka(&wg, exec, ws).total_weight);
/// ```
pub fn kruskal(wg: &WeightedGraph) -> MstResult {
    let n = wg.num_vertices();
    let mut edges: Vec<(Weight, VertexId, VertexId)> =
        wg.weighted_edges().map(|(u, v, w)| (w, u, v)).collect();
    edges.sort_unstable();
    let mut dsu = DisjointSets::new(n);
    let mut tree_edges = Vec::new();
    let mut total_weight = 0u64;
    for (w, u, v) in edges {
        if dsu.union(u, v) {
            tree_edges.push((u, v));
            total_weight += w as u64;
        }
    }
    MstResult {
        tree_edges,
        total_weight,
        metrics: JobMetrics::default(),
    }
}

/// Parallel Borůvka minimum spanning forest on an existing team, with
/// the hook array, snapshot, best-edge slots, and per-rank edge lists
/// drawn from `ws`. One job window: the result's `metrics` are the
/// run's.
pub fn boruvka(wg: &WeightedGraph, exec: &Executor, ws: &mut Workspace) -> MstResult {
    // Aligned with the edge list the loop collects from the topology.
    let weights: Vec<Weight> = wg.weighted_edges().map(|(_, _, w)| w).collect();
    // Iteration-start snapshot of d (rooted stars), for race-free hook
    // targets.
    ws.snap.ensure_len(wg.num_vertices());
    let total_weight = AtomicU64::new(0);

    let hook = |step: HookStep, h: &mut Hook<'_>| {
        let (d, snap, best, edges) = (&h.ws.labels, &h.ws.snap, &h.ws.slots[..], &h.ws.edges[..]);
        match step {
            // Reset best slots and snapshot d (rooted stars).
            HookStep::Clear => {
                for v in h.verts.clone() {
                    best[v].store(EMPTY_SLOT, Ordering::Relaxed);
                    snap.store(v, d.load(v, Ordering::Relaxed), Ordering::Relaxed);
                }
            }
            // Min-reduction: every edge offers itself to both
            // endpoint roots.
            HookStep::Offer => {
                for e in h.edges.clone() {
                    let (u, v) = edges[e];
                    let du = snap.load(u as usize, Ordering::Relaxed);
                    let dv = snap.load(v as usize, Ordering::Relaxed);
                    if du == dv {
                        continue;
                    }
                    let key = pack(weights[e], e);
                    best[du as usize].fetch_min(key, Ordering::Relaxed);
                    best[dv as usize].fetch_min(key, Ordering::Relaxed);
                }
            }
            // Hook: every root crosses its strict-minimum edge;
            // mutual pairs break toward the smaller root.
            HookStep::Graft => {
                let mut weight = 0u64;
                for v in h.verts.clone() {
                    if snap.load(v, Ordering::Relaxed) != v as VertexId {
                        continue; // not a root at iteration start
                    }
                    let key = best[v].load(Ordering::Relaxed);
                    if key == EMPTY_SLOT {
                        continue;
                    }
                    let e = (key & 0xFFFF_FFFF) as usize;
                    let (eu, ev) = edges[e];
                    let ru = snap.load(eu as usize, Ordering::Relaxed);
                    let rv = snap.load(ev as usize, Ordering::Relaxed);
                    let other = if ru == v as VertexId { rv } else { ru };
                    debug_assert!(ru == v as VertexId || rv == v as VertexId);
                    // Mutual-minimum pair: both roots chose edge e.
                    // Only the larger root hooks, so the pair
                    // contributes one tree edge and no 2-cycle.
                    if best[other as usize].load(Ordering::Relaxed) == key
                        && (v as VertexId) < other
                    {
                        continue;
                    }
                    d.store(v, other, Ordering::Release);
                    h.tree_edges.push((eu, ev));
                    weight += weights[e] as u64;
                }
                total_weight.fetch_add(weight, Ordering::Relaxed);
            }
        }
    };
    ws.begin_job(exec);
    let out = graft_and_shortcut(wg.topology(), exec, ws, None, &CancelToken::none(), hook)
        .expect("inert token cannot cancel");
    MstResult {
        tree_edges: out.tree_edges,
        total_weight: total_weight.into_inner(),
        metrics: ws.finish_job(exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orient::orient_forest;
    use st_graph::gen::{complete, random_connected, random_gnm, torus2d};
    use st_graph::validate::{count_components, is_spanning_forest};
    use st_obs::Counter;

    /// Graft-and-shortcut iterations of a Borůvka run.
    fn iterations(b: &MstResult) -> u64 {
        b.metrics.get(Counter::GraftIterations)
    }

    /// `boruvka` on a fresh team of `p`.
    fn boruvka_p(wg: &WeightedGraph, p: usize) -> MstResult {
        boruvka(wg, &Executor::new(p), &mut Workspace::new())
    }

    fn check_agreement(wg: &WeightedGraph, p: usize) {
        let k = kruskal(wg);
        let exec = Executor::new(p);
        let mut ws = Workspace::new();
        let b = boruvka(wg, &exec, &mut ws);
        assert_eq!(
            k.total_weight, b.total_weight,
            "MSF weights disagree (p = {p})"
        );
        assert_eq!(k.tree_edges.len(), b.tree_edges.len());
        // Borůvka's edges must form a spanning forest of the topology.
        let parents = orient_forest(wg.num_vertices(), &b.tree_edges, &exec, &mut ws);
        assert!(is_spanning_forest(wg.topology(), &parents));
    }

    #[test]
    fn hand_checked_mst() {
        // Square with diagonal: 0-1 (1), 1-2 (2), 2-3 (3), 3-0 (4),
        // 0-2 (5). MST = {0-1, 1-2, 2-3} with weight 6.
        let wg = WeightedGraph::from_weighted_edges(
            4,
            vec![(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 5)],
        );
        let k = kruskal(&wg);
        assert_eq!(k.total_weight, 6);
        let b = boruvka_p(&wg, 2);
        assert_eq!(b.total_weight, 6);
        let mut be = b.tree_edges.clone();
        be.sort_unstable();
        assert_eq!(be, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn random_graphs_agree_across_p() {
        for seed in 0..4 {
            let g = random_gnm(300, 500, seed);
            let wg = WeightedGraph::with_random_weights(&g, 1000, seed);
            for p in [1usize, 2, 4] {
                check_agreement(&wg, p);
            }
        }
    }

    #[test]
    fn disconnected_minimum_spanning_forest() {
        let g = random_gnm(200, 120, 7); // disconnected
        let wg = WeightedGraph::with_random_weights(&g, 50, 3);
        let k = kruskal(&wg);
        assert_eq!(k.tree_edges.len(), 200 - count_components(&g));
        check_agreement(&wg, 4);
    }

    #[test]
    fn duplicate_weights_are_fine() {
        // All weights equal: any spanning forest is minimum; totals must
        // still agree (matroid property), and the strict (weight, id)
        // tie-break keeps Borůvka cycle-free.
        let g = torus2d(10, 10);
        let wg = WeightedGraph::with_random_weights(&g, 1, 0);
        check_agreement(&wg, 4);
        assert_eq!(kruskal(&wg).total_weight, 99);
    }

    #[test]
    fn boruvka_iterations_are_logarithmic() {
        let g = random_connected(4_096, 4_096, 5);
        let wg = WeightedGraph::with_random_weights(&g, 10_000, 6);
        let b = boruvka_p(&wg, 4);
        assert!(
            iterations(&b) <= 15,
            "Borůvka took {} iterations on 4k vertices",
            iterations(&b)
        );
        check_agreement(&wg, 4);
    }

    #[test]
    fn complete_graph_mst() {
        let g = complete(40);
        let wg = WeightedGraph::with_random_weights(&g, 500, 9);
        check_agreement(&wg, 3);
    }

    #[test]
    fn empty_and_edgeless() {
        let wg = WeightedGraph::from_weighted_edges(5, Vec::new());
        let k = kruskal(&wg);
        assert_eq!(k.total_weight, 0);
        assert!(k.tree_edges.is_empty());
        let b = boruvka_p(&wg, 2);
        assert_eq!(b.total_weight, 0);
        assert_eq!(iterations(&b), 1);
    }

    #[test]
    fn reused_workspace_agrees_with_kruskal() {
        let exec = Executor::new(4);
        let mut ws = Workspace::new();
        for seed in 0..3 {
            let g = random_gnm(400, 700, seed);
            let wg = WeightedGraph::with_random_weights(&g, 777, seed);
            let b = boruvka(&wg, &exec, &mut ws);
            assert_eq!(b.total_weight, kruskal(&wg).total_weight, "seed {seed}");
        }
    }

    #[test]
    fn boruvka_is_deterministic_across_p() {
        let g = random_gnm(500, 900, 2);
        let wg = WeightedGraph::with_random_weights(&g, 100, 4);
        let mut e1 = boruvka_p(&wg, 1).tree_edges;
        let mut e4 = boruvka_p(&wg, 4).tree_edges;
        e1.sort_unstable();
        e4.sort_unstable();
        assert_eq!(e1, e4, "strict-min hooking is schedule-independent");
    }
}
