//! The Hirschberg–Chandra–Sarwate (HCS) algorithm, adapted for SMPs.
//!
//! The paper implemented HCS alongside SV and found "similar complexities
//! and running time … when implemented on an SMP, and hence, we leave it
//! out of further discussion" (§2). It is included here for completeness
//! and as a second, *deterministic* parallel baseline.
//!
//! Structure: like SV it alternates hooking and pointer jumping, but
//! instead of an arbitrary-write election it computes, for every tree
//! root, the **minimum** neighboring root label (the CREW-style
//! min-reduction at the heart of Hirschberg et al.'s algorithm) and
//! hooks to that. Hook targets are chosen by `fetch_min` on a packed
//! (root, edge) key, so the output is independent of both the processor
//! count and the scheduling — handy as a determinism oracle in tests.
//!
//! Only the hook phase is HCS's own: the iteration around it is SV's
//! `graft_and_shortcut` loop, so all scratch lives in the caller's
//! [`Workspace`] and the team comes from a persistent [`Executor`].

use std::sync::atomic::Ordering;

use st_graph::{CsrGraph, VertexId};
use st_smp::{CancelToken, Executor};

use crate::engine::{Cancelled, SpanningAlgorithm, Workspace, EMPTY_SLOT};
use crate::result::SpanningForest;
use crate::sv::{graft_and_shortcut, graft_job, pack, HookStep, SvOutcome};

/// Runs min-hook-and-shortcut on an existing team, with all scratch in
/// `ws`.
///
/// Cooperatively cancellable at iteration boundaries, exactly like
/// [`sv_core`](crate::sv::sv_core).
pub fn hcs_core(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    cancel: &CancelToken,
) -> Result<SvOutcome, Cancelled> {
    graft_and_shortcut(g, exec, ws, None, cancel, |step, h| {
        let (d, cand, edges) = (&h.ws.labels, &h.ws.slots[..], &h.ws.edges[..]);
        match step {
            HookStep::Clear => {
                for v in h.verts.clone() {
                    cand[v].store(EMPTY_SLOT, Ordering::Relaxed);
                }
            }
            // Min-reduction: every edge offers each endpoint's root the
            // other endpoint's root, if smaller.
            HookStep::Offer => {
                for e in h.edges.clone() {
                    let (u, v) = edges[e];
                    let du = d.load(u as usize, Ordering::Relaxed);
                    let dv = d.load(v as usize, Ordering::Relaxed);
                    if du != dv {
                        let (root, target) = if dv < du { (du, dv) } else { (dv, du) };
                        cand[root as usize].fetch_min(pack(target, e), Ordering::Relaxed);
                    }
                }
            }
            // Hook: every root with a candidate hooks to the minimum.
            HookStep::Graft => {
                for v in h.verts.clone() {
                    if d.load(v, Ordering::Relaxed) != v as VertexId {
                        continue; // not a root
                    }
                    let c = cand[v].load(Ordering::Relaxed);
                    if c == EMPTY_SLOT {
                        continue;
                    }
                    let target = (c >> 32) as VertexId;
                    let e = (c & 0xFFFF_FFFF) as usize;
                    debug_assert!(target < v as VertexId);
                    d.store(v, target, Ordering::Release);
                    h.tree_edges.push(edges[e]);
                }
            }
        }
    })
}

/// HCS as a [`SpanningAlgorithm`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Hcs;

impl SpanningAlgorithm for Hcs {
    fn name(&self) -> &'static str {
        "hcs"
    }

    /// Hooks, then parallel orientation. `cancel` is polled at each
    /// hook-and-shortcut iteration boundary (and before orientation).
    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        graft_job(g, exec, ws, cancel, |ws| hcs_core(g, exec, ws, cancel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use st_graph::gen;
    use st_graph::label::{random_permutation, relabel};
    use st_graph::validate::{count_components, is_spanning_forest};
    use st_obs::Counter;

    /// `hcs_core` on a fresh team of `p` and a fresh workspace.
    fn core(g: &CsrGraph, p: usize) -> SvOutcome {
        let exec = Executor::new(p);
        hcs_core(g, &exec, &mut Workspace::new(), &CancelToken::none())
            .expect("inert token cannot cancel")
    }

    fn check(g: &CsrGraph, p: usize) -> SpanningForest {
        let f = Engine::new(p).run(&Hcs, g);
        assert!(
            is_spanning_forest(g, &f.parents),
            "invalid HCS forest p={p}"
        );
        f
    }

    #[test]
    fn torus_and_random() {
        check(&gen::torus2d(14, 14), 4);
        check(&gen::random_gnm(1_200, 2_000, 9), 4);
    }

    #[test]
    fn disconnected() {
        let g = gen::mesh2d_p(20, 20, 0.5, 1);
        let f = check(&g, 3);
        assert_eq!(f.roots.len(), count_components(&g));
    }

    #[test]
    fn tree_edges_are_deterministic_across_p() {
        // Min-hooking with packed fetch_min is schedule-independent.
        let g = gen::random_gnm(800, 1_300, 4);
        let mut e1 = core(&g, 1).tree_edges;
        let mut e4 = core(&g, 4).tree_edges;
        e1.sort_unstable();
        e4.sort_unstable();
        assert_eq!(e1, e4);
    }

    #[test]
    fn reused_workspace_is_deterministic() {
        // HCS's full determinism makes it the sharpest probe for state
        // leaking through a reused workspace: every re-run must produce
        // byte-identical tree edges.
        let exec = Executor::new(4);
        let mut ws = Workspace::new();
        let big = gen::random_gnm(900, 1_500, 6);
        let small = gen::random_gnm(60, 80, 7);
        let reference = core(&big, 4).tree_edges;
        for _ in 0..3 {
            let reused = hcs_core(&big, &exec, &mut ws, &CancelToken::none()).unwrap();
            assert_eq!(reused.tree_edges, reference);
            // Interleave a smaller graph to shuffle the arena prefix.
            let _ = hcs_core(&small, &exec, &mut ws, &CancelToken::none());
        }
    }

    #[test]
    fn deadline_cancels_a_run_in_flight() {
        use std::time::{Duration, Instant};
        // Random labels make HCS take about log n hook-and-shortcut
        // iterations, each a full pass over the edges, so a deadline a
        // few ms in lands mid-run. Release builds get a larger graph to
        // keep the run well past the deadline.
        let n = if cfg!(debug_assertions) {
            100_000
        } else {
            400_000
        };
        let g = relabel(
            &gen::random_gnm(n, 3 * n / 2, 12),
            &random_permutation(n, 13),
        );
        let exec = Executor::new(2);
        let mut ws = Workspace::new();
        let reference = core(&g, 2).tree_edges;
        let t0 = Instant::now();
        Hcs.run(&g, &exec, &mut ws, &CancelToken::none())
            .expect("inert token cannot cancel");
        let full = t0.elapsed();
        let deadline = Duration::from_millis(3);
        assert!(
            full >= 20 * deadline,
            "graph too small for the test: an uncancelled run took {full:?}"
        );
        let token = CancelToken::with_deadline(Instant::now() + deadline);
        assert_eq!(Hcs.run(&g, &exec, &mut ws, &token).err(), Some(Cancelled));
        // The core itself stops at an iteration boundary: it has no
        // check after its last iteration.
        let token = CancelToken::with_deadline(Instant::now() + deadline);
        assert!(hcs_core(&g, &exec, &mut ws, &token).is_err());
        // The workspace cancelled runs leave behind still yields the
        // deterministic edge set.
        let again = hcs_core(&g, &exec, &mut ws, &CancelToken::none())
            .expect("inert token cannot cancel")
            .tree_edges;
        assert_eq!(again, reference);
    }

    #[test]
    fn graft_count_matches() {
        let g = gen::random_gnm(400, 500, 2);
        let out = core(&g, 4);
        assert_eq!(out.tree_edges.len(), 400 - count_components(&g));
    }

    #[test]
    fn labels_are_component_minima() {
        // Min-hooking guarantees every component's label is its minimum
        // vertex id.
        let g = gen::random_gnm(300, 400, 8);
        let out = core(&g, 2);
        let ref_labels = st_graph::validate::component_labels(&g);
        let mut min_of_comp = std::collections::HashMap::new();
        for v in 0..300u32 {
            min_of_comp.entry(ref_labels[v as usize]).or_insert(v);
        }
        for v in 0..300usize {
            assert_eq!(out.labels[v], min_of_comp[&ref_labels[v]]);
        }
    }

    #[test]
    fn chain_iterations_logarithmic() {
        let g = gen::chain(1 << 12);
        let iterations = check(&g, 2).stats.metrics.get(Counter::GraftIterations);
        assert!(iterations <= 16, "iterations = {iterations}");
    }

    #[test]
    fn empty_and_singletons() {
        let out = core(&CsrGraph::empty(5), 2);
        assert!(out.tree_edges.is_empty());
        assert_eq!(out.labels, vec![0, 1, 2, 3, 4]);
    }
}
