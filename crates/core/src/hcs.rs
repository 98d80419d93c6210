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
//! Like SV, all scratch lives in the caller's
//! [`Workspace`] and the team comes from a
//! persistent [`Executor`] in the `*_on` entry points.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::{now_ns, Counter, Phase};
use st_smp::team::block_range;
use st_smp::Executor;

use crate::engine::{SpanningAlgorithm, Workspace};
use crate::orient::orient_forest_on;
use crate::result::{AlgoStats, SpanningForest};

/// Raw result of the HCS engine (same shape as
/// [`SvOutcome`](crate::sv::SvOutcome)).
#[derive(Clone, Debug)]
pub struct HcsOutcome {
    /// One graph edge per hook; together a spanning forest.
    pub tree_edges: Vec<(VertexId, VertexId)>,
    /// Final hook array: component root labels.
    pub labels: Vec<VertexId>,
    /// Hook-and-shortcut iterations (including the final empty one).
    pub iterations: usize,
    /// Total hooks.
    pub grafts: usize,
    /// Total pointer-jumping rounds.
    pub shortcut_rounds: usize,
    /// Barrier episodes used.
    pub barriers: usize,
}

const EMPTY: u64 = u64::MAX;

/// Packs a candidate (target root, edge index) so that `fetch_min` picks
/// the smallest target root, tie-broken by the smallest edge index.
#[inline]
fn pack(target: VertexId, edge: usize) -> u64 {
    ((target as u64) << 32) | edge as u64
}

/// Runs min-hook-and-shortcut with a one-shot team of `p` processors.
pub fn hcs_core(g: &CsrGraph, p: usize) -> HcsOutcome {
    let exec = Executor::new(p);
    let mut ws = Workspace::new();
    hcs_core_on(g, &exec, &mut ws)
}

/// Runs min-hook-and-shortcut on an existing team, with all scratch in
/// `ws`.
pub fn hcs_core_on(g: &CsrGraph, exec: &Executor, ws: &mut Workspace) -> HcsOutcome {
    let p = exec.size();
    let n = g.num_vertices();
    ws.collect_edges(g);
    let m = ws.edges.len();
    assert!(m < u32::MAX as usize, "edge index must fit the packed key");
    ws.init_labels(n, None);
    ws.ensure_slots(n);
    ws.ensure_graft(p);
    ws.counters.ensure(p);
    ws.trace.ensure(p);

    let counters = &ws.counters;
    let trace = &ws.trace;
    let d = &ws.labels;
    let cand: &[AtomicU64] = &ws.slots[..n];
    let edges = &ws.edges[..];
    let graft = &ws.graft[..p];

    let hook_epoch = AtomicU64::new(EMPTY);
    // Parity slots: see the matching comment in `sv.rs` — a single slot
    // races between a fast rank's next-round store and a slow rank's
    // current-round read.
    let shortcut_epoch = [AtomicU64::new(EMPTY), AtomicU64::new(EMPTY)];
    let shortcut_rounds_total = AtomicUsize::new(0);
    let barriers = AtomicUsize::new(0);
    let iterations = AtomicUsize::new(0);

    exec.run(|ctx| {
        let rank = ctx.rank();
        let my_edges = block_range(rank, p, m);
        let my_verts = block_range(rank, p, n);
        let mut my_tree_edges = graft[rank].lock();
        let bar = |counter: &AtomicUsize| {
            let t_ns = now_ns();
            let t0 = Instant::now();
            if ctx.barrier() {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            let waited = t0.elapsed().as_nanos() as u64;
            let slot = counters.rank(rank);
            slot.incr(Counter::Barriers);
            slot.add(Counter::BarrierWaitNs, waited);
            trace.rank(rank).record_span(Phase::Barrier, t_ns, waited);
        };

        let mut iter: u64 = 0;
        let mut sc_stamp: u64 = 0;
        let mut my_hooks: u64 = 0;
        loop {
            let t_hook = now_ns();
            // Reset candidate slots.
            for v in my_verts.clone() {
                cand[v].store(EMPTY, Ordering::Relaxed);
            }
            bar(&barriers);

            // Min-reduction: every edge offers each endpoint's root the
            // other endpoint's root, if smaller.
            for e in my_edges.clone() {
                let (u, v) = edges[e];
                let du = d.load(u as usize, Ordering::Relaxed);
                let dv = d.load(v as usize, Ordering::Relaxed);
                if du == dv {
                    continue;
                }
                if dv < du {
                    cand[du as usize].fetch_min(pack(dv, e), Ordering::Relaxed);
                } else {
                    cand[dv as usize].fetch_min(pack(du, e), Ordering::Relaxed);
                }
            }
            bar(&barriers);

            // Hook: every root with a candidate hooks to the minimum.
            for v in my_verts.clone() {
                if d.load(v, Ordering::Relaxed) != v as VertexId {
                    continue; // not a root
                }
                let c = cand[v].load(Ordering::Relaxed);
                if c == EMPTY {
                    continue;
                }
                let target = (c >> 32) as VertexId;
                let e = (c & 0xFFFF_FFFF) as usize;
                debug_assert!(target < v as VertexId);
                d.store(v, target, Ordering::Release);
                my_tree_edges.push(edges[e]);
                my_hooks += 1;
                hook_epoch.store(iter, Ordering::Release);
            }
            bar(&barriers);
            trace.rank(rank).record(Phase::Graft, t_hook);

            let changed = hook_epoch.load(Ordering::Acquire) == iter;
            if rank == 0 {
                iterations.fetch_add(1, Ordering::Relaxed);
            }
            if !changed {
                break;
            }

            // Shortcut to rooted stars (same protocol as SV).
            let t_shortcut = now_ns();
            loop {
                let mut local_changed = false;
                for v in my_verts.clone() {
                    let dv = d.load(v, Ordering::Acquire);
                    let ddv = d.load(dv as usize, Ordering::Acquire);
                    if dv != ddv {
                        d.store(v, ddv, Ordering::Release);
                        local_changed = true;
                    }
                }
                let slot = &shortcut_epoch[(sc_stamp % 2) as usize];
                if local_changed {
                    slot.store(sc_stamp, Ordering::Release);
                }
                bar(&barriers);
                let again = slot.load(Ordering::Acquire) == sc_stamp;
                sc_stamp += 1;
                if rank == 0 {
                    shortcut_rounds_total.fetch_add(1, Ordering::Relaxed);
                }
                if !again {
                    break;
                }
            }
            trace.rank(rank).record(Phase::Shortcut, t_shortcut);
            iter += 1;
        }
        counters.rank(rank).add(Counter::Grafts, my_hooks);
    });

    let labels = ws.labels.snapshot_prefix(n);
    let tree_edges = ws.drain_graft(p);
    let grafts = tree_edges.len();
    let shortcut_rounds = shortcut_rounds_total.load(Ordering::Relaxed);
    ws.counters
        .rank(0)
        .add(Counter::ShortcutRounds, shortcut_rounds as u64);
    HcsOutcome {
        tree_edges,
        labels,
        iterations: iterations.load(Ordering::Relaxed),
        grafts,
        shortcut_rounds,
        barriers: barriers.load(Ordering::Relaxed),
    }
}

/// Full HCS spanning forest on an existing team: hooks, then parallel
/// orientation.
pub fn spanning_forest_on(g: &CsrGraph, exec: &Executor, ws: &mut Workspace) -> SpanningForest {
    ws.begin_job(exec);
    let out = hcs_core_on(g, exec, ws);
    let parents = orient_forest_on(g.num_vertices(), &out.tree_edges, exec, ws);
    let roots: Vec<VertexId> = parents
        .iter()
        .enumerate()
        .filter(|&(_, &pp)| pp == NO_VERTEX)
        .map(|(v, _)| v as VertexId)
        .collect();
    let stats = AlgoStats {
        components: roots.len(),
        iterations: out.iterations,
        grafts: out.grafts,
        shortcut_rounds: out.shortcut_rounds,
        barriers: out.barriers,
        metrics: ws.finish_job(exec),
        ..AlgoStats::default()
    };
    SpanningForest {
        parents,
        roots,
        stats,
    }
}

/// HCS as a [`SpanningAlgorithm`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Hcs;

impl SpanningAlgorithm for Hcs {
    fn name(&self) -> &'static str {
        "hcs"
    }

    fn run(&self, g: &CsrGraph, exec: &Executor, ws: &mut Workspace) -> SpanningForest {
        spanning_forest_on(g, exec, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use st_graph::gen;
    use st_graph::validate::{count_components, is_spanning_forest};

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
        let mut e1 = hcs_core(&g, 1).tree_edges;
        let mut e4 = hcs_core(&g, 4).tree_edges;
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
        let reference = hcs_core(&big, 4).tree_edges;
        for _ in 0..3 {
            assert_eq!(hcs_core_on(&big, &exec, &mut ws).tree_edges, reference);
            // Interleave a smaller graph to shuffle the arena prefix.
            let _ = hcs_core_on(&small, &exec, &mut ws);
        }
    }

    #[test]
    fn graft_count_matches() {
        let g = gen::random_gnm(400, 500, 2);
        let out = hcs_core(&g, 4);
        assert_eq!(out.grafts, 400 - count_components(&g));
    }

    #[test]
    fn labels_are_component_minima() {
        // Min-hooking guarantees every component's label is its minimum
        // vertex id.
        let g = gen::random_gnm(300, 400, 8);
        let out = hcs_core(&g, 2);
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
        let out = hcs_core(&g, 2);
        assert!(out.iterations <= 16, "iterations = {}", out.iterations);
    }

    #[test]
    fn empty_and_singletons() {
        let out = hcs_core(&CsrGraph::empty(5), 2);
        assert_eq!(out.grafts, 0);
        assert_eq!(out.labels, vec![0, 1, 2, 3, 4]);
    }
}
