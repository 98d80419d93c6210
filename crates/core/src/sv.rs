//! The Shiloach–Vishkin algorithm adapted for SMPs.
//!
//! SV is "in fact a connected-components algorithm" (§2) built on the
//! graft-and-shortcut pattern: every vertex starts as its own rooted
//! star; each iteration grafts tree roots onto neighboring trees with
//! smaller labels and then compresses every tree back to a rooted star
//! by pointer jumping. Extended to spanning trees, each successful graft
//! contributes the graph edge that caused it.
//!
//! The paper highlights the race the priority-CRCW model hides: several
//! processors may try to graft the same root onto different trees, which
//! would create false tree edges. Two SMP resolutions are implemented:
//!
//! * [`GraftVariant::Election`] — "always shortcut the tree to rooted
//!   star … and run an election among the processors that wish to graft
//!   the same tree … Only the winner of the election grafts" (§2). Pass
//!   A writes a unique (edge, direction) code into the root's winner
//!   slot (arbitrary-CRCW emulated by a plain atomic store); pass B lets
//!   exactly the edge that finds its own code perform the graft. Because
//!   codes are unique per (edge, direction) and each such pair writes a
//!   single slot, a stale re-read of the root cannot match a foreign
//!   code — the election is self-verifying.
//! * [`GraftVariant::Lock`] — "One straightforward solution uses locks to
//!   ensure that a tree gets grafted only once. The locking approach
//!   intuitively is slow and not scalable, and our test results agree."
//!   Kept as the paper's negative baseline (experiment CLAIM-LOCK).
//!
//! Grafts always point from a larger root label to a smaller one, so
//! concurrent grafts cannot form cycles. Iteration count depends on the
//! vertex labeling (experiment CLAIM-SVLABEL): row-major torus labels
//! finish in one iteration, random labels take up to ~log n.
//!
//! The iteration is one team loop, `graft_and_shortcut`, that
//! [`hcs`](crate::hcs) and [`mst::boruvka`](crate::mst::boruvka) share:
//! each supplies only its hook phase. All scratch state (hook array,
//! election slots, per-root locks, edge list, per-rank graft lists)
//! lives in the caller's [`Workspace`], and the team comes from a
//! persistent [`Executor`]; both are reused across runs.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use st_graph::{CsrGraph, VertexId};
use st_obs::{now_ns, Counter, Phase};
use st_smp::team::block_range;
use st_smp::{CancelToken, Executor};

use crate::engine::{timed_barrier, Cancelled, SpanningAlgorithm, Workspace, EMPTY_SLOT};
use crate::orient::orient_forest;
use crate::result::{AlgoStats, SpanningForest};

/// How grafting races are resolved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GraftVariant {
    /// Two-pass election (the paper's approach; fast).
    #[default]
    Election,
    /// Per-root spin locks (the paper's slow baseline).
    Lock,
}

/// SV configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SvConfig {
    /// Race-resolution variant.
    pub variant: GraftVariant,
}

/// Raw result of the graft-and-shortcut engine. What the run cost
/// (iterations, grafts, shortcut rounds, barriers) is in the
/// workspace's counters.
#[derive(Clone, Debug)]
pub struct SvOutcome {
    /// One graph edge per graft; together a spanning forest (undirected).
    pub tree_edges: Vec<(VertexId, VertexId)>,
    /// Final hook array: `labels[v]` is the root label of v's component.
    pub labels: Vec<VertexId>,
}

/// Runs graft-and-shortcut on an existing team, with all scratch in `ws`.
///
/// `init` optionally pre-contracts vertices: `init[v]` is v's starting
/// hook target, which must form rooted stars (every value is a root:
/// `init[init[v]] == init[v]`). The Bader–Cong starvation fallback uses
/// this to merge already-traversed trees into super-vertices. `None`
/// starts from singletons (`D[v] = v`).
///
/// Cooperatively cancellable: rank 0 polls `cancel` at the top of each
/// graft-and-shortcut iteration and raises a shared abort flag that
/// every rank reads behind the iteration's graft barrier, so the whole
/// team leaves the session together (the barrier sequence stays
/// rank-uniform). A cancelled run abandons its partial grafts; the
/// workspace and team stay reusable.
pub fn sv_core(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    init: Option<&[VertexId]>,
    cfg: SvConfig,
    cancel: &CancelToken,
) -> Result<SvOutcome, Cancelled> {
    match cfg.variant {
        // `slots` are the winner slots; only roots' are used.
        GraftVariant::Election => {
            graft_and_shortcut(g, exec, ws, init, cancel, |step, h| {
                let (d, winner, edges) = (&h.ws.labels, &h.ws.slots[..], &h.ws.edges[..]);
                match step {
                    HookStep::Clear => {
                        for v in h.verts.clone() {
                            winner[v].store(EMPTY_SLOT, Ordering::Relaxed);
                        }
                    }
                    // Pass A: election. After the previous shortcut,
                    // D[u] is u's root.
                    HookStep::Offer => {
                        for e in h.edges.clone() {
                            let (u, v) = edges[e];
                            let du = d.load(u as usize, Ordering::Relaxed);
                            let dv = d.load(v as usize, Ordering::Relaxed);
                            if du != dv {
                                let (root, dir) = if dv < du { (du, 0) } else { (dv, 1) };
                                winner[root as usize].store(code(e, dir), Ordering::Relaxed);
                            }
                        }
                    }
                    // Pass B: winners graft.
                    HookStep::Graft => {
                        for e in h.edges.clone() {
                            let (u, v) = edges[e];
                            for (a, b, dir) in [(u, v, 0), (v, u, 1)] {
                                let ra = d.load(a as usize, Ordering::Acquire);
                                if winner[ra as usize].load(Ordering::Relaxed) == code(e, dir) {
                                    let target = d.load(b as usize, Ordering::Acquire);
                                    d.store(ra as usize, target, Ordering::Release);
                                    h.tree_edges.push((u, v));
                                }
                            }
                        }
                    }
                }
            })
        }
        GraftVariant::Lock => {
            ws.ensure_locks(g.num_vertices());
            // A single grafting pass with per-root locks; the clear and
            // offer steps are empty.
            graft_and_shortcut(g, exec, ws, init, cancel, |step, h| {
                if step != HookStep::Graft {
                    return;
                }
                let (d, locks, edges) = (&h.ws.labels, &h.ws.locks[..], &h.ws.edges[..]);
                for e in h.edges.clone() {
                    let (u, v) = edges[e];
                    for (a, b) in [(u, v), (v, u)] {
                        let ra = d.load(a as usize, Ordering::Acquire);
                        let rb = d.load(b as usize, Ordering::Acquire);
                        if rb < ra && d.load(ra as usize, Ordering::Relaxed) == ra {
                            let _guard = locks[ra as usize].lock();
                            // Re-check under the lock: still a root?
                            if d.load(ra as usize, Ordering::Relaxed) == ra {
                                let target = d.load(b as usize, Ordering::Acquire);
                                if target < ra {
                                    d.store(ra as usize, target, Ordering::Release);
                                    h.tree_edges.push((a, b));
                                }
                            }
                        }
                    }
                }
            })
        }
    }
}

#[inline]
fn code(edge: usize, dir: u64) -> u64 {
    (edge as u64) * 2 + dir
}

/// Packs (`high`, edge index) so that `fetch_min` over keys picks the
/// smallest `high`, tie-broken by the smallest edge index: HCS's and
/// Borůvka's hook candidates.
#[inline]
pub(crate) fn pack(high: u32, edge: usize) -> u64 {
    (u64::from(high) << 32) | edge as u64
}

/// The steps of one hook phase, in order. [`graft_and_shortcut`] puts a
/// team barrier after each, so a step reads what every rank wrote in
/// the steps before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HookStep {
    /// Reset this rank's block of per-vertex scratch (slots, snapshot).
    Clear,
    /// Edges offer their endpoints' roots a hook candidate.
    Offer,
    /// Roots hook, each pushing the graph edge it hooked across.
    Graft,
}

/// One rank's view of a hook step.
pub(crate) struct Hook<'a> {
    /// The workspace, with the hook array and edge list set up.
    pub(crate) ws: &'a Workspace,
    /// This rank's block of edge indices.
    pub(crate) edges: Range<usize>,
    /// This rank's block of vertices.
    pub(crate) verts: Range<usize>,
    /// This rank's graft list: one graph edge per hook.
    pub(crate) tree_edges: &'a mut Vec<(VertexId, VertexId)>,
}

/// The graft-and-shortcut team loop that SV, HCS and Borůvka share:
/// every vertex starts as a rooted star (`init`, as in [`sv_core`]),
/// and each iteration runs `hook`'s three steps, a barrier after each,
/// then pointer-jumps every tree back to a rooted star. The loop ends
/// after an iteration in which no rank hooked, or when rank 0 sees
/// `cancel` fired at the top of an iteration (`Err(Cancelled)`, the
/// partial grafts abandoned).
///
/// Counts `GraftIterations` and `ShortcutRounds` on rank 0 and each
/// rank's `Grafts`, and takes every barrier through [`timed_barrier`],
/// so an uncancelled run's `Barriers` is 3 × `GraftIterations` +
/// `ShortcutRounds` on every rank. The per-vertex `slots` are sized
/// here; a hook that uses them clears its block in its `Clear` step.
pub(crate) fn graft_and_shortcut<H>(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    init: Option<&[VertexId]>,
    cancel: &CancelToken,
    hook: H,
) -> Result<SvOutcome, Cancelled>
where
    H: Fn(HookStep, &mut Hook<'_>) + Sync,
{
    let p = exec.size();
    let n = g.num_vertices();
    ws.collect_edges(g);
    assert!(
        ws.edges.len() < u32::MAX as usize / 2,
        "edge index exceeds the election codes and packed keys"
    );
    ws.init_labels(n, init);
    ws.ensure_slots(n);
    ws.ensure_graft(p);
    // Grow (never reset) the observability slots: sv_core may run
    // mid-job as the starvation fallback, whose counters must survive.
    ws.counters.ensure(p);
    ws.trace.ensure(p);

    let shared: &Workspace = ws;
    let m = shared.edges.len();
    let (d, counters, trace) = (&shared.labels, &shared.counters, &shared.trace);

    // Epoch-stamped change flags (no reset races: each iteration/round
    // compares against its own stamp). The graft epoch is safe as a
    // single slot because two barriers separate its read from the next
    // write; the shortcut epoch is read and re-written with only one
    // barrier between rounds, so it uses parity slots — round s writes
    // and reads slot s mod 2, and round s + 2 (the next writer of that
    // slot) cannot start until every rank has passed round s + 1's
    // barrier, which is after every round-s read.
    let graft_epoch = AtomicU64::new(u64::MAX);
    let shortcut_epoch = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
    // Cancellation: rank 0 stores before the iteration's first barrier,
    // everyone loads after the graft barrier — same value on every
    // rank, so the team exits the loop in lockstep.
    let aborted = AtomicBool::new(false);

    exec.run(|ctx| {
        let rank = ctx.rank();
        let my_verts = block_range(rank, p, n);
        // Each rank's tree edges collect into its workspace graft list
        // (disjoint per rank; the lock is uncontended and held for the
        // whole job).
        let mut tree_edges = shared.graft[rank].lock();
        let mut h = Hook {
            ws: shared,
            edges: block_range(rank, p, m),
            verts: my_verts.clone(),
            tree_edges: &mut tree_edges,
        };
        let bar = || timed_barrier(&ctx, counters, trace);

        let mut iter: u64 = 0;
        // A single global shortcut-round counter shared by all
        // iterations; rounds are stamped with it.
        let mut sc_stamp: u64 = 0;
        loop {
            let t_graft = now_ns();
            // Iteration-boundary cancellation checkpoint (one designated
            // poller keeps the store/load ordered by the barriers below).
            if rank == 0 && cancel.is_cancelled() {
                aborted.store(true, Ordering::Release);
            }
            hook(HookStep::Clear, &mut h);
            bar();
            hook(HookStep::Offer, &mut h);
            bar();
            let grafted = h.tree_edges.len();
            hook(HookStep::Graft, &mut h);
            if h.tree_edges.len() > grafted {
                graft_epoch.store(iter, Ordering::Release);
            }
            bar();
            trace.rank(rank).record(Phase::Graft, t_graft);

            if aborted.load(Ordering::Acquire) {
                break;
            }
            let changed = graft_epoch.load(Ordering::Acquire) == iter;
            if rank == 0 {
                counters.rank(0).incr(Counter::GraftIterations);
            }
            if !changed {
                break;
            }

            // Shortcut: pointer-jump every vertex until all trees are
            // rooted stars again.
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
                bar();
                let again = slot.load(Ordering::Acquire) == sc_stamp;
                sc_stamp += 1;
                if rank == 0 {
                    counters.rank(0).incr(Counter::ShortcutRounds);
                }
                if !again {
                    break;
                }
            }
            trace.rank(rank).record(Phase::Shortcut, t_shortcut);
            iter += 1;
        }
        counters
            .rank(rank)
            .add(Counter::Grafts, h.tree_edges.len() as u64);
    });

    if aborted.load(Ordering::Acquire) {
        // Abandon the partial grafts (drained so the arena lists are
        // clean for the workspace's next job).
        let _ = ws.drain_graft(p);
        return Err(Cancelled);
    }
    Ok(SvOutcome {
        labels: ws.labels.snapshot_prefix(n),
        tree_edges: ws.drain_graft(p),
    })
}

/// Shiloach–Vishkin as a [`SpanningAlgorithm`] (either graft variant).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sv {
    cfg: SvConfig,
}

impl Sv {
    /// With explicit configuration.
    pub fn new(cfg: SvConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &SvConfig {
        &self.cfg
    }
}

impl SpanningAlgorithm for Sv {
    fn name(&self) -> &'static str {
        match self.cfg.variant {
            GraftVariant::Election => "sv-election",
            GraftVariant::Lock => "sv-lock",
        }
    }

    /// Graft-and-shortcut, then parallel orientation of the collected
    /// tree edges into rooted parent arrays. `cancel` is polled at each
    /// graft-and-shortcut iteration boundary (and before orientation).
    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        graft_job(g, exec, ws, cancel, |ws| {
            sv_core(g, exec, ws, None, self.cfg, cancel)
        })
    }
}

/// One graft-and-shortcut job (SV's and HCS's `run`): opens the job
/// window, runs `core`, orients its tree edges into a rooted forest, and
/// closes the window. A fired `cancel` ends it with `Err(Cancelled)`
/// before orientation.
pub(crate) fn graft_job(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    cancel: &CancelToken,
    core: impl FnOnce(&mut Workspace) -> Result<SvOutcome, Cancelled>,
) -> Result<SpanningForest, Cancelled> {
    ws.begin_job(exec);
    let out = match core(ws) {
        Ok(out) if !cancel.is_cancelled() => out,
        _ => {
            let _ = ws.finish_job(exec);
            return Err(Cancelled);
        }
    };
    let parents = orient_forest(g.num_vertices(), &out.tree_edges, exec, ws);
    let stats = AlgoStats {
        fallback_triggered: false,
        metrics: ws.finish_job(exec),
    };
    Ok(SpanningForest::from_parents(parents, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use st_graph::gen;
    use st_graph::label::{random_permutation, relabel};
    use st_graph::validate::{count_components, is_spanning_forest};

    /// `sv_core` on a fresh team of `p` and a fresh workspace.
    fn core(g: &CsrGraph, p: usize, init: Option<&[VertexId]>) -> SvOutcome {
        let exec = Executor::new(p);
        sv_core(
            g,
            &exec,
            &mut Workspace::new(),
            init,
            SvConfig::default(),
            &CancelToken::none(),
        )
        .expect("inert token cannot cancel")
    }

    /// Graft-and-shortcut iterations the forest's job ran.
    fn iterations(f: &SpanningForest) -> u64 {
        f.stats.metrics.get(Counter::GraftIterations)
    }

    fn check(g: &CsrGraph, p: usize, cfg: SvConfig) -> SpanningForest {
        let f = Engine::new(p).run(&Sv::new(cfg), g);
        assert!(
            is_spanning_forest(g, &f.parents),
            "invalid SV forest (p = {p}, {cfg:?})"
        );
        f
    }

    #[test]
    fn torus_election() {
        let g = gen::torus2d(16, 16);
        for p in [1, 2, 4] {
            let f = check(&g, p, SvConfig::default());
            assert_eq!(f.roots.len(), 1);
            assert_eq!(
                f.stats.metrics.get(Counter::Grafts),
                g.num_vertices() as u64 - 1
            );
        }
    }

    #[test]
    fn torus_lock_variant() {
        let g = gen::torus2d(12, 12);
        let cfg = SvConfig {
            variant: GraftVariant::Lock,
        };
        for p in [1, 4] {
            let f = check(&g, p, cfg);
            assert_eq!(f.roots.len(), 1);
        }
    }

    #[test]
    fn disconnected_graphs() {
        let g = gen::mesh2d_p(25, 25, 0.55, 3);
        let f = check(&g, 4, SvConfig::default());
        assert_eq!(f.roots.len(), count_components(&g));
    }

    #[test]
    fn random_graph_all_variants() {
        let g = gen::random_gnm(1_500, 2_500, 13);
        for variant in [GraftVariant::Election, GraftVariant::Lock] {
            let cfg = SvConfig { variant };
            check(&g, 4, cfg);
        }
    }

    #[test]
    fn rowmajor_torus_converges_in_one_graft_iteration() {
        // With row-major labels every vertex has a smaller neighbor
        // except vertex 0, and grafting cascades; SV needs very few
        // iterations (the paper's "best case one iteration" observation).
        let g = gen::torus2d(10, 10);
        let f = check(&g, 2, SvConfig::default());
        // iterations counts the final no-graft detection round too.
        assert!(
            iterations(&f) <= 3,
            "row-major torus took {} iterations",
            iterations(&f)
        );
    }

    #[test]
    fn random_labels_take_more_iterations() {
        // CLAIM-SVLABEL: random labeling needs more iterations than
        // row-major on the same topology.
        let g = gen::torus2d(32, 32);
        let f_row = check(&g, 2, SvConfig::default());
        let perm = random_permutation(g.num_vertices(), 5);
        let h = relabel(&g, &perm);
        let f_rand = check(&h, 2, SvConfig::default());
        assert!(
            iterations(&f_rand) >= iterations(&f_row),
            "random {} < row-major {}",
            iterations(&f_rand),
            iterations(&f_row)
        );
    }

    #[test]
    fn chain_labeled_sequentially_is_fast() {
        let g = gen::chain(1_000);
        let f = check(&g, 4, SvConfig::default());
        assert_eq!(f.roots.len(), 1);
        // Sequential labels: everything grafts toward 0 in one pass.
        assert!(iterations(&f) <= 3);
    }

    #[test]
    fn chain_random_labels_need_log_iterations() {
        let g = gen::chain(4_096);
        let perm = random_permutation(4_096, 11);
        let h = relabel(&g, &perm);
        let f = check(&h, 4, SvConfig::default());
        assert!(
            iterations(&f) >= 3,
            "random-labeled chain converged suspiciously fast ({})",
            iterations(&f)
        );
        assert!(iterations(&f) <= 30);
    }

    #[test]
    fn init_super_vertices() {
        // Path 0-1-2-3-4 where {0,1,2} is pre-merged into root 0.
        let g = gen::chain(5);
        let init = vec![0, 0, 0, 3, 4];
        let out = core(&g, 2, Some(&init));
        // Grafts must connect {0,1,2}, {3}, {4}: exactly 2 tree edges.
        assert_eq!(out.tree_edges.len(), 2);
        let mut labels = out.labels.clone();
        labels.dedup();
        // All vertices end in one component.
        assert!(out.labels.iter().all(|&l| l == out.labels[0]));
    }

    #[test]
    fn labels_identify_components() {
        let g = {
            let mut el = st_graph::EdgeList::new(6);
            el.push(0, 1);
            el.push(1, 2);
            el.push(3, 4);
            CsrGraph::from_edge_list(&el)
        };
        let out = core(&g, 2, None);
        assert_eq!(out.labels[0], out.labels[1]);
        assert_eq!(out.labels[1], out.labels[2]);
        assert_eq!(out.labels[3], out.labels[4]);
        assert_ne!(out.labels[0], out.labels[3]);
        assert_ne!(out.labels[5], out.labels[0]);
        assert_eq!(out.tree_edges.len(), 3);
    }

    #[test]
    fn empty_and_edgeless() {
        let out = core(&CsrGraph::empty(0), 2, None);
        assert!(out.tree_edges.is_empty());
        let f = Engine::new(2).run(&Sv::default(), &CsrGraph::empty(4));
        assert_eq!(f.roots.len(), 4);
    }

    #[test]
    fn complete_graph_one_iteration() {
        let g = gen::complete(64);
        let f = check(&g, 4, SvConfig::default());
        assert_eq!(f.roots.len(), 1);
        assert!(iterations(&f) <= 2);
    }

    #[test]
    fn graft_count_equals_n_minus_components() {
        for seed in 0..5 {
            let g = gen::random_gnm(300, 350, seed);
            let out = core(&g, 3, None);
            let c = count_components(&g);
            assert_eq!(out.tree_edges.len(), 300 - c, "seed {seed}");
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_runs() {
        // Same team + workspace over several graphs; outcomes must match
        // runs on a fresh team and workspace (scratch fully
        // re-initialized).
        let exec = Executor::new(3);
        let mut ws = Workspace::new();
        for (n, m, seed) in [(400usize, 600usize, 1u64), (50, 40, 2), (800, 900, 3)] {
            let g = gen::random_gnm(n, m, seed);
            let reused = sv_core(
                &g,
                &exec,
                &mut ws,
                None,
                SvConfig::default(),
                &CancelToken::none(),
            )
            .expect("inert token cannot cancel");
            let fresh = core(&g, 3, None);
            assert_eq!(
                reused.tree_edges.len(),
                fresh.tree_edges.len(),
                "seed {seed}"
            );
            assert_eq!(reused.labels, fresh.labels, "seed {seed}");
        }
    }

    #[test]
    fn cancelled_sv_aborts_and_team_stays_reusable() {
        use st_smp::CancelToken;
        let exec = Executor::new(3);
        let mut ws = Workspace::new();
        let g = gen::random_gnm(600, 900, 4);
        let token = CancelToken::new();
        token.cancel();
        let out = Sv::default().run(&g, &exec, &mut ws, &token);
        assert!(out.is_err(), "pre-cancelled token must abort");
        // Clean run afterwards on the same team + workspace.
        let f = Sv::default()
            .run(&g, &exec, &mut ws, &CancelToken::none())
            .expect("inert token cannot cancel");
        assert!(is_spanning_forest(&g, &f.parents));
    }

    #[test]
    fn racing_cancel_against_sv_is_clean_either_way() {
        use st_smp::CancelToken;
        let exec = Executor::new(3);
        let mut ws = Workspace::new();
        let g = gen::random_gnm(4_000, 7_000, 11);
        for delay_us in [0u64, 30, 300] {
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(delay_us));
                    token.cancel();
                })
            };
            if let Ok(f) = Sv::default().run(&g, &exec, &mut ws, &token) {
                assert!(is_spanning_forest(&g, &f.parents));
            }
            canceller.join().unwrap();
            let f = Sv::default()
                .run(&g, &exec, &mut ws, &CancelToken::none())
                .expect("inert token cannot cancel");
            assert!(is_spanning_forest(&g, &f.parents), "delay {delay_us}us");
        }
    }
}
