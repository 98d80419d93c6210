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
//! All scratch state (hook array, election slots, per-root locks, edge
//! list, per-rank graft lists) lives in the caller's
//! [`Workspace`], and the team comes from a
//! persistent [`Executor`]; the `*_on` entry points reuse both across
//! runs. The legacy `p`-taking functions spawn a one-shot team.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::{now_ns, Counter, Phase};
use st_smp::team::block_range;
use st_smp::{CancelToken, Executor};

use crate::engine::{Cancelled, SpanningAlgorithm, Workspace};
use crate::orient::orient_forest_on;
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
    /// Abort (panic) if this many iterations do not converge — a bug
    /// guard only; SV terminates unconditionally because every iteration
    /// either grafts or exits.
    pub max_iterations: Option<usize>,
}

/// Raw result of the graft-and-shortcut engine.
#[derive(Clone, Debug)]
pub struct SvOutcome {
    /// One graph edge per graft; together a spanning forest (undirected).
    pub tree_edges: Vec<(VertexId, VertexId)>,
    /// Final hook array: `labels[v]` is the root label of v's component.
    pub labels: Vec<VertexId>,
    /// Graft-and-shortcut iterations executed (including the final
    /// no-graft iteration that detects convergence).
    pub iterations: usize,
    /// Total grafts (= tree edges).
    pub grafts: usize,
    /// Total pointer-jumping rounds across all iterations.
    pub shortcut_rounds: usize,
    /// Barrier episodes used.
    pub barriers: usize,
}

/// Sentinel for an empty winner slot.
const NO_WINNER: u64 = u64::MAX;

/// Runs graft-and-shortcut with a one-shot team of `p` processors (see
/// [`sv_core_on`]).
pub fn sv_core(g: &CsrGraph, p: usize, init: Option<&[VertexId]>, cfg: SvConfig) -> SvOutcome {
    let exec = Executor::new(p);
    let mut ws = Workspace::new();
    sv_core_on(g, &exec, &mut ws, init, cfg)
}

/// Runs graft-and-shortcut on an existing team, with all scratch in `ws`.
///
/// `init` optionally pre-contracts vertices: `init[v]` is v's starting
/// hook target, which must form rooted stars (every value is a root:
/// `init[init[v]] == init[v]`). The Bader–Cong starvation fallback uses
/// this to merge already-traversed trees into super-vertices. `None`
/// starts from singletons (`D[v] = v`).
pub fn sv_core_on(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    init: Option<&[VertexId]>,
    cfg: SvConfig,
) -> SvOutcome {
    sv_core_cancellable(g, exec, ws, init, cfg, &CancelToken::none())
        .expect("inert token cannot cancel")
}

/// Like [`sv_core_on`], but cooperatively cancellable: rank 0 polls
/// `cancel` at the top of each graft-and-shortcut iteration and raises a
/// shared abort flag that every rank reads behind the iteration's graft
/// barrier, so the whole team leaves the session together (the barrier
/// sequence stays rank-uniform). A cancelled run abandons its partial
/// grafts; the workspace and team stay reusable.
pub fn sv_core_cancellable(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    init: Option<&[VertexId]>,
    cfg: SvConfig,
    cancel: &CancelToken,
) -> Result<SvOutcome, Cancelled> {
    let p = exec.size();
    let n = g.num_vertices();
    ws.collect_edges(g);
    let m = ws.edges.len();
    assert!(
        m < (u32::MAX as usize) / 2,
        "edge count exceeds election code space"
    );
    ws.init_labels(n, init);
    // Election slots, one per vertex (only root slots are used).
    ws.ensure_slots(n);
    // Per-root graft locks for the Lock variant.
    if matches!(cfg.variant, GraftVariant::Lock) {
        ws.ensure_locks(n);
    }
    ws.ensure_graft(p);
    // Grow (never reset) the observability slots: sv_core_on may run
    // mid-job as the starvation fallback, whose counters must survive.
    ws.counters.ensure(p);
    ws.trace.ensure(p);

    let counters = &ws.counters;
    let trace = &ws.trace;
    let d = &ws.labels;
    let winner: &[AtomicU64] = &ws.slots[..n];
    let locks = &ws.locks[..];
    let edges = &ws.edges[..];
    let graft = &ws.graft[..p];

    // Epoch-stamped change flags (no reset races: each iteration/round
    // compares against its own stamp). The graft epoch is safe as a
    // single slot because two barriers separate its read from the next
    // write; the shortcut epoch is read and re-written with only one
    // barrier between rounds, so it uses parity slots — round s writes
    // and reads slot s mod 2, and round s + 2 (the next writer of that
    // slot) cannot start until every rank has passed round s + 1's
    // barrier, which is after every round-s read.
    let graft_epoch = AtomicU64::new(NO_WINNER);
    let shortcut_epoch = [AtomicU64::new(NO_WINNER), AtomicU64::new(NO_WINNER)];
    let shortcut_rounds_total = std::sync::atomic::AtomicUsize::new(0);
    let barriers = std::sync::atomic::AtomicUsize::new(0);
    let iterations = std::sync::atomic::AtomicUsize::new(0);
    // Cancellation: rank 0 stores before the iteration's first barrier,
    // everyone loads after the post-graft barrier — same value on every
    // rank, so the team exits the loop in lockstep.
    let aborted = AtomicBool::new(false);

    exec.run(|ctx| {
        let rank = ctx.rank();
        let my_edges = block_range(rank, p, m);
        let my_verts = block_range(rank, p, n);
        // Each rank's tree edges collect into its workspace graft list
        // (disjoint per rank; the lock is uncontended and held for the
        // whole job).
        let mut my_tree_edges = graft[rank].lock();
        let bar = |leader_count: &std::sync::atomic::AtomicUsize| {
            let t_ns = now_ns();
            let t0 = Instant::now();
            if ctx.barrier() {
                leader_count.fetch_add(1, Ordering::Relaxed);
            }
            let waited = t0.elapsed().as_nanos() as u64;
            let slot = counters.rank(rank);
            slot.incr(Counter::Barriers);
            slot.add(Counter::BarrierWaitNs, waited);
            trace.rank(rank).record_span(Phase::Barrier, t_ns, waited);
        };

        let mut iter: u64 = 0;
        // A single global shortcut-round counter shared by all
        // iterations; rounds are stamped with it.
        let mut sc_stamp: u64 = 0;
        // Grafts performed by this rank, flushed once at loop exit.
        let mut my_grafts: u64 = 0;
        loop {
            let t_graft = now_ns();
            if let Some(cap) = cfg.max_iterations {
                assert!(
                    (iter as usize) < cap,
                    "SV failed to converge within {cap} iterations"
                );
            }
            // Iteration-boundary cancellation checkpoint (one designated
            // poller keeps the store/load ordered by the barriers below).
            if rank == 0 && cancel.is_cancelled() {
                aborted.store(true, Ordering::Release);
            }
            // --- Reset winner slots for this iteration (election only).
            if matches!(cfg.variant, GraftVariant::Election) {
                for v in my_verts.clone() {
                    winner[v].store(NO_WINNER, Ordering::Relaxed);
                }
                bar(&barriers);

                // --- Pass A: election. After the previous shortcut, D[u]
                // is u's root.
                for e in my_edges.clone() {
                    let (u, v) = edges[e];
                    let du = d.load(u as usize, Ordering::Relaxed);
                    let dv = d.load(v as usize, Ordering::Relaxed);
                    if du == dv {
                        continue;
                    }
                    if dv < du {
                        winner[du as usize].store(code(e, 0), Ordering::Relaxed);
                    } else {
                        winner[dv as usize].store(code(e, 1), Ordering::Relaxed);
                    }
                }
                bar(&barriers);

                // --- Pass B: winners graft.
                for e in my_edges.clone() {
                    let (u, v) = edges[e];
                    let ru = d.load(u as usize, Ordering::Acquire);
                    if winner[ru as usize].load(Ordering::Relaxed) == code(e, 0) {
                        let target = d.load(v as usize, Ordering::Acquire);
                        d.store(ru as usize, target, Ordering::Release);
                        my_tree_edges.push((u, v));
                        my_grafts += 1;
                        graft_epoch.store(iter, Ordering::Release);
                    }
                    let rv = d.load(v as usize, Ordering::Acquire);
                    if winner[rv as usize].load(Ordering::Relaxed) == code(e, 1) {
                        let target = d.load(u as usize, Ordering::Acquire);
                        d.store(rv as usize, target, Ordering::Release);
                        my_tree_edges.push((u, v));
                        my_grafts += 1;
                        graft_epoch.store(iter, Ordering::Release);
                    }
                }
            } else {
                // --- Lock variant: single grafting pass with per-root
                // locks.
                bar(&barriers); // align the barrier count with pass-A's entry
                for e in my_edges.clone() {
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
                                    my_tree_edges.push((a, b));
                                    my_grafts += 1;
                                    graft_epoch.store(iter, Ordering::Release);
                                }
                            }
                        }
                    }
                }
                bar(&barriers); // align with the end of pass A
            }
            bar(&barriers);
            trace.rank(rank).record(Phase::Graft, t_graft);

            if aborted.load(Ordering::Acquire) {
                break;
            }
            let changed = graft_epoch.load(Ordering::Acquire) == iter;
            if rank == 0 {
                iterations.fetch_add(1, Ordering::Relaxed);
            }
            if !changed {
                break;
            }

            // --- Shortcut: pointer-jump every vertex until all trees are
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
        counters.rank(rank).add(Counter::Grafts, my_grafts);
    });

    if aborted.load(Ordering::Acquire) {
        // Abandon the partial grafts (drained so the arena lists are
        // clean for the workspace's next job).
        let _ = ws.drain_graft(p);
        return Err(Cancelled);
    }
    let labels = ws.labels.snapshot_prefix(n);
    let tree_edges = ws.drain_graft(p);
    let grafts = tree_edges.len();
    let shortcut_rounds = shortcut_rounds_total.load(Ordering::Relaxed);
    // Shortcut rounds are a team-wide quantity; book them on rank 0.
    ws.counters
        .rank(0)
        .add(Counter::ShortcutRounds, shortcut_rounds as u64);
    Ok(SvOutcome {
        tree_edges,
        labels,
        iterations: iterations.load(Ordering::Relaxed),
        grafts,
        shortcut_rounds,
        barriers: barriers.load(Ordering::Relaxed),
    })
}

#[inline]
fn code(edge: usize, dir: u64) -> u64 {
    (edge as u64) * 2 + dir
}

/// Full SV spanning forest on an existing team: graft-and-shortcut, then
/// parallel orientation of the collected tree edges into rooted parent
/// arrays.
pub fn spanning_forest_on(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    cfg: SvConfig,
) -> SpanningForest {
    try_spanning_forest_on(g, exec, ws, cfg, &CancelToken::none())
        .expect("inert token cannot cancel")
}

/// Cancellable [`spanning_forest_on`]: `cancel` is polled at each
/// graft-and-shortcut iteration boundary (and before orientation).
pub fn try_spanning_forest_on(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    cfg: SvConfig,
    cancel: &CancelToken,
) -> Result<SpanningForest, Cancelled> {
    ws.begin_job(exec);
    let out = match sv_core_cancellable(g, exec, ws, None, cfg, cancel) {
        Ok(out) => out,
        Err(Cancelled) => {
            let _ = ws.finish_job(exec);
            return Err(Cancelled);
        }
    };
    if cancel.is_cancelled() {
        let _ = ws.finish_job(exec);
        return Err(Cancelled);
    }
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
    Ok(SpanningForest {
        parents,
        roots,
        stats,
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

    fn run(&self, g: &CsrGraph, exec: &Executor, ws: &mut Workspace) -> SpanningForest {
        spanning_forest_on(g, exec, ws, self.cfg)
    }

    fn run_with_cancel(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        try_spanning_forest_on(g, exec, ws, self.cfg, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use st_graph::gen;
    use st_graph::label::{random_permutation, relabel};
    use st_graph::validate::{count_components, is_spanning_forest};

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
            assert_eq!(f.stats.grafts, g.num_vertices() - 1);
        }
    }

    #[test]
    fn torus_lock_variant() {
        let g = gen::torus2d(12, 12);
        let cfg = SvConfig {
            variant: GraftVariant::Lock,
            ..SvConfig::default()
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
            let cfg = SvConfig {
                variant,
                ..SvConfig::default()
            };
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
            f.stats.iterations <= 3,
            "row-major torus took {} iterations",
            f.stats.iterations
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
            f_rand.stats.iterations >= f_row.stats.iterations,
            "random {} < row-major {}",
            f_rand.stats.iterations,
            f_row.stats.iterations
        );
    }

    #[test]
    fn chain_labeled_sequentially_is_fast() {
        let g = gen::chain(1_000);
        let f = check(&g, 4, SvConfig::default());
        assert_eq!(f.roots.len(), 1);
        // Sequential labels: everything grafts toward 0 in one pass.
        assert!(f.stats.iterations <= 3);
    }

    #[test]
    fn chain_random_labels_need_log_iterations() {
        let g = gen::chain(4_096);
        let perm = random_permutation(4_096, 11);
        let h = relabel(&g, &perm);
        let f = check(&h, 4, SvConfig::default());
        assert!(
            f.stats.iterations >= 3,
            "random-labeled chain converged suspiciously fast ({})",
            f.stats.iterations
        );
        assert!(f.stats.iterations <= 30);
    }

    #[test]
    fn init_super_vertices() {
        // Path 0-1-2-3-4 where {0,1,2} is pre-merged into root 0.
        let g = gen::chain(5);
        let init = vec![0, 0, 0, 3, 4];
        let out = sv_core(&g, 2, Some(&init), SvConfig::default());
        // Grafts must connect {0,1,2}, {3}, {4}: exactly 2 tree edges.
        assert_eq!(out.grafts, 2);
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
        let out = sv_core(&g, 2, None, SvConfig::default());
        assert_eq!(out.labels[0], out.labels[1]);
        assert_eq!(out.labels[1], out.labels[2]);
        assert_eq!(out.labels[3], out.labels[4]);
        assert_ne!(out.labels[0], out.labels[3]);
        assert_ne!(out.labels[5], out.labels[0]);
        assert_eq!(out.grafts, 3);
    }

    #[test]
    fn empty_and_edgeless() {
        let out = sv_core(&CsrGraph::empty(0), 2, None, SvConfig::default());
        assert_eq!(out.grafts, 0);
        let f = Engine::new(2).run(&Sv::default(), &CsrGraph::empty(4));
        assert_eq!(f.roots.len(), 4);
    }

    #[test]
    fn complete_graph_one_iteration() {
        let g = gen::complete(64);
        let f = check(&g, 4, SvConfig::default());
        assert_eq!(f.roots.len(), 1);
        assert!(f.stats.iterations <= 2);
    }

    #[test]
    fn max_iterations_guard_is_quiet_on_normal_runs() {
        let g = gen::random_gnm(500, 800, 4);
        let cfg = SvConfig {
            max_iterations: Some(64),
            ..SvConfig::default()
        };
        check(&g, 2, cfg);
    }

    #[test]
    fn graft_count_equals_n_minus_components() {
        for seed in 0..5 {
            let g = gen::random_gnm(300, 350, seed);
            let out = sv_core(&g, 3, None, SvConfig::default());
            let c = count_components(&g);
            assert_eq!(out.grafts, 300 - c, "seed {seed}");
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_runs() {
        // Same team + workspace over several graphs; outcomes must match
        // fresh one-shot runs (scratch fully re-initialized).
        let exec = Executor::new(3);
        let mut ws = Workspace::new();
        for (n, m, seed) in [(400usize, 600usize, 1u64), (50, 40, 2), (800, 900, 3)] {
            let g = gen::random_gnm(n, m, seed);
            let reused = sv_core_on(&g, &exec, &mut ws, None, SvConfig::default());
            let fresh = sv_core(&g, 3, None, SvConfig::default());
            assert_eq!(reused.grafts, fresh.grafts, "seed {seed}");
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
        let out = try_spanning_forest_on(&g, &exec, &mut ws, SvConfig::default(), &token);
        assert!(out.is_err(), "pre-cancelled token must abort");
        // Clean run afterwards on the same team + workspace.
        let f = spanning_forest_on(&g, &exec, &mut ws, SvConfig::default());
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
            if let Ok(f) = try_spanning_forest_on(&g, &exec, &mut ws, SvConfig::default(), &token) {
                assert!(is_spanning_forest(&g, &f.parents));
            }
            canceller.join().unwrap();
            let f = spanning_forest_on(&g, &exec, &mut ws, SvConfig::default());
            assert!(is_spanning_forest(&g, &f.parents), "delay {delay_us}us");
        }
    }
}
