//! Multi-root concurrent traversal — an extension beyond the paper.
//!
//! The paper's driver (and [`crate::bader_cong`]) handles one component
//! per barrier-delimited round, absorbing sub-stub components
//! sequentially. This module explores the other end of the design
//! space: **all components at once**. Idle processors claim fresh roots
//! from a shared cursor and grow trees concurrently; when two trees
//! touch (a worker finds a neighbor colored by a different tree), the
//! crossing edge is recorded as a *conflict*. After quiescence, a
//! union-find pass over the conflict edges picks one merge edge per
//! tree pair and splices the trees by **re-rooting**: the parent chain
//! from the merge point up to its root is reversed and attached across
//! the conflict edge — an O(depth) pointer reversal that is always safe
//! on a valid forest, in any merge order.
//!
//! Why every component still ends up as exactly one tree: whenever
//! vertices v (tree A) and w (tree B ≠ A) are adjacent, whichever worker
//! examines the edge last sees the other side's color and records the
//! conflict, so the conflict graph connects all trees sharing a
//! component, and the union-find pass merges them all.
//!
//! Trade-off vs. the round driver: no barriers at all and full
//! processor utilization across many medium components, in exchange for
//! the sequential O(conflicts × depth) merge pass — best when
//! components are numerous and shallow (2D60-like inputs), worst when a
//! single deep component attracts many speculative root claims.
//!
//! The color/parent arrays and the per-rank queues come from the
//! caller's [`Workspace`], and the victim
//! selection shares [`crate::traversal`]'s steal sweep.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use st_graph::dsu::DisjointSets;
use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::{now_ns, Counter, Phase};
use st_smp::{CancelToken, Executor, IdleOutcome};

use crate::engine::{hugepages_enabled, Cancelled, SpanningAlgorithm, Workspace};
use crate::result::{AlgoStats, SpanningForest};
use crate::traversal::{steal_sweep, TraversalConfig};

/// Color value meaning "not yet claimed".
const UNCLAIMED: u32 = 0;

/// The multi-root strategy as a [`SpanningAlgorithm`].
///
/// Not `Copy`: the embedded [`TraversalConfig`] carries a
/// [`CancelToken`].
#[derive(Clone, Debug, Default)]
pub struct Multiroot {
    cfg: TraversalConfig,
}

impl Multiroot {
    /// With explicit traversal tuning.
    pub fn new(cfg: TraversalConfig) -> Self {
        Self { cfg }
    }

    /// With default tuning.
    pub fn with_defaults() -> Self {
        Self::default()
    }
}

impl SpanningAlgorithm for Multiroot {
    fn name(&self) -> &'static str {
        "multiroot"
    }

    /// The traversal config's `starvation_threshold` is ignored (there
    /// is no fallback: idle processors claim new roots instead of
    /// starving); the steal policy, idle timeout, and seed apply as in
    /// the round driver.
    ///
    /// `cancel` is checked once, up front: a run that starts runs to
    /// completion.
    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        let cfg = &self.cfg;
        let p = exec.size();
        let n = g.num_vertices();
        ws.begin_job(exec);
        if n == 0 {
            return Ok(SpanningForest {
                parents: Vec::new(),
                roots: Vec::new(),
                stats: AlgoStats {
                    metrics: ws.finish_job(exec),
                    ..AlgoStats::default()
                },
            });
        }

        // color[v]: UNCLAIMED, or 1 + the id of the root whose tree claimed
        // v.
        ws.prep_frontier(n, p, exec, None);
        ws.color.ensure_len_with(n, hugepages_enabled());
        ws.color.fill_prefix(n, UNCLAIMED);
        exec.detector().reset();
        let color = &ws.color;
        let parent = &ws.parent;
        let queues = &ws.queues[..p];
        let counters = &ws.counters;
        let trace = &ws.trace;
        let detector = exec.detector();

        let cursor = AtomicUsize::new(0);
        // Roots claimed, in claim order (for stats; merged roots drop out of
        // the final root set).
        let claimed_roots = Mutex::new(Vec::<VertexId>::new());

        // Claims the next unclaimed vertex as a fresh root.
        let claim_root = || -> Option<VertexId> {
            loop {
                let pos = cursor.fetch_add(1, Ordering::Relaxed);
                if pos >= n {
                    return None;
                }
                if color.try_claim(pos, UNCLAIMED, pos as u32 + 1) {
                    claimed_roots.lock().unwrap().push(pos as VertexId);
                    return Some(pos as VertexId);
                }
            }
        };

        type RankOut = (usize, Vec<(VertexId, VertexId)>);
        let per_rank: Vec<RankOut> = exec.run(|ctx| {
            let rank = ctx.rank();
            let my_q = &*queues[rank];
            let slot = counters.rank(rank);
            let ring = trace.rank(rank);
            let t_run = now_ns();
            let mut rng = SmallRng::seed_from_u64(
                cfg.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut steal_buf: VecDeque<VertexId> = VecDeque::new();
            let mut processed = 0usize;
            // Hot-loop tallies stay plain u64s, flushed to `slot` at exit.
            let mut discovered = 0u64;
            let mut multi_colored = 0u64;
            let mut published = 0u64;
            let mut conflicts: Vec<(VertexId, VertexId)> = Vec::new();

            loop {
                while let Some(v) = my_q.pop() {
                    let my_tree = color.load(v as usize, Ordering::Acquire);
                    debug_assert_ne!(my_tree, UNCLAIMED);
                    for &w in g.neighbors(v) {
                        let c = color.load(w as usize, Ordering::Acquire);
                        if c == UNCLAIMED {
                            if color.try_claim(w as usize, UNCLAIMED, my_tree) {
                                parent.store(w as usize, v, Ordering::Release);
                                my_q.push(w);
                                discovered += 1;
                                // Multiroot has no private buffer: every
                                // discovery goes straight to the shared queue.
                                published += 1;
                            } else {
                                // Lost the claim; whoever won may be another
                                // tree.
                                multi_colored += 1;
                                let c2 = color.load(w as usize, Ordering::Acquire);
                                if c2 != my_tree {
                                    conflicts.push((v, w));
                                }
                            }
                        } else if c != my_tree {
                            conflicts.push((v, w));
                        }
                    }
                    processed += 1;
                    if detector.approx_sleeping() > 0 && my_q.approx_len() > 1 {
                        detector.notify_work();
                    }
                }
                // Local queue empty: steal, then claim a fresh root, then
                // sleep.
                slot.incr(Counter::StealAttempts);
                let got = steal_sweep(queues, rank, &mut rng, cfg.steal_policy, &mut steal_buf);
                if got > 0 {
                    slot.incr(Counter::Steals);
                    slot.add(Counter::StolenItems, got as u64);
                    slot.add(Counter::ItemsPublished, got as u64);
                    continue;
                }
                slot.incr(Counter::FailedSweeps);
                if let Some(r) = claim_root() {
                    my_q.push(r);
                    published += 1;
                    continue;
                }
                let t_idle = now_ns();
                let outcome = detector.idle_wait(cfg.idle_timeout);
                ring.record(Phase::Idle, t_idle);
                match outcome {
                    IdleOutcome::AllDone => break,
                    IdleOutcome::Starved => unreachable!("threshold disabled"),
                    IdleOutcome::Retry => continue,
                }
            }
            slot.add(Counter::Processed, processed as u64);
            slot.add(Counter::Discovered, discovered);
            slot.add(Counter::MultiColored, multi_colored);
            slot.add(Counter::ItemsPublished, published);
            ring.record(Phase::Traverse, t_run);
            (processed, conflicts)
        });

        // --- Sequential merge pass: one merge edge per tree pair.
        let mut parents: Vec<VertexId> = ws.parents_prefix(n);
        let colors = ws.color.snapshot_prefix(n);
        let mut dsu = DisjointSets::new(n);
        let mut merges = 0usize;
        let mut processed_total = Vec::with_capacity(p);
        let mut all_conflicts: Vec<(VertexId, VertexId)> = Vec::new();
        for (count, conflicts) in per_rank {
            processed_total.push(count);
            all_conflicts.extend(conflicts);
        }
        for (v, w) in all_conflicts {
            let tv = colors[v as usize] - 1;
            let tw = colors[w as usize] - 1;
            if !dsu.union(tv, tw) {
                continue; // trees already merged via another edge
            }
            // Re-root v's current tree at v and hang it under w.
            let mut prev = w;
            let mut cur = v;
            while cur != NO_VERTEX {
                let next = parents[cur as usize];
                parents[cur as usize] = prev;
                prev = cur;
                cur = next;
            }
            merges += 1;
        }

        let claimed = claimed_roots.into_inner().unwrap().len();
        let metrics = ws.finish_job(exec);
        let stats = AlgoStats {
            multi_colored: metrics.get(Counter::MultiColored) as usize,
            steals: metrics.get(Counter::Steals) as usize,
            stolen_items: metrics.get(Counter::StolenItems) as usize,
            per_proc_processed: processed_total,
            // Record speculative claims merged away in the grafts slot: the
            // closest existing notion (merges = claims - components).
            grafts: merges,
            iterations: claimed,
            barriers: 0,
            metrics,
            ..AlgoStats::default()
        };
        Ok(SpanningForest::from_parents(parents, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use st_graph::gen;
    use st_graph::validate::{count_components, is_spanning_forest};

    fn check(g: &CsrGraph, p: usize) -> SpanningForest {
        let f = Engine::new(p).run(&Multiroot::new(TraversalConfig::default()), g);
        assert!(
            is_spanning_forest(g, &f.parents),
            "invalid multiroot forest at p = {p}"
        );
        assert_eq!(f.num_trees(), count_components(g), "p = {p}");
        f
    }

    #[test]
    fn connected_graphs() {
        for p in [1usize, 2, 4, 8] {
            check(&gen::torus2d(20, 20), p);
            check(&gen::random_connected(2_000, 3_000, 7), p);
        }
    }

    #[test]
    fn many_components_without_barriers() {
        let g = gen::mesh2d_p(40, 40, 0.55, 3);
        let f = check(&g, 4);
        assert_eq!(f.stats.barriers, 0, "multiroot mode uses no barriers");
        // Speculative claims beyond the component count were merged away.
        assert_eq!(
            f.stats.iterations - f.stats.grafts,
            f.num_trees(),
            "claims - merges = final trees"
        );
    }

    #[test]
    fn chain_forces_cross_tree_merges() {
        // Idle processors claim roots mid-chain, so trees must merge.
        let g = gen::chain(20_000);
        let f = check(&g, 4);
        assert_eq!(f.num_trees(), 1);
    }

    #[test]
    fn star_with_speculative_leaf_claims() {
        let g = gen::star(5_000);
        let f = check(&g, 8);
        assert_eq!(f.num_trees(), 1);
    }

    #[test]
    fn repeated_runs_stay_valid() {
        let g = gen::ad3(1_500, 9);
        let reference = count_components(&g);
        for seed in 0..10 {
            let cfg = TraversalConfig {
                seed,
                ..TraversalConfig::default()
            };
            let f = Engine::new(4).run(&Multiroot::new(cfg), &g);
            assert!(is_spanning_forest(&g, &f.parents), "seed {seed}");
            assert_eq!(f.num_trees(), reference, "seed {seed}");
        }
    }

    #[test]
    fn shared_engine_runs_stay_valid() {
        // The round driver and multiroot share one workspace: state from
        // one strategy must not contaminate the other.
        let exec = Executor::new(4);
        let mut ws = Workspace::new();
        let g = gen::mesh2d_p(30, 30, 0.6, 2);
        let reference = count_components(&g);
        for _ in 0..3 {
            let f = Multiroot::with_defaults()
                .run(&g, &exec, &mut ws, &CancelToken::none())
                .unwrap();
            assert!(is_spanning_forest(&g, &f.parents));
            assert_eq!(f.num_trees(), reference);
            let f2 = crate::bader_cong::BaderCong::with_defaults()
                .run(&g, &exec, &mut ws, &CancelToken::none())
                .unwrap();
            assert!(is_spanning_forest(&g, &f2.parents));
        }
    }

    #[test]
    fn scale_free_hubs() {
        let g = gen::rmat(11, 6, gen::RmatParams::standard(), 3);
        check(&g, 4);
    }

    #[test]
    fn empty_and_edgeless() {
        let f = Engine::new(2).run(
            &Multiroot::new(TraversalConfig::default()),
            &CsrGraph::empty(0),
        );
        assert!(f.parents.is_empty());
        let f = check(&CsrGraph::empty(6), 3);
        assert_eq!(f.num_trees(), 6);
    }

    #[test]
    fn agrees_with_round_driver_on_structure() {
        let g = gen::mesh3d_p(12, 12, 12, 0.4, 5);
        let round = Engine::new(4).run(&crate::bader_cong::BaderCong::with_defaults(), &g);
        let multi = check(&g, 4);
        assert_eq!(round.num_trees(), multi.num_trees());
        assert_eq!(round.num_tree_edges(), multi.num_tree_edges());
    }
}
