//! The Bader–Cong SMP spanning-tree algorithm (the paper's contribution).
//!
//! Two steps per component (§2):
//!
//! 1. **Stub spanning tree** — one processor grows a small tree by a
//!    random walk of O(p) steps and distributes its vertices evenly into
//!    the processors' queues ([`crate::stub`]).
//! 2. **Work-stealing graph traversal** — all p processors run the
//!    modified BFS of Alg. 1 with randomized work stealing
//!    ([`crate::traversal`]).
//!
//! The paper's starvation mechanism is included: when the configured
//! number of processors sleeps simultaneously, the traversal halts, the
//! partially grown trees are merged into super-vertices, and the
//! Shiloach–Vishkin algorithm finishes the job (the `fallback` routine below).
//!
//! Unlike the paper (which assumes a connected input and produces a
//! spanning tree) this driver produces a spanning *forest*: components
//! are processed one round at a time inside a single team session, the
//! next root found by an id-order scan — the natural generalization, and
//! what the disconnected experiment inputs (2D60, 3D40, sparse random)
//! require.

use st_graph::preprocess::{eliminate_degree2, Reduction};
use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::{now_ns, Counter, Phase};
use st_smp::{CancelToken, Executor};

use crate::engine::{Cancelled, Engine, SpanningAlgorithm, Workspace};
use crate::orient::orient_forest_with_mask;
use crate::result::{AlgoStats, SpanningForest};
use crate::stub::grow_stub_into;
use crate::sv::{self, SvConfig};
use crate::traversal::{TraversalConfig, TraversalOutcome};

/// Configuration of the Bader–Cong algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    /// Traversal tuning (steal policy, idle timeout, starvation
    /// threshold, RNG seed).
    pub traversal: TraversalConfig,
    /// Stub tree target length as a multiple of p (the paper: "O(p)
    /// steps").
    pub stub_factor: usize,
    /// Run the degree-2 chain-elimination preprocessing of §2 first.
    pub deg2_preprocess: bool,
    /// Root the first tree here instead of at the id-order scan start.
    pub start_root: Option<VertexId>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            traversal: TraversalConfig::default(),
            stub_factor: 2,
            deg2_preprocess: false,
            start_root: None,
        }
    }
}

/// The algorithm object; construct once, run on many graphs.
#[derive(Clone, Debug, Default)]
pub struct BaderCong {
    cfg: Config,
}

impl BaderCong {
    /// With explicit configuration.
    pub fn new(cfg: Config) -> Self {
        Self { cfg }
    }

    /// With the paper's defaults (steal-half, stub length 2p, starvation
    /// detector disabled).
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Computes a spanning tree of a connected `g` rooted at `root` on
    /// `engine`'s team; `None` when `g` is not connected or `root` is out
    /// of range.
    pub fn spanning_tree(
        &self,
        engine: &mut Engine,
        g: &CsrGraph,
        root: VertexId,
    ) -> Option<Vec<VertexId>> {
        if (root as usize) >= g.num_vertices() {
            return None;
        }
        let mut cfg = self.cfg.clone();
        cfg.start_root = Some(root);
        // Degree-2 preprocessing changes vertex identity; the rooted-tree
        // entry point keeps it off so `root` stays meaningful.
        cfg.deg2_preprocess = false;
        let forest = engine.run(&BaderCong::new(cfg), g);
        (forest.roots.len() == 1).then_some(forest.parents)
    }

    fn forest_with_preprocess(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        let red: Reduction = eliminate_degree2(g);
        let mut inner_cfg = self.cfg.clone();
        inner_cfg.deg2_preprocess = false;
        inner_cfg.start_root = None;
        let reduced_forest =
            BaderCong::new(inner_cfg).forest_direct(&red.reduced, exec, ws, cancel)?;
        let parents = red.expand_parents(&reduced_forest.parents);
        Ok(SpanningForest::from_parents(parents, reduced_forest.stats))
    }

    fn forest_direct(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        let n = g.num_vertices();
        let p = exec.size();
        // A live caller token takes over the traversal's cancellation
        // plumbing; otherwise any token already on the config applies.
        let mut tcfg = self.cfg.traversal.clone();
        if cancel.is_live() {
            tcfg.cancel = cancel.clone();
        }
        let cancel = tcfg.cancel.clone();
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
        let mut roots: Vec<VertexId> = Vec::new();
        let stub_target = (self.cfg.stub_factor * p).max(1);
        let seed = self.cfg.traversal.seed;
        let start_root = self.cfg.start_root;

        // The session borrows the workspace; everything the fallback
        // needs is copied out before the borrow ends.
        let (stats, outcome, parents, colored) = {
            let (t, stub_scratch) = ws.traversal_with_stub(g, exec, tcfg);
            let mut cursor: VertexId = 0;
            let roots_sink = &mut roots;
            let (processed, barriers, outcome) = t.run_rounds(exec, move |s, round| {
                let t = s.traversal();
                let mut walk = 0u64;
                loop {
                    // Pick the next component root: the smallest
                    // uncolored vertex (every vertex below the cursor is
                    // colored).
                    let root = match start_root {
                        Some(r) if round == 0 && walk == 0 && (r as usize) < n => Some(r),
                        _ => t.next_uncolored(cursor).inspect(|&v| cursor = v),
                    };
                    let Some(root) = root else { return false };
                    roots_sink.push(root);
                    // Phase 1: stub spanning tree, grown by "one
                    // processor" (the round driver).
                    let t_stub = now_ns();
                    let stub = grow_stub_into(
                        g,
                        root,
                        stub_target,
                        seed ^ (round as u64) ^ (walk << 32),
                        |v| t.is_colored(v),
                        stub_scratch,
                    );
                    t.trace().rank(0).record(Phase::Stub, t_stub);
                    let slot0 = t.counters().rank(0);
                    slot0.incr(Counter::StubWalks);
                    slot0.add(Counter::StubVertices, stub.len() as u64);
                    walk += 1;
                    if stub.len() < stub_target {
                        // The backtracking walk exhausted the component:
                        // it is fully covered, so no traversal round (and
                        // no barriers) are needed. Mark it and move to
                        // the next component — this keeps many-component
                        // inputs (2D60, sparse random) from paying two
                        // barriers per tiny component.
                        for (&v, &par) in stub.vertices.iter().zip(stub.parents.iter()) {
                            s.mark(v, par);
                        }
                        continue;
                    }
                    // Big component: deal the stub round-robin into the
                    // queues and run a work-stealing round.
                    for (i, (&v, &par)) in stub.vertices.iter().zip(stub.parents.iter()).enumerate()
                    {
                        s.seed(i % p, v, par);
                    }
                    return true;
                }
            });

            let totals = t.counters().merged();
            let stats = AlgoStats {
                components: roots.len(),
                multi_colored: totals.get(Counter::MultiColored) as usize,
                steals: totals.get(Counter::Steals) as usize,
                stolen_items: totals.get(Counter::StolenItems) as usize,
                per_proc_processed: processed,
                barriers,
                ..AlgoStats::default()
            };
            let colored = match outcome {
                TraversalOutcome::Completed | TraversalOutcome::Cancelled => Vec::new(),
                TraversalOutcome::Starved => t.colored_mask(),
            };
            (stats, outcome, t.into_parents(), colored)
        };

        match outcome {
            TraversalOutcome::Completed => {
                let mut stats = stats;
                stats.metrics = ws.finish_job(exec);
                Ok(SpanningForest {
                    parents,
                    roots,
                    stats,
                })
            }
            TraversalOutcome::Starved => fallback(g, exec, ws, colored, parents, stats, &cancel),
            TraversalOutcome::Cancelled => {
                // Close the observability window (discarding the report)
                // so the workspace is clean for its next job.
                let _ = ws.finish_job(exec);
                Err(Cancelled)
            }
        }
    }
}

impl SpanningAlgorithm for BaderCong {
    fn name(&self) -> &'static str {
        "bader-cong"
    }

    /// Ends early with `Err(Cancelled)` if `cancel` (or a live token
    /// already in [`Config::traversal`]) fires. The token is polled at
    /// publication boundaries, on the idle path, at round barriers, and
    /// at the SV fallback's iteration barriers.
    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled> {
        if self.cfg.deg2_preprocess {
            return self.forest_with_preprocess(g, exec, ws, cancel);
        }
        self.forest_direct(g, exec, ws, cancel)
    }
}

/// The paper's starvation fallback: "merge the grown spanning subtree
/// into a super-vertex, and start a different algorithm, for instance,
/// the SV approach."
///
/// Every already-colored vertex (`colored[v]`) is contracted into its
/// tree's root by initializing SV's hook array D with that root;
/// uncolored vertices start as their own super-vertices. SV's graft
/// edges then connect the unfinished region, and the combined forest is
/// oriented while preserving the parents the traversal already wrote.
fn fallback(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    colored: Vec<bool>,
    mut parents: Vec<VertexId>,
    mut stats: AlgoStats,
    cancel: &CancelToken,
) -> Result<SpanningForest, Cancelled> {
    let n = g.num_vertices();
    let t_fallback = now_ns();

    // Root of each colored vertex, by parent chasing with memoization.
    let mut comp_root: Vec<VertexId> = vec![NO_VERTEX; n];
    let mut chain: Vec<usize> = Vec::new();
    for v in 0..n {
        if !colored[v] || comp_root[v] != NO_VERTEX {
            continue;
        }
        chain.clear();
        let mut cur = v;
        let root = loop {
            if comp_root[cur] != NO_VERTEX {
                break comp_root[cur];
            }
            chain.push(cur);
            let pp = parents[cur];
            if pp == NO_VERTEX {
                break cur as VertexId;
            }
            cur = pp as usize;
        };
        for &u in &chain {
            comp_root[u] = root;
        }
    }

    // SV over the whole graph with colored regions pre-contracted.
    let init: Vec<u32> = (0..n)
        .map(|v| {
            if colored[v] {
                comp_root[v]
            } else {
                v as VertexId
            }
        })
        .collect();
    let sv_out = match sv::sv_core(g, exec, ws, Some(&init), SvConfig::default(), cancel) {
        Ok(out) => out,
        Err(Cancelled) => {
            let _ = ws.finish_job(exec);
            return Err(Cancelled);
        }
    };

    // Orient SV's tree edges while keeping the traversal's parents.
    orient_forest_with_mask(n, &sv_out.tree_edges, &colored, &mut parents, exec, ws);

    stats.fallback_triggered = true;
    stats.iterations = sv_out.iterations;
    stats.grafts = sv_out.grafts;
    stats.shortcut_rounds = sv_out.shortcut_rounds;
    stats.barriers += sv_out.barriers;
    ws.trace.rank(0).record(Phase::Fallback, t_fallback);
    stats.metrics = ws.finish_job(exec);
    Ok(SpanningForest::from_parents(parents, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use st_graph::gen;
    use st_graph::label::{random_permutation, relabel};
    use st_graph::validate::{is_spanning_forest, is_spanning_tree};
    use st_smp::StealPolicy;

    fn check_forest(g: &CsrGraph, p: usize) -> SpanningForest {
        let f = Engine::new(p).run(&BaderCong::with_defaults(), g);
        assert!(
            is_spanning_forest(g, &f.parents),
            "invalid forest for p = {p}"
        );
        assert_eq!(f.roots.len(), f.stats.components);
        f
    }

    #[test]
    fn torus_all_processor_counts() {
        let g = gen::torus2d(20, 20);
        for p in [1, 2, 3, 4, 8] {
            let f = check_forest(&g, p);
            assert_eq!(f.roots.len(), 1);
        }
    }

    #[test]
    fn random_graph_forest() {
        let g = gen::random_gnm(2_000, 3_000, 21);
        check_forest(&g, 4);
    }

    #[test]
    fn disconnected_mesh_forest() {
        // 2D60 meshes are naturally disconnected.
        let g = gen::mesh2d_p(30, 30, 0.6, 5);
        let f = check_forest(&g, 4);
        assert!(f.roots.len() > 1, "2D60 should have multiple components");
    }

    #[test]
    fn spanning_tree_api() {
        let g = gen::random_connected(500, 700, 2);
        let t = BaderCong::with_defaults()
            .spanning_tree(&mut Engine::new(4), &g, 7)
            .expect("graph is connected");
        assert!(is_spanning_tree(&g, &t, 7));
    }

    #[test]
    fn spanning_tree_rejects_disconnected_and_bad_root() {
        let g = gen::random_gnm(100, 30, 3);
        let algo = BaderCong::with_defaults();
        let mut engine = Engine::new(2);
        assert!(algo.spanning_tree(&mut engine, &g, 0).is_none());
        let g2 = gen::chain(5);
        assert!(algo.spanning_tree(&mut engine, &g2, 500).is_none());
    }

    #[test]
    fn labeling_does_not_break_correctness() {
        // The paper: "the labeling of vertices does not affect the
        // performance of our new algorithm" — and certainly not its
        // correctness.
        let g = gen::torus2d(16, 16);
        let perm = random_permutation(g.num_vertices(), 77);
        let h = relabel(&g, &perm);
        check_forest(&h, 4);
    }

    #[test]
    fn geometric_and_geographic_families() {
        check_forest(&gen::ad3(800, 4), 4);
        check_forest(
            &gen::geographic_flat(800, gen::GeoFlatParams::with_target_degree(800, 4.0), 9),
            4,
        );
        check_forest(&gen::geographic_hier(gen::GeoHierParams::default(), 3), 4);
    }

    #[test]
    fn chain_without_detector_still_correct() {
        let g = gen::chain(5_000);
        let f = check_forest(&g, 4);
        assert!(!f.stats.fallback_triggered);
    }

    #[test]
    fn chain_with_detector_falls_back_and_stays_correct() {
        let g = gen::chain(20_000);
        let cfg = Config {
            traversal: TraversalConfig {
                starvation_threshold: Some(3),
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
        assert!(
            f.stats.fallback_triggered,
            "chain should trigger starvation with threshold 3"
        );
        assert!(is_spanning_forest(&g, &f.parents));
        assert_eq!(f.roots.len(), 1);
    }

    #[test]
    fn fallback_on_disconnected_graph() {
        // Long chain plus separate components, detector armed.
        let mut el = st_graph::EdgeList::new(10_050);
        for v in 1..10_000u32 {
            el.push(v - 1, v);
        }
        for v in 10_000..10_050u32 {
            if v > 10_000 && v % 5 != 0 {
                el.push(v - 1, v);
            }
        }
        let g = CsrGraph::from_edge_list(&el);
        let cfg = Config {
            traversal: TraversalConfig {
                starvation_threshold: Some(3),
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
        assert!(
            is_spanning_forest(&g, &f.parents),
            "fallback forest invalid"
        );
    }

    #[test]
    fn deg2_preprocess_path() {
        // Lollipop-ish graph with long chains: preprocessing shrinks it.
        let g = {
            let mut el = st_graph::EdgeList::new(1_000);
            // Dense head.
            for u in 0..20u32 {
                for v in (u + 1)..20 {
                    el.push(u, v);
                }
            }
            // Long tail chain.
            for v in 20..1_000u32 {
                el.push(v - 1, v);
            }
            CsrGraph::from_edge_list(&el)
        };
        let cfg = Config {
            deg2_preprocess: true,
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
        assert!(is_spanning_forest(&g, &f.parents));
        assert_eq!(f.roots.len(), 1);
    }

    #[test]
    fn stats_are_populated() {
        let g = gen::random_connected(3_000, 4_500, 6);
        let f = check_forest(&g, 4);
        assert_eq!(f.stats.per_proc_processed.len(), 4);
        assert!(f.stats.total_processed() > 0);
        assert!(f.stats.barriers >= 2);
        // Top-down expands every vertex at least once, so its processed
        // count is >= n (duplicates possible from benign races). The
        // default hybrid direction drops the frontier it holds when it
        // switches to bottom-up, so it may process fewer.
        let top_down = Config {
            traversal: TraversalConfig {
                direction: crate::traversal::Direction::TopDown,
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(top_down), &g);
        assert!(is_spanning_forest(&g, &f.parents));
        assert!(f.stats.total_processed() >= g.num_vertices());
    }

    #[test]
    fn steal_policy_ablation_configs_work() {
        let g = gen::random_connected(1_500, 2_000, 8);
        for policy in [StealPolicy::Half, StealPolicy::One, StealPolicy::Chunk(8)] {
            let cfg = Config {
                traversal: TraversalConfig {
                    steal_policy: policy,
                    ..TraversalConfig::default()
                },
                ..Config::default()
            };
            let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
            assert!(is_spanning_forest(&g, &f.parents), "policy {policy:?}");
        }
    }

    #[test]
    fn empty_graph() {
        let f = Engine::new(2).run(&BaderCong::with_defaults(), &CsrGraph::empty(0));
        assert!(f.parents.is_empty());
    }

    #[test]
    fn edgeless_graph() {
        let f = Engine::new(3).run(&BaderCong::with_defaults(), &CsrGraph::empty(7));
        assert_eq!(f.roots.len(), 7);
    }

    #[test]
    fn stub_factor_variations() {
        let g = gen::torus2d(12, 12);
        for factor in [1, 4, 16] {
            let cfg = Config {
                stub_factor: factor,
                ..Config::default()
            };
            let f = Engine::new(4).run(&BaderCong::new(cfg), &g);
            assert!(is_spanning_forest(&g, &f.parents), "stub factor {factor}");
        }
    }

    #[test]
    fn pre_cancelled_job_aborts_and_leaves_team_reusable() {
        use st_smp::CancelToken;
        let exec = Executor::new(4);
        let mut ws = Workspace::new();
        let g = gen::torus2d(30, 30);
        let token = CancelToken::new();
        token.cancel();
        let algo = BaderCong::with_defaults();
        let out = algo.run(&g, &exec, &mut ws, &token);
        assert!(out.is_err(), "cancelled token must abort the job");
        // The same team and workspace must run clean jobs afterwards.
        let f = algo
            .run(&g, &exec, &mut ws, &CancelToken::none())
            .expect("inert token cannot cancel");
        assert!(is_spanning_forest(&g, &f.parents));
    }

    #[test]
    fn cancel_mid_run_is_either_clean_or_complete() {
        use st_smp::CancelToken;
        use std::sync::Arc;
        // Racing a cancel against a running traversal must yield either
        // a complete valid forest or a clean `Cancelled` — never a
        // wedged team. Both outcomes are legitimate on a fast machine.
        let exec = Arc::new(Executor::new(4));
        let mut ws = Workspace::new();
        let g = gen::torus2d(120, 120);
        let algo = BaderCong::with_defaults();
        for delay_us in [0u64, 50, 500] {
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(delay_us));
                    token.cancel();
                })
            };
            if let Ok(f) = algo.run(&g, &exec, &mut ws, &token) {
                assert!(is_spanning_forest(&g, &f.parents));
            }
            canceller.join().unwrap();
            // Team stays healthy either way.
            let f = algo
                .run(&g, &exec, &mut ws, &CancelToken::none())
                .expect("inert token cannot cancel");
            assert!(is_spanning_forest(&g, &f.parents), "delay {delay_us}us");
        }
    }

    #[test]
    fn deadline_token_cancels_like_explicit_cancel() {
        use st_smp::CancelToken;
        use std::time::{Duration, Instant};
        let exec = Executor::new(2);
        let mut ws = Workspace::new();
        let g = gen::torus2d(40, 40);
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let out = BaderCong::with_defaults().run(&g, &exec, &mut ws, &expired);
        assert!(out.is_err(), "expired deadline must abort the job");
        assert!(expired.deadline_expired());
    }
}
