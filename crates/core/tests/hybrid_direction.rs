//! Integration tests for the direction-optimizing traversal: the
//! default and paper-protocol directions of whole jobs, forced
//! bottom-up and top-down runs across a shape gauntlet, the hybrid
//! switch thresholds across shapes at several team sizes, prefetch-distance
//! settings, and cancellation on the bottom-up path.

use std::time::Duration;

use st_core::engine::Workspace;
use st_core::traversal::{Direction, TraversalConfig, TraversalOutcome};
use st_core::{BaderCong, Config, Engine};
use st_graph::gen::{chain, complete, random_connected, star, torus2d};
use st_graph::validate::{is_spanning_forest, is_spanning_tree};
use st_graph::{CsrGraph, VertexId};
use st_obs::{Counter, JobMetrics};
use st_smp::{CancelToken, Executor};

/// One traversal round over connected `g` on a fresh `p`-rank team,
/// seeded at vertex 0. Returns the parent array, every rank's outcome,
/// and the job metrics.
fn run_direction(
    g: &CsrGraph,
    p: usize,
    cfg: TraversalConfig,
) -> (Vec<VertexId>, Vec<TraversalOutcome>, JobMetrics) {
    let exec = Executor::new(p);
    let mut ws = Workspace::new();
    ws.begin_job(&exec);
    let (parents, outcomes) = {
        let t = ws.traversal(g, &exec, cfg);
        t.begin_round(0);
        let outcomes = exec.run(|ctx| t.run_worker_ctx(&ctx));
        (t.into_parents(), outcomes)
    };
    let metrics = ws.finish_job(&exec);
    (parents, outcomes, metrics)
}

fn assert_tree(name: &str, p: usize, g: &CsrGraph, parents: &[VertexId], out: &[TraversalOutcome]) {
    assert!(
        out.iter().all(|&o| o == TraversalOutcome::Completed),
        "{name} p={p}: outcomes {out:?}"
    );
    assert!(
        is_spanning_tree(g, parents, 0),
        "{name} p={p}: invalid tree"
    );
}

/// Shapes chosen to stress different sweep behaviors: a chain (maximum
/// diameter — one hop of progress per sweep, so it must stay small), a
/// star (one sweep colors everything), a torus (uniform degree), a
/// sparse random graph (the paper's main workload), and a complete
/// graph (every unvisited vertex finds a parent immediately).
fn gauntlet() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("chain", chain(96)),
        ("star", star(1 << 9)),
        ("torus2d", torus2d(24, 24)),
        ("random", random_connected(1 << 11, 1 << 13, 7)),
        ("complete", complete(80)),
    ]
}

/// The shipped default is direction-optimizing and the paper's
/// protocol is not: on a dense random graph a default job sweeps
/// bottom-up, while a [`TraversalConfig::paper_protocol`] job never
/// does, at every team size.
#[test]
fn default_jobs_sweep_bottom_up_and_paper_protocol_jobs_never_do() {
    let n = 1 << 14;
    let g = random_connected(n, 4 * n, 11);
    let paper = BaderCong::new(Config {
        traversal: TraversalConfig::paper_protocol(),
        ..Config::default()
    });
    // `ST_DIRECTION` overrides the default (not the paper protocol).
    let env_direction = std::env::var_os("ST_DIRECTION").is_some();
    for p in [1, 2] {
        let mut engine = Engine::new(p);
        let f = engine.run(&paper, &g);
        assert!(is_spanning_forest(&g, &f.parents), "paper p={p}");
        assert_eq!(
            f.stats.metrics.get(Counter::RoundsBottomUp),
            0,
            "p={p}: the paper protocol swept bottom-up"
        );
        if !env_direction {
            let f = engine.run(&BaderCong::with_defaults(), &g);
            assert!(is_spanning_forest(&g, &f.parents), "default p={p}");
            assert!(
                f.stats.metrics.get(Counter::RoundsBottomUp) > 0,
                "p={p}: the default never switched to bottom-up"
            );
        }
    }
}

#[test]
fn forced_bottom_up_builds_valid_trees_across_shapes() {
    for (name, g) in gauntlet() {
        for p in [1, 4] {
            let cfg = TraversalConfig {
                direction: Direction::BottomUp,
                ..TraversalConfig::default()
            };
            let (parents, out, metrics) = run_direction(&g, p, cfg);
            assert_tree(name, p, &g, &parents, &out);
            assert!(
                metrics.get(Counter::RoundsBottomUp) > 0,
                "{name} p={p}: forced bottom-up ran no sweeps"
            );
        }
    }
}

#[test]
fn forced_top_down_builds_valid_trees_across_shapes() {
    for (name, g) in gauntlet() {
        for p in [1, 4] {
            let cfg = TraversalConfig {
                direction: Direction::TopDown,
                ..TraversalConfig::default()
            };
            let (parents, out, metrics) = run_direction(&g, p, cfg);
            assert_tree(name, p, &g, &parents, &out);
            assert_eq!(
                metrics.get(Counter::RoundsBottomUp),
                0,
                "{name} p={p}: top-down must never sweep bottom-up"
            );
        }
    }
}

/// The fixed switch thresholds (Beamer's α = 14, β = 24) across graph
/// shapes, at the team sizes the acceptance criteria name. Every shape
/// must produce a valid tree, and the extremes must take the intended
/// paths (telemetry proves the heuristic fired / stayed quiet): a
/// chain's frontier never reaches n / β, so it never flips, while a
/// star's frontier is n − 1 once the hub is expanded, so a one-rank
/// team flips at its first poll.
#[test]
fn hybrid_switch_threshold_sweep() {
    let dense = random_connected(1 << 12, 1 << 14, 21);
    let long = chain(1 << 12);
    let wide = star(1 << 12);
    let cfg = TraversalConfig {
        direction: Direction::Hybrid,
        ..TraversalConfig::default()
    };
    for p in [1, 4, 8] {
        let (parents, out, metrics) = run_direction(&dense, p, cfg.clone());
        assert_tree("hybrid random", p, &dense, &parents, &out);
        assert!(
            metrics.get(Counter::FrontierPeak) > 0,
            "p={p}: frontier estimator recorded no peak"
        );
        let (parents, out, metrics) = run_direction(&long, p, cfg.clone());
        assert_tree("hybrid chain", p, &long, &parents, &out);
        assert_eq!(
            metrics.get(Counter::RoundsBottomUp),
            0,
            "p={p}: a chain switched to bottom-up"
        );
        let (parents, out, metrics) = run_direction(&wide, p, cfg.clone());
        assert_tree("hybrid star", p, &wide, &parents, &out);
        if p == 1 {
            assert!(
                metrics.get(Counter::RoundsBottomUp) > 0,
                "a star never switched to bottom-up"
            );
        }
    }
}

/// The prefetch distance is a tuning knob, not a correctness knob:
/// disabled, default, and aggressive settings must all build valid
/// trees in both directions.
#[test]
fn prefetch_distance_settings_stay_correct() {
    let g = random_connected(1 << 11, 1 << 13, 3);
    for direction in [Direction::TopDown, Direction::BottomUp] {
        for prefetch_distance in [0, 1, 8, 64] {
            let cfg = TraversalConfig {
                direction,
                prefetch_distance,
                ..TraversalConfig::default()
            };
            let (parents, out, _) = run_direction(&g, 4, cfg);
            assert_tree(
                &format!("{direction:?} pf={prefetch_distance}"),
                4,
                &g,
                &parents,
                &out,
            );
        }
    }
}

/// A token cancelled before the round starts: the bottom-up leader
/// polls it in the first decision window and routes the whole team to
/// a cancelled exit before any sweep runs.
#[test]
fn pre_cancelled_token_cancels_bottom_up_before_sweeping() {
    let g = random_connected(1 << 10, 1 << 12, 5);
    let token = CancelToken::new();
    token.cancel();
    let cfg = TraversalConfig {
        direction: Direction::BottomUp,
        cancel: token,
        ..TraversalConfig::default()
    };
    let (_, out, metrics) = run_direction(&g, 4, cfg);
    assert!(
        out.iter().all(|&o| o == TraversalOutcome::Cancelled),
        "outcomes {out:?}"
    );
    assert_eq!(
        metrics.get(Counter::RoundsBottomUp),
        0,
        "cancelled before the first sweep, yet sweeps ran"
    );
}

/// A cancellation raised mid-run from outside the team: the chunk-level
/// poll inside the sweep and the leader's window poll must pick it up.
/// Seeding the chain at its far end defeats the ascending cursor's
/// same-sweep cascade, so the uncancelled run needs one sweep per hop
/// (thousands of barriered sweeps) — a prompt exit can only come from
/// the bottom-up path actually polling the token.
#[test]
fn mid_run_cancellation_is_polled_on_the_bottom_up_path() {
    let n = 8192usize;
    let g = chain(n);
    let token = CancelToken::new();
    let cfg = TraversalConfig {
        direction: Direction::BottomUp,
        cancel: token.clone(),
        ..TraversalConfig::default()
    };
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        token.cancel();
    });
    let exec = Executor::new(4);
    let mut ws = Workspace::new();
    ws.begin_job(&exec);
    let out = {
        let t = ws.traversal(&g, &exec, cfg);
        t.begin_round((n - 1) as VertexId);
        exec.run(|ctx| t.run_worker_ctx(&ctx))
    };
    ws.finish_job(&exec);
    canceller.join().unwrap();
    assert!(
        out.iter().all(|&o| o == TraversalOutcome::Cancelled),
        "outcomes {out:?}"
    );
}
