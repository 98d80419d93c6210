//! Integration tests for the persistent execution engine: one
//! [`Engine`] (team + workspace) reused across a long, shape-diverse
//! sequence of graphs, with every forest validated against the oracles.
//! This is the repeated-measurement pattern the paper's experiments use,
//! and the sharpest test that no scratch state leaks between runs.

use bader_cong_spanning::prelude::*;
use st_core::hcs::Hcs;
use st_core::sv::Sv;
use st_graph::validate::count_components;

/// The reuse gauntlet: shapes chosen to stress different arena fields in
/// sequence — a star (one huge frontier burst), a random graph (steals
/// and multi-coloring), a chain (deep parent chains, tiny frontier), and
/// a heavily disconnected mesh (many components, many roots).
fn shape_sequence() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("star", gen::star(5_000)),
        ("random", gen::random_gnm(2_000, 3_000, 11)),
        ("chain", gen::chain(4_000)),
        ("disconnected", gen::mesh2d_p(40, 40, 0.45, 3)),
    ]
}

fn algorithms() -> Vec<Box<dyn SpanningAlgorithm>> {
    vec![
        Box::new(BaderCong::with_defaults()),
        Box::new(Sv::new(SvConfig::default())),
        Box::new(Sv::new(SvConfig {
            variant: GraftVariant::Lock,
        })),
        Box::new(Hcs),
    ]
}

#[test]
fn one_engine_survives_the_shape_gauntlet() {
    for p in [1usize, 4, 8] {
        let mut engine = Engine::new(p);
        // Two full passes: the second pass runs every graph on an arena
        // already dirtied by every other graph.
        for pass in 0..2 {
            for (name, g) in shape_sequence() {
                let expected = count_components(&g);
                for algo in algorithms() {
                    let f = engine.run(algo.as_ref(), &g);
                    assert!(
                        is_spanning_forest(&g, &f.parents),
                        "{} on {name} (p={p}, pass={pass}): invalid forest",
                        algo.name()
                    );
                    assert_eq!(
                        f.roots.len(),
                        expected,
                        "{} on {name} (p={p}, pass={pass}): wrong component count",
                        algo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn reused_engine_matches_fresh_engines() {
    // Deterministic algorithms must produce identical output from a
    // dirty arena and a fresh one; Bader–Cong must at least agree on
    // the component partition.
    let g_a = gen::random_gnm(1_500, 2_200, 21);
    let g_b = gen::torus2d(30, 30);
    let mut reused = Engine::new(4);
    for _ in 0..3 {
        for g in [&g_a, &g_b] {
            let hcs_reused = reused.run(&Hcs, g);
            let hcs_fresh = Engine::new(4).run(&Hcs, g);
            assert_eq!(
                hcs_reused.parents, hcs_fresh.parents,
                "HCS output drifted on a reused workspace"
            );
            let bc = reused.run(&BaderCong::with_defaults(), g);
            assert_eq!(
                components_from_forest(&bc.parents).labels,
                components_from_forest(&hcs_fresh.parents).labels.clone(),
                "component partitions disagree"
            );
        }
    }
}

#[test]
fn shrinking_then_growing_graphs_keep_prefix_discipline() {
    // Alternate big/small so every run's live prefix differs from the
    // previous run's; stale suffix data must never surface.
    let mut engine = Engine::new(3);
    let sizes = [4_000usize, 64, 2_048, 16, 1_000];
    for (i, &n) in sizes.iter().enumerate() {
        let g = gen::random_gnm(n, 2 * n, i as u64);
        let f = engine.run(&BaderCong::with_defaults(), &g);
        assert_eq!(
            f.parents.len(),
            n,
            "parents sized to the graph, not the arena"
        );
        assert!(is_spanning_forest(&g, &f.parents), "n={n}");
        assert_eq!(f.roots.len(), count_components(&g));
    }
}

#[test]
fn engine_backs_the_application_layer() {
    // The biconnectivity pipeline runs both halves (forest + auxiliary
    // connectivity) on one shared engine.
    let mut engine = Engine::new(4);
    let g = gen::random_gnm(300, 500, 9);
    let algo = BaderCong::with_defaults();
    let via_engine = biconnected_components(&mut engine, &algo, &g);
    let fresh = biconnected_components(&mut Engine::new(4), &algo, &g);
    assert_eq!(via_engine.num_blocks, fresh.num_blocks);
    assert_eq!(via_engine.articulation_points, fresh.articulation_points);
}

#[test]
fn every_algorithm_honours_a_fired_token_then_runs_clean() {
    // The one-`run` contract: a token fired before the run ends it with
    // `Err(Cancelled)`, and the same team and workspace then produce a
    // valid forest.
    let g = gen::random_gnm(2_000, 3_000, 17);
    let expected = count_components(&g);
    let fired = CancelToken::new();
    fired.cancel();
    for p in [1usize, 4] {
        let mut engine = Engine::new(p);
        let (exec, ws) = engine.parts_mut();
        for algo in algorithms() {
            let name = algo.name();
            assert_eq!(
                algo.run(&g, exec, ws, &fired).err(),
                Some(Cancelled),
                "{name} (p={p}) ignored a fired token"
            );
            let f = algo
                .run(&g, exec, ws, &CancelToken::none())
                .unwrap_or_else(|_| panic!("{name} (p={p}): inert token cancelled"));
            assert!(
                is_spanning_forest(&g, &f.parents),
                "{name} (p={p}): invalid forest after a cancelled run"
            );
            assert_eq!(f.roots.len(), expected, "{name} (p={p})");
        }
    }
}
