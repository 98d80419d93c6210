//! Concurrency stress: oversubscription, repeated runs, adversarial
//! configurations. On the single-core CI host every thread interleaving
//! is scheduler-driven, which is exactly the hostile environment these
//! tests want.

use bader_cong_spanning::prelude::*;
use st_graph::validate::count_components;

#[test]
fn oversubscribed_teams() {
    // Far more threads than cores; the yielding barrier and detector
    // must still terminate and produce valid forests.
    let g = gen::random_connected(3_000, 2_000, 5);
    for p in [8usize, 16] {
        let f = Engine::new(p).run(&BaderCong::with_defaults(), &g);
        assert!(is_spanning_forest(&g, &f.parents), "p = {p}");
    }
}

#[test]
fn barrier_yield_path_under_heavy_oversubscription() {
    // p far above any CI core count: every barrier episode forces
    // waiters through the Backoff yield path (spinning alone can never
    // finish an episode when the last arrival isn't scheduled), and the
    // saturating spin counters must survive arbitrarily long waits.
    use bader_cong_spanning::smp::{BarrierToken, DisseminationBarrier, SenseBarrier};
    use std::sync::atomic::{AtomicUsize, Ordering};
    const P: usize = 32;
    const EPISODES: usize = 40;

    let barrier = SenseBarrier::new(P);
    let phase = AtomicUsize::new(0);
    let leaders = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..P {
            s.spawn(|| {
                let token = BarrierToken::new();
                for e in 0..EPISODES {
                    phase.fetch_add(1, Ordering::SeqCst);
                    if barrier.wait(&token) {
                        leaders.fetch_add(1, Ordering::SeqCst);
                    }
                    // All P arrivals of episode e are in; at most P-1
                    // threads raced ahead into episode e+1.
                    let seen = phase.load(Ordering::SeqCst);
                    assert!(
                        seen >= P * (e + 1) && seen < P * (e + 2),
                        "episode {e}: phase {seen} out of range"
                    );
                }
            });
        }
    });
    assert_eq!(barrier.generations(), EPISODES as u64);
    assert_eq!(
        leaders.load(Ordering::SeqCst),
        EPISODES,
        "one leader per episode"
    );

    let dissem = DisseminationBarrier::new(P);
    let phase = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (dissem, phase) = (&dissem, &phase);
        for id in 0..P {
            s.spawn(move || {
                let token = dissem.token(id);
                for e in 0..EPISODES {
                    phase.fetch_add(1, Ordering::SeqCst);
                    dissem.wait(&token);
                    let seen = phase.load(Ordering::SeqCst);
                    assert!(
                        seen >= P * (e + 1) && seen < P * (e + 2),
                        "episode {e}: phase {seen} out of range"
                    );
                }
            });
        }
    });
}

#[test]
fn repeated_runs_are_all_valid() {
    // The benign race means tree *shape* may differ run to run; validity
    // and component structure may not.
    let g = gen::random_gnm(2_000, 3_000, 9);
    let reference = count_components(&g);
    for i in 0..20 {
        let cfg = Config {
            traversal: TraversalConfig {
                seed: i,
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        let f = Engine::new(4).run(&BaderCong::new(cfg.clone()), &g);
        assert!(is_spanning_forest(&g, &f.parents), "run {i}");
        assert_eq!(f.num_trees(), reference, "run {i}");
    }
}

#[test]
fn sv_repeated_runs_are_all_valid() {
    let g = gen::mesh2d_p(40, 40, 0.55, 3);
    let reference = count_components(&g);
    for _ in 0..10 {
        let f = Engine::new(4).run(&sv::Sv::new(SvConfig::default()), &g);
        assert!(is_spanning_forest(&g, &f.parents));
        assert_eq!(f.num_trees(), reference);
    }
}

#[test]
fn tiny_idle_timeout_stress() {
    // A near-zero idle timeout maximizes detector churn (sleep/wake
    // cycles) without changing semantics.
    let g = gen::random_connected(2_000, 1_000, 1);
    let cfg = Config {
        traversal: TraversalConfig {
            idle_timeout: std::time::Duration::from_micros(1),
            ..TraversalConfig::default()
        },
        ..Config::default()
    };
    for _ in 0..5 {
        let f = Engine::new(8).run(&BaderCong::new(cfg.clone()), &g);
        assert!(is_spanning_forest(&g, &f.parents));
    }
}

#[test]
fn aggressive_starvation_threshold_on_mixed_graph() {
    // Threshold 2 of 8: fires almost immediately on anything
    // non-expander; the fallback must still deliver.
    let mut el = EdgeList::new(12_000);
    for v in 1..10_000u32 {
        el.push(v - 1, v); // long chain
    }
    for v in 10_001..12_000u32 {
        el.push(10_000, v); // plus a star
    }
    el.push(9_999, 10_000);
    let g = CsrGraph::from_edge_list(&el);
    let cfg = Config {
        traversal: TraversalConfig {
            starvation_threshold: Some(2),
            ..TraversalConfig::default()
        },
        ..Config::default()
    };
    for _ in 0..3 {
        let f = Engine::new(8).run(&BaderCong::new(cfg.clone()), &g);
        assert!(is_spanning_forest(&g, &f.parents));
        assert_eq!(f.num_trees(), 1);
    }
}

#[test]
fn steal_one_policy_under_oversubscription() {
    let g = gen::star(4_000);
    let cfg = Config {
        traversal: TraversalConfig {
            steal_policy: StealPolicy::One,
            ..TraversalConfig::default()
        },
        ..Config::default()
    };
    let f = Engine::new(8).run(&BaderCong::new(cfg.clone()), &g);
    assert!(is_spanning_forest(&g, &f.parents));
}

/// Traversal rounds the forest driver ran: every rank records one
/// traverse span per round.
fn driver_rounds(m: &JobMetrics) -> u64 {
    let traverse = m.phases.iter().find(|t| t.phase == Phase::Traverse);
    traverse.map_or(0, |t| t.count) / m.p as u64
}

#[test]
fn many_tiny_components_in_one_session() {
    // 1000 components of size <= 3: exercises the stub-absorption path
    // under threads.
    let mut el = EdgeList::new(3_000);
    for c in 0..1_000u32 {
        el.push(3 * c, 3 * c + 1);
        el.push(3 * c + 1, 3 * c + 2);
    }
    let g = CsrGraph::from_edge_list(&el);
    let f = Engine::new(4).run(&BaderCong::with_defaults(), &g);
    assert!(is_spanning_forest(&g, &f.parents));
    assert_eq!(f.num_trees(), 1_000);
    // Stub absorption means no parallel rounds at all: each rank passes
    // only the session's closing barrier.
    let m = &f.stats.metrics;
    assert_eq!(driver_rounds(m), 0);
    assert!(m.per_rank.iter().all(|s| s.get(Counter::Barriers) == 1));
}

#[test]
fn walk_budget_boundary_under_repeated_seeds() {
    // Chains and stars of B − 1, B and B + 1 vertices among isolated
    // vertices, shuffled so roots and components interleave: the
    // budgeted walk finishes the small ones in the driver, and only
    // components the walk cannot exhaust (B or more vertices) get a
    // two-barrier round.
    use bader_cong_spanning::core::bader_cong::WALK_BUDGET as B;
    let mut el = EdgeList::new(6 * B + 40);
    let mut start = 0u32;
    for len in [B - 1, B, B + 1] {
        for i in 1..len as u32 {
            el.push(start + i - 1, start + i);
        }
        start += len as u32;
        for i in 1..len as u32 {
            el.push(start, start + i);
        }
        start += len as u32;
    }
    let plain = CsrGraph::from_edge_list(&el);
    let shuffled = relabel(&plain, &random_permutation(plain.num_vertices(), 5));
    for g in [&plain, &shuffled] {
        for p in [1usize, 2, 4] {
            let mut engine = Engine::new(p);
            for seed in 0..8 {
                let cfg = Config {
                    traversal: TraversalConfig {
                        seed,
                        ..TraversalConfig::default()
                    },
                    ..Config::default()
                };
                let f = engine.run(&BaderCong::new(cfg), g);
                assert!(is_spanning_forest(g, &f.parents), "p = {p} seed {seed}");
                assert_eq!(f.roots.len(), 6 + 40, "p = {p} seed {seed}");
                assert_eq!(driver_rounds(&f.stats.metrics), 4, "p = {p} seed {seed}");
            }
        }
    }
}

#[test]
fn sv_and_hcs_orient_without_a_round_per_component() {
    // SV and HCS emit undirected tree edges, and orientation runs them
    // through the Bader–Cong forest driver: the walk finishes every tree
    // of fewer than B vertices, so only larger trees get a traversal
    // round, whatever the number of components.
    use bader_cong_spanning::core::bader_cong::WALK_BUDGET as B;
    use bader_cong_spanning::core::hcs::Hcs;
    use bader_cong_spanning::graph::dsu::DisjointSets;
    let n = 1 << 14;
    let sparse = gen::random_gnm(n, 3 * n / 2, 11);
    // 2000 isolated vertices, then chains of 2 to 9 vertices.
    let mut el = EdgeList::new(6_000);
    let mut v = 2_000u32;
    for len in (2..10u32).cycle() {
        if v + len > 6_000 {
            break;
        }
        for i in 1..len {
            el.push(v + i - 1, v + i);
        }
        v += len;
    }
    let tiny = CsrGraph::from_edge_list(&el);
    for (name, g) in [("sparse", &sparse), ("tiny", &tiny)] {
        let mut dsu = DisjointSets::new(g.num_vertices());
        for (a, b) in g.edges() {
            dsu.union(a, b);
        }
        let mut size = vec![0usize; g.num_vertices()];
        for v in 0..g.num_vertices() as VertexId {
            size[dsu.find(v) as usize] += 1;
        }
        let components = size.iter().filter(|&&s| s > 0).count();
        // Components the walk cannot exhaust (B ≥ 2p for these teams).
        let big = size.iter().filter(|&&s| s >= B).count() as u64;
        assert!(components > 500, "{name}: test graph lost its shape");
        for p in [1usize, 2, 4] {
            let mut engine = Engine::new(p);
            let algos: [(&str, &dyn SpanningAlgorithm); 2] =
                [("sv", &sv::Sv::new(SvConfig::default())), ("hcs", &Hcs)];
            for (algo, a) in algos {
                let f = engine.run(a, g);
                assert!(is_spanning_forest(g, &f.parents), "{name} {algo} p = {p}");
                assert_eq!(f.roots.len(), components, "{name} {algo} p = {p}");
                // One round per big tree; a hybrid round re-enters
                // top-down after each bottom-up phase.
                let rounds = f.stats.metrics.get(Counter::RoundsTopDown);
                assert!(
                    rounds <= 3 * big,
                    "{name} {algo} p = {p}: {rounds} top-down rounds for {big} big trees"
                );
            }
        }
    }
}

#[test]
fn publish_threshold_sweep() {
    // The two-level frontier across its whole operating range: the
    // paper's publish-everything protocol (1), small and default
    // thresholds, and publish-never (sleeper-driven donation only),
    // on the three canonical topologies, oversubscribed.
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("star", gen::star(4_000)),
        ("chain", gen::chain(4_000)),
        ("random", gen::random_connected(4_000, 8_000, 17)),
    ];
    for (name, g) in &graphs {
        for threshold in [1usize, 8, 64, usize::MAX] {
            for p in [2usize, 4, 8] {
                let cfg = Config {
                    traversal: TraversalConfig {
                        publish_threshold: threshold,
                        ..TraversalConfig::default()
                    },
                    ..Config::default()
                };
                let f = Engine::new(p).run(&BaderCong::new(cfg.clone()), g);
                let root = f
                    .parents
                    .iter()
                    .position(|&pv| pv == NO_VERTEX)
                    .expect("a connected input must yield a root")
                    as VertexId;
                assert!(
                    is_spanning_tree(g, &f.parents, root),
                    "{name}: threshold = {threshold}, p = {p}"
                );
            }
        }
    }
}

#[test]
fn round_end_drain_with_tiny_threshold() {
    // publish_threshold = 2 maximizes shared-queue traffic, and a
    // disconnected input forces many rounds — any vertex stranded in a
    // shared queue at a round boundary would surface as a missing
    // parent or a wrong component count here.
    let g = gen::mesh2d_p(40, 40, 0.55, 7);
    let reference = count_components(&g);
    let cfg = Config {
        traversal: TraversalConfig {
            publish_threshold: 2,
            ..TraversalConfig::default()
        },
        ..Config::default()
    };
    for p in [2usize, 4, 8] {
        let f = Engine::new(p).run(&BaderCong::new(cfg.clone()), &g);
        assert!(is_spanning_forest(&g, &f.parents), "p = {p}");
        assert_eq!(f.num_trees(), reference, "p = {p}");
    }
}

#[test]
fn hcs_under_oversubscription() {
    let g = gen::random_gnm(2_000, 3_000, 11);
    let f = Engine::new(12).run(&st_core::hcs::Hcs, &g);
    assert!(is_spanning_forest(&g, &f.parents));
}

#[test]
fn sv_lock_variant_under_contention() {
    // The lock variant serializes on hot roots; correctness must hold
    // under heavy contention (star graph: every edge fights for the
    // hub's tree).
    let g = gen::star(3_000);
    let cfg = SvConfig {
        variant: GraftVariant::Lock,
    };
    let f = Engine::new(8).run(&sv::Sv::new(cfg), &g);
    assert!(is_spanning_forest(&g, &f.parents));
}

#[test]
fn parallel_forest_insert_never_hangs() {
    // Every edge of a random graph as one insert batch into an edgeless
    // forest: about 24k cross-component edges race the CAS-hook
    // union-find on the team while each rank's `find` compresses paths.
    // A compression that pointed an entry downward closed union-find
    // cycles here and left every rank spinning, so each repetition runs
    // on a worker thread behind a watchdog and a hang fails the test.
    use bader_cong_spanning::smp::Executor;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;
    const REPS: usize = 100;
    const LIMIT: Duration = Duration::from_secs(30);

    let n = 1usize << 14;
    let g = Arc::new(gen::random_gnm(n, n + n / 2, 7));
    let components = count_components(&g);
    let edgeless = CsrGraph::from_edge_list(&EdgeList::from_edges(n, Vec::new()));
    let base = Arc::new(DynForest::from_forest(&seq::bfs_forest(&edgeless)));
    let batch = Arc::new(EdgeBatch {
        inserts: g.edges().collect(),
        deletes: Vec::new(),
    });
    for p in [2usize, 4] {
        let (tx, rx) = mpsc::channel();
        let (g, base, batch) = (Arc::clone(&g), Arc::clone(&base), Arc::clone(&batch));
        // Detached on purpose: a hung team cannot be joined.
        std::thread::spawn(move || {
            let exec = Executor::new(p);
            let mut ws = Workspace::new();
            for _ in 0..REPS {
                let mut forest = (*base).clone();
                forest.apply_batch(&*g, &batch, &exec, &mut ws);
                if tx.send(forest).is_err() {
                    return;
                }
            }
        });
        for rep in 0..REPS {
            let forest = rx
                .recv_timeout(LIMIT)
                .unwrap_or_else(|e| panic!("p = {p}: repetition {rep} did not finish: {e}"));
            forest.check_invariants().unwrap();
            assert_eq!(forest.num_components(), components, "p = {p}, rep {rep}");
        }
    }
}

#[test]
fn team_prepare_keeps_the_forest_contract() {
    // The round driver's team prepare: every rank walks the small
    // components of its own page-aligned id range at once, claiming
    // vertices in the shared visited bitmap and releasing them when two
    // walks meet. Three inputs: a critical random graph (no giant
    // component, thousands of small ones and dozens of round-sized
    // ones), a 2D60 mesh, and chains of 15 vertices that take the same
    // offset in pages 1 to 15, so every chain straddles every rank
    // split and ranks scanning their first pages start walks in the
    // same chains. Each job runs on a worker thread behind a watchdog,
    // so a walk that never ends fails the test instead of hanging it.
    use bader_cong_spanning::graph::dsu::DisjointSets;
    use bader_cong_spanning::smp::Executor;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;
    const REPS: u64 = 12;
    const LIMIT: Duration = Duration::from_secs(30);
    const PAGE: u32 = 1024;

    let n = 1usize << 16;
    let mut chains = EdgeList::new(16 * PAGE as usize);
    for offset in 0..PAGE {
        for page in 2..16 {
            chains.push((page - 1) * PAGE + offset, page * PAGE + offset);
        }
    }
    let graphs = [
        ("gnm", gen::random_gnm(n, n / 2, 7)),
        ("mesh", gen::mesh2d_p(256, 256, 0.6, 7)),
        ("chains", CsrGraph::from_edge_list(&chains)),
    ];
    for (name, g) in graphs {
        let g = Arc::new(g);
        let mut dsu = DisjointSets::new(g.num_vertices());
        for (u, v) in g.edges() {
            dsu.union(u, v);
        }
        // The smallest vertex of each vertex's component.
        let mut smallest = vec![NO_VERTEX; g.num_vertices()];
        for v in (0..g.num_vertices() as VertexId).rev() {
            smallest[dsu.find(v) as usize] = v;
        }
        let smallest: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .map(|v| smallest[dsu.find(v) as usize])
            .collect();
        let components = count_components(&g);
        let start = (g.num_vertices() / 2) as VertexId;
        for p in [2usize, 4] {
            let (tx, rx) = mpsc::channel();
            let worker_g = Arc::clone(&g);
            // Detached on purpose: a hung team cannot be joined.
            std::thread::spawn(move || {
                let exec = Executor::new(p);
                let mut ws = Workspace::new();
                for rep in 0..REPS {
                    let cfg = Config {
                        traversal: TraversalConfig {
                            seed: rep,
                            ..TraversalConfig::default()
                        },
                        // Every other job roots its first tree elsewhere.
                        start_root: (rep % 2 == 1).then_some(start),
                        ..Config::default()
                    };
                    ws.reserve(worker_g.num_vertices(), worker_g.num_edges());
                    let forest = BaderCong::new(cfg)
                        .run(&worker_g, &exec, &mut ws, &CancelToken::none())
                        .expect("inert token cannot cancel");
                    if tx.send(forest).is_err() {
                        return;
                    }
                }
            });
            for rep in 0..REPS {
                let f = rx.recv_timeout(LIMIT).unwrap_or_else(|e| {
                    panic!("{name} p = {p}: repetition {rep} did not finish: {e}")
                });
                let at = format!("{name} p = {p} rep {rep}");
                assert!(is_spanning_forest(&g, &f.parents), "{at}");
                assert_eq!(f.roots.len(), components, "{at}");
                let rest = if rep % 2 == 1 {
                    assert_eq!(f.roots[0], start, "{at}: start root first");
                    &f.roots[1..]
                } else {
                    &f.roots[..]
                };
                assert!(
                    rest.windows(2).all(|w| w[0] < w[1]),
                    "{at}: roots out of order"
                );
                for &r in rest {
                    assert_eq!(f.parents[r as usize], NO_VERTEX, "{at}: {r} is no root");
                    assert_eq!(
                        r, smallest[r as usize],
                        "{at}: tree not rooted at its smallest id"
                    );
                }
            }
        }
    }
}
