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
    // Stub absorption means no parallel rounds at all -> at most the
    // final session barrier pair.
    assert!(f.stats.barriers <= 2, "barriers = {}", f.stats.barriers);
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
        ..SvConfig::default()
    };
    let f = Engine::new(8).run(&sv::Sv::new(cfg), &g);
    assert!(is_spanning_forest(&g, &f.parents));
}

#[test]
fn multiroot_driver_under_oversubscription() {
    // Heavily disconnected input, more threads than cores, repeated:
    // the no-barrier driver with concurrent root claiming and deferred
    // merging must stay correct under every interleaving.
    let g = gen::mesh2d_p(50, 50, 0.55, 13);
    let reference = count_components(&g);
    for seed in 0..6 {
        let cfg = TraversalConfig {
            seed,
            ..TraversalConfig::default()
        };
        let f = Engine::new(8).run(&Multiroot::new(cfg), &g);
        assert!(is_spanning_forest(&g, &f.parents), "seed {seed}");
        assert_eq!(f.num_trees(), reference, "seed {seed}");
    }
}

#[test]
fn multiroot_matches_round_driver_everywhere() {
    use st_bench::workloads::Workload;
    for w in Workload::fig4_panels() {
        let g = w.build(1_500, 11);
        let round = Engine::new(4).run(&BaderCong::with_defaults(), &g);
        let multi = Engine::new(4).run(&Multiroot::new(TraversalConfig::default()), &g);
        assert!(is_spanning_forest(&g, &multi.parents), "{}", w.id());
        assert_eq!(round.num_trees(), multi.num_trees(), "{}", w.id());
    }
}
