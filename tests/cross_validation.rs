//! Cross-crate integration: every algorithm, on every paper workload,
//! across processor counts, validated against the sequential oracle.

use bader_cong_spanning::prelude::*;
use st_bench::workloads::Workload;
use st_core::hcs;
use st_graph::validate::{check_spanning_forest, count_components};

const N: usize = 2_048;
const SEED: u64 = 1234;

fn all_workloads() -> Vec<Workload> {
    Workload::fig4_panels()
        .into_iter()
        .chain([Workload::RandomM15])
        .collect()
}

#[test]
fn bader_cong_valid_on_every_workload_and_p() {
    for w in all_workloads() {
        let g = w.build(N, SEED);
        let reference = count_components(&g);
        for p in [1usize, 2, 3, 4, 8] {
            let f = Engine::new(p).run(&BaderCong::with_defaults(), &g);
            let check = check_spanning_forest(&g, &f.parents);
            assert!(check.is_valid(), "{} p={p}: {check:?}", w.id());
            assert_eq!(f.num_trees(), reference, "{} p={p}", w.id());
        }
    }
}

#[test]
fn sv_valid_on_every_workload() {
    for w in all_workloads() {
        let g = w.build(N, SEED);
        let reference = count_components(&g);
        for p in [1usize, 2, 4] {
            let f = Engine::new(p).run(&sv::Sv::new(SvConfig::default()), &g);
            assert!(is_spanning_forest(&g, &f.parents), "sv {} p={p}", w.id());
            assert_eq!(f.num_trees(), reference, "sv {} p={p}", w.id());
        }
    }
}

#[test]
fn sv_lock_variant_valid_on_every_workload() {
    let cfg = SvConfig {
        variant: GraftVariant::Lock,
    };
    for w in all_workloads() {
        let g = w.build(N, SEED);
        let f = Engine::new(4).run(&sv::Sv::new(cfg), &g);
        assert!(is_spanning_forest(&g, &f.parents), "sv-lock {}", w.id());
        assert_eq!(f.num_trees(), count_components(&g), "sv-lock {}", w.id());
    }
}

#[test]
fn hcs_valid_on_every_workload() {
    for w in all_workloads() {
        let g = w.build(N, SEED);
        let f = Engine::new(4).run(&hcs::Hcs, &g);
        assert!(is_spanning_forest(&g, &f.parents), "hcs {}", w.id());
        assert_eq!(f.num_trees(), count_components(&g), "hcs {}", w.id());
    }
}

#[test]
fn sequential_baselines_agree() {
    for w in all_workloads() {
        let g = w.build(N, SEED);
        let bfs = seq::bfs_forest(&g);
        let dfs = seq::dfs_forest(&g);
        assert!(is_spanning_forest(&g, &bfs.parents), "bfs {}", w.id());
        assert!(is_spanning_forest(&g, &dfs.parents), "dfs {}", w.id());
        assert_eq!(bfs.num_trees(), dfs.num_trees(), "{}", w.id());
    }
}

#[test]
fn components_agree_between_algorithms() {
    let mut engine = Engine::new(4);
    for w in [Workload::Mesh2D60, Workload::Ad3, Workload::GeoFlat] {
        let g = w.build(N, SEED);
        let (exec, ws) = engine.parts_mut();
        let from_sv = connected_components(&g, exec, ws);
        let forest = engine.run(&BaderCong::with_defaults(), &g);
        let from_forest = components_from_forest(&forest.parents);
        assert_eq!(from_sv.count, from_forest.count, "{}", w.id());
        // Partitions match up to relabeling.
        let mut map = std::collections::HashMap::new();
        for v in 0..g.num_vertices() {
            let pair = map
                .entry(from_sv.labels[v])
                .or_insert(from_forest.labels[v]);
            assert_eq!(*pair, from_forest.labels[v], "{} vertex {v}", w.id());
        }
    }
}

#[test]
fn spanning_tree_entry_point_on_connected_workloads() {
    let mut engine = Engine::new(4);
    for w in [
        Workload::TorusRowMajor,
        Workload::ChainSeq,
        Workload::GeoHier,
    ] {
        let g = w.build(N, SEED);
        if count_components(&g) != 1 {
            continue;
        }
        let root = (g.num_vertices() / 2) as VertexId;
        let t = BaderCong::with_defaults()
            .spanning_tree(&mut engine, &g, root)
            .expect("connected graph must yield a tree");
        assert!(is_spanning_tree(&g, &t, root), "{}", w.id());
    }
}

#[test]
fn preprocessing_composes_with_every_workload() {
    let cfg = Config {
        deg2_preprocess: true,
        ..Config::default()
    };
    for w in all_workloads() {
        let g = w.build(N, SEED);
        let f = Engine::new(4).run(&BaderCong::new(cfg.clone()), &g);
        assert!(is_spanning_forest(&g, &f.parents), "deg2 {}", w.id());
        assert_eq!(f.num_trees(), count_components(&g), "deg2 {}", w.id());
    }
}

#[test]
fn starvation_fallback_composes_with_every_workload() {
    // Arm an aggressive detector everywhere; whether or not it fires,
    // the result must stay valid.
    let cfg = Config {
        traversal: TraversalConfig {
            starvation_threshold: Some(3),
            ..TraversalConfig::default()
        },
        ..Config::default()
    };
    for w in all_workloads() {
        let g = w.build(N, SEED);
        let f = Engine::new(4).run(&BaderCong::new(cfg.clone()), &g);
        assert!(
            is_spanning_forest(&g, &f.parents),
            "fallback {} (fired: {})",
            w.id(),
            f.stats.fallback_triggered
        );
        assert_eq!(f.num_trees(), count_components(&g), "fallback {}", w.id());
    }
}
