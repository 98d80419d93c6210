//! Determinism guarantees across the workspace.
//!
//! Reproducibility is a deliverable: generators, simulators, and the
//! deterministic algorithms must replay bit-identically from their
//! seeds; the racy algorithm must be *semantically* stable (same
//! component structure) even though tree shapes may differ.

use bader_cong_spanning::prelude::*;
use st_bench::workloads::Workload;
use st_model::sim::{
    simulate_bader_cong, simulate_sequential_bfs, simulate_sv, simulate_sv_lock, TraversalSimConfig,
};
use st_model::MachineProfile;

#[test]
fn all_workload_builders_are_deterministic() {
    for w in Workload::fig4_panels()
        .into_iter()
        .chain([Workload::RandomM15])
    {
        let a = w.build(1_000, 99);
        let b = w.build(1_000, 99);
        assert_eq!(a, b, "{} not deterministic", w.id());
    }
}

#[test]
fn every_generator_distinguishes_seeds() {
    // Seed changes must actually change randomized outputs.
    assert_ne!(gen::random_gnm(200, 300, 1), gen::random_gnm(200, 300, 2));
    assert_ne!(gen::mesh2d_p(20, 20, 0.5, 1), gen::mesh2d_p(20, 20, 0.5, 2));
    assert_ne!(gen::ad3(200, 1), gen::ad3(200, 2));
    assert_ne!(
        gen::watts_strogatz(100, 2, 0.3, 1),
        gen::watts_strogatz(100, 2, 0.3, 2)
    );
    assert_ne!(
        gen::rmat(8, 4, gen::RmatParams::standard(), 1),
        gen::rmat(8, 4, gen::RmatParams::standard(), 2)
    );
}

#[test]
fn simulators_replay_bit_identically() {
    let g = Workload::RandomNLogN.build(1_500, 5);
    let machine = MachineProfile::e4500();
    let a = simulate_bader_cong(&g, 6, TraversalSimConfig::default(), &machine);
    let b = simulate_bader_cong(&g, 6, TraversalSimConfig::default(), &machine);
    assert_eq!(a.report, b.report);
    assert_eq!(a.parents, b.parents);
    assert_eq!(
        simulate_sv(&g, 6, &machine).report,
        simulate_sv(&g, 6, &machine).report
    );
    assert_eq!(
        simulate_sv_lock(&g, 6, &machine).report,
        simulate_sv_lock(&g, 6, &machine).report
    );
    assert_eq!(
        simulate_sequential_bfs(&g, &machine).0,
        simulate_sequential_bfs(&g, &machine).0
    );
}

#[test]
fn sequential_algorithms_are_deterministic() {
    let g = Workload::Mesh2D60.build(2_000, 3);
    assert_eq!(seq::bfs_forest(&g).parents, seq::bfs_forest(&g).parents);
    assert_eq!(seq::dfs_forest(&g).parents, seq::dfs_forest(&g).parents);
}

#[test]
fn hcs_and_boruvka_are_schedule_independent() {
    let g = gen::random_gnm(800, 1_400, 4);
    let mut h1 = st_core::hcs::hcs_core(&g, 1).tree_edges;
    let mut h8 = st_core::hcs::hcs_core(&g, 8).tree_edges;
    h1.sort_unstable();
    h8.sort_unstable();
    assert_eq!(h1, h8);

    let wg = st_graph::WeightedGraph::with_random_weights(&g, 100, 5);
    let mut b1 = mst::boruvka(&wg, 1).tree_edges;
    let mut b8 = mst::boruvka(&wg, 8).tree_edges;
    b1.sort_unstable();
    b8.sort_unstable();
    assert_eq!(b1, b8);
}

#[test]
fn racy_algorithm_is_semantically_stable() {
    // Across p and runs, tree SHAPE may differ but the component
    // partition may not.
    let g = Workload::Ad3.build(2_000, 6);
    let reference = st_core::connected::components_from_forest(
        &Engine::new(1).run(&BaderCong::with_defaults(), &g).parents,
    );
    for p in [2usize, 4, 8] {
        for run in 0..3 {
            let f = Engine::new(p).run(&BaderCong::with_defaults(), &g);
            let cc = st_core::connected::components_from_forest(&f.parents);
            assert_eq!(cc.count, reference.count, "p={p} run={run}");
        }
    }
}

#[test]
fn model_predictions_are_stable_quantities() {
    // The EXPERIMENTS.md numbers must be reproducible: pin a couple of
    // exact invariants of the default-seed workloads (counts, not
    // floats).
    let g = Workload::RandomM15.build(1 << 12, 42);
    assert_eq!(g.num_vertices(), 1 << 12);
    assert_eq!(g.num_edges(), 3 << 11);
    let machine = MachineProfile::e4500();
    let sv1 = simulate_sv(&g, 8, &machine);
    let sv2 = simulate_sv(&g, 8, &machine);
    assert_eq!(sv1.iterations, sv2.iterations);
    assert_eq!(sv1.shortcut_rounds, sv2.shortcut_rounds);
    assert_eq!(sv1.tree_edges, sv2.tree_edges);
}
