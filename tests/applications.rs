//! Integration tests for the application layer built on spanning trees:
//! biconnectivity, ear decomposition, MST, and the subgraph pipeline —
//! including the skewed-degree inputs that stress work stealing hardest.

use bader_cong_spanning::prelude::*;
use st_core::biconnected::biconnected_components;
use st_core::ears::{ear_decomposition, EarError};
use st_graph::gen::RmatParams;
use st_graph::subgraph::largest_component;
use st_graph::validate::count_components;
use st_graph::WeightedGraph;

#[test]
fn rmat_hubs_do_not_break_any_algorithm() {
    let g = gen::rmat(12, 8, RmatParams::standard(), 3);
    let reference = count_components(&g);
    for p in [1usize, 4, 8] {
        let f = Engine::new(p).run(&BaderCong::with_defaults(), &g);
        assert!(is_spanning_forest(&g, &f.parents), "bader-cong p={p}");
        assert_eq!(f.num_trees(), reference);
    }
    let f = Engine::new(4).run(&sv::Sv::new(SvConfig::default()), &g);
    assert!(is_spanning_forest(&g, &f.parents), "sv");
    let f = Engine::new(4).run(&st_core::hcs::Hcs, &g);
    assert!(is_spanning_forest(&g, &f.parents), "hcs");
}

#[test]
fn small_world_sweep_across_beta() {
    for beta in [0.0, 0.05, 0.5, 1.0] {
        let g = gen::watts_strogatz(2_000, 3, beta, 7);
        let f = Engine::new(4).run(&BaderCong::with_defaults(), &g);
        assert!(is_spanning_forest(&g, &f.parents), "beta = {beta}");
    }
}

#[test]
fn giant_component_pipeline() {
    // Extract the giant component of a damaged mesh, compute a spanning
    // tree of it, and lift the parents back to original ids.
    let g = gen::mesh2d_p(60, 60, 0.55, 9);
    let sub = largest_component(&g);
    assert_eq!(count_components(&sub.graph), 1);
    let tree = BaderCong::with_defaults()
        .spanning_tree(&sub.graph, 0, 4)
        .expect("giant component is connected");
    assert!(is_spanning_tree(&sub.graph, &tree, 0));
    let lifted = sub.lift_parents(&tree);
    // Every lifted parent edge exists in the original mesh.
    for (v, &p) in lifted.iter().enumerate() {
        if p != NO_VERTEX {
            assert!(g.neighbors(v as u32).contains(&p));
        }
    }
}

#[test]
fn biconnectivity_of_the_giant_component() {
    let g = gen::geographic_flat(3_000, gen::GeoFlatParams::with_target_degree(3_000, 4.0), 4);
    let sub = largest_component(&g);
    let bc = biconnected_components(&sub.graph, 4);
    // Sanity: every bridge's removal must disconnect; spot-check a few
    // against the component count.
    let base = count_components(&sub.graph);
    for &(u, v) in bc.bridges.iter().take(5) {
        let mut el = EdgeList::new(sub.graph.num_vertices());
        for (a, b) in sub.graph.edges() {
            let is_target = (a == u && b == v) || (a == v && b == u);
            if !is_target {
                el.push(a, b);
            }
        }
        let h = CsrGraph::from_edge_list(&el);
        assert!(count_components(&h) > base, "({u}, {v}) is not a bridge");
    }
}

#[test]
fn ear_decomposition_of_biconnected_core() {
    // Torus: biconnected; ear count = m - n + 1.
    let g = gen::torus2d(12, 12);
    let ed = ear_decomposition(&g, 4).expect("torus is 2-edge-connected");
    assert_eq!(ed.len(), g.num_edges() - g.num_vertices() + 1);
    assert_eq!(ed.num_edges(), g.num_edges());
}

#[test]
fn ear_decomposition_rejects_what_it_must() {
    assert!(matches!(
        ear_decomposition(&gen::chain(10), 2),
        Err(EarError::HasBridge(_, _))
    ));
    assert!(matches!(
        ear_decomposition(&CsrGraph::empty(4), 2),
        Err(EarError::Empty)
    ));
}

#[test]
fn mst_pipeline_on_scale_free_graph() {
    let g = gen::rmat(11, 6, RmatParams::standard(), 5);
    let wg = WeightedGraph::with_random_weights(&g, 10_000, 6);
    let k = mst::kruskal(&wg);
    let b = mst::boruvka(&wg, 4);
    assert_eq!(k.total_weight, b.total_weight);
    assert_eq!(k.tree_edges.len(), g.num_vertices() - count_components(&g));
}

#[test]
fn workload_profiles_describe_topologies() {
    use st_graph::stats::profile;
    // The paper's performance story in numbers: chains have huge
    // diameter, random graphs tiny, hubs exist only in the scale-free
    // extension.
    let chain_profile = profile(&gen::chain(2_000));
    assert_eq!(chain_profile.diameter_lb, 1_999);
    let random_profile = profile(&gen::random_gnm(2_000, 12_000, 1));
    assert!(random_profile.diameter_lb <= 6);
    let rmat_profile = profile(&gen::rmat(11, 8, RmatParams::standard(), 2));
    assert!(rmat_profile.max_degree > 10 * random_profile.max_degree);
}

#[test]
fn lca_supports_path_queries_on_spanning_trees() {
    use st_core::tree::Lca;
    let g = gen::random_connected(1_000, 500, 8);
    let t = BaderCong::with_defaults().spanning_tree(&g, 0, 4).unwrap();
    let lca = Lca::new(&t);
    // Tree-path length between u and v = depth(u) + depth(v) -
    // 2*depth(lca); must be >= the BFS distance in the graph.
    let dist = st_graph::stats::bfs_distances(&g, 0);
    for v in [10u32, 100, 500, 999] {
        let l = lca.lca(0, v);
        assert_eq!(l, 0, "root is an ancestor of everything");
        let path_len = lca.depth(v);
        assert!(path_len >= dist[v as usize]);
    }
}
