//! Property-based tests (proptest) over arbitrary graphs.
//!
//! Graphs are generated from arbitrary edge lists — including self-loops
//! and duplicates that the builder must clean — so these properties
//! exercise inputs no hand-written case covers.

use proptest::prelude::*;

use bader_cong_spanning::prelude::*;
use st_core::hcs;
use st_graph::label::{inverse_permutation, unrelabel_parents};
use st_graph::preprocess::eliminate_degree2;
use st_graph::validate::{count_components, forest_depths};

/// Strategy: a simple graph with 1..=60 vertices and arbitrary edges.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..60).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..120).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            b.extend(edges);
            b.build()
        })
    })
}

/// Strategy: a connected simple graph (random attachment tree + extras).
fn arb_connected_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..60, 0usize..80, any::<u64>()).prop_map(|(n, extra, seed)| {
        let max_extra = n * (n - 1) / 2 - (n - 1);
        gen::random_connected(n, extra.min(max_extra), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bader_cong_always_produces_valid_forests(g in arb_graph(), p in 1usize..5) {
        let f = Engine::new(p).run(&BaderCong::with_defaults(), &g);
        prop_assert!(is_spanning_forest(&g, &f.parents));
        prop_assert_eq!(f.num_trees(), count_components(&g));
    }

    #[test]
    fn sv_always_produces_valid_forests(g in arb_graph(), p in 1usize..5) {
        let f = Engine::new(p).run(&sv::Sv::new(SvConfig::default()), &g);
        prop_assert!(is_spanning_forest(&g, &f.parents));
        prop_assert_eq!(f.num_trees(), count_components(&g));
    }

    #[test]
    fn hcs_always_produces_valid_forests(g in arb_graph(), p in 1usize..5) {
        let f = Engine::new(p).run(&hcs::Hcs, &g);
        prop_assert!(is_spanning_forest(&g, &f.parents));
        prop_assert_eq!(f.num_trees(), count_components(&g));
    }

    #[test]
    fn hcs_is_deterministic_across_p(g in arb_graph()) {
        let mut a = hcs::hcs_core(&g, 1).tree_edges;
        let mut b = hcs::hcs_core(&g, 4).tree_edges;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn tree_edge_count_is_n_minus_components(g in arb_graph()) {
        let f = Engine::new(3).run(&BaderCong::with_defaults(), &g);
        let c = count_components(&g);
        prop_assert_eq!(f.num_tree_edges(), g.num_vertices() - c);
    }

    #[test]
    fn relabeling_preserves_validity_and_structure(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let perm = random_permutation(g.num_vertices(), seed);
        let h = relabel(&g, &perm);
        prop_assert_eq!(count_components(&g), count_components(&h));
        let f = Engine::new(2).run(&BaderCong::with_defaults(), &h);
        prop_assert!(is_spanning_forest(&h, &f.parents));
        // A forest of the relabeled graph maps back to a forest of the
        // original.
        let back = unrelabel_parents(&f.parents, &perm);
        prop_assert!(is_spanning_forest(&g, &back));
    }

    #[test]
    fn permutation_inverse_roundtrips(n in 1usize..200, seed in any::<u64>()) {
        let p = random_permutation(n, seed);
        let inv = inverse_permutation(&p);
        for v in 0..n {
            prop_assert_eq!(inv[p[v] as usize] as usize, v);
        }
    }

    #[test]
    fn degree2_elimination_roundtrips(g in arb_graph()) {
        let red = eliminate_degree2(&g);
        prop_assert_eq!(
            count_components(&red.reduced),
            count_components(&g),
            "reduction changed the component count"
        );
        let inner = seq::bfs_forest(&red.reduced);
        let expanded = red.expand_parents(&inner.parents);
        prop_assert!(is_spanning_forest(&g, &expanded));
    }

    #[test]
    fn spanning_tree_depths_bounded_by_n(g in arb_connected_graph(), p in 1usize..4) {
        let f = Engine::new(p).run(&BaderCong::with_defaults(), &g);
        prop_assert!(is_spanning_forest(&g, &f.parents));
        let depths = forest_depths(&f.parents);
        prop_assert!(depths.iter().all(|&d| (d as usize) < g.num_vertices()));
    }

    #[test]
    fn bfs_tree_depths_are_graph_eccentricity_optimal(g in arb_connected_graph()) {
        // BFS from root 0 gives shortest-path depths; every other
        // spanning tree's depth from the same root is >= each vertex's
        // BFS depth.
        let bfs = seq::bfs_tree(&g, 0).unwrap();
        let bfs_d = forest_depths(&bfs);
        let f = BaderCong::with_defaults().spanning_tree(&g, 0, 3).unwrap();
        let d = forest_depths(&f);
        for v in 0..g.num_vertices() {
            prop_assert!(d[v] >= bfs_d[v], "vertex {v}: {} < {}", d[v], bfs_d[v]);
        }
    }

    #[test]
    fn csr_roundtrips_through_edge_list(g in arb_graph()) {
        let el = g.to_edge_list();
        let h = CsrGraph::from_edge_list(&el);
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = h.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn io_roundtrips(g in arb_graph()) {
        let mut buf = Vec::new();
        st_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let h = st_graph::io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g.num_vertices(), h.num_vertices());
        prop_assert_eq!(g.num_edges(), h.num_edges());
    }

    #[test]
    fn connected_components_match_reference(g in arb_graph(), p in 1usize..5) {
        let cc = connected_components(&g, p);
        let reference = st_graph::validate::component_labels(&g);
        prop_assert_eq!(cc.count as u32, reference.iter().copied().max().map_or(0, |x| x + 1));
        let mut map = std::collections::HashMap::new();
        for (&l, &r) in cc.labels.iter().zip(reference.iter()) {
            let expect = map.entry(l).or_insert(r);
            prop_assert_eq!(*expect, r);
        }
    }
}

/// Brute-force bridge oracle for small graphs.
fn bridges_brute(g: &CsrGraph) -> Vec<(VertexId, VertexId)> {
    let base = count_components(g);
    let mut out = Vec::new();
    for (u, v) in g.edges() {
        let mut el = EdgeList::new(g.num_vertices());
        for (a, b) in g.edges() {
            if (a, b) != (u, v) {
                el.push(a, b);
            }
        }
        if count_components(&CsrGraph::from_edge_list(&el)) > base {
            out.push((u, v));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn biconnectivity_bridges_match_brute_force(g in arb_graph()) {
        let bc = st_core::biconnected::biconnected_components(&g, 2);
        let mut got: Vec<(VertexId, VertexId)> = bc
            .bridges
            .iter()
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        got.sort_unstable();
        let mut want = bridges_brute(&g);
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn ear_decomposition_of_cycle_with_chords(
        n in 4usize..40,
        chords in proptest::collection::vec((0u32..40, 0u32..40), 0..25),
    ) {
        // Cycle + chords is always 2-edge-connected.
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId {
            b.add_edge(v, (v + 1) % n as VertexId);
        }
        for (a, c) in chords {
            let (a, c) = (a % n as u32, c % n as u32);
            if a != c {
                b.add_edge(a, c);
            }
        }
        let g = b.build();
        let ed = st_core::ears::ear_decomposition(&g, 2).unwrap();
        prop_assert_eq!(ed.len(), g.num_edges() - g.num_vertices() + 1);
        prop_assert_eq!(ed.num_edges(), g.num_edges());
    }

    #[test]
    fn parallel_csr_build_matches_sequential(g in arb_graph()) {
        let el = g.to_edge_list();
        let par = CsrGraph::from_edge_list_parallel(&el);
        prop_assert_eq!(par.num_edges(), g.num_edges());
        for v in g.vertices() {
            let mut a = g.neighbors(v).to_vec();
            a.sort_unstable();
            prop_assert_eq!(par.neighbors(v), &a[..]);
        }
    }

    #[test]
    fn largest_component_is_connected_and_maximal(g in arb_graph()) {
        let sub = st_graph::subgraph::largest_component(&g);
        if sub.graph.num_vertices() > 0 {
            prop_assert_eq!(count_components(&sub.graph), 1);
        }
        // No component can be larger.
        let labels = st_graph::validate::component_labels(&g);
        let mut sizes = std::collections::HashMap::new();
        for &l in &labels {
            *sizes.entry(l).or_insert(0usize) += 1;
        }
        let max = sizes.values().copied().max().unwrap_or(0);
        prop_assert_eq!(sub.graph.num_vertices(), max);
    }

    #[test]
    fn mst_weights_agree(g in arb_graph(), seed in any::<u64>(), p in 1usize..4) {
        let wg = st_graph::WeightedGraph::with_random_weights(&g, 1000, seed);
        let k = st_core::mst::kruskal(&wg);
        let b = st_core::mst::boruvka(&wg, p);
        prop_assert_eq!(k.total_weight, b.total_weight);
        prop_assert_eq!(k.tree_edges.len(), b.tree_edges.len());
    }
}

proptest! {
    // The threaded fallback path is slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn multiroot_driver_always_produces_valid_forests(g in arb_graph(), p in 1usize..5) {
        let f = Engine::new(p).run(&Multiroot::new(TraversalConfig::default()), &g);
        prop_assert!(is_spanning_forest(&g, &f.parents));
        prop_assert_eq!(f.num_trees(), count_components(&g));
    }

    #[test]
    fn armed_detector_never_breaks_correctness(g in arb_graph(), p in 2usize..5) {
        let cfg = Config {
            traversal: TraversalConfig {
                starvation_threshold: Some(p - 1),
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        let f = Engine::new(p).run(&BaderCong::new(cfg.clone()), &g);
        prop_assert!(is_spanning_forest(&g, &f.parents));
        prop_assert_eq!(f.num_trees(), count_components(&g));
    }
}
