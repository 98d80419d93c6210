//! Minimum spanning forest — the paper's future-work extension.
//!
//! Weighted mesh and random graphs, parallel Borůvka vs sequential
//! Kruskal, with cross-validation of the forest weights.
//!
//! ```text
//! cargo run --release --example minimum_spanning_forest
//! ```

use bader_cong_spanning::prelude::*;
use st_graph::WeightedGraph;

fn main() {
    let p = 4;
    // One persistent team for Borůvka and the orientation check.
    let mut engine = Engine::new(p);

    for (name, g) in [
        (
            "random graph (n = 50k, m = 100k)",
            gen::random_gnm(50_000, 100_000, 3),
        ),
        ("2D torus 224x224", gen::torus2d(224, 224)),
        ("AD3 geometric (n = 50k)", gen::ad3(50_000, 3)),
    ] {
        // Random integer weights; a geometric application would use
        // distances instead.
        let wg = WeightedGraph::with_random_weights(&g, 1_000_000, 7);
        println!(
            "\n== {name}: {} vertices, {} weighted edges",
            wg.num_vertices(),
            wg.num_edges()
        );

        let s = std::time::Instant::now();
        let k = mst::kruskal(&wg);
        let k_ms = s.elapsed().as_secs_f64() * 1e3;

        let (exec, ws) = engine.parts_mut();
        let s = std::time::Instant::now();
        let b = mst::boruvka(&wg, exec, ws);
        let b_ms = s.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            k.total_weight, b.total_weight,
            "Kruskal and Boruvka must agree on the MSF weight"
        );
        println!(
            "   kruskal: {:>8.1} ms | boruvka(p={p}): {:>8.1} ms in {} iterations",
            k_ms,
            b_ms,
            b.metrics.get(Counter::GraftIterations)
        );
        println!(
            "   forest: {} edges, total weight {} (verified equal) ✓",
            b.tree_edges.len(),
            b.total_weight
        );

        // The Boruvka forest is also a valid spanning forest of the
        // topology — reuse the spanning-tree machinery to check.
        let parents = st_core::orient::orient_forest(wg.num_vertices(), &b.tree_edges, exec, ws);
        assert!(is_spanning_forest(wg.topology(), &parents));
        println!("   orientation + spanning-forest validation ✓");
    }
}
