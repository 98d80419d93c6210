//! Mesh scenario: connectivity and spanning forests of damaged meshes.
//!
//! "Computational science applications for physics-based simulations and
//! computer vision commonly use mesh-based graphs" (§4). This example
//! plays a simulation code whose 2D/3D meshes have randomly failed
//! links (the paper's 2D60 / 3D40 families): it computes the connected
//! components (how did the domain fragment?), a spanning forest per
//! fragment (communication trees), and shows the degree-2 preprocessing
//! paying off on corridor-like fragments.
//!
//! ```text
//! cargo run --release --example mesh_physics
//! ```

use bader_cong_spanning::prelude::*;
use st_graph::preprocess::eliminate_degree2;

fn main() {
    let p = 4;
    // One persistent team across both mesh families.
    let mut engine = Engine::new(p);

    for (name, g) in [
        (
            "2D60 (256x256 mesh, 60% links alive)",
            gen::mesh2d_p(256, 256, 0.6, 11),
        ),
        (
            "3D40 (40x40x40 mesh, 40% links alive)",
            gen::mesh3d_p(40, 40, 40, 0.4, 11),
        ),
    ] {
        println!("\n== {name}");
        println!(
            "   {} cells, {} intact links",
            g.num_vertices(),
            g.num_edges()
        );

        // How did the domain fragment?
        let forest = engine.run(&BaderCong::with_defaults(), &g);
        assert!(is_spanning_forest(&g, &forest.parents));
        let cc = components_from_forest(&forest.parents);
        let mut sizes = cc.sizes();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        println!(
            "   fragments: {} — largest {:.1}% of cells, next {:?}",
            cc.count,
            100.0 * sizes[0] as f64 / g.num_vertices() as f64,
            &sizes[1..sizes.len().min(6)]
        );

        // Communication trees: one root per fragment is already what the
        // spanning forest encodes.
        println!(
            "   spanning forest: {} tree edges across {} trees (stats: {} steals, imbalance {:.2})",
            forest.num_tree_edges(),
            forest.num_trees(),
            forest.stats.metrics.get(Counter::Steals),
            forest.stats.metrics.load_imbalance()
        );

        // Degree-2 preprocessing: damaged meshes grow corridors of
        // degree-2 cells that the §2 optimization removes up front.
        let red = eliminate_degree2(&g);
        let stats = red.stats();
        println!(
            "   degree-2 elimination: {} cells removed in {} chains ({:.1}% of the graph)",
            stats.eliminated,
            stats.chains,
            100.0 * stats.eliminated as f64 / g.num_vertices() as f64
        );
        let cfg = Config {
            deg2_preprocess: true,
            ..Config::default()
        };
        let pre = BaderCong::new(cfg);
        let f2 = engine.run(&pre, &g);
        assert!(is_spanning_forest(&g, &f2.parents));
        assert_eq!(f2.num_trees(), forest.num_trees());
        println!("   preprocessed run agrees on the fragment structure ✓");
    }
}
