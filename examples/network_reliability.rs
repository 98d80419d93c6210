//! Network reliability: biconnectivity on Internet-like topologies.
//!
//! The paper's opening motivation: the spanning tree is "an important
//! building block for many graph algorithms, for example, biconnected
//! components". This example runs the full pipeline — parallel spanning
//! forest (Bader–Cong) → Tarjan–Vishkin auxiliary graph → parallel
//! connectivity (SV) — to find the single points of failure in
//! geographic network models: bridge links and articulation routers.
//!
//! ```text
//! cargo run --release --example network_reliability
//! ```

use bader_cong_spanning::prelude::*;

fn analyze(name: &str, g: &CsrGraph, engine: &mut Engine) {
    let p = engine.processors();
    let started = std::time::Instant::now();
    let bc = biconnected_components(engine, &BaderCong::with_defaults(), g);
    let ms = started.elapsed().as_secs_f64() * 1e3;

    let n = g.num_vertices();
    println!("\n== {name}");
    println!("   {} routers, {} links", n, g.num_edges());
    println!(
        "   {} biconnected components, {} bridge links, {} articulation routers ({:.1} ms, p = {p})",
        bc.num_blocks,
        bc.bridges.len(),
        bc.articulation_points.len(),
        ms
    );
    let frac_bridges = 100.0 * bc.bridges.len() as f64 / g.num_edges().max(1) as f64;
    let frac_arts = 100.0 * bc.articulation_points.len() as f64 / n.max(1) as f64;
    println!(
        "   exposure: {frac_bridges:.1}% of links are single points of failure; \
         {frac_arts:.1}% of routers are cut vertices"
    );
}

fn main() {
    // One persistent team for every network.
    let mut engine = Engine::new(4);

    // Flat geographic model at two densities: sparser networks have
    // far more single points of failure.
    for target_degree in [3.0, 6.0] {
        let g = gen::geographic_flat(
            30_000,
            gen::GeoFlatParams::with_target_degree(30_000, target_degree),
            5,
        );
        analyze(
            &format!("flat geographic network, mean degree ≈ {target_degree}"),
            &g,
            &mut engine,
        );
    }

    // Hierarchical model: the tree-like transit structure makes almost
    // every inter-level link a bridge.
    let g = gen::geographic_hier(gen::GeoHierParams::with_approx_n(30_000), 5);
    analyze("hierarchical geographic network", &g, &mut engine);

    // A torus has no single point of failure at all.
    analyze(
        "2D torus (fully redundant fabric)",
        &gen::torus2d(100, 100),
        &mut engine,
    );
}
