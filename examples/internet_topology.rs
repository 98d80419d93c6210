//! Internet-topology scenario: spanning trees over geographic graphs.
//!
//! The paper motivates geographic graphs with "research on properties of
//! wide-area networks [that] model the structure of the Internet"
//! (Calvert–Doar–Zegura). This example plays a network operator
//! computing a broadcast/spanning backbone over both geographic modes,
//! compares labeling-sensitive SV against the labeling-oblivious new
//! algorithm, and reports tree quality (depth) per algorithm.
//!
//! ```text
//! cargo run --release --example internet_topology
//! ```

use bader_cong_spanning::prelude::*;
use st_graph::validate::forest_depths;

fn analyze(name: &str, g: &CsrGraph, engine: &mut Engine) {
    println!(
        "\n== {name}: {} routers, {} links, {:.2} mean degree",
        g.num_vertices(),
        g.num_edges(),
        g.degree_stats().mean
    );

    // The new algorithm.
    let started = std::time::Instant::now();
    let forest = engine.run(&BaderCong::with_defaults(), g);
    let bc_time = started.elapsed();
    assert!(is_spanning_forest(g, &forest.parents));

    // SV for comparison, on the same persistent team.
    let sv_algo = sv::Sv::new(SvConfig::default());
    let started = std::time::Instant::now();
    let sv_forest = engine.run(&sv_algo, g);
    let sv_time = started.elapsed();
    assert!(is_spanning_forest(g, &sv_forest.parents));

    // Both must agree on the component structure.
    assert_eq!(forest.num_trees(), sv_forest.num_trees());

    let depth = |parents: &[VertexId]| forest_depths(parents).into_iter().max().unwrap_or(0);
    println!(
        "  bader-cong: {:>8.1} ms, {} trees, max depth {:>4}, {} steals",
        bc_time.as_secs_f64() * 1e3,
        forest.num_trees(),
        depth(&forest.parents),
        forest.stats.metrics.get(Counter::Steals)
    );
    println!(
        "  sv:         {:>8.1} ms, {} trees, max depth {:>4}, {} iterations",
        sv_time.as_secs_f64() * 1e3,
        sv_forest.num_trees(),
        depth(&sv_forest.parents),
        sv_forest.stats.metrics.get(Counter::GraftIterations)
    );
}

fn main() {
    let p = 4;
    // One persistent team for the whole scenario.
    let mut engine = Engine::new(p);

    // Flat mode: one administrative level, distance-dependent links.
    let flat = gen::geographic_flat(
        60_000,
        gen::GeoFlatParams::with_target_degree(60_000, 4.0),
        7,
    );
    analyze("geographic, flat mode", &flat, &mut engine);

    // Hierarchical mode: backbone -> domains -> subdomains, like
    // transit and stub ASes.
    let params = gen::GeoHierParams::with_approx_n(60_000);
    let hier = gen::geographic_hier(params, 7);
    analyze("geographic, hierarchical mode", &hier, &mut engine);

    // The labeling experiment on the hierarchical graph: random vertex
    // ids model routers numbered in arrival order rather than by
    // topology. SV's iteration count reacts; the new algorithm does not
    // care.
    let perm = random_permutation(hier.num_vertices(), 99);
    let shuffled = relabel(&hier, &perm);
    println!("\n== same hierarchical graph, randomly relabeled");
    let sv_algo = sv::Sv::new(SvConfig::default());
    let sv_row = engine.run(&sv_algo, &shuffled);
    println!(
        "  sv iterations: {} (vs {} with construction order)",
        sv_row.stats.metrics.get(Counter::GraftIterations),
        engine
            .run(&sv_algo, &hier)
            .stats
            .metrics
            .get(Counter::GraftIterations)
    );
    let f = engine.run(&BaderCong::with_defaults(), &shuffled);
    assert!(is_spanning_forest(&shuffled, &f.parents));
    println!("  bader-cong: unaffected by labeling (validated)");
}
