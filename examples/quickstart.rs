//! Quickstart: build a graph, compute a parallel spanning forest,
//! verify it, and look at the execution statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bader_cong_spanning::prelude::*;

fn main() {
    // The paper's headline input (Fig. 3): a random graph with
    // m = 1.5 n edges. 100k vertices keeps this instant.
    let n = 100_000;
    let g = gen::random_gnm(n, 3 * n / 2, 42);
    println!(
        "graph: {} vertices, {} edges, mean degree {:.2}",
        g.num_vertices(),
        g.num_edges(),
        g.degree_stats().mean
    );

    // The Bader-Cong algorithm: stub spanning tree + work-stealing
    // traversal, here with 4 processors. The engine owns a persistent
    // team plus reusable scratch; `engine.run(&algo, &g)` reuses both
    // (a cancellable run calls `algo.run` on `engine.parts_mut()` with
    // a `CancelToken`).
    let p = 4;
    let mut engine = Engine::new(p);
    let started = std::time::Instant::now();
    let forest = engine.run(&BaderCong::with_defaults(), &g);
    let elapsed = started.elapsed();

    // Always verify: the crate ships the oracle the tests use.
    assert!(is_spanning_forest(&g, &forest.parents));
    println!(
        "spanning forest: {} trees, {} tree edges, valid ✓ ({:.1} ms with p = {p})",
        forest.num_trees(),
        forest.num_tree_edges(),
        elapsed.as_secs_f64() * 1e3
    );

    // The statistics the paper reports on.
    println!(
        "stats: {} vertices colored concurrently by >1 processor (paper: <10 per millions), \
         {} steals moving {} queue items, load imbalance {:.2}",
        forest.stats.metrics.get(Counter::MultiColored),
        forest.stats.metrics.get(Counter::Steals),
        forest.stats.metrics.get(Counter::StolenItems),
        forest.stats.metrics.load_imbalance()
    );

    // The same parent array answers connectivity questions.
    let cc = components_from_forest(&forest.parents);
    println!(
        "connected components: {} (largest has {} vertices)",
        cc.count,
        cc.sizes().into_iter().max().unwrap_or(0)
    );

    // Compare against the best sequential algorithm (BFS), as the paper
    // does.
    let started = std::time::Instant::now();
    let seq_forest = seq::bfs_forest(&g);
    println!(
        "sequential BFS: {} trees in {:.1} ms",
        seq_forest.num_trees(),
        started.elapsed().as_secs_f64() * 1e3
    );
}
