//! Algorithm shootout: every implementation against every input family.
//!
//! Runs the sequential baselines (BFS, DFS), the Bader–Cong algorithm,
//! both SV grafting variants, and HCS across all ten Fig. 4 workloads,
//! cross-validating that every algorithm agrees on the component
//! structure, and printing a compact timing matrix for the host.
//!
//! ```text
//! cargo run --release --example algorithm_shootout [log2_n] [p]
//! ```

use bader_cong_spanning::prelude::*;
use st_bench::workloads::Workload;
use st_core::hcs::Hcs;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(13);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let n = 1usize << scale;

    println!("n ≈ 2^{scale}, p = {p}; times in milliseconds\n");
    println!(
        "{:<15} {:>9} {:>10} | {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} | {:>6}",
        "workload", "n", "m", "bfs", "dfs", "bc", "sv", "sv-lock", "hcs", "comps"
    );

    // One persistent team serves every parallel algorithm and workload:
    // threads spawn once, scratch is recycled.
    let mut engine = Engine::new(p);
    let bc = BaderCong::with_defaults();
    let sv_election = sv::Sv::new(SvConfig::default());
    let sv_lock = sv::Sv::new(SvConfig {
        variant: GraftVariant::Lock,
    });

    for w in Workload::fig4_panels() {
        let g = w.build(n, 42);
        let time = |f: &dyn Fn() -> SpanningForest| {
            let s = std::time::Instant::now();
            let forest = f();
            let ms = s.elapsed().as_secs_f64() * 1e3;
            assert!(
                is_spanning_forest(&g, &forest.parents),
                "{} produced an invalid forest",
                w.id()
            );
            (ms, forest.num_trees())
        };
        let mut time_job = |algo: &dyn SpanningAlgorithm| {
            let s = std::time::Instant::now();
            let forest = engine.run(algo, &g);
            let ms = s.elapsed().as_secs_f64() * 1e3;
            assert!(
                is_spanning_forest(&g, &forest.parents),
                "{} produced an invalid forest",
                w.id()
            );
            (ms, forest.num_trees())
        };

        let (bfs_ms, comps) = time(&|| seq::bfs_forest(&g));
        let (dfs_ms, c2) = time(&|| seq::dfs_forest(&g));
        let (bc_ms, c3) = time_job(&bc);
        let (sv_ms, c4) = time_job(&sv_election);
        let (svl_ms, c5) = time_job(&sv_lock);
        let (hcs_ms, c6) = time_job(&Hcs);

        // Every algorithm must agree on the number of components.
        for (name, c) in [
            ("dfs", c2),
            ("bc", c3),
            ("sv", c4),
            ("sv-lock", c5),
            ("hcs", c6),
        ] {
            assert_eq!(c, comps, "{name} disagrees on components for {}", w.id());
        }

        println!(
            "{:<15} {:>9} {:>10} | {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} | {:>6}",
            w.id(),
            g.num_vertices(),
            g.num_edges(),
            bfs_ms,
            dfs_ms,
            bc_ms,
            sv_ms,
            svl_ms,
            hcs_ms,
            comps
        );
    }

    println!("\nAll algorithms validated and agree on component structure ✓");
    println!("(Wall-clock numbers on this host; figure shapes come from the model");
    println!(" executor — see `cargo run -p st-bench --release --bin figures`.)");
}
