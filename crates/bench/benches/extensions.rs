//! Benchmarks of the future-work extensions (minimum spanning forest).

use criterion::{criterion_group, criterion_main, Criterion};
use st_bench::workloads::Workload;
use st_core::{mst, Engine};
use st_graph::WeightedGraph;

fn scale() -> usize {
    // Typed env parsing: a malformed ST_BENCH_SCALE aborts the bench
    // run instead of silently reverting to the default scale.
    let cfg = st_core::RuntimeConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
    1usize << cfg.bench_scale.unwrap_or(12)
}

fn bench_mst(c: &mut Criterion) {
    let g = Workload::RandomM15.build(scale(), 5);
    let wg = WeightedGraph::with_random_weights(&g, 1_000_000, 9);
    let mut group = c.benchmark_group("mst");
    group.sample_size(10);
    group.bench_function("kruskal", |b| b.iter(|| mst::kruskal(&wg)));
    for p in [1usize, 4] {
        let mut engine = Engine::new(p);
        let (exec, ws) = engine.parts_mut();
        group.bench_function(format!("boruvka_p{p}"), |b| {
            b.iter(|| mst::boruvka(&wg, exec, ws))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mst);
criterion_main!(benches);
