//! Ablation benchmarks for the design choices called out in DESIGN.md §7.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use st_bench::workloads::Workload;
use st_core::bader_cong::{BaderCong, Config};
use st_core::sv::{self, GraftVariant, SvConfig};
use st_core::traversal::TraversalConfig;
use st_core::Engine;
use st_graph::preprocess::eliminate_degree2;
use st_smp::StealPolicy;

fn scale() -> usize {
    // Typed env parsing: a malformed ST_BENCH_SCALE aborts the bench
    // run instead of silently reverting to the default scale.
    let cfg = st_core::RuntimeConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
    1usize << cfg.bench_scale.unwrap_or(12)
}

/// `ablate_steal`: steal-half vs steal-one vs fixed chunks.
fn ablate_steal(c: &mut Criterion) {
    let g = Workload::RandomM15.build(scale(), 7);
    let mut group = c.benchmark_group("ablate_steal");
    group.sample_size(10);
    for (name, policy) in [
        ("half", StealPolicy::Half),
        ("one", StealPolicy::One),
        ("chunk16", StealPolicy::Chunk(16)),
    ] {
        let cfg = Config {
            traversal: TraversalConfig {
                steal_policy: policy,
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| Engine::new(4).run(&BaderCong::new(cfg.clone()), &g))
        });
    }
    group.finish();
}

/// `ablate_stub`: stub tree length O(p) (the paper) vs longer stubs.
fn ablate_stub(c: &mut Criterion) {
    let g = Workload::RandomM15.build(scale(), 7);
    let mut group = c.benchmark_group("ablate_stub");
    group.sample_size(10);
    for factor in [1usize, 2, 8, 32] {
        let cfg = Config {
            stub_factor: factor,
            ..Config::default()
        };
        group.bench_with_input(BenchmarkId::new("factor", factor), &cfg, |b, cfg| {
            b.iter(|| Engine::new(4).run(&BaderCong::new(cfg.clone()), &g))
        });
    }
    group.finish();
}

/// `lockvariant`: SV election grafting vs per-root locks (CLAIM-LOCK).
fn ablate_sv_grafting(c: &mut Criterion) {
    let g = Workload::RandomM15.build(scale(), 7);
    let mut group = c.benchmark_group("ablate_sv_grafting");
    group.sample_size(10);
    for (name, variant) in [
        ("election", GraftVariant::Election),
        ("lock", GraftVariant::Lock),
    ] {
        let cfg = SvConfig { variant };
        group.bench_function(name, |b| {
            b.iter(|| Engine::new(4).run(&sv::Sv::new(cfg), &g))
        });
    }
    group.finish();
}

/// `ablate_deg2`: degree-2 chain elimination on a chain-heavy input.
fn ablate_deg2(c: &mut Criterion) {
    // A dense core with long chains hanging off it: the configuration
    // the preprocessing targets.
    let n = scale();
    let g = {
        let mut el = st_graph::EdgeList::new(n);
        let core = 32.min(n as u32);
        for u in 0..core {
            for v in (u + 1)..core {
                el.push(u, v);
            }
        }
        for v in core..n as u32 {
            // Chains of length 64 rooted round-robin on the core.
            let prev = if (v - core) % 64 == 0 {
                (v - core) % core
            } else {
                v - 1
            };
            el.push(prev, v);
        }
        st_graph::CsrGraph::from_edge_list(&el)
    };
    let mut group = c.benchmark_group("ablate_deg2");
    group.sample_size(10);
    for (name, pre) in [("off", false), ("on", true)] {
        let cfg = Config {
            deg2_preprocess: pre,
            ..Config::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| Engine::new(4).run(&BaderCong::new(cfg.clone()), &g))
        });
    }
    // The reduction step alone, for attribution.
    group.bench_function("reduction_only", |b| b.iter(|| eliminate_degree2(&g)));
    group.finish();
}

/// `ablate_frontier`: the two-level work-stealing frontier. Sweeps the
/// publication threshold from the paper's publish-everything protocol
/// (threshold 1) to publish-never (sleeper-driven only). The committed
/// baseline numbers live in BENCH_traversal.json (see the
/// `traversal-frontier` bin).
fn ablate_frontier(c: &mut Criterion) {
    let g = Workload::RandomM15.build(scale(), 7);
    let mut group = c.benchmark_group("ablate_frontier");
    group.sample_size(10);
    for (name, threshold) in [
        ("paper1", 1usize),
        ("t8", 8),
        ("t64", 64),
        ("never", usize::MAX),
    ] {
        let cfg = Config {
            traversal: TraversalConfig {
                publish_threshold: threshold,
                ..TraversalConfig::default()
            },
            ..Config::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| Engine::new(4).run(&BaderCong::new(cfg.clone()), &g))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablate_steal,
    ablate_stub,
    ablate_sv_grafting,
    ablate_deg2,
    ablate_frontier
);
criterion_main!(benches);
