//! The `dynamic-updates` benchmark: incremental forest maintenance vs
//! full recompute-per-batch on the service's batch-update path.
//!
//! ```text
//! dynamic_updates [--scale L] [--seed S] [--batches K] [--cores C]
//!                 [--sizes B,B,..] [--out FILE]
//! ```
//!
//! One `random_gnm(n = 2^L, m = 1.5 n)` graph is registered in a
//! service catalog, then mutated by `K` batches of each size `B`, twice
//! over:
//!
//! * `incremental` — the service is built with a recompute fraction
//!   above 1, so [`Service::apply`] always repairs the maintained
//!   forest in place, on the applying thread (a union-find over the
//!   touched components for inserts, replacement-edge search for
//!   deletes);
//! * `recompute` — the recompute fraction is 0, so every batch falls
//!   back to rerunning the static spanning-tree algorithm over the
//!   post-batch snapshot, as a dispatcher job that passes admission
//!   like any read.
//!
//! Both modes replay the *same* deterministic batch stream (three
//! random insertions to one deletion of a previously inserted edge),
//! and each mode's final component count is checked against a
//! sequential BFS oracle over the materialized final graph. The report
//! (default `BENCH_dynamic.json`) records per-size mean batch latency
//! for both modes, their speedup, and the *crossover batch size*: the
//! smallest `B` where incremental maintenance stops beating recompute
//! (`null` when incremental wins at every measured size).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use st_graph::gen::random_gnm;
use st_graph::{CsrGraph, EdgeBatch, VertexId};
use st_service::Service;

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: dynamic_updates [--scale L] [--seed S] [--batches K] [--cores C] \
         [--sizes B,B,..] [--out FILE]"
    );
    std::process::exit(2)
}

struct Opts {
    scale: u32,
    seed: u64,
    batches: usize,
    cores: usize,
    sizes: Vec<usize>,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        scale: 16,
        seed: 42,
        batches: 8,
        cores: 8,
        sizes: vec![1, 4, 16, 64, 256, 1024, 4096, 16384, 65536],
        out: PathBuf::from("BENCH_dynamic.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match a.as_str() {
            "--scale" => {
                opts.scale = need("--scale needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--scale must be an integer"))
            }
            "--seed" => {
                opts.seed = need("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--batches" => {
                opts.batches = need("--batches needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--batches must be an integer"))
            }
            "--cores" => {
                opts.cores = need("--cores needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--cores must be an integer"))
            }
            "--sizes" => {
                opts.sizes = need("--sizes needs a value")
                    .split(',')
                    .map(|b| {
                        b.trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--sizes must be a comma list of sizes"))
                    })
                    .collect()
            }
            "--out" => opts.out = PathBuf::from(need("--out needs a value")),
            other => usage(&format!("unknown option {other}")),
        }
    }
    opts
}

/// xorshift64*: deterministic, dependency-free stream for the batches.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn vertex(&mut self, n: usize) -> VertexId {
        (self.next() % n as u64) as VertexId
    }
}

/// The deterministic batch stream both modes replay: three random
/// insertions to one deletion of an edge a previous batch inserted.
fn batch_stream(n: usize, batches: usize, size: usize, seed: u64) -> Vec<EdgeBatch> {
    let mut rng = Rng(seed | 1);
    let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = EdgeBatch::new();
        for op in 0..size {
            if op % 4 == 3 && !inserted.is_empty() {
                let i = (rng.next() % inserted.len() as u64) as usize;
                let (u, v) = inserted.swap_remove(i);
                batch = batch.delete(u, v);
            } else {
                let (u, v) = (rng.vertex(n), rng.vertex(n));
                if u != v {
                    inserted.push((u, v));
                    batch = batch.insert(u, v);
                }
            }
        }
        out.push(batch);
    }
    out
}

/// Applies `stream` to a fresh service in the given maintenance mode,
/// returning per-batch latencies (seconds) and the final component
/// count the maintainer reports. An untimed empty batch first seeds
/// the service's forest maintainer (one default read job), so no timed
/// batch pays for it.
fn run_mode(
    base: &Arc<CsrGraph>,
    cores: usize,
    recompute_fraction: f64,
    stream: &[EdgeBatch],
) -> (Vec<f64>, usize, u64) {
    let svc = Service::builder()
        .cores(cores)
        .dyn_recompute_fraction(recompute_fraction)
        .build();
    let gref = svc.catalog().register(Arc::clone(base));
    svc.apply(gref.id, &EdgeBatch::new())
        .expect("the seeding batch applies");
    let mut lats = Vec::with_capacity(stream.len());
    let mut components = 0;
    let mut incremental_batches = 0u64;
    for batch in stream {
        let t0 = Instant::now();
        let report = svc.apply(gref.id, batch).expect("batch applies");
        lats.push(t0.elapsed().as_secs_f64());
        components = report.components;
        incremental_batches += u64::from(report.incremental);
    }
    // Oracle: a sequential BFS over the materialized final graph must
    // see the same component count the maintainer reports.
    let (final_graph, _) = svc
        .catalog()
        .resolve_latest(gref.id)
        .expect("graph still registered");
    let oracle = st_graph::validate::count_components(&final_graph);
    assert_eq!(
        components, oracle,
        "maintained component count diverged from the BFS oracle"
    );
    svc.shutdown();
    (lats, components, incremental_batches)
}

#[derive(Clone, Debug, Serialize)]
struct SizeResult {
    batch_size: usize,
    incremental_mean_ms: f64,
    recompute_mean_ms: f64,
    /// recompute / incremental: above 1 means incremental wins.
    speedup: f64,
    components: usize,
}

#[derive(Clone, Debug, Serialize)]
struct DynamicReport {
    benchmark: String,
    workload: String,
    n: usize,
    m: usize,
    cores: usize,
    batches_per_size: usize,
    host_parallelism: usize,
    sizes: Vec<SizeResult>,
    /// Smallest measured batch size where incremental maintenance is no
    /// longer faster than recompute-per-batch; `null` when incremental
    /// won at every measured size.
    crossover_batch: Option<usize>,
}

fn mean_ms(lats: &[f64]) -> f64 {
    if lats.is_empty() {
        return 0.0;
    }
    lats.iter().sum::<f64>() / lats.len() as f64 * 1e3
}

fn main() {
    let opts = parse_args();
    let n = 1usize << opts.scale;
    let m = n + n / 2;
    let base = Arc::new(random_gnm(n, m, opts.seed));
    eprintln!(
        "dynamic-updates: n = {n}, m = {m}, {} cores, {} batches per size",
        opts.cores, opts.batches
    );

    let mut sizes = Vec::with_capacity(opts.sizes.len());
    for &size in &opts.sizes {
        let stream = batch_stream(n, opts.batches, size, opts.seed ^ size as u64);
        // recompute_fraction above 1: the repair budget is unbounded,
        // so every batch takes the incremental path.
        let (inc_lats, inc_components, inc_count) = run_mode(&base, opts.cores, 2.0, &stream);
        assert_eq!(
            inc_count,
            stream.len() as u64,
            "incremental mode fell back to recompute"
        );
        // recompute_fraction 0: every batch recomputes from scratch.
        let (rec_lats, rec_components, rec_count) = run_mode(&base, opts.cores, 0.0, &stream);
        assert_eq!(rec_count, 0, "recompute mode took the incremental path");
        assert_eq!(
            inc_components, rec_components,
            "modes disagreed on the final component count"
        );
        let result = SizeResult {
            batch_size: size,
            incremental_mean_ms: mean_ms(&inc_lats),
            recompute_mean_ms: mean_ms(&rec_lats),
            speedup: mean_ms(&rec_lats) / mean_ms(&inc_lats).max(1e-9),
            components: inc_components,
        };
        eprintln!(
            "  B = {:>6}: incremental {:.3} ms, recompute {:.3} ms, speedup {:.2}x",
            size, result.incremental_mean_ms, result.recompute_mean_ms, result.speedup
        );
        sizes.push(result);
    }

    let crossover_batch = sizes
        .iter()
        .find(|s| s.speedup <= 1.0)
        .map(|s| s.batch_size);
    let report = DynamicReport {
        benchmark: "dynamic-updates".into(),
        workload: format!("random_gnm(2^{}, 1.5n) + mixed batches", opts.scale),
        n,
        m,
        cores: opts.cores,
        batches_per_size: opts.batches,
        host_parallelism: std::thread::available_parallelism().map_or(1, |c| c.get()),
        sizes,
        crossover_batch,
    };
    match crossover_batch {
        Some(b) => eprintln!("crossover: incremental stops winning at B = {b}"),
        None => eprintln!("crossover: none — incremental won at every measured size"),
    }
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, json).expect("writing the report");
    eprintln!("wrote {}", opts.out.display());
}
