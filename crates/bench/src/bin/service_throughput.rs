//! The `service-throughput` benchmark: multi-tenant job throughput of
//! the `st-service` pool, in process and behind the TCP front-end.
//!
//! ```text
//! service_throughput [--clients C] [--jobs J] [--scale L] [--seed S]
//!                    [--cores C] [--queue-cap Q] [--out FILE]
//! ```
//!
//! `C` client threads each submit `J` spanning-forest jobs over a shared
//! `random_gnm(n = 2^L, m = 1.5 n)` graph and wait for every result,
//! under three execution models:
//!
//! * `service` — one [`Service`] with the given
//!   core budget and admission-queue capacity; clients submit through
//!   the job builder and block in `wait()`.
//! * `server_cold` — the same service behind the TCP front-end: `C`
//!   loopback [`Client`] connections submit
//!   catalog-addressed jobs with per-job distinct seeds, so every job
//!   misses the result cache and executes. Measures the full wire path
//!   (framing + admission + execution + forest download).
//! * `server_hot` — identical, but every client reuses one seed, so
//!   after the first execution the result cache short-circuits every
//!   job: no queue entry, no team lease. The report asserts the hit
//!   count proves it.
//!
//! Every forest is validated for tree count; per-job latencies
//! (submit → result) give p50/p99. The report (default
//! `BENCH_service.json`) records all models and their jobs/s, plus each
//! service's final [`PoolSnapshot`] gauges.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use st_graph::gen::random_gnm;
use st_graph::CsrGraph;
use st_obs::PoolSnapshot;
use st_service::net::{Client, RemoteGraph, Server, ServerConfig, SubmitRequest};
use st_service::Service;

#[derive(Clone, Debug, Serialize)]
struct ModelResult {
    model: String,
    wall_s: f64,
    jobs_per_s: f64,
    /// Client-side stopwatch percentiles (submit → result claimed).
    p50_ms: f64,
    p99_ms: f64,
    /// Server-side percentiles from the service's own latency
    /// histograms (queue + exec wall for executed jobs, cached-path
    /// wall for the hot model). The client/server gap is the wire +
    /// framing overhead.
    server_p50_ms: f64,
    server_p99_ms: f64,
    pool: PoolSnapshot,
}

#[derive(Clone, Debug, Serialize)]
struct ServiceReport {
    benchmark: String,
    workload: String,
    n: usize,
    m: usize,
    clients: usize,
    jobs_per_client: usize,
    total_jobs: usize,
    cores: usize,
    queue_capacity: usize,
    host_parallelism: usize,
    service: ModelResult,
    server_cold: ModelResult,
    server_hot: ModelResult,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: service_throughput [--clients C] [--jobs J] [--scale L] [--seed S] \
         [--cores C] [--queue-cap Q] [--out FILE]"
    );
    std::process::exit(2)
}

struct Opts {
    clients: usize,
    jobs: usize,
    scale: u32,
    seed: u64,
    cores: usize,
    queue_cap: usize,
    out: PathBuf,
}

fn parse_args() -> Opts {
    // Defaults model the service's target regime: many small jobs from
    // many tenants, where admission, dispatch and the wire carry a large
    // share of each job. Large single jobs belong to the traversal
    // benchmarks instead.
    let mut opts = Opts {
        clients: 8,
        jobs: 100,
        scale: 9,
        seed: 42,
        cores: 8,
        queue_cap: 64,
        out: PathBuf::from("BENCH_service.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match a.as_str() {
            "--clients" => {
                opts.clients = need("--clients needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--clients must be an integer"))
            }
            "--jobs" => {
                opts.jobs = need("--jobs needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--jobs must be an integer"))
            }
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
            "--cores" => {
                opts.cores = need("--cores needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--cores must be an integer"))
            }
            "--queue-cap" => {
                opts.queue_cap = need("--queue-cap needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--queue-cap must be an integer"))
            }
            "--out" => opts.out = PathBuf::from(need("--out needs a value")),
            other => usage(&format!("unknown option {other}")),
        }
    }
    opts
}

/// Latency percentile in milliseconds; `q` in [0, 1].
fn percentile_ms(sorted_s: &[f64], q: f64) -> f64 {
    if sorted_s.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_s.len() - 1) as f64 * q).round() as usize;
    sorted_s[idx] * 1e3
}

/// Runs `clients × jobs` jobs through `run_job`, which returns the
/// number of trees in the forest it computed. Returns (wall seconds,
/// sorted per-job latencies in seconds).
fn drive<F>(clients: usize, jobs: usize, expected_trees: usize, run_job: F) -> (f64, Vec<f64>)
where
    F: Fn() -> usize + Sync,
{
    let started = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let run_job = &run_job;
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(jobs);
                    for _ in 0..jobs {
                        let t0 = Instant::now();
                        let trees = run_job();
                        lats.push(t0.elapsed().as_secs_f64());
                        assert_eq!(trees, expected_trees, "wrong forest");
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (wall, latencies)
}

/// One remote job: submit with `seed`, wait, return the tree count.
fn remote_trees(conn: &mut Client, remote: RemoteGraph, seed: u64) -> usize {
    let reply = conn
        .submit(SubmitRequest::new(remote).seed(seed))
        .expect("remote submit");
    conn.wait(reply.ticket).expect("remote wait").num_trees()
}

/// As [`drive`], but each client thread owns one TCP connection to
/// `addr`. `run_job` receives `(connection, client index, job index)`.
fn drive_server<F>(
    addr: std::net::SocketAddr,
    clients: usize,
    jobs: usize,
    expected_trees: usize,
    run_job: F,
) -> (f64, Vec<f64>)
where
    F: Fn(&mut Client, usize, usize) -> usize + Sync,
{
    let started = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let run_job = &run_job;
                s.spawn(move || {
                    let mut conn = Client::connect(addr).expect("loopback connect");
                    let mut lats = Vec::with_capacity(jobs);
                    for job in 0..jobs {
                        let t0 = Instant::now();
                        let trees = run_job(&mut conn, client, job);
                        lats.push(t0.elapsed().as_secs_f64());
                        assert_eq!(trees, expected_trees, "wrong forest");
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (wall, latencies)
}

fn model_result(
    model: &str,
    total_jobs: usize,
    wall_s: f64,
    latencies: &[f64],
    (server_p50_ns, server_p99_ns): (u64, u64),
    pool: PoolSnapshot,
) -> ModelResult {
    let r = ModelResult {
        model: model.to_owned(),
        wall_s,
        jobs_per_s: total_jobs as f64 / wall_s,
        p50_ms: percentile_ms(latencies, 0.50),
        p99_ms: percentile_ms(latencies, 0.99),
        server_p50_ms: server_p50_ns as f64 / 1e6,
        server_p99_ms: server_p99_ns as f64 / 1e6,
        pool,
    };
    eprintln!(
        "  {model:<8} {:.1} jobs/s  (wall {:.3}s, client p50 {:.2}ms / p99 {:.2}ms, \
         server p50 {:.2}ms / p99 {:.2}ms)",
        r.jobs_per_s, r.wall_s, r.p50_ms, r.p99_ms, r.server_p50_ms, r.server_p99_ms
    );
    r
}

/// p50/p99 (ns) of the service's cached-path wall histogram — the
/// server-side counterpart of the hot model's client stopwatch.
fn cached_quantiles_ns(svc: &Service) -> (u64, u64) {
    let snap = svc.telemetry().gauges().merged(st_obs::Hist::CachedWall);
    (snap.quantile(0.50), snap.quantile(0.99))
}

fn main() {
    let opts = parse_args();
    let n = 1usize << opts.scale;
    let m = 3 * n / 2;
    let total_jobs = opts.clients * opts.jobs;
    eprintln!(
        "service-throughput: random_gnm(n = {n}, m = {m}), {} clients x {} jobs, \
         {} cores, queue cap {}",
        opts.clients, opts.jobs, opts.cores, opts.queue_cap
    );
    let g: Arc<CsrGraph> = Arc::new(random_gnm(n, m, opts.seed));
    // The forest's tree count is a seed-determined constant; compute it
    // once sequentially so every timed job can be validated in O(1).
    let expected_trees = st_core::seq::bfs_forest(&g).num_trees();

    // Service model: one shared pool behind admission control.
    let svc = Service::builder()
        .cores(opts.cores)
        .queue_capacity(opts.queue_cap)
        .build();
    let (svc_wall, svc_lats) = drive(opts.clients, opts.jobs, expected_trees, || {
        let handle = svc.job(&g).submit().expect("service is open");
        handle.wait().expect("no deadline, no cancel").num_trees()
    });
    // Server-side wall quantiles must be read before shutdown consumes
    // the service.
    let svc_quantiles = svc.telemetry().wall_quantiles();
    let snapshot = svc.shutdown();
    let service = model_result(
        "service",
        total_jobs,
        svc_wall,
        &svc_lats,
        svc_quantiles,
        snapshot,
    );

    // Server models: the same pool behind the TCP front-end, driven by
    // `clients` concurrent loopback connections.
    let (server_cold, server_hot) = {
        let svc = Arc::new(
            Service::builder()
                .cores(opts.cores)
                .queue_capacity(opts.queue_cap)
                .result_cache_capacity(opts.clients * opts.jobs + 1)
                .build(),
        );
        let server = Server::start(Arc::clone(&svc), ServerConfig::default())
            .expect("binding a loopback port");
        let remote = Client::connect(server.local_addr())
            .expect("connect")
            .register(&g)
            .expect("register");

        // Cold: per-client, per-job unique seeds — every job misses the
        // cache and runs a real traversal over the wire path.
        let (cold_wall, cold_lats) = drive_server(
            server.local_addr(),
            opts.clients,
            opts.jobs,
            expected_trees,
            |conn, client, job| remote_trees(conn, remote, 1 + (client * opts.jobs + job) as u64),
        );
        let cold_snapshot = svc.snapshot();
        let cold_hits = cold_snapshot.cache_hits;
        assert_eq!(cold_hits, 0, "cold pass must never hit the cache");
        let server_cold = model_result(
            "server_cold",
            total_jobs,
            cold_wall,
            &cold_lats,
            svc.telemetry().wall_quantiles(),
            cold_snapshot,
        );

        // Hot: one shared seed — after at most a few racing cold runs,
        // every job is a cache hit that bypasses queue and pool.
        let (hot_wall, hot_lats) = drive_server(
            server.local_addr(),
            opts.clients,
            opts.jobs,
            expected_trees,
            |conn, _, _| remote_trees(conn, remote, 0),
        );
        let hot_snapshot = svc.snapshot();
        let hot_hits = hot_snapshot.cache_hits - cold_hits;
        assert!(
            hot_hits >= (total_jobs as u64).saturating_sub(opts.clients as u64),
            "hot pass must be cache-served (got {hot_hits} hits of {total_jobs} jobs)"
        );
        eprintln!("  server_hot cache hits: {hot_hits}/{total_jobs}");
        // The hot pass is cache-served, so its server-side view is the
        // cached-path wall histogram, not the execution histograms.
        let server_hot = model_result(
            "server_hot",
            total_jobs,
            hot_wall,
            &hot_lats,
            cached_quantiles_ns(&svc),
            hot_snapshot,
        );
        server.shutdown();
        (server_cold, server_hot)
    };

    let report = ServiceReport {
        benchmark: "service-throughput".to_owned(),
        workload: format!("random_gnm({n}, {m})"),
        n: g.num_vertices(),
        m: g.num_edges(),
        clients: opts.clients,
        jobs_per_client: opts.jobs,
        total_jobs,
        cores: opts.cores,
        queue_capacity: opts.queue_cap,
        host_parallelism: std::thread::available_parallelism().map_or(1, |c| c.get()),
        service,
        server_cold,
        server_hot,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&opts.out, json + "\n").expect("write report");
    eprintln!("wrote {}", opts.out.display());
}
