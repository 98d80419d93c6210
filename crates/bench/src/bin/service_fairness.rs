//! The `service-fairness` benchmark: an adversarial mixed-tenant load
//! against the weighted-fair scheduler.
//!
//! ```text
//! service_fairness [--secs T] [--scale L] [--seed S] [--bulk B]
//!                  [--cores C] [--queue-cap Q] [--out FILE]
//! ```
//!
//! One chatty *interactive* tenant keeps a deep window of
//! high-priority jobs in flight for the whole run — the workload that
//! starved the bulk lane outright under strict-priority draining.
//! `B` *bulk* tenants each keep a small window of low-priority jobs in
//! flight over the same shared `random_gnm(n = 2^L, m = 1.5 n)` graph.
//! All jobs are identical, so dispatch share equals throughput share.
//!
//! Deficit round-robin entitles the high lane to
//! [`DEFAULT_LANE_WEIGHTS`]`[0]` dispatches per round and the bulk
//! lane to `DEFAULT_LANE_WEIGHTS[2]`, split FIFO across the bulk
//! tenants. Fairness is therefore judged on *weight-normalized*
//! throughput `y_i = rate_i / entitlement_i` (ideal DRR makes every
//! `y_i` equal) via Jain's index
//!
//! ```text
//! J = (Σ y_i)² / (n · Σ y_i²)      ∈ (1/n, 1], 1 = perfectly fair
//! ```
//!
//! The run fails if `J < 0.8` or any tenant finished zero jobs — the
//! regression this benchmark exists to catch is the bulk lane starving
//! while the interactive lane is saturated. The report lands in the
//! `fairness` section of `BENCH_service.json` (merged into the
//! existing file when present) with per-tenant jobs/s and p50/p99.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use st_graph::gen::random_gnm;
use st_graph::CsrGraph;
use st_obs::PoolSnapshot;
use st_service::service::DEFAULT_LANE_WEIGHTS;
use st_service::{Priority, Service};

#[derive(Clone, Debug, Serialize)]
struct TenantResult {
    tenant: u64,
    lane: String,
    window: usize,
    completed: usize,
    jobs_per_s: f64,
    /// This tenant's share of the DRR dispatch entitlement.
    entitlement: f64,
    /// `jobs_per_s / entitlement` — equal across tenants under ideal
    /// weighted-fair dispatch.
    normalized_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Clone, Debug, Serialize)]
struct FairnessReport {
    benchmark: String,
    workload: String,
    n: usize,
    m: usize,
    run_secs: f64,
    cores: usize,
    queue_capacity: usize,
    lane_weights: Vec<u32>,
    host_parallelism: usize,
    tenants: Vec<TenantResult>,
    /// Jain's index over weight-normalized per-tenant throughput.
    jains_index: f64,
    pool: PoolSnapshot,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: service_fairness [--secs T] [--scale L] [--seed S] [--bulk B] \
         [--cores C] [--queue-cap Q] [--out FILE]"
    );
    std::process::exit(2)
}

struct Opts {
    secs: f64,
    scale: u32,
    seed: u64,
    bulk: usize,
    cores: usize,
    queue_cap: usize,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        secs: 3.0,
        scale: 9,
        seed: 42,
        bulk: 4,
        cores: 8,
        queue_cap: 64,
        out: PathBuf::from("BENCH_service.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match a.as_str() {
            "--secs" => {
                opts.secs = need("--secs needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--secs must be a number"))
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
            "--bulk" => {
                opts.bulk = need("--bulk needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--bulk must be an integer"))
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
    if opts.bulk == 0 {
        usage("--bulk must be at least 1");
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

/// Jain's fairness index over the given allocations.
fn jains_index(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 0.0;
    }
    sum * sum / (n * sq)
}

/// One tenant's closed-loop window: keep `window` jobs in flight until
/// `until`, then drain. Returns (completed count, elapsed seconds from
/// start to last completion, sorted submit→result latencies).
fn tenant_loop(
    svc: &Service,
    g: &Arc<CsrGraph>,
    tenant: u64,
    prio: Priority,
    window: usize,
    until: Instant,
    expected_trees: usize,
) -> (usize, f64, Vec<f64>) {
    let started = Instant::now();
    let mut inflight = VecDeque::with_capacity(window);
    let mut lats = Vec::new();
    loop {
        while inflight.len() < window && Instant::now() < until {
            let t0 = Instant::now();
            let handle = svc
                .job(g)
                .priority(prio)
                .tenant(tenant)
                .submit()
                .expect("service is open");
            inflight.push_back((t0, handle));
        }
        let Some((t0, handle)) = inflight.pop_front() else {
            break;
        };
        let forest = handle.wait().expect("no deadline, no cancel");
        assert_eq!(forest.num_trees(), expected_trees, "wrong forest");
        lats.push(t0.elapsed().as_secs_f64());
    }
    let elapsed = started.elapsed().as_secs_f64();
    lats.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (lats.len(), elapsed, lats)
}

fn main() {
    let opts = parse_args();
    let n = 1usize << opts.scale;
    let m = 3 * n / 2;
    // The interactive tenant's window is sized to keep the high lane
    // saturated for the whole run while leaving queue headroom, so the
    // bulk tenants' trickle is never blocked at the submit door — the
    // contest happens inside the scheduler, where it belongs.
    let interactive_window = (opts.queue_cap / 2).max(8);
    let bulk_window = 2;
    eprintln!(
        "service-fairness: random_gnm(n = {n}, m = {m}), 1 interactive (high, window \
         {interactive_window}) vs {} bulk tenants (low, window {bulk_window}), {:.1}s, \
         {} cores, queue cap {}",
        opts.bulk, opts.secs, opts.cores, opts.queue_cap
    );
    let g: Arc<CsrGraph> = Arc::new(random_gnm(n, m, opts.seed));
    let expected_trees = st_core::seq::bfs_forest(&g).num_trees();

    let svc = Service::builder()
        .cores(opts.cores)
        .queue_capacity(opts.queue_cap)
        .build();
    let until = Instant::now() + Duration::from_secs_f64(opts.secs);

    // (tenant id, lane, window, entitlement). The high lane's DRR
    // weight belongs to the one interactive tenant; the low lane's is
    // split FIFO across the bulk tenants.
    let w_high = f64::from(DEFAULT_LANE_WEIGHTS[0]);
    let w_low = f64::from(DEFAULT_LANE_WEIGHTS[2]);
    let mut plan = vec![(1u64, Priority::High, interactive_window, w_high)];
    for b in 0..opts.bulk {
        plan.push((
            10 + b as u64,
            Priority::Low,
            bulk_window,
            w_low / opts.bulk as f64,
        ));
    }

    struct TenantRun {
        tenant: u64,
        prio: Priority,
        window: usize,
        entitlement: f64,
        completed: usize,
        elapsed_s: f64,
        lats: Vec<f64>,
    }
    let per_tenant: Vec<TenantRun> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|&(tenant, prio, window, entitlement)| {
                let (svc, g) = (&svc, &g);
                s.spawn(move || {
                    let (completed, elapsed_s, lats) =
                        tenant_loop(svc, g, tenant, prio, window, until, expected_trees);
                    TenantRun {
                        tenant,
                        prio,
                        window,
                        entitlement,
                        completed,
                        elapsed_s,
                        lats,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let snapshot = svc.shutdown();

    let tenants: Vec<TenantResult> = per_tenant
        .iter()
        .map(|run| {
            let rate = run.completed as f64 / run.elapsed_s;
            let r = TenantResult {
                tenant: run.tenant,
                lane: format!("{:?}", run.prio).to_lowercase(),
                window: run.window,
                completed: run.completed,
                jobs_per_s: rate,
                entitlement: run.entitlement,
                normalized_rate: rate / run.entitlement,
                p50_ms: percentile_ms(&run.lats, 0.50),
                p99_ms: percentile_ms(&run.lats, 0.99),
            };
            eprintln!(
                "  tenant {:<3} {:<6} {:>5} jobs  {rate:>8.1} jobs/s  \
                 (p50 {:.2}ms, p99 {:.2}ms, normalized {:.1})",
                r.tenant, r.lane, r.completed, r.p50_ms, r.p99_ms, r.normalized_rate
            );
            r
        })
        .collect();

    let j = jains_index(
        &tenants
            .iter()
            .map(|t| t.normalized_rate)
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "  Jain's index (weight-normalized): {j:.3}  \
         (dequeues high/normal/low: {}/{}/{})",
        snapshot.dequeued_high, snapshot.dequeued_normal, snapshot.dequeued_low
    );
    for t in &tenants {
        assert!(
            t.completed > 0,
            "tenant {} (lane {}) was starved outright",
            t.tenant,
            t.lane
        );
    }
    assert!(
        j >= 0.8,
        "Jain's fairness index {j:.3} below the 0.8 floor — the scheduler is \
         letting the saturated lane starve the others"
    );

    let report = FairnessReport {
        benchmark: "service-fairness".to_owned(),
        workload: format!("random_gnm({n}, {m})"),
        n: g.num_vertices(),
        m: g.num_edges(),
        run_secs: opts.secs,
        cores: opts.cores,
        queue_capacity: opts.queue_cap,
        lane_weights: DEFAULT_LANE_WEIGHTS.to_vec(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |c| c.get()),
        tenants,
        jains_index: j,
        pool: snapshot,
    };

    // Merge into the throughput benchmark's report file when present,
    // so BENCH_service.json carries both views of the same service.
    let mut doc = match std::fs::read_to_string(&opts.out)
        .ok()
        .and_then(|s| serde_json::parse_value(&s).ok())
    {
        Some(serde_json::Value::Object(map)) => map,
        _ => std::collections::BTreeMap::new(),
    };
    doc.insert("fairness".to_owned(), report.to_value());
    let json =
        serde_json::to_string_pretty(&serde_json::Value::Object(doc)).expect("serialize report");
    std::fs::write(&opts.out, json + "\n").expect("write report");
    eprintln!("wrote {}", opts.out.display());
}
