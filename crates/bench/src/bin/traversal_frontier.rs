//! The `traversal-frontier` ablation: phase-2 traversal throughput of
//! the two-level frontier vs the paper's publish-everything protocol,
//! plus the direction-optimizing hybrid.
//!
//! ```text
//! traversal_frontier [--scale L] [--p P] [--reps R] [--seed S] [--out FILE]
//!                    [--sweep-scale L] [--sweep-p "1,2,4,8"] [--sweep-reps R]
//!                    [--hugepages]
//! ```
//!
//! Builds `random_connected(n = 2^L, m = 4n)` and times *only* the
//! work-stealing traversal round (no stub phase, no driver, no degree-2
//! preprocessing) under three configurations:
//!
//! * `seed` — [`TraversalConfig::paper_protocol`]: `publish_threshold
//!   = 1`, `local_batch = 1`; every discovered vertex goes through the
//!   shared queue, one lock acquisition per push and per pop.
//! * `frontier` — [`TraversalConfig::default`]: the two-level frontier
//!   with threshold publication and sleeper-driven donation, in the
//!   default direction (hybrid). `ST_DIRECTION` flows through here,
//!   which is how the CI smokes force the bottom-up and top-down paths
//!   on a small scale.
//! * `hybrid` — the two-level frontier with
//!   [`Direction::Hybrid`]: top-down until the live frontier crosses
//!   the α/β threshold, then barriered bottom-up sweeps.
//!
//! Every timed run is validated with `is_spanning_tree`; the medians and
//! the speedups are written as JSON (default `BENCH_traversal.json`), the
//! committed baseline the CI and the docs reference. `--sweep-scale 24`
//! appends a memory-bound frontier-vs-hybrid p-sweep section (no seed
//! protocol there — publish-everything at scale 24 is pointlessly slow).
//! `--hugepages` rehomes the CSR onto a `MADV_HUGEPAGE`-advised
//! allocation first (pair it with `ST_HUGEPAGES=1` to also back the
//! workspace arenas). Pass `--metrics-json FILE` to additionally dump
//! the full [`JobMetrics`] (per-rank counters and, under `obs-trace`,
//! phase spans) of the last repetition of each protocol.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::Serialize;
use st_bench::timing::measure_with_result;
use st_core::engine::Workspace;
use st_core::traversal::{Direction, TraversalConfig, TraversalOutcome};
use st_graph::gen::random_connected;
use st_graph::validate::is_spanning_tree;
use st_graph::{CsrGraph, NO_VERTEX};
use st_obs::{Counter, JobMetrics, PhaseTotal};
use st_smp::Executor;

#[derive(Clone, Debug, Serialize)]
struct ProtocolResult {
    protocol: String,
    direction: String,
    publish_threshold: usize,
    local_batch: usize,
    median_s: f64,
    min_s: f64,
    max_s: f64,
    steals: usize,
    stolen_items: usize,
    multi_colored: usize,
    steal_attempts: usize,
    failed_sweeps: usize,
    items_published: usize,
    items_kept_local: usize,
    barrier_wait_ns: usize,
    detector_sleeps: usize,
    detector_wakes: usize,
    starvation_trips: usize,
    rounds_top_down: usize,
    rounds_bottom_up: usize,
    frontier_peak: usize,
    phases: Vec<PhaseTotal>,
}

/// One `p` point of the memory-bound sweep: frontier vs hybrid on the
/// same graph and team.
#[derive(Clone, Debug, Serialize)]
struct SweepPoint {
    p: usize,
    frontier: ProtocolResult,
    hybrid: ProtocolResult,
    speedup_hybrid: f64,
}

#[derive(Clone, Debug, Serialize)]
struct SweepReport {
    scale: u32,
    n: usize,
    m: usize,
    reps: usize,
    points: Vec<SweepPoint>,
}

#[derive(Clone, Debug, Serialize)]
struct FrontierReport {
    benchmark: String,
    workload: String,
    n: usize,
    m: usize,
    p: usize,
    reps: usize,
    host_parallelism: usize,
    hugepages: bool,
    csr_hugepage_advised: bool,
    seed_protocol: ProtocolResult,
    two_level: ProtocolResult,
    hybrid: ProtocolResult,
    speedup: f64,
    speedup_hybrid: f64,
    sweep: Option<SweepReport>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: traversal_frontier [--scale L] [--p P] [--reps R] [--seed S] [--out FILE] \
         [--metrics-json FILE] [--sweep-scale L] [--sweep-p LIST] [--sweep-reps R] [--hugepages]"
    );
    std::process::exit(2)
}

struct Opts {
    scale: u32,
    p: usize,
    reps: usize,
    seed: u64,
    out: PathBuf,
    metrics_json: Option<PathBuf>,
    sweep_scale: Option<u32>,
    sweep_p: Vec<usize>,
    sweep_reps: usize,
    hugepages: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        scale: 20,
        p: 8,
        reps: 5,
        seed: 42,
        out: PathBuf::from("BENCH_traversal.json"),
        metrics_json: None,
        sweep_scale: None,
        sweep_p: vec![1, 2, 4, 8],
        sweep_reps: 3,
        hugepages: false,
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
            "--p" => {
                opts.p = need("--p needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--p must be an integer"))
            }
            "--reps" => {
                opts.reps = need("--reps needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--reps must be an integer"))
            }
            "--seed" => {
                opts.seed = need("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--out" => opts.out = PathBuf::from(need("--out needs a value")),
            "--metrics-json" => {
                opts.metrics_json = Some(PathBuf::from(need("--metrics-json needs a value")))
            }
            "--sweep-scale" => {
                opts.sweep_scale = Some(
                    need("--sweep-scale needs a value")
                        .parse()
                        .unwrap_or_else(|_| usage("--sweep-scale must be an integer")),
                )
            }
            "--sweep-p" => {
                opts.sweep_p = need("--sweep-p needs a value")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--sweep-p must be a comma list of integers"))
                    })
                    .collect();
                if opts.sweep_p.is_empty() {
                    usage("--sweep-p must name at least one team size");
                }
            }
            "--sweep-reps" => {
                opts.sweep_reps = need("--sweep-reps needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--sweep-reps must be an integer"))
            }
            "--hugepages" => opts.hugepages = true,
            other => usage(&format!("unknown option {other}")),
        }
    }
    opts
}

fn direction_name(d: Direction) -> &'static str {
    match d {
        Direction::TopDown => "top-down",
        Direction::BottomUp => "bottom-up",
        Direction::Hybrid => "hybrid",
    }
}

/// Rehomes `g` onto a hugepage-advised allocation when asked, reporting
/// whether the kernel accepted the advice.
fn maybe_hugepage(g: CsrGraph, want: bool) -> (CsrGraph, bool) {
    if !want {
        return (g, false);
    }
    let (g, advised) = g.into_hugepage_backed();
    eprintln!("  hugepages: CSR rehomed (kernel advised: {advised})");
    (g, advised)
}

/// One phase-2 traversal round over connected `g`, on the persistent
/// team with all scratch drawn from `ws`. Returns the job's
/// [`JobMetrics`] (fresh counters per repetition); the parents stay in
/// the workspace for validation after the timed section.
fn traverse_once(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    cfg: TraversalConfig,
) -> JobMetrics {
    ws.begin_job(exec);
    {
        let t = ws.traversal(g, exec, cfg);
        t.begin_round();
        t.seed(0, 0, NO_VERTEX);
        exec.run(|ctx| {
            let (_, outcome) = t.run_worker_ctx(&ctx);
            assert_eq!(outcome, TraversalOutcome::Completed);
        });
    }
    ws.finish_job(exec)
}

fn run_protocol(
    name: &str,
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    reps: usize,
    cfg: TraversalConfig,
) -> (ProtocolResult, JobMetrics) {
    let (m, metrics) = measure_with_result(reps, || traverse_once(g, exec, ws, cfg.clone()));
    // Validation reads the workspace after the timed section so the
    // copy-out is not billed to the protocol.
    assert!(
        is_spanning_tree(g, &ws.parents_prefix(g.num_vertices()), 0),
        "{name}: invalid spanning tree"
    );
    let count = |c: Counter| metrics.get(c) as usize;
    eprintln!(
        "  {name:<10} median {:.3}s  (min {:.3}s, max {:.3}s, steals {}, stolen {}, \
         rounds td/bu {}/{})",
        m.median(),
        m.min(),
        m.max(),
        count(Counter::Steals),
        count(Counter::StolenItems),
        count(Counter::RoundsTopDown),
        count(Counter::RoundsBottomUp),
    );
    let result = ProtocolResult {
        protocol: name.to_owned(),
        direction: direction_name(cfg.direction).to_owned(),
        publish_threshold: cfg.publish_threshold,
        local_batch: cfg.local_batch,
        median_s: m.median(),
        min_s: m.min(),
        max_s: m.max(),
        steals: count(Counter::Steals),
        stolen_items: count(Counter::StolenItems),
        multi_colored: count(Counter::MultiColored),
        steal_attempts: count(Counter::StealAttempts),
        failed_sweeps: count(Counter::FailedSweeps),
        items_published: count(Counter::ItemsPublished),
        items_kept_local: count(Counter::ItemsKeptLocal),
        barrier_wait_ns: count(Counter::BarrierWaitNs),
        detector_sleeps: count(Counter::DetectorSleeps),
        detector_wakes: count(Counter::DetectorWakes),
        starvation_trips: count(Counter::StarvationTrips),
        rounds_top_down: count(Counter::RoundsTopDown),
        rounds_bottom_up: count(Counter::RoundsBottomUp),
        frontier_peak: count(Counter::FrontierPeak),
        phases: metrics.phases.clone(),
    };
    (result, metrics)
}

fn main() {
    let opts = parse_args();
    let n = 1usize << opts.scale;
    let m = 4 * n;
    eprintln!(
        "traversal-frontier: random_connected(n = {n}, m = {m}), p = {}, reps = {}",
        opts.p, opts.reps
    );
    let (g, csr_hugepage_advised) =
        maybe_hugepage(random_connected(n, m, opts.seed), opts.hugepages);

    // One persistent team + workspace for the whole process: every
    // protocol and every repetition reuse the same threads and arrays.
    let exec = Executor::new(opts.p);
    let mut ws = Workspace::new();

    let hybrid_cfg = TraversalConfig {
        direction: Direction::Hybrid,
        ..TraversalConfig::default()
    };

    let (seed_protocol, seed_metrics) = run_protocol(
        "seed",
        &g,
        &exec,
        &mut ws,
        opts.reps,
        TraversalConfig::paper_protocol(),
    );
    let (two_level, two_level_metrics) = run_protocol(
        "frontier",
        &g,
        &exec,
        &mut ws,
        opts.reps,
        TraversalConfig::default(),
    );
    let (hybrid, hybrid_metrics) =
        run_protocol("hybrid", &g, &exec, &mut ws, opts.reps, hybrid_cfg.clone());

    if let Some(path) = &opts.metrics_json {
        let mut by_protocol = BTreeMap::new();
        by_protocol.insert("seed_protocol".to_owned(), seed_metrics.to_value());
        by_protocol.insert("two_level".to_owned(), two_level_metrics.to_value());
        by_protocol.insert("hybrid".to_owned(), hybrid_metrics.to_value());
        let json = serde_json::to_string_pretty(&serde::Value::Object(by_protocol))
            .expect("serialize metrics");
        std::fs::write(path, json + "\n").expect("write metrics json");
        eprintln!("wrote {}", path.display());
    }

    let speedup = seed_protocol.median_s / two_level.median_s;
    let speedup_hybrid = two_level.median_s / hybrid.median_s;
    eprintln!("  speedup (seed/frontier): {speedup:.2}x");
    eprintln!("  speedup (frontier/hybrid): {speedup_hybrid:.2}x");

    let sweep = opts.sweep_scale.map(|scale| {
        let sn = 1usize << scale;
        let sm = 4 * sn;
        eprintln!(
            "sweep: random_connected(n = {sn}, m = {sm}), p in {:?}, reps = {}",
            opts.sweep_p, opts.sweep_reps
        );
        let (sg, _) = maybe_hugepage(random_connected(sn, sm, opts.seed), opts.hugepages);
        let mut points = Vec::new();
        for &p in &opts.sweep_p {
            eprintln!("  p = {p}");
            let exec = Executor::new(p);
            let (frontier, _) = run_protocol(
                "frontier",
                &sg,
                &exec,
                &mut ws,
                opts.sweep_reps,
                TraversalConfig::default(),
            );
            let (hybrid, _) = run_protocol(
                "hybrid",
                &sg,
                &exec,
                &mut ws,
                opts.sweep_reps,
                hybrid_cfg.clone(),
            );
            let speedup_hybrid = frontier.median_s / hybrid.median_s;
            eprintln!("    hybrid speedup at p = {p}: {speedup_hybrid:.2}x");
            points.push(SweepPoint {
                p,
                frontier,
                hybrid,
                speedup_hybrid,
            });
        }
        SweepReport {
            scale,
            n: sn,
            m: sg.num_edges(),
            reps: opts.sweep_reps,
            points,
        }
    });

    let report = FrontierReport {
        benchmark: "traversal-frontier".to_owned(),
        workload: format!("random_connected({n}, {m})"),
        n: g.num_vertices(),
        m: g.num_edges(),
        p: opts.p,
        reps: opts.reps,
        host_parallelism: std::thread::available_parallelism().map_or(1, |c| c.get()),
        hugepages: opts.hugepages,
        csr_hugepage_advised,
        seed_protocol,
        two_level,
        hybrid,
        speedup,
        speedup_hybrid,
        sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&opts.out, json + "\n").expect("write report");
    eprintln!("wrote {}", opts.out.display());
}
