//! The `traversal-frontier` ablation: phase-2 traversal throughput of
//! the two-level frontier vs the paper's publish-everything protocol,
//! plus the direction-optimizing hybrid.
//!
//! ```text
//! traversal_frontier [--graph connected|gnm-1.5n|gnm-0.5n]
//!                    [--scale L] [--p P] [--reps R] [--seed S] [--out FILE]
//!                    [--sweep-scale L] [--sweep-p "1,2,4,8"] [--sweep-reps R]
//!                    [--hugepages]
//! ```
//!
//! With `--graph gnm-1.5n` or `--graph gnm-0.5n` it times whole
//! Bader–Cong forest jobs instead (see *Forest rows* below). By
//! default it builds `random_connected(n = 2^L, m = 4n)` and times *only* the
//! work-stealing traversal round (no stub phase, no driver, no degree-2
//! preprocessing) under three configurations:
//!
//! * `seed` — [`TraversalConfig::paper_protocol`]: `publish_threshold
//!   = 1`; every discovered vertex goes through the shared queue, one
//!   lock acquisition per push and per pop.
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
//!
//! ## Forest rows
//!
//! `--graph gnm-1.5n` builds `random_gnm(2^L, 1.5n)` (the paper's
//! Fig. 3 input: a giant component and tens of thousands of small ones)
//! and `--graph gnm-0.5n` builds `random_gnm(2^L, n/2)` (no giant
//! component: at L = 20 and seed 7, 524,290 components, 1,611 of them
//! with 32 or more vertices). Either times sequential BFS
//! (`seq::bfs_forest`) and the default Bader–Cong forest job
//! (`Engine::run`) at p = 1 and p = P, one untimed warm-up each, and
//! validates every forest. The rows go into the `forest` section of
//! `--out` under the workload's name, with `host_parallelism` from the
//! host; the rest of an existing file is kept, and a run without
//! `--graph` keeps an existing `forest` section in turn.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::{Serialize, Value};
use st_bench::timing::measure_with_result;
use st_core::bader_cong::BaderCong;
use st_core::engine::{Engine, Workspace};
use st_core::seq;
use st_core::traversal::{Direction, TraversalConfig, TraversalOutcome};
use st_graph::gen::{random_connected, random_gnm};
use st_graph::validate::{count_components, is_spanning_forest, is_spanning_tree};
use st_graph::{CsrGraph, VertexId};
use st_obs::{Counter, JobMetrics, Phase, PhaseTotal};
use st_smp::Executor;

#[derive(Clone, Debug, Serialize)]
struct ProtocolResult {
    protocol: String,
    direction: String,
    publish_threshold: usize,
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

/// One forest-job row: the default Bader–Cong job at `p`.
#[derive(Clone, Debug, Serialize)]
struct ForestRow {
    p: usize,
    median_s: f64,
    min_s: f64,
    max_s: f64,
    /// Sequential BFS median over this row's median.
    speedup_vs_bfs: f64,
    rounds: usize,
    stub_walks: usize,
    phases: Vec<PhaseTotal>,
}

/// The forest rows of one graph, beside sequential BFS on it.
#[derive(Clone, Debug, Serialize)]
struct ForestReport {
    workload: String,
    n: usize,
    m: usize,
    components: usize,
    reps: usize,
    host_parallelism: usize,
    bfs_median_s: f64,
    bfs_min_s: f64,
    bfs_max_s: f64,
    rows: Vec<ForestRow>,
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
        "usage: traversal_frontier [--graph connected|gnm-1.5n|gnm-0.5n] [--scale L] [--p P] \
         [--reps R] [--seed S] [--out FILE] [--metrics-json FILE] [--sweep-scale L] \
         [--sweep-p LIST] [--sweep-reps R] [--hugepages]"
    );
    std::process::exit(2)
}

/// Which input the run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GraphChoice {
    /// `random_connected(n, 4n)`: the traversal-round comparison.
    Connected,
    /// `random_gnm(n, 1.5n)`: forest rows.
    Gnm15,
    /// `random_gnm(n, n/2)`: forest rows.
    Gnm05,
}

struct Opts {
    graph: GraphChoice,
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
        graph: GraphChoice::Connected,
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
            "--graph" => {
                opts.graph = match need("--graph needs a value").as_str() {
                    "connected" => GraphChoice::Connected,
                    "gnm-1.5n" => GraphChoice::Gnm15,
                    "gnm-0.5n" => GraphChoice::Gnm05,
                    _ => usage("--graph must be connected, gnm-1.5n or gnm-0.5n"),
                }
            }
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
/// [`JobMetrics`] (fresh counters per repetition) and the parent array,
/// which is validated after the timed section.
fn traverse_once(
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    cfg: TraversalConfig,
) -> (JobMetrics, Vec<VertexId>) {
    ws.begin_job(exec);
    let parents = {
        let t = ws.traversal(g, exec, cfg);
        t.begin_round(0);
        exec.run(|ctx| {
            assert_eq!(t.run_worker_ctx(&ctx), TraversalOutcome::Completed);
        });
        t.into_parents()
    };
    (ws.finish_job(exec), parents)
}

fn run_protocol(
    name: &str,
    g: &CsrGraph,
    exec: &Executor,
    ws: &mut Workspace,
    reps: usize,
    cfg: TraversalConfig,
) -> (ProtocolResult, JobMetrics) {
    let (m, (metrics, parents)) =
        measure_with_result(reps, || traverse_once(g, exec, ws, cfg.clone()));
    assert!(
        is_spanning_tree(g, &parents, 0),
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

/// Times `run` once untimed, then `reps` times; returns the timings and
/// the last result.
fn warm_measure<T>(reps: usize, mut run: impl FnMut() -> T) -> (st_bench::timing::Measurement, T) {
    std::hint::black_box(run());
    measure_with_result(reps, run)
}

/// The forest rows of `--graph gnm-*`, merged into `--out`.
fn forest_rows(opts: &Opts) {
    let n = 1usize << opts.scale;
    let (m, workload) = match opts.graph {
        GraphChoice::Gnm15 => (3 * n / 2, format!("random_gnm({n}, {})", 3 * n / 2)),
        _ => (n / 2, format!("random_gnm({n}, {})", n / 2)),
    };
    eprintln!(
        "forest rows: {workload}, p in 1 and {}, reps = {}",
        opts.p, opts.reps
    );
    let g = random_gnm(n, m, opts.seed);
    let components = count_components(&g);
    let (bfs, forest) = warm_measure(opts.reps, || seq::bfs_forest(&g));
    assert!(
        is_spanning_forest(&g, &forest.parents),
        "bfs: invalid forest"
    );
    eprintln!("  bfs        median {:.4}s", bfs.median());
    let mut ps = vec![1, opts.p];
    ps.dedup();
    let rows = ps
        .into_iter()
        .map(|p| {
            let mut engine = Engine::new(p);
            let algo = BaderCong::with_defaults();
            let (t, f) = warm_measure(opts.reps, || engine.run(&algo, &g));
            assert!(
                is_spanning_forest(&g, &f.parents),
                "p = {p}: invalid forest"
            );
            assert_eq!(f.roots.len(), components, "p = {p}: wrong tree count");
            let metrics = &f.stats.metrics;
            let traverse = metrics.phases.iter().find(|t| t.phase == Phase::Traverse);
            eprintln!(
                "  p = {p:<6} median {:.4}s  ({:.2}x bfs)",
                t.median(),
                bfs.median() / t.median()
            );
            ForestRow {
                p,
                median_s: t.median(),
                min_s: t.min(),
                max_s: t.max(),
                speedup_vs_bfs: bfs.median() / t.median(),
                rounds: traverse.map_or(0, |t| t.count as usize / p),
                stub_walks: metrics.get(Counter::StubWalks) as usize,
                phases: metrics.phases.clone(),
            }
        })
        .collect();
    let report = ForestReport {
        workload: workload.clone(),
        n,
        m: g.num_edges(),
        components,
        reps: opts.reps,
        host_parallelism: std::thread::available_parallelism().map_or(1, |c| c.get()),
        bfs_median_s: bfs.median(),
        bfs_min_s: bfs.min(),
        bfs_max_s: bfs.max(),
        rows,
    };
    let mut doc = read_report(&opts.out);
    let forest = doc
        .entry("forest".to_owned())
        .or_insert_with(|| Value::Object(BTreeMap::new()));
    let Value::Object(forest) = forest else {
        panic!("the forest section must be an object");
    };
    forest.insert(workload, report.to_value());
    write_report(&opts.out, doc);
}

/// The JSON object in `path`, or an empty one when there is no file.
fn read_report(path: &PathBuf) -> BTreeMap<String, Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    match serde_json::parse_value(&text).expect("--out holds JSON") {
        Value::Object(top) => top,
        _ => panic!("--out must hold a JSON object"),
    }
}

fn write_report(path: &PathBuf, doc: BTreeMap<String, Value>) {
    let json = serde_json::to_string_pretty(&Value::Object(doc)).expect("serialize report");
    std::fs::write(path, json + "\n").expect("write report");
    eprintln!("wrote {}", path.display());
}

fn main() {
    let opts = parse_args();
    if opts.graph != GraphChoice::Connected {
        forest_rows(&opts);
        return;
    }
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
    let Value::Object(mut doc) = report.to_value() else {
        unreachable!("a report serializes to an object");
    };
    // The forest rows come from their own runs; keep them.
    if let Some(forest) = read_report(&opts.out).remove("forest") {
        doc.insert("forest".to_owned(), forest);
    }
    write_report(&opts.out, doc);
}
