//! Regenerates every result figure and in-text claim of the paper.
//!
//! ```text
//! figures fig3        [--scale L] [--p P] [--mode model|wall|both] [--seed S] [--out DIR]
//! figures fig4        [--panel ID | --panel all] [--scale L] [--mode ...] [--out DIR]
//! figures races       [--scale L]                 # CLAIM-RACE
//! figures svlabel     [--scale L]                 # CLAIM-SVLABEL
//! figures lockvariant [--scale L]                 # CLAIM-LOCK
//! figures model       [--scale L]                 # MODEL (triplet table)
//! figures all         [--scale L] [--out DIR]
//! ```
//!
//! `--scale L` sets n ≈ 2^L (default 16 for model runs, 13 for wall
//! runs). Model mode uses the deterministic Helman–JáJá executor with
//! the E4500 profile (the figure-shape substitute documented in
//! DESIGN.md §4); wall mode runs the real threaded implementations.

use std::path::PathBuf;

use st_bench::report::{render_table, save_results};
use st_bench::runner::{bader_cong_wall_config, run_cell, Algorithm, Mode, ResultRow};
use st_bench::workloads::Workload;
use st_core::bader_cong::BaderCong;
use st_core::sv::{self, GraftVariant, SvConfig};
use st_core::Engine;
use st_model::analytic;
use st_model::sim::{simulate_bader_cong, simulate_sv, TraversalSimConfig};
use st_model::MachineProfile;

#[derive(Clone, Debug)]
struct Opts {
    command: String,
    panel: String,
    scale: Option<u32>,
    p: usize,
    mode: String,
    seed: u64,
    out: Option<PathBuf>,
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage("missing command"));
    let mut opts = Opts {
        command,
        panel: "all".into(),
        scale: None,
        p: 8,
        mode: "model".into(),
        seed: 42,
        out: None,
    };
    while let Some(a) = args.next() {
        let mut need = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match a.as_str() {
            "--panel" => opts.panel = need("--panel needs a value"),
            "--scale" => {
                opts.scale = Some(
                    need("--scale needs a value")
                        .parse()
                        .unwrap_or_else(|_| usage("--scale must be an integer")),
                )
            }
            "--p" => {
                opts.p = need("--p needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--p must be an integer"))
            }
            "--mode" => opts.mode = need("--mode needs a value"),
            "--seed" => {
                opts.seed = need("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--out" => opts.out = Some(PathBuf::from(need("--out needs a value"))),
            other => usage(&format!("unknown option {other}")),
        }
    }
    opts
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: figures <fig3|fig4|races|svlabel|lockvariant|model|profile|mst|all> \
         [--panel ID] [--scale L] [--p P] [--mode model|wall|both] [--seed S] [--out DIR]"
    );
    std::process::exit(2)
}

fn modes(opts: &Opts) -> Vec<Mode> {
    match opts.mode.as_str() {
        "model" => vec![Mode::Model],
        "wall" => vec![Mode::Wall],
        "both" => vec![Mode::Model, Mode::Wall],
        other => usage(&format!("unknown mode {other}")),
    }
}

fn scale_n(opts: &Opts, mode: Mode) -> usize {
    let default = match mode {
        Mode::Model => 16,
        Mode::Wall => 13,
    };
    1usize << opts.scale.unwrap_or(default)
}

/// Processor counts swept in Fig. 4 (the paper's E4500 had 14).
const P_SWEEP: [usize; 5] = [1, 2, 4, 8, 12];

fn emit(opts: &Opts, name: &str, title: &str, rows: &[ResultRow]) {
    print!("{}", render_table(title, rows));
    println!();
    if let Some(dir) = &opts.out {
        save_results(dir, name, rows).expect("failed to save results");
        eprintln!("saved {name}.csv / {name}.jsonl to {}", dir.display());
    }
}

/// FIG3: scalability of the new algorithm at fixed p over an n sweep of
/// random graphs with m = 1.5 n (paper: speedup 4.5–5.5 at p = 8).
fn fig3(opts: &Opts) {
    let machine = MachineProfile::e4500();
    let mut rows = Vec::new();
    for mode in modes(opts) {
        let max_l = (scale_n(opts, mode) as f64).log2() as u32;
        let min_l = max_l.saturating_sub(5).max(10);
        for l in min_l..=max_l {
            let n = 1usize << l;
            let g = Workload::RandomM15.build(n, opts.seed);
            rows.push(run_cell(
                Workload::RandomM15,
                &g,
                Algorithm::Sequential,
                1,
                mode,
                &machine,
            ));
            rows.push(run_cell(
                Workload::RandomM15,
                &g,
                Algorithm::BaderCong,
                opts.p,
                mode,
                &machine,
            ));
        }
    }
    // Fig. 3 reads as speedup per n; render and also print the band.
    emit(
        opts,
        "fig3",
        &format!(
            "FIG3 — new algorithm vs sequential BFS, random graph m = 1.5n, p = {} (paper: speedup 4.5-5.5)",
            opts.p
        ),
        &rows,
    );
}

/// FIG4: one panel per input family; Sequential line + SV and the new
/// algorithm over the processor sweep.
fn fig4(opts: &Opts) {
    let machine = MachineProfile::e4500();
    let panels: Vec<Workload> = if opts.panel == "all" {
        Workload::fig4_panels().to_vec()
    } else {
        vec![Workload::from_id(&opts.panel)
            .unwrap_or_else(|| usage(&format!("unknown panel {}", opts.panel)))]
    };
    for w in panels {
        let mut rows = Vec::new();
        for mode in modes(opts) {
            let n = scale_n(opts, mode);
            let g = w.build(n, opts.seed);
            rows.push(run_cell(w, &g, Algorithm::Sequential, 1, mode, &machine));
            for p in P_SWEEP {
                rows.push(run_cell(w, &g, Algorithm::BaderCong, p, mode, &machine));
                rows.push(run_cell(w, &g, Algorithm::Sv, p, mode, &machine));
            }
        }
        emit(
            opts,
            &format!("fig4-{}", w.id()),
            &format!("FIG4 panel [{}] — {}", w.id(), w.description()),
            &rows,
        );
    }
}

/// CLAIM-RACE: "the number of vertices that appear in multiple
/// processors' queues … less than ten vertices for a graph with
/// millions of vertices." Measured on the paper's top-down traversal
/// (the wall-mode configuration), where every vertex is claimed by a
/// race-prone test-and-set; bottom-up sweeps cannot collide.
fn races(opts: &Opts) {
    let n = 1usize << opts.scale.unwrap_or(14);
    println!("## CLAIM-RACE — concurrently-colored vertices (real threaded runs)");
    println!(
        "{:<14} {:>9} {:>11} {:>3} {:>14} {:>14}",
        "workload", "n", "m", "p", "multi-colored", "per-million"
    );
    for w in [
        Workload::RandomM15,
        Workload::RandomNLogN,
        Workload::TorusRowMajor,
    ] {
        let g = w.build(n, opts.seed);
        for p in [2usize, 4, 8] {
            let f = Engine::new(p).run(&BaderCong::new(bader_cong_wall_config()), &g);
            assert!(f.is_valid_for(&g));
            let per_million = f.stats.multi_colored as f64 * 1e6 / g.num_vertices() as f64;
            println!(
                "{:<14} {:>9} {:>11} {:>3} {:>14} {:>14.2}",
                w.id(),
                g.num_vertices(),
                g.num_edges(),
                p,
                f.stats.multi_colored,
                per_million
            );
        }
    }
    println!();
}

/// CLAIM-SVLABEL: SV's iteration count is labeling-sensitive; the new
/// algorithm is labeling-oblivious.
fn svlabel(opts: &Opts) {
    let machine = MachineProfile::e4500();
    let n = 1usize << opts.scale.unwrap_or(16);
    println!("## CLAIM-SVLABEL — labeling sensitivity (model executor)");
    println!(
        "{:<16} {:>9} {:>14} {:>16} {:>16}",
        "workload", "n", "sv-iterations", "sv-time", "bader-cong-time"
    );
    for w in [
        Workload::TorusRowMajor,
        Workload::TorusRandom,
        Workload::ChainSeq,
        Workload::ChainRandom,
    ] {
        let g = w.build(n, opts.seed);
        let svr = simulate_sv(&g, 8, &machine);
        let bc = simulate_bader_cong(&g, 8, TraversalSimConfig::default(), &machine);
        println!(
            "{:<16} {:>9} {:>14} {:>16} {:>16}",
            w.id(),
            g.num_vertices(),
            svr.iterations,
            st_bench::report::fmt_seconds(svr.report.predicted_seconds()),
            st_bench::report::fmt_seconds(bc.report.predicted_seconds()),
        );
    }
    println!();
}

/// CLAIM-LOCK: lock-based grafting is "slow and not scalable".
fn lockvariant(opts: &Opts) {
    let n = 1usize << opts.scale.unwrap_or(12);
    let g = Workload::RandomM15.build(n, opts.seed);
    let machine = MachineProfile::e4500();

    // Model mode first: contention only materializes with real (or
    // modeled) parallelism; the single-core host cannot show it.
    println!("## CLAIM-LOCK — SV grafting: election vs locks (model executor)");
    println!(
        "{:>3} {:>14} {:>14} {:>8}",
        "p", "election", "lock", "ratio"
    );
    for p in [1usize, 2, 4, 8] {
        let e = simulate_sv(&g, p, &machine).report.predicted_seconds();
        let l = st_model::sim::simulate_sv_lock(&g, p, &machine)
            .report
            .predicted_seconds();
        println!(
            "{:>3} {:>14} {:>14} {:>7.2}x",
            p,
            st_bench::report::fmt_seconds(e),
            st_bench::report::fmt_seconds(l),
            l / e
        );
    }
    println!();

    println!("## CLAIM-LOCK — SV grafting: election vs locks (real threaded runs)");
    println!(
        "{:>3} {:>14} {:>14} {:>8}",
        "p", "election", "lock", "ratio"
    );
    for p in [1usize, 2, 4, 8] {
        let time = |variant| {
            let cfg = SvConfig {
                variant,
                ..SvConfig::default()
            };
            // Median of 3.
            let mut times: Vec<f64> = (0..3)
                .map(|_| {
                    let s = std::time::Instant::now();
                    let f = Engine::new(p).run(&sv::Sv::new(cfg), &g);
                    assert!(f.is_valid_for(&g));
                    s.elapsed().as_secs_f64()
                })
                .collect();
            times.sort_by(f64::total_cmp);
            times[1]
        };
        let e = time(GraftVariant::Election);
        let l = time(GraftVariant::Lock);
        println!(
            "{:>3} {:>14} {:>14} {:>7.2}x",
            p,
            st_bench::report::fmt_seconds(e),
            st_bench::report::fmt_seconds(l),
            l / e
        );
    }
    println!();
}

/// MODEL: measured Helman–JáJá triplets vs the §3 closed forms.
fn model_table(opts: &Opts) {
    let machine = MachineProfile::e4500();
    let n = 1usize << opts.scale.unwrap_or(16);
    let p = opts.p;
    println!("## MODEL — measured T_M/T_C/B vs the paper's Section 3 formulas (p = {p})");
    println!(
        "{:<14} {:>10} {:>12} | {:>12} {:>12} {:>5} | {:>12} {:>12} {:>7}",
        "workload", "n", "m", "meas T_M", "analytic", "B", "sv T_M", "sv analytic", "sv B"
    );
    for w in [
        Workload::RandomM15,
        Workload::RandomNLogN,
        Workload::TorusRowMajor,
        Workload::Ad3,
    ] {
        let g = w.build(n, opts.seed);
        let (gn, gm) = (g.num_vertices(), g.num_edges());
        let bc = simulate_bader_cong(&g, p, TraversalSimConfig::default(), &machine);
        let svr = simulate_sv(&g, p, &machine);
        let bc_pred = analytic::new_algorithm(gn, gm, p);
        let sv_pred = analytic::sv_with_iterations(gn, gm, p, svr.iterations);
        println!(
            "{:<14} {:>10} {:>12} | {:>12} {:>12.0} {:>5} | {:>12} {:>12.0} {:>7}",
            w.id(),
            gn,
            gm,
            bc.report.t_m(),
            bc_pred.t_m,
            bc.report.barriers,
            svr.report.t_m(),
            sv_pred.t_m,
            svr.report.barriers,
        );
    }
    println!();
}

/// Workload characterization: the topology properties that explain the
/// figure shapes (§3's topology-dependence discussion).
fn profile_table(opts: &Opts) {
    use st_graph::stats::profile;
    let n = 1usize << opts.scale.unwrap_or(14);
    println!("## PROFILE — workload characterization at n ≈ {n}");
    println!(
        "{:<15} {:>9} {:>10} {:>7} {:>9} {:>9} {:>8} {:>8} {:>7}",
        "workload", "n", "m", "comps", "largest%", "diam(lb)", "mean-d", "max-d", "deg2%"
    );
    for w in Workload::fig4_panels() {
        let g = w.build(n, opts.seed);
        let pr = profile(&g);
        println!(
            "{:<15} {:>9} {:>10} {:>7} {:>8.1}% {:>9} {:>8.2} {:>8} {:>6.1}%",
            w.id(),
            pr.n,
            pr.m,
            pr.components,
            100.0 * pr.largest_component as f64 / pr.n.max(1) as f64,
            pr.diameter_lb,
            pr.mean_degree,
            pr.max_degree,
            100.0 * pr.degree2_fraction
        );
    }
    println!();
}

/// EXT-MST: Kruskal vs parallel Borůvka cross-validation table.
fn mst_table(opts: &Opts) {
    use st_core::mst;
    use st_graph::WeightedGraph;
    let n = 1usize << opts.scale.unwrap_or(13);
    println!("## EXT-MST — minimum spanning forest (wall runs, weights random in 1..=10^6)");
    println!(
        "{:<15} {:>9} {:>10} {:>12} {:>14} {:>14} {:>7}",
        "workload", "n", "m", "forest-wt", "kruskal", "boruvka(p)", "iters"
    );
    let mut engine = Engine::new(opts.p);
    for w in [Workload::RandomM15, Workload::TorusRowMajor, Workload::Ad3] {
        let g = w.build(n, opts.seed);
        let wg = WeightedGraph::with_random_weights(&g, 1_000_000, opts.seed ^ 1);
        let (mk, k) = st_bench::timing::measure_with_result(3, || mst::kruskal(&wg));
        let (exec, ws) = engine.parts_mut();
        let (mb, b) = st_bench::timing::measure_with_result(3, || mst::boruvka(&wg, exec, ws));
        assert_eq!(k.total_weight, b.total_weight, "MSF weights disagree");
        println!(
            "{:<15} {:>9} {:>10} {:>12} {:>14} {:>14} {:>7}",
            w.id(),
            wg.num_vertices(),
            wg.num_edges(),
            b.total_weight,
            st_bench::report::fmt_seconds(mk.median()),
            st_bench::report::fmt_seconds(mb.median()),
            b.iterations
        );
    }
    println!();
}

fn main() {
    let opts = parse_args();
    match opts.command.as_str() {
        "fig3" => fig3(&opts),
        "fig4" => fig4(&opts),
        "races" => races(&opts),
        "svlabel" => svlabel(&opts),
        "lockvariant" => lockvariant(&opts),
        "model" => model_table(&opts),
        "profile" => profile_table(&opts),
        "mst" => mst_table(&opts),
        "all" => {
            fig3(&opts);
            fig4(&opts);
            races(&opts);
            svlabel(&opts);
            lockvariant(&opts);
            model_table(&opts);
            profile_table(&opts);
            mst_table(&opts);
        }
        other => usage(&format!("unknown command {other}")),
    }
}
