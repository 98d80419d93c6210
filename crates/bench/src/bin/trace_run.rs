//! `trace-run`: run one spanning-forest job and export its phase trace
//! as a Chrome trace-event file (loadable in Perfetto / `chrome://tracing`).
//!
//! ```text
//! trace_run [--algo A] [--scale L] [--p P] [--seed S] [--out FILE]
//! ```
//!
//! `A` is one of `bader-cong` (default), `sv-election`, `sv-lock`,
//! `hcs`. The input is `random_connected(n = 2^L, m = 4n)`.
//!
//! The counters in the emitted `job_totals` instant event are always
//! populated; the per-phase "X" spans need the `obs-trace` feature
//! (`cargo run --features obs-trace --bin trace_run`). Without it the
//! file is still valid, just span-free, and a note is printed.

use std::path::PathBuf;

use st_core::bader_cong::BaderCong;
use st_core::engine::Engine;
use st_core::hcs::Hcs;
use st_core::result::SpanningForest;
use st_core::sv::{GraftVariant, Sv, SvConfig};
use st_graph::gen::random_connected;
use st_obs::{write_chrome_trace, TraceSet};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: trace_run [--algo bader-cong|sv-election|sv-lock|hcs] \
         [--scale L] [--p P] [--seed S] [--out FILE]"
    );
    std::process::exit(2)
}

struct Opts {
    algo: String,
    scale: u32,
    p: usize,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        algo: "bader-cong".to_owned(),
        scale: 16,
        p: 4,
        seed: 42,
        out: PathBuf::from("trace.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match a.as_str() {
            "--algo" => opts.algo = need("--algo needs a value"),
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
            "--seed" => {
                opts.seed = need("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--out" => opts.out = PathBuf::from(need("--out needs a value")),
            other => usage(&format!("unknown option {other}")),
        }
    }
    opts
}

fn run(engine: &mut Engine, algo: &str, g: &st_graph::CsrGraph) -> SpanningForest {
    match algo {
        "bader-cong" => engine.run(&BaderCong::with_defaults(), g),
        "sv-election" => engine.run(
            &Sv::new(SvConfig {
                variant: GraftVariant::Election,
            }),
            g,
        ),
        "sv-lock" => engine.run(
            &Sv::new(SvConfig {
                variant: GraftVariant::Lock,
            }),
            g,
        ),
        "hcs" => engine.run(&Hcs, g),
        other => usage(&format!("unknown algorithm {other}")),
    }
}

fn main() {
    let opts = parse_args();
    let n = 1usize << opts.scale;
    let m = 4 * n;
    eprintln!(
        "trace-run: {} on random_connected(n = {n}, m = {m}), p = {}",
        opts.algo, opts.p
    );
    let g = random_connected(n, m, opts.seed);
    let mut engine = Engine::new(opts.p);
    let forest = run(&mut engine, &opts.algo, &g);
    let metrics = &forest.stats.metrics;

    eprintln!(
        "  {} trees, wall {:.3}s, {} spans recorded ({} dropped)",
        forest.num_trees(),
        metrics.wall_ns() as f64 / 1e9,
        metrics.spans.len(),
        metrics.spans_dropped
    );
    for pt in metrics.phase_totals() {
        eprintln!(
            "  phase {:<9} count {:<6} total {:.3}s",
            pt.phase.name(),
            pt.count,
            pt.total_ns as f64 / 1e9
        );
    }
    if !TraceSet::enabled() {
        eprintln!("  note: built without the obs-trace feature; the trace has no spans");
    }

    let file = std::fs::File::create(&opts.out).expect("create trace file");
    let mut w = std::io::BufWriter::new(file);
    write_chrome_trace(metrics, &mut w).expect("write trace");
    std::io::Write::flush(&mut w).expect("flush trace");
    eprintln!(
        "wrote {} — open in https://ui.perfetto.dev or chrome://tracing",
        opts.out.display()
    );
}
