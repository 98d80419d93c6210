//! Experiment cell runner.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};
use st_core::bader_cong::{BaderCong, Config};
use st_core::config::RuntimeConfig;
use st_core::engine::Engine;
use st_core::hcs::Hcs;
use st_core::seq;
use st_core::sv::{GraftVariant, Sv, SvConfig};
use st_core::traversal::Direction;
use st_graph::CsrGraph;
use st_model::sim::{
    simulate_bader_cong, simulate_sequential_bfs, simulate_sv, TraversalSimConfig,
};
use st_model::MachineProfile;
use st_obs::Counter;

use crate::workloads::Workload;

/// Repetitions per wall-mode cell (median reported).
const WALL_REPS: usize = 3;

/// Process-wide persistent engines, one per team size. Wall cells at the
/// same `p` share a team: threads spawn once per process, and the
/// workspace arena is recycled across workloads — matching the paper's
/// methodology of timing a long series of inputs on one warm machine.
static ENGINES: OnceLock<Mutex<HashMap<usize, Engine>>> = OnceLock::new();

/// Runs `f` on the shared engine for team size `p` (created on first
/// use).
pub fn with_engine<R>(p: usize, f: impl FnOnce(&mut Engine) -> R) -> R {
    let pool = ENGINES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pool = pool.lock().expect("engine pool poisoned");
    let engine = pool.entry(p).or_insert_with(|| Engine::new(p));
    f(engine)
}

/// The Bader–Cong configuration wall-mode cells run: the paper's
/// top-down traversal, since the cells reproduce the paper's figures.
/// The traversal knobs `ST_PUBLISH_THRESHOLD` and `ST_DIRECTION` are
/// read from the environment by
/// [`TraversalConfig::default`](st_core::traversal::TraversalConfig)
/// and still apply here, so those sweeps need no recompile and no
/// harness-side parsing.
pub fn bader_cong_wall_config() -> Config {
    let mut cfg = Config::default();
    // `Config::default` has already panicked on a malformed variable.
    cfg.traversal.direction = RuntimeConfig::from_env()
        .ok()
        .and_then(|env| env.direction)
        .unwrap_or(Direction::TopDown);
    cfg
}

/// Which algorithm a cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Sequential BFS (the paper's "Sequential" line).
    Sequential,
    /// The Bader–Cong work-stealing algorithm.
    BaderCong,
    /// Shiloach–Vishkin, election grafting.
    Sv,
    /// Shiloach–Vishkin, lock grafting (CLAIM-LOCK baseline).
    SvLock,
    /// Hirschberg–Chandra–Sarwate.
    Hcs,
}

impl Algorithm {
    /// Stable identifier for output and the command line.
    pub fn id(&self) -> &'static str {
        match self {
            Algorithm::Sequential => "seq",
            Algorithm::BaderCong => "bader-cong",
            Algorithm::Sv => "sv",
            Algorithm::SvLock => "sv-lock",
            Algorithm::Hcs => "hcs",
        }
    }
}

/// How a cell is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Deterministic Helman–JáJá executor (E4500 profile): the figure-
    /// shape substitute for the paper's 14-way SMP (DESIGN.md §4).
    Model,
    /// Real threads on the host, wall-clock timed. On the single-core
    /// reproduction host this exercises the full code paths but cannot
    /// show real speedup.
    Wall,
}

/// One measured cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultRow {
    /// Workload id.
    pub workload: String,
    /// Algorithm id.
    pub algorithm: String,
    /// Evaluation mode.
    pub mode: Mode,
    /// Vertices in the built graph.
    pub n: usize,
    /// Undirected edges.
    pub m: usize,
    /// Processors.
    pub p: usize,
    /// Time in seconds (model-predicted or wall-clock).
    pub seconds: f64,
    /// Iterations (SV/HCS) when applicable.
    pub iterations: Option<usize>,
    /// Multi-colored race count (Bader–Cong wall runs).
    pub multi_colored: Option<usize>,
    /// Whether the starvation fallback fired.
    pub fallback: Option<bool>,
    /// Successful steals (work-stealing wall runs).
    pub steals: Option<usize>,
    /// Queue items moved by steals.
    pub stolen_items: Option<usize>,
    /// Items that ever entered a shared queue (seeds + threshold
    /// publications + steal re-pushes).
    pub items_published: Option<usize>,
}

/// Runs one (workload, algorithm, p) cell on a pre-built graph.
///
/// `Model` mode supports `Sequential`, `BaderCong` and `Sv` (the three
/// lines of the paper's figures); `SvLock` and `Hcs` exist only as real
/// implementations and run in `Wall` mode.
///
/// # Panics
///
/// Panics if an algorithm's output fails spanning-forest validation —
/// the harness refuses to report timings for wrong answers.
pub fn run_cell(
    workload: Workload,
    g: &CsrGraph,
    algorithm: Algorithm,
    p: usize,
    mode: Mode,
    machine: &MachineProfile,
) -> ResultRow {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let mut iterations = None;
    let mut multi_colored = None;
    let mut fallback = None;
    let mut steals = None;
    let mut stolen_items = None;
    let mut items_published = None;

    let seconds = match (mode, algorithm) {
        (Mode::Model, Algorithm::Sequential) => {
            let (report, parents) = simulate_sequential_bfs(g, machine);
            assert_valid(g, &parents, workload, algorithm);
            report.predicted_seconds()
        }
        (Mode::Model, Algorithm::BaderCong) => {
            let out = simulate_bader_cong(g, p, TraversalSimConfig::default(), machine);
            assert_valid(g, &out.parents, workload, algorithm);
            out.report.predicted_seconds()
        }
        (Mode::Model, Algorithm::Sv) => {
            let out = simulate_sv(g, p, machine);
            iterations = Some(out.iterations);
            out.report.predicted_seconds()
        }
        (Mode::Model, other) => {
            panic!("model mode does not implement {:?}; use wall mode", other)
        }
        // Wall cells report the median of WALL_REPS runs; the last run's
        // output is validated.
        (Mode::Wall, Algorithm::Sequential) => {
            let (m, f) = crate::timing::measure_with_result(WALL_REPS, || seq::bfs_forest(g));
            assert_valid(g, &f.parents, workload, algorithm);
            m.median()
        }
        (Mode::Wall, Algorithm::BaderCong) => {
            let algo = BaderCong::new(bader_cong_wall_config());
            let (m, f) = with_engine(p, |e| {
                crate::timing::measure_with_result(WALL_REPS, || e.run(&algo, g))
            });
            assert_valid(g, &f.parents, workload, algorithm);
            let count = |c| Some(f.stats.metrics.get(c) as usize);
            multi_colored = count(Counter::MultiColored);
            fallback = Some(f.stats.fallback_triggered);
            steals = count(Counter::Steals);
            stolen_items = count(Counter::StolenItems);
            items_published = count(Counter::ItemsPublished);
            m.median()
        }
        (Mode::Wall, Algorithm::Sv) | (Mode::Wall, Algorithm::SvLock) => {
            let algo = Sv::new(SvConfig {
                variant: if algorithm == Algorithm::SvLock {
                    GraftVariant::Lock
                } else {
                    GraftVariant::Election
                },
            });
            let (m, f) = with_engine(p, |e| {
                crate::timing::measure_with_result(WALL_REPS, || e.run(&algo, g))
            });
            assert_valid(g, &f.parents, workload, algorithm);
            iterations = Some(f.stats.metrics.get(Counter::GraftIterations) as usize);
            m.median()
        }
        (Mode::Wall, Algorithm::Hcs) => {
            let (m, f) = with_engine(p, |e| {
                crate::timing::measure_with_result(WALL_REPS, || e.run(&Hcs, g))
            });
            assert_valid(g, &f.parents, workload, algorithm);
            iterations = Some(f.stats.metrics.get(Counter::GraftIterations) as usize);
            m.median()
        }
    };

    ResultRow {
        workload: workload.id().to_owned(),
        algorithm: algorithm.id().to_owned(),
        mode,
        n,
        m,
        p,
        seconds,
        iterations,
        multi_colored,
        fallback,
        steals,
        stolen_items,
        items_published,
    }
}

fn assert_valid(g: &CsrGraph, parents: &[st_graph::VertexId], w: Workload, a: Algorithm) {
    assert!(
        st_graph::validate::is_spanning_forest(g, parents),
        "{} produced an invalid forest on {}",
        a.id(),
        w.id()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_cells_for_all_three_lines() {
        let w = Workload::RandomM15;
        let g = w.build(2_000, 3);
        let machine = MachineProfile::e4500();
        for algo in [Algorithm::Sequential, Algorithm::BaderCong, Algorithm::Sv] {
            let row = run_cell(w, &g, algo, 4, Mode::Model, &machine);
            assert!(row.seconds > 0.0, "{}", algo.id());
            assert_eq!(row.n, 2_000);
        }
    }

    #[test]
    fn wall_cells_for_all_algorithms() {
        let w = Workload::TorusRowMajor;
        let g = w.build(400, 1);
        let machine = MachineProfile::e4500();
        for algo in [
            Algorithm::Sequential,
            Algorithm::BaderCong,
            Algorithm::Sv,
            Algorithm::SvLock,
            Algorithm::Hcs,
        ] {
            let row = run_cell(w, &g, algo, 2, Mode::Wall, &machine);
            assert!(row.seconds >= 0.0, "{}", algo.id());
        }
    }

    #[test]
    #[should_panic(expected = "model mode does not implement")]
    fn model_mode_rejects_hcs() {
        let w = Workload::ChainSeq;
        let g = w.build(50, 0);
        run_cell(
            w,
            &g,
            Algorithm::Hcs,
            2,
            Mode::Model,
            &MachineProfile::e4500(),
        );
    }

    #[test]
    fn model_speedup_shape_on_random() {
        // Who-wins shape at moderate scale: BaderCong(8) < Sequential <
        // SV(8) is the expected ordering on random graphs per Fig. 4c.
        let w = Workload::RandomM15;
        let g = w.build(1 << 13, 5);
        let machine = MachineProfile::e4500();
        let seq_row = run_cell(w, &g, Algorithm::Sequential, 1, Mode::Model, &machine);
        let bc = run_cell(w, &g, Algorithm::BaderCong, 8, Mode::Model, &machine);
        let sv = run_cell(w, &g, Algorithm::Sv, 8, Mode::Model, &machine);
        assert!(bc.seconds < seq_row.seconds);
        assert!(sv.seconds > bc.seconds);
    }
}
