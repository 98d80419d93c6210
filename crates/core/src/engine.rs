//! The execution engine: reusable workspaces and the
//! [`SpanningAlgorithm`] trait.
//!
//! The paper's experimental methodology runs every algorithm on the same
//! processor team over a long series of inputs. This module reproduces
//! that shape in the API:
//!
//! * [`Workspace`] — an arena owning every scratch structure the
//!   algorithms need (visited bitmap, union-find and hook arrays, hook
//!   labels, election slots, per-rank work queues, graft lists, stub-walk
//!   scratch). Arrays are grown geometrically and *never shrunk*, so
//!   running a sequence of graphs reuses allocations instead of
//!   re-malloc-ing per call — the dominant fixed cost once thread
//!   spawning is gone. A traversal's parent array is not scratch: it
//!   becomes the job's result, so each traversal allocates its own.
//! * [`SpanningAlgorithm`] — the common interface all four parallel
//!   algorithms implement (Bader–Cong, both SV variants, and HCS).
//!   Consumers like [`crate::biconnected`] take
//!   the trait, so any spanning-forest producer can back the higher-level
//!   routines.
//! * [`Engine`] — the convenience bundle: one persistent [`Executor`]
//!   team plus one [`Workspace`], with [`Engine::run`] dispatching any
//!   algorithm on them.
//!
//! ```
//! use st_core::engine::{Engine, SpanningAlgorithm};
//! use st_core::bader_cong::BaderCong;
//! use st_graph::gen::torus2d;
//!
//! let mut engine = Engine::new(4);
//! let algo = BaderCong::with_defaults();
//! let g = torus2d(16, 16);
//! let forest = engine.run(&algo, &g);        // first run grows the arena
//! let again = engine.run(&algo, &g);         // later runs reuse it
//! assert_eq!(forest.roots.len(), again.roots.len());
//! ```

use std::sync::atomic::AtomicU64;
use std::time::Instant;

use st_graph::{CsrGraph, VertexId};
use st_obs::{now_ns, Counter, CounterSet, JobMetrics, Phase, TraceSet};
use st_smp::pad::CacheAligned;
use st_smp::steal::WorkQueue;
use st_smp::{AtomicBitmap, AtomicU32Array, CancelToken, Executor, SpinLock, TeamCtx};

use crate::bader_cong::DriverScratch;
use crate::result::SpanningForest;
use crate::traversal::{Traversal, TraversalConfig};

/// Sentinel for an empty election/candidate slot.
pub(crate) const EMPTY_SLOT: u64 = u64::MAX;

/// Whether `ST_HUGEPAGES` asked for transparent-hugepage backing of
/// the big per-vertex arenas (validated once per process).
pub(crate) fn hugepages_enabled() -> bool {
    crate::traversal::runtime_env().hugepages.unwrap_or(false)
}

/// One rank's tree-edge collection list (locked once per run by its
/// owning rank, drained by the driver afterwards).
pub(crate) type GraftList = CacheAligned<SpinLock<Vec<(VertexId, VertexId)>>>;

/// A reusable arena of algorithm scratch state.
///
/// One workspace serves one algorithm run at a time; the arrays are
/// grown to fit each graph and fully re-initialized (over the live
/// prefix) by the algorithm entry points, so no state leaks between
/// runs. Building a fresh `Workspace` per call is always correct — the
/// point of reusing one is to amortize allocation across a run sequence.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The traversal's visited set, one bit per vertex.
    pub(crate) colored: AtomicBitmap,
    /// Per-vertex `u32` claims: the hooks of
    /// [`DynForest`](crate::dyn_forest::DynForest)'s component merge.
    pub(crate) color: AtomicU32Array,
    /// The union-find of
    /// [`DynForest`](crate::dyn_forest::DynForest)'s component merge.
    pub(crate) uf: AtomicU32Array,
    /// Graft-and-shortcut hook array (SV's `D`, HCS/Borůvka's labels).
    pub(crate) labels: AtomicU32Array,
    /// Iteration-start snapshot of `labels` (Borůvka).
    pub(crate) snap: AtomicU32Array,
    /// Election / candidate / best-edge slots, one per vertex.
    pub(crate) slots: Vec<AtomicU64>,
    /// Per-root graft locks (SV's lock variant only).
    pub(crate) locks: Vec<SpinLock<()>>,
    /// Per-rank stealable frontier queues.
    pub(crate) queues: Vec<CacheAligned<WorkQueue<VertexId>>>,
    /// Flattened edge list scratch (graft passes iterate edges by index).
    pub(crate) edges: Vec<(VertexId, VertexId)>,
    /// Per-rank tree-edge collection lists. Each rank locks only its own
    /// entry; the driver drains them after the team joins, keeping the
    /// capacity in the arena.
    pub(crate) graft: Vec<GraftList>,
    /// The forest driver's walk scratch and marks (Bader–Cong phase 1).
    pub(crate) driver: DriverScratch,
    /// Per-rank observability counters (always on; reset per job).
    pub(crate) counters: CounterSet,
    /// Per-rank phase span rings (recording compiled in only with the
    /// `obs-trace` feature).
    pub(crate) trace: TraceSet,
    /// Set by [`begin_job`](Self::begin_job), consumed by
    /// [`finish_job`](Self::finish_job) for the job's execution time.
    job_started: Option<Instant>,
    /// Queue-wait nanoseconds noted via
    /// [`note_queue_wait`](Self::note_queue_wait), consumed by the next
    /// [`finish_job`](Self::finish_job).
    pending_queue_ns: u64,
    /// Trace id noted via [`note_trace_id`](Self::note_trace_id),
    /// consumed by the next [`finish_job`](Self::finish_job).
    pending_trace_id: u64,
}

impl Workspace {
    /// An empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the arena for an `n`-vertex, `m`-edge graph (what
    /// [`Engine::run`] and the service do before every run). Purely an
    /// allocation hint — every entry point re-initializes what it uses. Fresh
    /// array growth honors `ST_HUGEPAGES` (advised before first touch,
    /// so the initializing writes fault 2 MiB pages directly).
    pub fn reserve(&mut self, n: usize, m: usize) {
        let huge = hugepages_enabled();
        self.colored.ensure_len(n);
        self.labels.ensure_len_with(n, huge);
        if self.edges.capacity() < m {
            self.edges.reserve(m - self.edges.len());
        }
    }

    /// Readies the frontier state for a traversal-family run: visited
    /// bitmap prefix reset, `p` empty queues, and the team detector
    /// retuned to `threshold`.
    pub(crate) fn prep_frontier(
        &mut self,
        n: usize,
        p: usize,
        exec: &Executor,
        threshold: Option<usize>,
    ) {
        self.colored.ensure_len(n);
        self.colored.clear_prefix(n);
        while self.queues.len() < p {
            self.queues.push(CacheAligned::new(WorkQueue::new()));
        }
        // A starved run abandons queue contents; drain defensively so a
        // reused workspace cannot leak stale vertices into the next run.
        for q in &self.queues[..p] {
            while q.pop().is_some() {}
        }
        // Size (but do not reset) the observability stores: a fallback
        // re-enters here mid-job and must keep what was counted so far.
        self.counters.ensure(p);
        self.trace.ensure(p);
        exec.detector().set_threshold(threshold);
    }

    /// Opens an observability window: zeroes the per-rank counters,
    /// span rings, and detector stats, and starts the job's wall clock.
    /// Algorithm entry points call this once per job, before any work
    /// (including seeding) is counted.
    pub fn begin_job(&mut self, exec: &Executor) {
        let p = exec.size();
        self.counters.ensure(p);
        self.trace.ensure(p);
        self.counters.reset();
        self.trace.clear();
        exec.detector().reset_stats();
        self.job_started = Some(Instant::now());
    }

    /// Records how long the upcoming (or running) job waited before
    /// execution — e.g. in a service admission queue. Folded into the
    /// next [`finish_job`](Self::finish_job)'s
    /// [`queue_ns`](st_obs::JobMetrics::queue_ns); jobs that never wait
    /// report zero.
    pub fn note_queue_wait(&mut self, ns: u64) {
        self.pending_queue_ns = ns;
    }

    /// Stamps the upcoming job's [`JobMetrics`] with a service trace
    /// id, so the per-job report can be joined against the service
    /// event journal. Consumed by the next
    /// [`finish_job`](Self::finish_job); jobs submitted outside the
    /// service report zero.
    pub fn note_trace_id(&mut self, trace_id: u64) {
        self.pending_trace_id = trace_id;
    }

    /// Closes the window opened by [`begin_job`](Self::begin_job):
    /// folds the detector's cumulative stats into rank 0's counters and
    /// returns the job's [`JobMetrics`] (merged totals, per-rank
    /// breakdown, and — when `obs-trace` is compiled in — the recorded
    /// spans).
    pub fn finish_job(&mut self, exec: &Executor) -> JobMetrics {
        let p = exec.size();
        let exec_ns = self
            .job_started
            .take()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        let queue_ns = std::mem::take(&mut self.pending_queue_ns);
        let det = exec.detector().stats();
        let slot0 = self.counters.rank(0);
        slot0.add(Counter::DetectorSleeps, det.sleeps);
        slot0.add(Counter::DetectorWakes, det.wakes);
        slot0.add(Counter::StarvationTrips, det.starvation_trips);
        exec.detector().reset_stats();
        JobMetrics {
            trace_id: std::mem::take(&mut self.pending_trace_id),
            p,
            queue_ns,
            exec_ns,
            totals: self.counters.merged(),
            per_rank: self.counters.snapshots(p),
            phases: self.trace.phase_totals(),
            spans: self.trace.drain(),
            spans_dropped: self.trace.dropped(),
        }
    }

    /// Builds a traversal session over `g` on `exec`'s team, resetting
    /// the arena's visited/queue state and allocating the session's
    /// parent array (zeroed, so untouched until the team writes it;
    /// hugepage-advised under `ST_HUGEPAGES`). The returned view
    /// borrows the workspace for its lifetime; drop it (or let
    /// [`Traversal::into_parents`] consume it) before reusing the
    /// workspace.
    pub fn traversal<'a>(
        &'a mut self,
        g: &'a CsrGraph,
        exec: &'a Executor,
        cfg: TraversalConfig,
    ) -> Traversal<'a> {
        let p = exec.size();
        let n = g.num_vertices();
        self.prep_frontier(n, p, exec, cfg.starvation_threshold);
        Traversal::from_parts(
            g,
            &self.colored,
            AtomicU32Array::zeroed(n, hugepages_enabled()),
            &self.queues[..p],
            exec.detector(),
            &self.counters,
            &self.trace,
            cfg,
        )
    }

    /// Fills `edges` with `g`'s edge list (graft passes address edges by
    /// index).
    pub(crate) fn collect_edges(&mut self, g: &CsrGraph) {
        self.edges.clear();
        self.edges.extend(g.edges());
    }

    /// Initializes the hook array prefix: identity, or the caller's
    /// pre-contraction (which must form rooted stars).
    pub(crate) fn init_labels(&mut self, n: usize, init: Option<&[VertexId]>) {
        self.labels.ensure_len_with(n, hugepages_enabled());
        match init {
            Some(init) => {
                assert_eq!(init.len(), n, "init must cover all vertices");
                debug_assert!(
                    init.iter().all(|&r| init[r as usize] == r),
                    "init must be rooted stars"
                );
                for (v, &r) in init.iter().enumerate() {
                    self.labels
                        .store(v, r, std::sync::atomic::Ordering::Relaxed);
                }
            }
            None => {
                for v in 0..n {
                    self.labels
                        .store(v, v as u32, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
    }

    /// Grows the slot array to `n`. It does not reset the prefix: every
    /// hook phase clears its slots at the top of each iteration.
    pub(crate) fn ensure_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            let target = n.max(self.slots.len() * 2);
            self.slots
                .resize_with(target, || AtomicU64::new(EMPTY_SLOT));
        }
    }

    /// Grows the per-root lock array to `n` (lock variant only; the
    /// locks themselves are stateless between runs).
    pub(crate) fn ensure_locks(&mut self, n: usize) {
        if self.locks.len() < n {
            let target = n.max(self.locks.len() * 2);
            self.locks.resize_with(target, || SpinLock::new(()));
        }
    }

    /// Ensures `p` per-rank graft lists exist and are empty.
    pub(crate) fn ensure_graft(&mut self, p: usize) {
        while self.graft.len() < p {
            self.graft
                .push(CacheAligned::new(SpinLock::new(Vec::new())));
        }
        for list in &self.graft[..p] {
            list.lock().clear();
        }
    }

    /// Drains the first `p` graft lists into one vector, in rank order,
    /// keeping the per-rank capacity in the arena.
    pub(crate) fn drain_graft(&mut self, p: usize) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for list in &self.graft[..p] {
            out.extend(list.lock().drain(..));
        }
        out
    }
}

/// A team barrier with per-rank accounting: one [`Counter::Barriers`]
/// episode, the wait in [`Counter::BarrierWaitNs`], and a
/// [`Phase::Barrier`] span. Every barrier of an engine job passes
/// through here, so any rank's `Barriers` is the job's episode count.
/// A barrier is a full team rendezvous, so the `Instant` read around it
/// is noise.
pub(crate) fn timed_barrier(ctx: &TeamCtx<'_>, counters: &CounterSet, trace: &TraceSet) {
    let t_ns = now_ns();
    let t0 = Instant::now();
    ctx.barrier();
    let waited = t0.elapsed().as_nanos() as u64;
    let slot = counters.rank(ctx.rank());
    slot.incr(Counter::Barriers);
    slot.add(Counter::BarrierWaitNs, waited);
    trace
        .rank(ctx.rank())
        .record_span(Phase::Barrier, t_ns, waited);
}

/// Marker error: a job ended early because its [`CancelToken`] fired
/// (explicit cancellation or an expired deadline).
///
/// The workspace and team remain fully reusable after a cancelled run —
/// cancellation abandons results, not infrastructure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("job cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// A spanning-forest algorithm that runs on a persistent team with a
/// reusable workspace.
///
/// Implemented by [`BaderCong`](crate::bader_cong::BaderCong),
/// [`Sv`](crate::sv::Sv) and [`Hcs`](crate::hcs::Hcs); consumed by
/// [`Engine::run`], [`crate::biconnected`], and the service dispatcher.
pub trait SpanningAlgorithm {
    /// Short stable identifier (e.g. for benchmark tables).
    fn name(&self) -> &'static str;

    /// Computes a spanning forest of `g` on `exec`'s team, using (and
    /// re-initializing) `ws` for all scratch state.
    ///
    /// Cooperatively cancellable: the algorithm polls `cancel` at its
    /// natural boundaries (publication points and round barriers for the
    /// traversal family, iteration barriers for graft-and-shortcut) and
    /// returns `Err(Cancelled)` as soon as it observes the token fired,
    /// leaving `ws` and `exec` reusable. Pass [`CancelToken::none`] for
    /// a run that cannot be cancelled.
    fn run(
        &self,
        g: &CsrGraph,
        exec: &Executor,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<SpanningForest, Cancelled>;
}

/// A persistent team plus its workspace: the one-stop handle for
/// running spanning-forest algorithms repeatedly without per-call thread
/// spawns or allocations.
#[derive(Debug)]
pub struct Engine {
    exec: Executor,
    ws: Workspace,
}

impl Engine {
    /// An engine with a team of `p` processors (spawning `p − 1` worker
    /// threads, none for `p == 1`).
    pub fn new(p: usize) -> Self {
        Self {
            exec: Executor::new(p),
            ws: Workspace::new(),
        }
    }

    /// Team size p.
    pub fn processors(&self) -> usize {
        self.exec.size()
    }

    /// The underlying persistent executor.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The workspace (e.g. to pre-[`reserve`](Workspace::reserve) before
    /// a timed section).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Splits the engine into its team and workspace, for entry points
    /// that take both (e.g. a cancellable [`SpanningAlgorithm::run`]).
    pub fn parts_mut(&mut self) -> (&Executor, &mut Workspace) {
        (&self.exec, &mut self.ws)
    }

    /// Runs `algo` on `g`, reusing this engine's team and workspace.
    ///
    /// Uncancellable: runs with [`CancelToken::none`], so it panics only
    /// if a live token carried in the algorithm's own configuration
    /// fires mid-run. Cancellable jobs call [`SpanningAlgorithm::run`]
    /// on [`parts_mut`](Self::parts_mut) with their token.
    pub fn run<A: SpanningAlgorithm + ?Sized>(&mut self, algo: &A, g: &CsrGraph) -> SpanningForest {
        self.ws.reserve(g.num_vertices(), g.num_edges());
        algo.run(g, &self.exec, &mut self.ws, &CancelToken::none())
            .expect("run cancelled mid-flight by a token in the algorithm's configuration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bader_cong::BaderCong;
    use crate::hcs::Hcs;
    use crate::sv::{GraftVariant, Sv, SvConfig};
    use st_graph::gen;
    use st_graph::validate::{count_components, is_spanning_forest};

    fn all_algorithms() -> Vec<Box<dyn SpanningAlgorithm>> {
        vec![
            Box::new(BaderCong::with_defaults()),
            Box::new(Sv::new(SvConfig::default())),
            Box::new(Sv::new(SvConfig {
                variant: GraftVariant::Lock,
            })),
            Box::new(Hcs),
        ]
    }

    #[test]
    fn every_algorithm_runs_through_the_trait() {
        let g = gen::random_gnm(800, 1_200, 5);
        let expected = count_components(&g);
        let mut engine = Engine::new(4);
        for algo in all_algorithms() {
            let f = engine.run(algo.as_ref(), &g);
            assert!(
                is_spanning_forest(&g, &f.parents),
                "{} produced an invalid forest",
                algo.name()
            );
            assert_eq!(f.roots.len(), expected, "{}", algo.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_algorithms().iter().map(|a| a.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate names: {names:?}");
    }

    #[test]
    fn engine_reuse_across_graph_shapes() {
        // One engine over very different shapes; arena state must not
        // leak between runs.
        let mut engine = Engine::new(2);
        let algo = BaderCong::with_defaults();
        for (g, comps) in [
            (gen::star(3_000), 1),
            (gen::chain(50), 1),
            (
                gen::random_gnm(1_000, 600, 2),
                count_components(&gen::random_gnm(1_000, 600, 2)),
            ),
            (gen::torus2d(12, 12), 1),
        ] {
            let f = engine.run(&algo, &g);
            assert!(is_spanning_forest(&g, &f.parents));
            assert_eq!(f.roots.len(), comps);
        }
    }

    #[test]
    fn single_processor_engine() {
        let mut engine = Engine::new(1);
        assert_eq!(engine.processors(), 1);
        let g = gen::torus2d(8, 8);
        let f = engine.run(&BaderCong::with_defaults(), &g);
        assert!(is_spanning_forest(&g, &f.parents));
    }
}
