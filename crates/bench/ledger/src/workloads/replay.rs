//! Traced runs: per-layer metrics.
//!
//! After a traced run's wire phase, every operation is replayed below
//! the wire, timed around public calls: a job through an in-process
//! `Service` (`submit_spec` then `JobHandle::wait`), then through
//! `Engine::run` at p = 1 and p = 2 and through sequential BFS; an
//! update through `Service::apply` and, call by call, through
//! `EdgeBatch::validate → DynForest::touched_estimate → GraphView::apply
//! → DynForest::apply_batch → GraphCatalog::install` on a private
//! catalog. The replay spans carry the wire op's id, so one operation's
//! spans line up across layers in the trace file.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use st_core::{BaderCong, Config, DynForest, Engine, SpanningForest, TraversalConfig, UpdateStats};
use st_graph::{CsrGraph, EdgeBatch, GraphView, Neighbors};
use st_model::analytic;
use st_model::MachineProfile;
use st_obs::{Counter, Phase, PoolSnapshot};
use st_service::dynamic::DEFAULT_DELTA_REBUILD_FRACTION;
use st_service::sizing::preferred_width;
use st_service::{GraphCatalog, GraphId, GraphSel, JobSpec, Service};
use st_smp::{Executor, ExecutorPool};

use super::{micros, millis, JobOp, UpdateOp};
use crate::check;
use crate::registry::Outcome;
use crate::trace::Tracer;

/// Engine counters reported per job (medians over the p = 2 replays).
const COUNTERS: [(Counter, &str); 10] = [
    (Counter::Steals, "core.steals"),
    (Counter::StealAttempts, "core.steal_attempts"),
    (Counter::ItemsPublished, "core.items_published"),
    (Counter::ItemsKeptLocal, "core.items_kept_local"),
    (Counter::MultiColored, "core.multi_colored"),
    (Counter::RoundsTopDown, "core.rounds_top_down"),
    (Counter::RoundsBottomUp, "core.rounds_bottom_up"),
    (Counter::StubWalks, "core.stub_walks"),
    (Counter::Barriers, "core.barriers"),
    (Counter::StarvationTrips, "core.starvation_trips"),
];

/// Rank-summed engine phases reported per job (p = 2 replays).
const PHASES: [(Phase, &str); 4] = [
    (Phase::Stub, "core.stub_ms"),
    (Phase::Traverse, "core.traverse_ms"),
    (Phase::Barrier, "core.barrier_ms"),
    (Phase::Idle, "core.idle_ms"),
];

/// How many empty team jobs and leases the `smp` probes time.
const SMP_PROBES: usize = 2000;

/// Per-layer samples, keyed by the metric they become.
#[derive(Default)]
pub(super) struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Single values set directly (counts, ratios, probe results).
    values: BTreeMap<&'static str, f64>,
    update_stats: UpdateStats,
    fallbacks: usize,
    steals: (u64, u64),
}

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> Result<f64, String> {
        super::median_of(name, self.samples.get(name).map_or(&[][..], Vec::as_slice))
    }

    /// Sets one value directly.
    pub(super) fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Wire-side samples of jobs sent by the traced run.
    pub(super) fn wire_jobs(&mut self, ops: &[JobOp]) {
        for op in ops {
            self.add("net.submit_rtt_us", micros(op.submit));
            self.add("net.wait_ms", millis(op.wait));
            self.add("net.forest_bytes", op.forest_bytes as f64);
            self.add("net.job_ms", millis(op.rtt));
            let kind = if op.traced {
                "wire.traced_ms"
            } else {
                "wire.untraced_ms"
            };
            self.add(kind, millis(op.rtt));
        }
    }

    /// Wire-side samples of updates sent by the traced run.
    pub(super) fn wire_updates(&mut self, ops: &[UpdateOp]) {
        for op in ops {
            self.add("net.update_rtt_us", micros(op.rtt));
            self.add("wire.incremental", f64::from(u8::from(op.incremental)));
        }
    }

    /// Round trips of empty PINGs, in microseconds.
    pub(super) fn pings(&mut self, rtts_us: &[f64]) {
        for &r in rtts_us {
            self.add("net.ping_rtt_us", r);
        }
    }

    /// Counters of the wire-facing service after the traced run.
    pub(super) fn wire_service(&mut self, snap: &PoolSnapshot) {
        let lookups = snap.cache_hits + snap.cache_misses;
        let ratio = if lookups == 0 {
            0.0
        } else {
            snap.cache_hits as f64 / lookups as f64
        };
        self.set("service.cache_hit_ratio", ratio);
        self.set("service.rejected", snap.rejected as f64);
        self.set("service.max_queue_depth", snap.max_queue_depth as f64);
    }

    /// Times empty `Executor::run` calls at p = 2 and lease/give-back
    /// cycles on a pool laid out like the service's.
    pub(super) fn smp_probes(&mut self, team_sizes: &[usize]) {
        let exec = Executor::new(2);
        let runs: Vec<f64> = (0..SMP_PROBES)
            .map(|_| {
                let t = Instant::now();
                exec.run(|ctx| std::hint::black_box(ctx.rank()));
                micros(t.elapsed())
            })
            .collect();
        let pool = ExecutorPool::new(team_sizes.iter().copied());
        let leases: Vec<f64> = (0..SMP_PROBES)
            .map(|_| {
                let t = Instant::now();
                drop(std::hint::black_box(pool.lease(1)));
                micros(t.elapsed())
            })
            .collect();
        self.samples.insert("smp.executor_run_us", runs);
        self.samples.insert("smp.lease_us", leases);
    }

    /// Turns the samples into the declared per-layer metrics.
    pub(super) fn finish(&self, out: &mut Outcome) -> Result<(), String> {
        const MEDIANS: [&str; 28] = [
            "net.ping_rtt_us",
            "net.job_ms",
            "net.submit_rtt_us",
            "net.wait_ms",
            "net.update_rtt_us",
            "net.forest_bytes",
            "service.job_ms",
            "service.queue_us",
            "service.exec_ms",
            "service.dispatch_us",
            "service.team_p",
            "service.apply_us",
            "smp.executor_run_us",
            "smp.lease_us",
            "core.engine_p1_ms",
            "core.engine_p2_ms",
            "core.stub_ms",
            "core.traverse_ms",
            "core.barrier_ms",
            "core.idle_ms",
            "seq.bfs_ms",
            "model.drift_p1",
            "model.drift_p2",
            "dyn.validate_us",
            "dyn.delta_apply_us",
            "dyn.touched_estimate_us",
            "dyn.repair_us",
            "dyn.install_us",
        ];
        for name in MEDIANS.into_iter().chain(COUNTERS.map(|(_, n)| n)) {
            out.set(name, self.median(name)?);
        }
        for (&name, &value) in &self.values {
            out.set(name, value);
        }
        let (p1, p2, bfs) = (
            self.median("core.engine_p1_ms")?,
            self.median("core.engine_p2_ms")?,
            self.median("seq.bfs_ms")?,
        );
        out.set("core.scaling_p2", p1 / p2);
        out.set("core.speedup_vs_bfs_p1", bfs / p1);
        out.set("core.speedup_vs_bfs_p2", bfs / p2);
        let (steals, attempts) = self.steals;
        out.set(
            "core.steal_ratio",
            if attempts == 0 {
                0.0
            } else {
                steals as f64 / attempts as f64
            },
        );
        out.set("core.fallbacks", self.fallbacks as f64);
        let s = self.update_stats;
        out.set("dyn.tree_merges", s.tree_merges as f64);
        out.set("dyn.tree_splits", s.tree_splits as f64);
        out.set("dyn.replacements", s.replacements as f64);
        out.set("dyn.relabeled", s.relabeled as f64);
        let incremental = self
            .samples
            .get("wire.incremental")
            .map_or(&[][..], Vec::as_slice);
        out.set(
            "dyn.incremental_ratio",
            incremental.iter().sum::<f64>() / incremental.len().max(1) as f64,
        );
        // Paired per job (wire vs in-process; service execution vs a
        // direct engine run at the same width) so that drift in the
        // machine's speed between the two halves does not show as a gap.
        out.set("net.overhead_ms", self.median("pair.net_overhead_ms")?);
        out.set("trace.exec_gap_pct", self.median("pair.exec_gap_pct")?);
        out.set(
            "trace.overhead_pct",
            (self.median("wire.traced_ms")? / self.median("wire.untraced_ms")? - 1.0) * 100.0,
        );
        Ok(())
    }
}

/// The algorithm a service job with traversal seed `seed` runs.
fn bader_cong(seed: u64) -> BaderCong {
    BaderCong::new(Config {
        traversal: TraversalConfig {
            seed,
            ..TraversalConfig::default()
        },
        ..Config::default()
    })
}

fn check_local(
    out: &mut Outcome,
    what: &str,
    g: &CsrGraph,
    f: &SpanningForest,
    components: usize,
) -> bool {
    match check::forest(g, &f.parents, &f.roots, components) {
        Ok(()) => true,
        Err(e) => {
            out.wrong(format!("{what} returned a wrong forest: {e}"));
            false
        }
    }
}

/// Replays wire operations below the wire.
pub(super) struct Replayer {
    svc: Service,
    p1: Engine,
    p2: Engine,
    layers: Layers,
}

impl Replayer {
    /// A replayer with a fresh in-process service (shipped defaults).
    pub(super) fn new(layers: Layers) -> Self {
        Self {
            svc: Service::builder().build(),
            p1: Engine::new(1),
            p2: Engine::new(2),
            layers,
        }
    }

    /// The replay service's team layout.
    pub(super) fn team_sizes(&self) -> Vec<usize> {
        self.svc.team_sizes()
    }

    /// The samples collected so far.
    pub(super) fn layers_mut(&mut self) -> &mut Layers {
        &mut self.layers
    }

    /// Stops the replay service and hands back the samples.
    pub(super) fn into_layers(self) -> Layers {
        self.layers
    }

    /// Registers a graph with the replay service.
    pub(super) fn register(&self, g: &Arc<CsrGraph>) -> GraphId {
        self.svc.catalog().register(Arc::clone(g)).id
    }

    /// Replays one wire job on graph `id` (whose current version is
    /// `g`, with `components` components): through the in-process
    /// service, through the engine at p = 1 and p = 2, and through
    /// sequential BFS. Every other job runs the engines before the
    /// service, so neither side always finds the caches warm.
    pub(super) fn job(
        &mut self,
        id: GraphId,
        g: &CsrGraph,
        components: usize,
        op: &JobOp,
        tracer: &Tracer,
        out: &mut Outcome,
    ) {
        let (executed, direct) = if op.op_id % 2 == 1 {
            let direct = self.engine_jobs(g, components, op, tracer, out);
            (self.service_job(id, g, components, op, tracer, out), direct)
        } else {
            let executed = self.service_job(id, g, components, op, tracer, out);
            (executed, self.engine_jobs(g, components, op, tracer, out))
        };
        // Both sides' execution time comes from the same begin/finish
        // instrumentation, so the gap is the service's environment
        // (team thread, cancellation polling), not the stopwatch.
        if let Some((exec_ns, p)) = executed {
            if let Some(&engine_ns) = direct.get(p.wrapping_sub(1)) {
                self.layers
                    .add("pair.exec_gap_pct", (exec_ns / engine_ns - 1.0) * 100.0);
            }
        }

        let t = Instant::now();
        std::hint::black_box(st_core::seq::bfs_forest(g));
        let end = Instant::now();
        tracer.span(op.op_id, "seq.bfs", None, t, end);
        self.layers.add("seq.bfs_ms", millis(end - t));
    }

    /// The in-process half of a job replay. Returns the service's
    /// execution time (ns) and team width when the job ran (cache hits
    /// carry an earlier job's metrics).
    fn service_job(
        &mut self,
        id: GraphId,
        g: &CsrGraph,
        components: usize,
        op: &JobOp,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> Option<(f64, usize)> {
        let spec = JobSpec::new(GraphSel::Latest(id))
            .seed(op.seed)
            .priority(op.priority)
            .tenant(op.tenant);
        let t0 = Instant::now();
        let result = self
            .svc
            .submit_spec(spec)
            .and_then(|s| Ok((s.cached, s.handle.wait()?)));
        let t1 = Instant::now();
        tracer.span(op.op_id, "service.job", None, t0, t1);
        let (cached, forest) = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("in-process replay failed: {e}");
                out.op(false);
                return None;
            }
        };
        let ok = check_local(out, "the in-process service", g, &forest, components);
        out.op(ok);
        if cached {
            return None;
        }
        let m = &forest.stats.metrics;
        let took = t1 - t0;
        self.layers.add("service.job_ms", millis(took));
        self.layers
            .add("pair.net_overhead_ms", millis(op.rtt) - millis(took));
        self.layers.add("service.queue_us", m.queue_ns as f64 / 1e3);
        self.layers.add("service.exec_ms", m.exec_ns as f64 / 1e6);
        self.layers.add(
            "service.dispatch_us",
            (took.as_nanos() as f64 - m.queue_ns as f64 - m.exec_ns as f64) / 1e3,
        );
        self.layers.add("service.team_p", m.p as f64);
        tracer.counts(
            op.op_id,
            &[
                ("queue_ns", m.queue_ns as f64),
                ("exec_ns", m.exec_ns as f64),
                ("p", m.p as f64),
            ],
        );
        Some((m.exec_ns as f64, m.p))
    }

    /// The engine half of a job replay: `Engine::run` at p = 1 and
    /// p = 2. Returns each run's execution time (ns) as its own metrics
    /// report it.
    fn engine_jobs(
        &mut self,
        g: &CsrGraph,
        components: usize,
        op: &JobOp,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> [f64; 2] {
        let algo = bader_cong(op.seed);
        let machine = MachineProfile::default();
        let (n, m) = (g.num_vertices(), g.num_edges());
        let mut exec_ns = [0.0; 2];
        for (p, engine) in [(1, &mut self.p1), (2, &mut self.p2)] {
            let t = Instant::now();
            let f = engine.run(&algo, g);
            let end = Instant::now();
            let name = if p == 1 {
                "core.engine_p1"
            } else {
                "core.engine_p2"
            };
            tracer.span(op.op_id, name, None, t, end);
            let ok = check_local(out, name, g, &f, components);
            out.op(ok);
            let metrics = &f.stats.metrics;
            exec_ns[p - 1] = metrics.exec_ns as f64;
            let secs = (end - t).as_secs_f64();
            let predicted = analytic::new_algorithm(n, m, p).predicted_seconds(&machine, p);
            if p == 1 {
                self.layers.add("core.engine_p1_ms", secs * 1e3);
                self.layers.add("model.drift_p1", secs / predicted);
                continue;
            }
            self.layers.add("core.engine_p2_ms", secs * 1e3);
            self.layers.add("model.drift_p2", secs / predicted);
            for (phase, metric) in PHASES {
                let ns: u64 = metrics
                    .phases
                    .iter()
                    .filter(|t| t.phase == phase)
                    .map(|t| t.total_ns)
                    .sum();
                self.layers.add(metric, ns as f64 / 1e6);
            }
            let mut counts = Vec::with_capacity(COUNTERS.len());
            for (counter, metric) in COUNTERS {
                let v = metrics.get(counter);
                self.layers.add(metric, v as f64);
                counts.push((counter.name(), v as f64));
            }
            tracer.counts(op.op_id, &counts);
            self.layers.steals.0 += metrics.get(Counter::Steals);
            self.layers.steals.1 += metrics.get(Counter::StealAttempts);
            self.layers.fallbacks += usize::from(f.stats.fallback_triggered);
        }
        exec_ns
    }

    /// Replays one wire update through `Service::apply`.
    pub(super) fn apply(
        &mut self,
        id: GraphId,
        batch: &EdgeBatch,
        op_id: Option<u64>,
        tracer: &Tracer,
        out: &mut Outcome,
    ) {
        let t = Instant::now();
        let result = self.svc.apply(id, batch);
        let end = Instant::now();
        out.op(result.is_ok());
        if let Err(e) = result {
            eprintln!("in-process update failed: {e}");
        }
        // Untimed batches (the seeding one) only bring the replay
        // service to the wire's version.
        if let Some(op_id) = op_id {
            tracer.span(op_id, "service.apply", None, t, end);
            self.layers.add("service.apply_us", micros(end - t));
        }
    }
}

/// The update path taken apart: one private catalog and forest
/// maintainer, driven call by call.
pub(super) struct DynReplay {
    catalog: GraphCatalog,
    id: GraphId,
    forest: DynForest,
    engine: Engine,
}

impl DynReplay {
    /// Registers `base` and seeds the maintainer the way the service's
    /// first update does: materialize, run the static algorithm on a
    /// team of the width the service would pick, adopt the forest.
    pub(super) fn seed(base: &Arc<CsrGraph>, team_sizes: &[usize], layers: &mut Layers) -> Self {
        let catalog = GraphCatalog::new();
        let id = catalog.register(Arc::clone(base)).id;
        let p = preferred_width(base.num_vertices(), base.num_edges(), team_sizes);
        let mut engine = Engine::new(p);
        let t = Instant::now();
        let (view, _) = catalog.view(id).expect("just registered");
        let flat = view.materialize();
        let seeded = engine.run(&BaderCong::with_defaults(), &flat);
        let forest = DynForest::from_forest(&seeded);
        layers.set("dyn.seed_ms", millis(t.elapsed()));
        Self {
            catalog,
            id,
            forest,
            engine,
        }
    }

    /// Applies one batch call by call. Every batch takes the
    /// incremental repair here, whatever the service's recompute
    /// policy chose, so that `DynForest::apply_batch` is timed on each.
    pub(super) fn step(
        &mut self,
        batch: &EdgeBatch,
        op_id: u64,
        tracer: &Tracer,
        layers: &mut Layers,
        out: &mut Outcome,
    ) {
        let (view, gref) = self.catalog.view(self.id).expect("registered");
        let mut mark = Instant::now();
        let mut lap = |span: &'static str, metric: &'static str, layers: &mut Layers| {
            let now = Instant::now();
            tracer.span(op_id, span, None, mark, now);
            layers.add(metric, micros(now - mark));
            mark = now;
        };
        let valid = batch.validate(view.num_vertices());
        lap("dyn.validate", "dyn.validate_us", layers);
        if let Err(e) = valid {
            out.wrong(format!("the update stream made an invalid batch: {e}"));
            return;
        }
        std::hint::black_box(self.forest.touched_estimate(batch));
        lap("dyn.touched_estimate", "dyn.touched_estimate_us", layers);
        let (next, flat) = match view.apply(batch) {
            Ok((next, _)) if next.patched_fraction() > DEFAULT_DELTA_REBUILD_FRACTION => {
                let f = next.materialize();
                (GraphView::Flat(Arc::clone(&f)), Some(f))
            }
            Ok((next, _)) => (next, None),
            Err(e) => {
                out.wrong(format!("GraphView::apply refused a valid batch: {e}"));
                return;
            }
        };
        lap("dyn.delta_apply", "dyn.delta_apply_us", layers);
        let (exec, ws) = self.engine.parts_mut();
        let stats = self.forest.apply_batch(&next, batch, exec, ws);
        lap("dyn.repair", "dyn.repair_us", layers);
        let installed = self.catalog.install(self.id, gref.version, next, flat);
        lap("dyn.install", "dyn.install_us", layers);
        if let Err(e) = installed {
            out.wrong(format!("private catalog install failed: {e:?}"));
        }
        tracer.counts(
            op_id,
            &[
                ("tree_merges", stats.tree_merges as f64),
                ("tree_splits", stats.tree_splits as f64),
                ("replacements", stats.replacements as f64),
                ("relabeled", stats.relabeled as f64),
            ],
        );
        let s = &mut layers.update_stats;
        s.tree_merges += stats.tree_merges;
        s.tree_splits += stats.tree_splits;
        s.replacements += stats.replacements;
        s.relabeled += stats.relabeled;
    }

    /// Checks the maintained forest against the final graph.
    pub(super) fn finish(&self, out: &mut Outcome) {
        let (g, _) = self.catalog.resolve_latest(self.id).expect("registered");
        let components = st_graph::validate::count_components(&g);
        let f = self.forest.forest();
        let ok = check_local(out, "the replayed forest maintainer", &g, &f, components);
        out.op(ok);
    }
}
