//! The service: builder, admission queue, and dispatcher threads.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use st_core::engine::{SpanningAlgorithm, Workspace};
use st_core::{BaderCong, RuntimeConfig, SpanningForest};
use st_graph::{CsrGraph, EdgeBatch, GraphView, Neighbors as _};
use st_obs::{PoolSnapshot, TraceId};
use st_smp::{ladder, CancelToken, ExecutorPool};

use crate::catalog::{CacheKey, GraphCatalog, GraphId, ResultCache};
use crate::dynamic::{self, UpdateError, UpdateReport};
use crate::job::{CancelObserver, JobError, JobHandle, JobState, JobTag, Priority};
use crate::sizing::preferred_width;
use crate::spec::{GraphSel, JobSpec};
use crate::telemetry::{Telemetry, DEFAULT_JOURNAL_CAPACITY, DEFAULT_SLOW_JOB_MS};

/// An algorithm a tenant can submit: the engine trait plus the thread
/// bounds the dispatcher needs to carry it across the queue.
type BoxedAlgorithm = Box<dyn SpanningAlgorithm + Send + Sync>;

/// One admitted job, queued until a dispatcher picks it up.
struct QueuedJob {
    /// Handle state, lane, and algorithm label index.
    tag: JobTag,
    /// The version the job reads. Holding the view keeps the version
    /// alive; a delta version is flattened on the job's own team when
    /// it runs ([`GraphCatalog::flatten`]), never in the submitting
    /// thread.
    graph: GraphView,
    algo: BoxedAlgorithm,
    submitted_at: Instant,
    /// Explicit width request; `None` = let the sizing oracle decide.
    preferred_p: Option<usize>,
    /// When the job came through the catalog-addressed path: the key to
    /// publish its forest under on completion.
    cache_slot: Option<CacheKey>,
    /// Tenant the job's queued-slot quota is charged to (0 = anonymous).
    tenant: u64,
}

/// The bounded, priority-laned admission queue.
///
/// Lanes drain under deficit round-robin rather than strict priority:
/// each lane has a weight ([`DEFAULT_LANE_WEIGHTS`]), and a full
/// rotation of the cursor grants every lane `weight` job credits. A
/// saturated high lane therefore gets `weight_high / weight_low` times
/// the bulk lane's throughput instead of starving it outright. Jobs are unit cost — the service
/// cannot know a job's runtime at pop time — so the deficit counts
/// jobs, not bytes.
struct Admission {
    lanes: [VecDeque<QueuedJob>; Priority::LANES],
    len: usize,
    shutdown: bool,
    /// Per-lane unspent credits for the current rotation.
    deficit: [u32; Priority::LANES],
    /// The lane the round-robin cursor currently serves.
    cursor: usize,
    /// Queued jobs per tenant, for the admission quota. Entries are
    /// removed at zero so an idle tenant costs nothing.
    tenants: HashMap<u64, usize>,
}

impl Admission {
    fn new() -> Self {
        Self {
            lanes: Default::default(),
            len: 0,
            shutdown: false,
            // Start the cursor *past* the last lane with no credits:
            // the first pop advances onto lane 0 with a fresh quantum,
            // so a cold queue drains highest-priority-first.
            deficit: [0; Priority::LANES],
            cursor: Priority::LANES - 1,
            tenants: HashMap::new(),
        }
    }

    /// Queued jobs currently charged to `tenant`.
    fn tenant_load(&self, tenant: u64) -> usize {
        self.tenants.get(&tenant).copied().unwrap_or(0)
    }

    fn charge_tenant(&mut self, tenant: u64) {
        *self.tenants.entry(tenant).or_insert(0) += 1;
    }

    fn release_tenant(&mut self, tenant: u64) {
        if let Some(count) = self.tenants.get_mut(&tenant) {
            *count -= 1;
            if *count == 0 {
                self.tenants.remove(&tenant);
            }
        }
    }

    /// Pops the next job under deficit round-robin. The loop always
    /// terminates when a job is queued: every full rotation refreshes
    /// every lane's credits, and at least one lane is non-empty.
    fn pop(&mut self) -> Option<QueuedJob> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.deficit[self.cursor] > 0 {
                if let Some(job) = self.lanes[self.cursor].pop_front() {
                    self.deficit[self.cursor] -= 1;
                    self.len -= 1;
                    self.release_tenant(job.tenant);
                    if self.len == 0 {
                        // The queue drained: every flow went inactive,
                        // so the round ends. The next burst starts a
                        // fresh rotation and drains
                        // highest-priority-first instead of resuming on
                        // stale mid-round credits.
                        self.deficit = [0; Priority::LANES];
                        self.cursor = Priority::LANES - 1;
                    }
                    return Some(job);
                }
                // Lane drained mid-round: forfeit its remaining credits
                // (banking them would let a long-idle lane burst past
                // its weight later).
                self.deficit[self.cursor] = 0;
            }
            self.cursor = (self.cursor + 1) % Priority::LANES;
            self.deficit[self.cursor] = DEFAULT_LANE_WEIGHTS[self.cursor];
        }
    }

    /// Removes a still-queued job by trace id (the eager cancel sweep).
    fn remove_by_trace(&mut self, trace: TraceId) -> Option<QueuedJob> {
        for lane in &mut self.lanes {
            if let Some(i) = lane.iter().position(|j| j.tag.state.trace == trace) {
                let job = lane.remove(i).expect("position came from this lane");
                self.len -= 1;
                self.release_tenant(job.tenant);
                return Some(job);
            }
        }
        None
    }
}

/// State shared by submitters and dispatchers.
struct Shared {
    queue: Mutex<Admission>,
    /// Signals submitters blocked on a full queue.
    space: Condvar,
    /// Signals dispatchers waiting for work.
    work: Condvar,
    capacity: usize,
    /// Max queued jobs any single tenant may hold; `None` = unlimited.
    tenant_quota: Option<usize>,
    /// Per-lane EWMA of observed queue delay (ns), fed at every
    /// dispatcher dequeue and read by deadline-aware admission. The
    /// first sample seeds the estimate directly; after that
    /// `new = old - old/8 + sample/8` (α = 1/8). Relaxed everywhere —
    /// an estimator tolerates torn freshness by construction.
    queue_delay_est: [AtomicU64; Priority::LANES],
    pool: ExecutorPool,
    catalog: Arc<GraphCatalog>,
    cache: ResultCache,
    telemetry: Telemetry,
    /// Per-graph incremental forest maintainers for the batch-update
    /// path ([`Service::apply`]); the per-slot inner mutex serializes
    /// updates to one graph while leaving other graphs free.
    updaters: Mutex<HashMap<GraphId, Arc<Mutex<dynamic::GraphUpdater>>>>,
    /// [`Service::apply`]'s repair-work budget as a fraction of n + m.
    dyn_recompute_fraction: f64,
}

impl Shared {
    /// Feeds one observed queue delay into the per-lane estimator.
    fn note_queue_delay(&self, lane: usize, sample_ns: u64) {
        let est = &self.queue_delay_est[lane];
        let old = est.load(Relaxed);
        let new = if old == 0 {
            sample_ns
        } else {
            old - old / 8 + sample_ns / 8
        };
        est.store(new, Relaxed);
    }

    /// The current queue-delay estimate for `lane`, in nanoseconds
    /// (zero until the first job dequeues from that lane).
    fn queue_delay_estimate_ns(&self, lane: usize) -> u64 {
        self.queue_delay_est[lane].load(Relaxed)
    }
}

impl CancelObserver for Shared {
    /// The eager cancel sweep: if the cancelled job is still queued,
    /// remove it now so its bounded lane slot (and tenant quota charge)
    /// frees immediately instead of when a dispatcher eventually drains
    /// the dead entry. Racing the dispatcher is fine — whoever takes
    /// the job out of the queue first resolves it, the other finds
    /// nothing.
    fn on_handle_cancel(&self, trace: TraceId) {
        let Some(job) = self.queue.lock().unwrap().remove_by_trace(trace) else {
            return;
        };
        // Accounting mirrors the dispatcher's dead-job path, done
        // outside the queue lock: the dequeue, then the finish with the
        // outcome classified from the token (deadline wins over
        // cancel), then a blocked submitter gets the freed slot.
        self.telemetry.on_dequeued(&job.tag);
        let err = JobError::from_token(&job.tag.state.token);
        finish(
            self,
            &job.tag,
            Err(err),
            elapsed_ns(job.submitted_at),
            0,
            None,
        );
        self.space.notify_one();
    }
}

/// Builds a [`Service`]; obtained from [`Service::builder`].
///
/// An unset core budget falls back to the `ST_SERVICE_CORES`
/// environment variable (via [`RuntimeConfig::from_env`], so a
/// malformed value aborts loudly), then to the machine's available
/// parallelism. Every other unset knob takes its documented default.
#[derive(Debug, Default)]
pub struct ServiceBuilder {
    cores: Option<usize>,
    queue_capacity: Option<usize>,
    catalog: Option<Arc<GraphCatalog>>,
    result_cache_capacity: Option<usize>,
    journal_capacity: Option<usize>,
    slow_job_threshold: Option<Duration>,
    tenant_quota: Option<usize>,
    dyn_recompute_fraction: Option<f64>,
}

impl ServiceBuilder {
    /// Sets the core budget `C`: the pool builds the executor [`ladder`]
    /// of `C` cores, runs one dispatcher per core, and never runs more
    /// than `C` ranks at once.
    ///
    /// # Panics
    ///
    /// [`build`](Self::build) panics on zero.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores);
        self
    }

    /// Sets the admission-queue capacity: how many jobs may wait before
    /// `submit` blocks and `try_submit` reports
    /// [`JobError::Backpressure`].
    ///
    /// # Panics
    ///
    /// [`build`](Self::build) panics on zero.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = Some(cap);
        self
    }

    /// Attaches an existing [`GraphCatalog`] (e.g. one pre-loaded from
    /// disk, or shared with another service). By default the service
    /// creates its own empty catalog.
    pub fn catalog(mut self, catalog: Arc<GraphCatalog>) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Sets the result-cache capacity in entries; 0 disables caching.
    /// Defaults to [`DEFAULT_RESULT_CACHE_CAPACITY`].
    pub fn result_cache_capacity(mut self, cap: usize) -> Self {
        self.result_cache_capacity = Some(cap);
        self
    }

    /// Sets the event-journal capacity (lifecycle events retained for
    /// `/debug/journal`, drop-oldest). Defaults to
    /// [`DEFAULT_JOURNAL_CAPACITY`].
    pub fn journal_capacity(mut self, cap: usize) -> Self {
        self.journal_capacity = Some(cap);
        self
    }

    /// Sets the slow-job threshold: a completed job whose wall latency
    /// (queue + exec) meets it has its full [`st_obs::JobMetrics`] kept
    /// in the slow-job log. Defaults to [`DEFAULT_SLOW_JOB_MS`]
    /// milliseconds.
    pub fn slow_job_threshold(mut self, d: Duration) -> Self {
        self.slow_job_threshold = Some(d);
        self
    }

    /// Caps how many queued jobs one tenant may hold at once; a
    /// submission past the cap is rejected with
    /// [`JobError::QuotaExceeded`] without blocking. Unset means
    /// unlimited.
    ///
    /// # Panics
    ///
    /// [`build`](Self::build) panics on zero.
    pub fn tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota);
        self
    }

    /// Sets the repair-work budget of [`Service::apply`], as a fraction
    /// of the graph's n + m: an incremental forest repair that would do
    /// more work than this is abandoned for a full recompute. `0`
    /// recomputes every batch without trying a repair, anything above
    /// `1` never recomputes. Defaults to
    /// [`DEFAULT_DYN_RECOMPUTE_FRACTION`](crate::dynamic::DEFAULT_DYN_RECOMPUTE_FRACTION).
    ///
    /// # Panics
    ///
    /// [`build`](Self::build) panics unless the value is finite and
    /// non-negative.
    pub fn dyn_recompute_fraction(mut self, fraction: f64) -> Self {
        self.dyn_recompute_fraction = Some(fraction);
        self
    }

    /// Spawns the teams and dispatcher threads and opens the service.
    pub fn build(self) -> Service {
        let env = RuntimeConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
        let cores = self.cores.or(env.service_cores).unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        assert!(cores > 0, "the core budget must be >= 1");
        let capacity = self.queue_capacity.unwrap_or(DEFAULT_QUEUE_CAPACITY);
        assert!(capacity > 0, "queue capacity must be >= 1");
        let cache_capacity = self
            .result_cache_capacity
            .unwrap_or(DEFAULT_RESULT_CACHE_CAPACITY);
        let journal_capacity = self.journal_capacity.unwrap_or(DEFAULT_JOURNAL_CAPACITY);
        let slow_threshold_ns = self
            .slow_job_threshold
            .map_or(DEFAULT_SLOW_JOB_MS * 1_000_000, |d| {
                u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
            });
        assert!(
            self.tenant_quota != Some(0),
            "a tenant quota of zero would reject every submission"
        );
        let dyn_recompute_fraction = self
            .dyn_recompute_fraction
            .unwrap_or(dynamic::DEFAULT_DYN_RECOMPUTE_FRACTION);
        assert!(
            dyn_recompute_fraction.is_finite() && dyn_recompute_fraction >= 0.0,
            "dynamic recompute fraction must be finite and >= 0, got {dyn_recompute_fraction}"
        );

        let shared = Arc::new(Shared {
            queue: Mutex::new(Admission::new()),
            space: Condvar::new(),
            work: Condvar::new(),
            capacity,
            tenant_quota: self.tenant_quota,
            queue_delay_est: Default::default(),
            pool: ExecutorPool::new(ladder(cores)),
            catalog: self.catalog.unwrap_or_default(),
            cache: ResultCache::new(cache_capacity),
            telemetry: Telemetry::new(journal_capacity, slow_threshold_ns),
            updaters: Mutex::new(HashMap::new()),
            dyn_recompute_fraction,
        });
        // One dispatcher per core: every lease holds at least one core,
        // so that is enough to keep the whole budget busy.
        let dispatchers = (0..cores)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("st-service-dispatch-{i}"))
                    .spawn(move || dispatcher(&shared))
                    .expect("spawning a dispatcher thread")
            })
            .collect();
        Service {
            shared,
            dispatchers,
        }
    }
}

/// Default admission-queue capacity when the builder sets none.
const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Default result-cache capacity (entries) when the builder sets none.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 64;

/// Deficit-round-robin lane weights `[high, normal, low]`: a saturated
/// high lane gets 4× the low lane's dispatch rate, never all of it.
pub const DEFAULT_LANE_WEIGHTS: [u32; Priority::LANES] = [4, 2, 1];

/// A multi-tenant spanning-forest job service.
///
/// Owns one budget of cores over a ladder of persistent
/// [`Executor`](st_smp::Executor) teams and a bounded, priority-laned
/// admission queue. Tenants submit jobs through the [`job`](Self::job)
/// builder and observe them through [`JobHandle`]s; dispatcher threads
/// lease as many cores per job as its graph can use
/// ([`sizing::preferred_width`](crate::sizing::preferred_width)),
/// enforce deadlines and cooperative cancellation, and isolate panics so
/// one tenant can never take the pool down.
///
/// ```
/// use std::sync::Arc;
/// use st_graph::gen;
/// use st_service::Service;
///
/// let svc = Service::builder().cores(2).queue_capacity(8).build();
/// let g = Arc::new(gen::torus2d(16, 16));
/// let handle = svc.job(&g).submit().expect("service is open");
/// let forest = handle.wait().expect("no deadline, no cancel");
/// assert_eq!(forest.num_trees(), 1);
/// ```
pub struct Service {
    shared: Arc<Shared>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("teams", &self.shared.pool.widths())
            .field("queue_capacity", &self.shared.capacity)
            .finish()
    }
}

impl Service {
    /// Starts configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// The pool's executor ladder, widest first: its first entry is the
    /// core budget (see [`ServiceBuilder::cores`]).
    pub fn team_sizes(&self) -> Vec<usize> {
        self.shared.pool.widths().to_vec()
    }

    /// The admission queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// A point-in-time copy of the pool gauges (submissions, outcomes,
    /// per-lane queue depth, busy teams, cache hit rates, queue/exec
    /// time totals).
    pub fn snapshot(&self) -> PoolSnapshot {
        self.shared.telemetry.gauges().snapshot()
    }

    /// The full observability page in Prometheus text exposition —
    /// pool gauges, SLO series, and latency histograms. Served by the
    /// TCP front-end's `METRICS` op and the HTTP `/metrics` endpoint.
    pub fn render_metrics(&self) -> String {
        st_obs::render_service_prometheus(self.shared.telemetry.gauges())
    }

    /// The service's telemetry plane: event journal, latency
    /// histograms, in-flight table, slow-job log.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// True while the admission queue accepts submissions (false once
    /// shutdown began). The HTTP `/healthz` endpoint keys off this.
    pub fn is_accepting(&self) -> bool {
        !self.shared.queue.lock().unwrap().shutdown
    }

    /// The service's graph catalog: register/load graphs here, then
    /// address them from [`JobSpec`]s.
    pub fn catalog(&self) -> &Arc<GraphCatalog> {
        &self.shared.catalog
    }

    /// Entries currently held by the result cache.
    pub fn result_cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Removes `id` from the catalog, purges its cached results, and
    /// drops its incremental maintainer. In-flight jobs keep their
    /// graph `Arc` and finish normally.
    pub fn remove_graph(&self, id: GraphId) -> bool {
        let removed = self.shared.catalog.remove(id);
        if removed {
            self.shared.cache.purge_graph(id);
            self.shared.updaters.lock().unwrap().remove(&id);
        }
        removed
    }

    /// Applies one batch of edge insertions and deletions to catalog
    /// graph `id`, producing a new version and keeping its spanning
    /// forest current.
    ///
    /// The forest is first repaired *incrementally* on the calling
    /// thread, with the repair's work metered against a budget of the
    /// recompute fraction × (n + m) (see
    /// [`ServiceBuilder::dyn_recompute_fraction`]). A repair that runs
    /// over is discarded and a Bader–Cong job over the new version
    /// recomputes the forest. The forest is seeded from the version's
    /// default read, `JobSpec::new(gref)`: a cache hit when that read
    /// already ran, else a job whose forest is cached under the
    /// version's default key. Seed and recompute are ordinary jobs of
    /// the anonymous tenant and pass admission. The report says which
    /// path ran and what the batch actually changed.
    ///
    /// Jobs already in flight keep the version they were admitted with;
    /// results cached against older versions stay valid for pinned
    /// submissions and simply never match latest-addressed ones again.
    ///
    /// Nothing installs on an error: [`UpdateError::UnknownGraph`],
    /// [`UpdateError::Batch`] for a vertex outside the graph, or
    /// [`UpdateError::Job`] when the seed or recompute job is refused
    /// at admission (say [`JobError::QuotaExceeded`]) or fails.
    pub fn apply(&self, id: GraphId, batch: &EdgeBatch) -> Result<UpdateReport, UpdateError> {
        let started = Instant::now();
        let out = dynamic::apply_update(
            self,
            &self.shared.updaters,
            self.shared.dyn_recompute_fraction,
            id,
            batch,
        );
        if let Ok(report) = &out {
            self.shared.telemetry.gauges().on_update(
                report.incremental,
                report.outcome.edges_added as u64,
                report.outcome.edges_removed as u64,
                elapsed_ns(started),
            );
        }
        out
    }

    /// Submits a catalog-addressed job, blocking while the admission
    /// queue is full. A cached result resolves the handle immediately
    /// without queueing ([`Submitted::cached`]).
    pub fn submit_spec(&self, spec: JobSpec) -> Result<Submitted, JobError> {
        self.submit_spec_inner(spec, true)
    }

    /// Submits a catalog-addressed job without blocking: a full queue is
    /// [`JobError::Backpressure`]. Cache hits always succeed — they
    /// never need queue space.
    pub fn try_submit_spec(&self, spec: JobSpec) -> Result<Submitted, JobError> {
        self.submit_spec_inner(spec, false)
    }

    fn submit_spec_inner(&self, spec: JobSpec, block: bool) -> Result<Submitted, JobError> {
        let arrived = Instant::now();
        // Resolve the selector to a pinned snapshot; nothing is
        // flattened here. A pinned selector whose version has been
        // superseded may still be served from the result cache — the
        // cache key is exact-version — so the stale error is deferred
        // until after the cache lookup below.
        let (graph, gref, stale) = match spec.graph {
            GraphSel::Latest(id) => {
                let (graph, gref) = self.shared.catalog.view(id).ok_or(JobError::UnknownGraph)?;
                (Some(graph), gref, None)
            }
            GraphSel::Pinned(gref) => match self.shared.catalog.resolve_pinned(gref) {
                None => return Err(JobError::UnknownGraph),
                Some(Ok(graph)) => (Some(graph), gref, None),
                Some(Err(current)) => (None, gref, Some(current)),
            },
        };
        let key = CacheKey {
            graph: gref,
            algorithm: spec.algorithm,
            seed: spec.seed,
            processors: spec.processors.unwrap_or(0),
        };
        let token = match spec.deadline {
            Some(d) => CancelToken::with_deadline(arrived + d),
            None => CancelToken::new(),
        };
        // Front-ends may pre-mint the id (the TCP server does, so the
        // wire reply and the journal agree); otherwise mint here.
        let trace = spec.trace.map(TraceId).unwrap_or_else(TraceId::mint);
        let tag = JobTag {
            state: JobState::new(token, trace),
            lane: spec.priority.lane(),
            algo: Telemetry::algo_index(spec.algorithm.name()),
        };
        let telemetry = &self.shared.telemetry;
        telemetry.on_submitted(&tag);
        // A cache hit completes instantly, so any live deadline is met
        // trivially — but a deadline that is already expired at
        // submission (e.g. Duration::ZERO) must still report
        // DeadlineExceeded, exactly as the executed path would.
        if tag.state.token.is_cancelled() {
            telemetry.gauges().on_submit_unqueued();
            let err = JobError::from_token(&tag.state.token);
            finish(&self.shared, &tag, Err(err), 0, 0, None);
            return Ok(Submitted {
                handle: JobHandle::new(tag.state),
                cached: false,
            });
        }
        if let Some(forest) = self.shared.cache.get(&key) {
            // Short-circuit: the forest is already known for this exact
            // (graph version, algorithm, seed, width). No queue entry,
            // no team lease — the handle resolves before it is returned.
            // The completion counts under the dedicated cached series;
            // the zero-latency hit stays out of the execution
            // histograms.
            telemetry.on_cache_hit(&tag, elapsed_ns(arrived));
            tag.state.finish(Ok(forest));
            return Ok(Submitted {
                handle: JobHandle::new(tag.state),
                cached: true,
            });
        }
        telemetry.gauges().on_cache_miss();
        // A stale pin that the cache could not serve cannot execute:
        // the catalog no longer holds the pinned version.
        let Some(graph) = graph else {
            let current = stale.unwrap_or(gref.version);
            return Err(self.reject(&tag, JobError::StaleVersion(current)));
        };
        let state = Arc::clone(&tag.state);
        let job = QueuedJob {
            tag,
            graph,
            algo: spec.algorithm.instantiate(spec.seed),
            submitted_at: arrived,
            preferred_p: spec.processors,
            cache_slot: Some(key),
            tenant: spec.tenant,
        };
        self.enqueue(job, block)?;
        Ok(Submitted {
            handle: JobHandle::new(state),
            cached: false,
        })
    }

    /// Starts a job submission for `g`. The graph is shared by `Arc` so
    /// many tenants can submit the same graph without copying it.
    pub fn job<'s>(&'s self, g: &Arc<CsrGraph>) -> JobBuilder<'s> {
        JobBuilder {
            service: self,
            graph: Arc::clone(g),
            algo: None,
            deadline: None,
            priority: Priority::Normal,
            preferred_p: None,
            tenant: 0,
        }
    }

    /// Closes the queue and joins the dispatchers. Queued jobs that
    /// never ran resolve to [`JobError::ShuttingDown`]; the running job
    /// on each team completes first. Dropping the service does the same.
    pub fn shutdown(mut self) -> PoolSnapshot {
        self.shutdown_inner();
        self.snapshot()
    }

    fn shutdown_inner(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for d in self.dispatchers.drain(..) {
            let _ = d.join();
        }
    }

    /// Records a rejected submission (the reason-tagged reject gauge
    /// plus the journal's terminal event for the trace) and hands the
    /// error back.
    fn reject(&self, job: &JobTag, err: JobError) -> JobError {
        self.shared.telemetry.on_rejected(job, &err);
        err
    }

    fn enqueue(&self, job: QueuedJob, block: bool) -> Result<(), JobError> {
        let lane = job.tag.lane;
        // Register the eager-cancel hook before the job can be queued,
        // so a cancel racing this submission can never miss the sweep.
        job.tag
            .state
            .set_cancel_observer(Arc::downgrade(&self.shared) as Weak<dyn CancelObserver>);
        let mut q = self.shared.queue.lock().unwrap();
        loop {
            if q.shutdown {
                drop(q);
                let err = JobError::ShuttingDown;
                self.shared
                    .telemetry
                    .journal_finished(&job.tag, None, err.name());
                return Err(err);
            }
            // Per-tenant quota: rejected even on the blocking path —
            // the tenant is over *its own* cap, so waiting for global
            // space would not help and would stall the caller forever
            // if its own jobs are the ones gated behind it.
            if let Some(quota) = self.shared.tenant_quota {
                if q.tenant_load(job.tenant) >= quota {
                    drop(q);
                    return Err(self.reject(&job.tag, JobError::QuotaExceeded));
                }
            }
            // Deadline-aware admission: when this lane's observed queue
            // delay already exceeds the job's remaining deadline, the
            // job would almost surely expire in the queue — reject now
            // so the tenant can retry elsewhere instead of burning a
            // bounded slot on a doomed job.
            if let Some(deadline) = job.tag.state.token.deadline() {
                let remaining = deadline
                    .saturating_duration_since(Instant::now())
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64;
                if self.shared.queue_delay_estimate_ns(lane) > remaining {
                    drop(q);
                    return Err(self.reject(&job.tag, JobError::DeadlineUnmeetable));
                }
            }
            if q.len < self.shared.capacity {
                break;
            }
            if !block {
                drop(q);
                return Err(self.reject(&job.tag, JobError::Backpressure));
            }
            q = self.shared.space.wait(q).unwrap();
        }
        q.charge_tenant(job.tenant);
        // Journaled while still holding the queue lock: the dispatcher
        // can only pop (and journal `dequeued`) after this lock drops,
        // so a trace's events always read submitted < admitted <
        // dequeued.
        self.shared.telemetry.on_admitted(&job.tag);
        q.lanes[lane].push_back(job);
        q.len += 1;
        drop(q);
        self.shared.work.notify_one();
        Ok(())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The outcome of a [`JobSpec`] submission.
#[derive(Debug)]
pub struct Submitted {
    /// The job's handle; already resolved when `cached` is true.
    pub handle: JobHandle,
    /// True when the result came from the cache and no job was queued.
    pub cached: bool,
}

impl Submitted {
    /// Unwraps into the handle when the caller does not care about
    /// provenance.
    pub fn into_handle(self) -> JobHandle {
        self.handle
    }
}

/// A pending submission, built by [`Service::job`].
pub struct JobBuilder<'s> {
    service: &'s Service,
    graph: Arc<CsrGraph>,
    algo: Option<BoxedAlgorithm>,
    deadline: Option<Duration>,
    priority: Priority,
    preferred_p: Option<usize>,
    tenant: u64,
}

impl std::fmt::Debug for JobBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobBuilder")
            .field("n", &self.graph.num_vertices())
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl JobBuilder<'_> {
    /// Selects the algorithm (default:
    /// [`BaderCong::with_defaults`](st_core::BaderCong::with_defaults)).
    pub fn algorithm<A: SpanningAlgorithm + Send + Sync + 'static>(mut self, algo: A) -> Self {
        self.algo = Some(Box::new(algo));
        self
    }

    /// Attaches a deadline, measured from submission and covering queue
    /// wait plus execution. A job past its deadline resolves to
    /// [`JobError::DeadlineExceeded`]; a running job stops at its next
    /// cancellation boundary.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the admission priority class (default
    /// [`Priority::Normal`]).
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Requests a specific team width, bypassing the sizing oracle. The
    /// pool still leases only free cores: the job gets the widest ladder
    /// width no wider than the request or the cores free at dispatch.
    pub fn processors(mut self, p: usize) -> Self {
        self.preferred_p = Some(p);
        self
    }

    /// Names the tenant whose queued-job quota this submission is
    /// charged against (default 0, the shared anonymous tenant).
    pub fn tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }

    /// Submits, blocking while the admission queue is full. Fails only
    /// when the service is shutting down.
    pub fn submit(self) -> Result<JobHandle, JobError> {
        self.enqueue(true)
    }

    /// Submits without blocking: a full queue is
    /// [`JobError::Backpressure`], leaving the caller to shed load or
    /// retry.
    pub fn try_submit(self) -> Result<JobHandle, JobError> {
        self.enqueue(false)
    }

    fn enqueue(self, block: bool) -> Result<JobHandle, JobError> {
        let token = match self.deadline {
            Some(d) => CancelToken::with_deadline(Instant::now() + d),
            None => CancelToken::new(),
        };
        let algo = self
            .algo
            .unwrap_or_else(|| Box::new(BaderCong::with_defaults()));
        // Custom algorithms outside the catalog set share one "other"
        // histogram label — the Prometheus series set stays bounded.
        let tag = JobTag {
            state: JobState::new(token, TraceId::mint()),
            lane: self.priority.lane(),
            algo: Telemetry::algo_index(algo.name()),
        };
        self.service.shared.telemetry.on_submitted(&tag);
        let state = Arc::clone(&tag.state);
        let job = QueuedJob {
            tag,
            graph: GraphView::Flat(self.graph),
            algo,
            submitted_at: Instant::now(),
            preferred_p: self.preferred_p,
            // Ad-hoc graphs have no catalog identity, so their results
            // cannot be cached or shared.
            cache_slot: None,
            tenant: self.tenant,
        };
        self.service.enqueue(job, block)?;
        Ok(JobHandle::new(state))
    }
}

/// One dispatcher thread: pops admitted jobs, leases cores for each,
/// runs the job with cancellation support, and resolves its
/// handle. Each dispatcher keeps a private [`Workspace`] so scratch
/// allocations amortize across the jobs it runs.
fn dispatcher(shared: &Shared) {
    let mut ws = Workspace::new();
    loop {
        let (job, draining) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop() {
                    break (job, q.shutdown);
                }
                if q.shutdown {
                    return;
                }
                q = shared.work.wait(q).unwrap();
            }
        };
        shared.telemetry.on_dequeued(&job.tag);
        let queue_ns = elapsed_ns(job.submitted_at);
        // Every dequeue feeds the lane's queue-delay estimator — the
        // drained and cancelled paths included, since they waited just
        // as long as a job that goes on to run.
        shared.note_queue_delay(job.tag.lane, queue_ns);
        shared.space.notify_one();
        if draining {
            // Classify from the token, exactly as the executed path
            // would: a job whose deadline expired while it sat in the
            // queue reports `DeadlineExceeded`, not a bogus
            // shutdown-cancellation — shutdown is merely when the
            // queue got around to noticing.
            let token = &job.tag.state.token;
            let err = if token.is_cancelled() {
                JobError::from_token(token)
            } else {
                JobError::ShuttingDown
            };
            finish(shared, &job.tag, Err(err), queue_ns, 0, None);
            continue;
        }
        run_job(shared, job, &mut ws);
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Runs one job start to finish: deadline/cancel pre-check, team lease,
/// guarded flatten and execution, outcome accounting.
fn run_job(shared: &Shared, job: QueuedJob, ws: &mut Workspace) {
    // A token that fired while the job sat in the queue: resolve without
    // paying for a lease.
    let token = &job.tag.state.token;
    if token.is_cancelled() {
        finish(
            shared,
            &job.tag,
            Err(JobError::from_token(token)),
            elapsed_ns(job.submitted_at),
            0,
            None,
        );
        return;
    }

    let preferred = job.preferred_p.unwrap_or_else(|| {
        preferred_width(
            job.graph.num_vertices(),
            job.graph.num_edges(),
            shared.pool.widths(),
        )
    });
    let lease = shared.pool.lease(preferred);
    // Waiting for a free core is queueing too, so a job's wall time
    // stays queue + exec.
    let queue_ns = elapsed_ns(job.submitted_at);
    let team = lease.team_id() as u32;
    shared.telemetry.gauges().on_team_busy();
    shared.telemetry.on_started(&job.tag, team);
    ws.note_queue_wait(queue_ns);
    ws.note_trace_id(job.tag.state.trace.as_u64());
    let started = Instant::now();
    // The guard isolates tenant panics: the lease returns the team on
    // unwind (Executor survives panicked jobs) and the dispatcher
    // replaces its workspace, so the pool keeps serving other tenants.
    let run = catch_unwind(AssertUnwindSafe(|| {
        // Ad-hoc jobs carry flat graphs; a catalog job's delta version
        // is flattened here, on the leased team, once per version.
        let graph = match job.cache_slot {
            Some(key) => shared.catalog.flatten(key.graph, &job.graph, &lease),
            None => job.graph.materialize_on(&lease),
        };
        ws.reserve(graph.num_vertices(), graph.num_edges());
        job.algo.run(&graph, &lease, ws, token)
    }));
    drop(lease);
    shared.telemetry.gauges().on_team_idle();
    let exec_ns = elapsed_ns(started);

    let result = match run {
        Ok(Ok(forest)) => {
            // The one allocation the cache, the handle and a WAIT reply
            // all share: nothing downstream copies the forest.
            let forest = Arc::new(forest);
            if let Some(key) = job.cache_slot {
                shared.cache.insert(key, Arc::clone(&forest));
            }
            Ok(forest)
        }
        Ok(Err(st_core::Cancelled)) => Err(JobError::from_token(token)),
        Err(payload) => {
            // Mid-run unwind can leave the workspace's scratch in an
            // arbitrary state; a fresh arena is the safe restart.
            *ws = Workspace::new();
            Err(JobError::Panicked(panic_message(&*payload)))
        }
    };
    finish(shared, &job.tag, result, queue_ns, exec_ns, Some(team));
}

/// The one way a job with a handle leaves the service: every surface
/// that accounts for it — outcome counters and time totals, latency
/// histograms (completed executions only), in-flight table, slow-job
/// log, and the journal's `finished` event — records the result, then
/// the handle resolves. `team` is the team that ran the job, `None`
/// when it never ran.
fn finish(
    shared: &Shared,
    job: &JobTag,
    result: Result<Arc<SpanningForest>, JobError>,
    queue_ns: u64,
    exec_ns: u64,
    team: Option<u32>,
) {
    let outcome = result.as_ref().map(|forest| &forest.stats.metrics);
    shared
        .telemetry
        .on_finished(job, team, outcome, queue_ns, exec_ns);
    job.state.finish(result);
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
