//! The service: builder, admission queue, and dispatcher threads.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use st_core::engine::{SpanningAlgorithm, Workspace};
use st_core::{BaderCong, RuntimeConfig, SpanningForest};
use st_graph::{CsrGraph, EdgeBatch};
use st_obs::{PoolSnapshot, TraceId};
use st_smp::{CancelToken, ExecutorPool};

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
    graph: Arc<CsrGraph>,
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
    /// Width changes the elastic controller has decided but not yet
    /// landed (team id → target width). Under saturation every team is
    /// leased almost continuously, so the controller alone would
    /// practically never find one idle; dispatchers apply the posted
    /// change right after returning their lease — the one moment a
    /// saturated pool reliably has an idle team.
    pending_resizes: Mutex<HashMap<usize, usize>>,
    pool: ExecutorPool,
    catalog: Arc<GraphCatalog>,
    cache: ResultCache,
    telemetry: Telemetry,
    /// Per-graph incremental forest maintainers for the batch-update
    /// path ([`Service::apply`]); the per-slot inner mutex serializes
    /// updates to one graph while leaving other graphs free.
    updaters: Mutex<HashMap<GraphId, Arc<Mutex<dynamic::GraphUpdater>>>>,
    /// Resolved dynamic-update knobs (builder → defaults).
    dyn_cfg: dynamic::DynConfig,
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

    /// Lands a posted width change for `team` if the team is idle right
    /// now. Called by the controller on its tick (catches a fully idle
    /// pool) and by each dispatcher just after returning its lease
    /// (catches a saturated one). A still-leased team simply stays
    /// posted for the next attempt.
    fn apply_pending_resize(&self, team: usize) {
        let Some(target) = self.pending_resizes.lock().unwrap().get(&team).copied() else {
            return;
        };
        let old = self.pool.team_sizes()[team];
        if old == target || self.pool.try_resize_team(team, target) {
            self.pending_resizes.lock().unwrap().remove(&team);
            if target > old {
                self.telemetry.gauges().on_team_grown();
            } else if target < old {
                self.telemetry.gauges().on_team_shrunk();
            }
        }
    }

    /// Posts a width change and immediately tries to land it.
    fn request_resize(&self, team: usize, target: usize) {
        self.pending_resizes.lock().unwrap().insert(team, target);
        self.apply_pending_resize(team);
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
/// Unset team widths fall back to the `ST_SERVICE_TEAMS` environment
/// variable (via [`RuntimeConfig::from_env`], so a malformed value
/// aborts loudly), then to a machine-derived default layout. Every
/// other unset knob takes its documented default.
#[derive(Debug, Default)]
pub struct ServiceBuilder {
    teams: Option<Vec<usize>>,
    queue_capacity: Option<usize>,
    catalog: Option<Arc<GraphCatalog>>,
    result_cache_capacity: Option<usize>,
    journal_capacity: Option<usize>,
    slow_job_threshold: Option<Duration>,
    tenant_quota: Option<usize>,
    elastic: Option<bool>,
    elastic_idle_ms: Option<u64>,
    elastic_backlog: Option<usize>,
    elastic_max_width: Option<usize>,
    dyn_recompute_fraction: Option<f64>,
}

impl ServiceBuilder {
    /// Sets the pool's team widths, e.g. `[4, 2, 2]` for one 4-wide and
    /// two 2-wide persistent teams.
    ///
    /// # Panics
    ///
    /// [`build`](Self::build) panics if the list is empty or contains a
    /// zero.
    pub fn teams(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.teams = Some(sizes.into_iter().collect());
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

    /// Enables (or explicitly disables) the elastic controller, which
    /// widens teams under sustained backlog and narrows them again
    /// after a sustained idle window. Default off.
    pub fn elastic(mut self, on: bool) -> Self {
        self.elastic = Some(on);
        self
    }

    /// Sets how long the whole pool must sit idle (empty queue, no
    /// leased team) before the controller shrinks one team. Defaults to
    /// [`DEFAULT_ELASTIC_IDLE_MS`].
    pub fn elastic_idle_ms(mut self, ms: u64) -> Self {
        self.elastic_idle_ms = Some(ms);
        self
    }

    /// Sets the queue depth that counts as backlog; sustained backlog
    /// (two consecutive controller ticks) grows one team. Defaults to
    /// [`DEFAULT_ELASTIC_BACKLOG`].
    pub fn elastic_backlog(mut self, depth: usize) -> Self {
        self.elastic_backlog = Some(depth);
        self
    }

    /// Caps how wide the controller may grow any team. Defaults to the
    /// machine's available parallelism.
    pub fn elastic_max_width(mut self, width: usize) -> Self {
        self.elastic_max_width = Some(width);
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
        let teams = self
            .teams
            .or(env.service_teams)
            .unwrap_or_else(default_teams);
        assert!(
            !teams.is_empty() && teams.iter().all(|&p| p > 0),
            "team widths must be a non-empty list of sizes >= 1, got {teams:?}"
        );
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
        let elastic = ElasticConfig {
            enabled: self.elastic.unwrap_or(false),
            idle: Duration::from_millis(self.elastic_idle_ms.unwrap_or(DEFAULT_ELASTIC_IDLE_MS)),
            backlog: self
                .elastic_backlog
                .unwrap_or(DEFAULT_ELASTIC_BACKLOG)
                .max(1),
            max_width: self
                .elastic_max_width
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
                .max(1),
        };
        let dyn_cfg = dynamic::DynConfig {
            recompute_fraction: self
                .dyn_recompute_fraction
                .unwrap_or(dynamic::DEFAULT_DYN_RECOMPUTE_FRACTION),
        };
        assert!(
            dyn_cfg.recompute_fraction.is_finite() && dyn_cfg.recompute_fraction >= 0.0,
            "dynamic recompute fraction must be finite and >= 0, got {}",
            dyn_cfg.recompute_fraction
        );

        let num_teams = teams.len();
        let shared = Arc::new(Shared {
            queue: Mutex::new(Admission::new()),
            space: Condvar::new(),
            work: Condvar::new(),
            capacity,
            tenant_quota: self.tenant_quota,
            queue_delay_est: Default::default(),
            pending_resizes: Mutex::new(HashMap::new()),
            pool: ExecutorPool::new(teams),
            catalog: self.catalog.unwrap_or_default(),
            cache: ResultCache::new(cache_capacity),
            telemetry: Telemetry::new(journal_capacity, slow_threshold_ns),
            updaters: Mutex::new(HashMap::new()),
            dyn_cfg,
        });
        // One dispatcher per team: enough to keep every team busy, and a
        // dispatcher's leased width still adapts per job via best-fit.
        let dispatchers = (0..num_teams)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("st-service-dispatch-{i}"))
                    .spawn(move || dispatcher(&shared))
                    .expect("spawning a dispatcher thread")
            })
            .collect();
        let elastic_controller = elastic.enabled.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("st-service-elastic".to_owned())
                .spawn(move || elastic_controller(&shared, &elastic))
                .expect("spawning the elastic controller thread")
        });
        Service {
            shared,
            dispatchers,
            elastic_controller,
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

/// Default sustained-idle window before the elastic controller shrinks
/// a team (overridden by the builder).
pub const DEFAULT_ELASTIC_IDLE_MS: u64 = 250;

/// Default queue depth the elastic controller treats as backlog
/// (overridden by the builder).
pub const DEFAULT_ELASTIC_BACKLOG: usize = 4;

/// Resolved elastic-controller settings (builder → defaults).
#[derive(Clone, Copy, Debug)]
struct ElasticConfig {
    enabled: bool,
    idle: Duration,
    backlog: usize,
    max_width: usize,
}

/// How often the elastic controller samples queue depth and pool
/// idleness. Short enough that tests with tight idle windows converge,
/// long enough that the controller's lock traffic is negligible.
const ELASTIC_TICK: Duration = Duration::from_millis(10);

/// The elastic controller: widens one team after sustained backlog
/// (two consecutive ticks at or above `backlog`), narrows one after a
/// sustained fully-idle window.
///
/// Resizes ride the pool's lease machinery — [`ExecutorPool::try_resize_team`]
/// only ever claims an *idle* team, so a running job is never
/// disturbed. Decisions are *posted* to the pending-resize board and
/// landed either here (an idle pool) or by a dispatcher the moment it
/// returns its lease (a saturated one). Grow doubles the narrowest team
/// (capped at `max_width`), shrink halves the widest (floored at 1), so
/// width converges geometrically in both directions.
fn elastic_controller(shared: &Shared, cfg: &ElasticConfig) {
    let mut backlog_ticks = 0u32;
    let mut idle_since: Option<Instant> = None;
    loop {
        std::thread::sleep(ELASTIC_TICK);
        let (depth, shutdown) = {
            let q = shared.queue.lock().unwrap();
            (q.len, q.shutdown)
        };
        if shutdown {
            return;
        }
        // Retry earlier postings first — the pool may have gone idle
        // since a busy dispatcher last refused one.
        let posted: Vec<usize> = shared
            .pending_resizes
            .lock()
            .unwrap()
            .keys()
            .copied()
            .collect();
        for team in posted {
            shared.apply_pending_resize(team);
        }

        let all_idle = shared.pool.idle_teams() == shared.pool.num_teams();
        if depth >= cfg.backlog {
            backlog_ticks += 1;
            idle_since = None;
        } else if depth == 0 && all_idle {
            backlog_ticks = 0;
            idle_since.get_or_insert_with(Instant::now);
        } else {
            backlog_ticks = 0;
            idle_since = None;
        }

        if backlog_ticks >= 2 {
            // Sustained backlog: grow the narrowest team with headroom.
            let sizes = shared.pool.team_sizes();
            if let Some((id, w)) = sizes
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, w)| w < cfg.max_width)
                .min_by_key(|&(_, w)| w)
            {
                shared.request_resize(id, (w * 2).min(cfg.max_width));
            }
            // One decision per sustained-backlog observation; the next
            // needs backlog to persist two more ticks.
            backlog_ticks = 0;
        } else if idle_since.is_some_and(|t| t.elapsed() >= cfg.idle) {
            // Sustained idle: narrow the widest team above the floor.
            let sizes = shared.pool.team_sizes();
            if let Some((id, w)) = sizes
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, w)| w > 1)
                .max_by_key(|&(_, w)| w)
            {
                shared.request_resize(id, (w / 2).max(1));
            }
            // Restart the idle clock either way: one shrink per window.
            idle_since = Some(Instant::now());
        }
    }
}

/// Default pool layout: half the cores in one wide team for big jobs,
/// a quarter in each of two narrower teams for small ones (e.g. 8 cores
/// → `[4, 2, 2]`).
fn default_teams() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let half = (cores / 2).max(1);
    let quarter = (cores / 4).max(1);
    vec![half, quarter, quarter]
}

/// A multi-tenant spanning-forest job service.
///
/// Owns a sharded pool of persistent [`Executor`](st_smp::Executor)
/// teams and a bounded, priority-laned admission queue. Tenants submit
/// jobs through the [`job`](Self::job) builder and observe them through
/// [`JobHandle`]s; dispatcher threads lease the best-fitting team per
/// job (adaptively sized by the §3 cost model), enforce deadlines and
/// cooperative cancellation, and isolate panics so one tenant can never
/// take the pool down.
///
/// ```
/// use std::sync::Arc;
/// use st_graph::gen;
/// use st_service::Service;
///
/// let svc = Service::builder().teams([2, 1]).queue_capacity(8).build();
/// let g = Arc::new(gen::torus2d(16, 16));
/// let handle = svc.job(&g).submit().expect("service is open");
/// let forest = handle.wait().expect("no deadline, no cancel");
/// assert_eq!(forest.num_trees(), 1);
/// ```
pub struct Service {
    shared: Arc<Shared>,
    dispatchers: Vec<JoinHandle<()>>,
    elastic_controller: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("teams", &self.shared.pool.team_sizes())
            .field("queue_capacity", &self.shared.capacity)
            .finish()
    }
}

impl Service {
    /// Starts configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// The pool's current team widths (a snapshot — the elastic
    /// controller may retune idle teams between calls).
    pub fn team_sizes(&self) -> Vec<usize> {
        self.shared.pool.team_sizes()
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
            dynamic::drop_updater(&self.shared.updaters, id);
        }
        removed
    }

    /// Applies one batch of edge insertions and deletions to catalog
    /// graph `id`, producing a new version and keeping its spanning
    /// forest current.
    ///
    /// The forest is first repaired *incrementally*, with the repair's
    /// work metered against a budget of the recompute fraction × (n + m)
    /// (see [`ServiceBuilder::dyn_recompute_fraction`]). A repair that
    /// runs over is discarded and the static algorithm recomputes the
    /// forest from scratch. Either way the report says which path ran
    /// and what the batch actually changed.
    ///
    /// Jobs already in flight keep the version they were admitted with;
    /// results cached against older versions stay valid for pinned
    /// submissions and simply never match latest-addressed ones again.
    pub fn apply(&self, id: GraphId, batch: &EdgeBatch) -> Result<UpdateReport, UpdateError> {
        let started = Instant::now();
        let out = dynamic::apply_update(
            &self.shared.catalog,
            &self.shared.pool,
            &self.shared.updaters,
            self.shared.dyn_cfg,
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
        // Resolve the selector to a pinned snapshot. A pinned selector
        // whose version has been superseded may still be served from the
        // result cache — the cache key is exact-version — so the stale
        // error is deferred until after the cache lookup below.
        let (graph, gref, stale) = match spec.graph {
            GraphSel::Latest(id) => {
                let (graph, gref) = self
                    .shared
                    .catalog
                    .resolve_latest(id)
                    .ok_or(JobError::UnknownGraph)?;
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
        // the pinned version's CSR is gone (superseded or evicted).
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
        if let Some(c) = self.elastic_controller.take() {
            let _ = c.join();
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
    /// pool still best-fits: a busy exact-width team means the closest
    /// idle width serves the job.
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
            graph: self.graph,
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

/// One dispatcher thread: pops admitted jobs, leases the best-fitting
/// team, runs the job with cancellation support, and resolves its
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
/// guarded execution, outcome accounting.
fn run_job(shared: &Shared, job: QueuedJob, ws: &mut Workspace) {
    let queue_ns = elapsed_ns(job.submitted_at);
    // A token that fired while the job sat in the queue: resolve without
    // paying for a lease.
    let token = &job.tag.state.token;
    if token.is_cancelled() {
        finish(
            shared,
            &job.tag,
            Err(JobError::from_token(token)),
            queue_ns,
            0,
            None,
        );
        return;
    }

    let preferred = job.preferred_p.unwrap_or_else(|| {
        preferred_width(
            job.graph.num_vertices(),
            job.graph.num_edges(),
            &shared.pool.team_sizes(),
        )
    });
    let lease = shared.pool.lease(preferred);
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
        job.algo.prepare(ws, &job.graph);
        job.algo.run_with_cancel(&job.graph, &lease, ws, token)
    }));
    drop(lease);
    shared.telemetry.gauges().on_team_idle();
    // The lease just came back: if the elastic controller posted a
    // width change for this team, this is the guaranteed-idle window
    // to land it, even when the pool as a whole is saturated.
    shared.apply_pending_resize(team as usize);
    let exec_ns = elapsed_ns(started);

    let result = match run {
        Ok(Ok(forest)) => {
            if let Some(key) = job.cache_slot {
                shared.cache.insert(key, forest.clone());
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
    result: Result<SpanningForest, JobError>,
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
