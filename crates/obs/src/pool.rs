//! The service's metrics, each declared once.
//!
//! [`JobMetrics`](crate::JobMetrics) describes one job; a shared
//! service also needs the *population* view — how many jobs entered,
//! how they left, how deep the admission queue runs, how busy the teams
//! are, and how long jobs waited and ran. Every such metric is one row
//! of the declaration table (`service_metrics!` below): its
//! Prometheus family name, help text, kind, label key and values, and
//! the storage behind each sample. Everything else is derived from
//! that table:
//!
//! * [`PoolGauges`] — the storage: one relaxed atomic per stored
//!   sample (at a static index) and one [`ShardedHistogram`] per
//!   histogram series, bumped by the `on_*` event methods from the
//!   service's submitters and dispatchers;
//! * [`PoolSnapshot`] — a serializable copy of every stored sample, one
//!   field per sample, read out for dashboards, logs, and benchmarks;
//! * [`FAMILIES`] — the table as data, which
//!   [`render_service_prometheus`](crate::render_service_prometheus)
//!   walks to render the whole `/metrics` page.
//!
//! Slots are Relaxed: they are statistics, not synchronization. The
//! snapshot is therefore approximate under concurrency — each value is
//! individually correct, but the set is not an atomic cut.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use serde::Serialize;

use crate::hist::{HistogramSnapshot, ShardedHistogram};

/// Number of admission-queue priority lanes the gauges track (the
/// service's High / Normal / Low classes, in that order).
pub const QUEUE_LANES: usize = 3;

/// Lowercase lane names, index-aligned with the admission lanes.
const LANE_NAMES: [&str; QUEUE_LANES] = ["high", "normal", "low"];

/// Recorder shards per histogram series. Dispatcher threads are the
/// only job recorders, one per team; 8 covers every realistic team
/// layout without a cache-padded array per core.
const HIST_SHARDS: usize = 8;

/// Prometheus metric type of a family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone count (`_total` suffix).
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Latency distribution (`_bucket`/`_sum`/`_count` samples).
    Histogram,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One row of the declaration table: a metric family of the page.
#[derive(Debug)]
pub struct Family {
    /// Family name (`st_service_…`).
    pub name: &'static str,
    /// HELP text.
    pub help: &'static str,
    /// TYPE of the family.
    pub kind: Kind,
    /// Label key of the family's series; `None` for a single unlabeled
    /// series.
    pub label: Option<&'static str>,
    pub(crate) series: Series,
}

/// Where a family's samples come from.
#[derive(Debug)]
pub(crate) enum Series {
    /// Stored samples: (label value, slot index, divisor applied when
    /// rendering).
    Slots(&'static [(&'static str, usize, f64)]),
    /// One unlabeled value computed from the snapshot.
    Derived(fn(&PoolSnapshot) -> f64),
    /// Histogram storage, one series per label value.
    Histogram(Hist),
}

/// Label values of a histogram family.
#[derive(Clone, Copy, Debug)]
enum Labels {
    /// Known when the table is written.
    Fixed(&'static [&'static str]),
    /// The algorithm names the service passes to [`PoolGauges::new`].
    Algorithms,
}
use Labels::{Algorithms, Fixed};

/// Returns the optional table entry, else the default.
macro_rules! or_default {
    ($default:expr) => {
        $default
    };
    ($default:expr, $given:expr) => {
        $given
    };
}

/// Expands the declaration table into the storage index ([`Slot`]),
/// [`PoolSnapshot`], [`Hist`], and [`FAMILIES`].
///
/// * `slots` rows: kind, name, help, optional label key, then one
///   `["label value"] snapshot_field [/ divisor]` per sample. Samples of
///   one row get consecutive slots, so a lane or outcome index is an
///   offset from the row's first slot.
/// * `derived` rows: an unlabeled gauge computed from the snapshot.
/// * `histograms` rows: storage name, family name, help, optional
///   `label_key = values`.
macro_rules! service_metrics {
    (
        slots {$(
            $kind:ident $name:literal $help:literal $($key:ident)? {
                $( $($value:literal)? $field:ident $(/ $div:literal)? ),+ $(,)?
            }
        )*}
        derived {$(
            $dkind:ident $dname:literal $dhelp:literal = $compute:expr;
        )*}
        histograms {$(
            $hist:ident $hname:literal $hhelp:literal $($hkey:ident = $values:expr)?;
        )*}
    ) => {
        /// Storage index of every stored sample, in table order.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum Slot { $($($field,)+)* }

        const NUM_SLOTS: usize = [$($(stringify!($field),)+)*].len();

        /// Label value of every slot (`""` in unlabeled families).
        const SLOT_LABELS: [&str; NUM_SLOTS] = [$($(or_default!("" $(, $value)?),)+)*];

        /// A point-in-time copy of every stored sample of a
        /// [`PoolGauges`]; each field's doc names the series it backs.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
        pub struct PoolSnapshot {$($(
            #[doc = concat!("`", $name, $("{", $value, "}",)? "`: ", $help $(, " Raw units; the page divides by ", stringify!($div), ".")?)]
            pub $field: u64,
        )+)*}

        impl PoolSnapshot {
            pub(crate) fn from_slots(v: &[u64; NUM_SLOTS]) -> Self {
                Self { $($($field: v[Slot::$field as usize],)+)* }
            }
        }

        /// The histogram families' storage, in table order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Hist {$(
            #[doc = concat!("`", $hname, "`: ", $hhelp)]
            $hist,
        )*}

        const NUM_HISTS: usize = [$(stringify!($hist),)*].len();

        /// Label values of every histogram family, by [`Hist`].
        const HIST_LABELS: [Labels; NUM_HISTS] = [$(or_default!(Fixed(&[""]) $(, $values)?),)*];

        /// The declaration table: every family of the service's
        /// `/metrics` page, in page order.
        pub const FAMILIES: &[Family] = &[
            $(Family {
                name: $name,
                help: $help,
                kind: Kind::$kind,
                label: or_default!(None $(, Some(stringify!($key)))?),
                series: Series::Slots(&[$((
                    or_default!("" $(, $value)?),
                    Slot::$field as usize,
                    or_default!(1.0 $(, $div)?),
                ),)+]),
            },)*
            $(Family {
                name: $dname,
                help: $dhelp,
                kind: Kind::$dkind,
                label: None,
                series: Series::Derived($compute),
            },)*
            $(Family {
                name: $hname,
                help: $hhelp,
                kind: Kind::Histogram,
                label: or_default!(None $(, Some(stringify!($hkey)))?),
                series: Series::Histogram(Hist::$hist),
            },)*
        ];
    };
}

service_metrics! {
    slots {
        Counter "st_service_jobs_submitted_total"
            "Jobs accepted by the admission queue or served from the result cache."
            { submitted }
        Counter "st_service_jobs_rejected_total"
            "Submissions rejected at admission, any reason."
            { rejected }
        Counter "st_service_lane_rejected_total"
            "Submissions rejected at admission, by target priority lane."
            lane { "high" rejected_high, "normal" rejected_normal, "low" rejected_low }
        Counter "st_service_reject_reason_total"
            "Submissions rejected at admission, by reason."
            reason {
                "backpressure" rejected_backpressure,
                "quota" rejected_quota,
                "deadline_unmeetable" rejected_deadline_unmeetable,
            }
        Counter "st_service_lane_dequeued_total"
            "Jobs the scheduler drained from each priority lane (its per-lane service rate)."
            lane { "high" dequeued_high, "normal" dequeued_normal, "low" dequeued_low }
        Counter "st_service_jobs_finished_total"
            "Jobs that left the service, by outcome (cached = served from the result cache without executing)."
            outcome {
                "completed" completed,
                "cached" completed_cached,
                "cancelled" cancelled,
                "deadline_exceeded" deadline_exceeded,
                "panicked" panicked,
            }
        Gauge "st_service_queue_depth"
            "Jobs currently waiting in the admission queue."
            { queue_depth }
        Gauge "st_service_lane_queue_depth"
            "Jobs currently waiting, by priority lane."
            lane { "high" queue_depth_high, "normal" queue_depth_normal, "low" queue_depth_low }
        Gauge "st_service_queue_depth_peak"
            "High-water mark of the admission queue depth."
            { max_queue_depth }
        Gauge "st_service_busy_teams"
            "Executor teams currently running a job."
            { busy_teams }
        Counter "st_service_queue_wait_seconds_total"
            "Summed queue wait of finished jobs, seconds."
            { queue_ns_total / 1e9 }
        Counter "st_service_exec_seconds_total"
            "Summed execution time of finished jobs, seconds."
            { exec_ns_total / 1e9 }
        Counter "st_service_result_cache_hits_total"
            "Catalog-addressed submissions served from the result cache."
            { cache_hits }
        Counter "st_service_result_cache_misses_total"
            "Catalog-addressed submissions that had to execute."
            { cache_misses }
        Counter "st_service_updates_incremental_total"
            "Batch updates whose spanning forest was repaired in place."
            { updates_incremental }
        Counter "st_service_updates_recomputed_total"
            "Batch updates that fell back to a full recompute."
            { updates_recomputed }
        Counter "st_service_update_edges_added_total"
            "Edges actually added across all applied batch updates."
            { update_edges_added }
        Counter "st_service_update_edges_removed_total"
            "Edges actually removed across all applied batch updates."
            { update_edges_removed }
    }
    // SLO ratio gauges: ready-made series so dashboards and alert rules
    // need no PromQL division (and stay correct across counter resets).
    derived {
        Gauge "st_service_deadline_miss_ratio"
            "Fraction of finished jobs that exceeded their deadline."
            = |s| ratio(s.deadline_exceeded, s.finished());
        Gauge "st_service_result_cache_hit_ratio"
            "Fraction of catalog-addressed submissions served from the result cache."
            = |s| ratio(s.cache_hits, s.cache_hits + s.cache_misses);
    }
    histograms {
        JobQueue "st_service_job_queue_seconds"
            "Queue wait of completed jobs, by priority lane."
            lane = Fixed(&LANE_NAMES);
        JobExec "st_service_job_exec_seconds"
            "Execution time of completed jobs, by priority lane."
            lane = Fixed(&LANE_NAMES);
        JobWall "st_service_job_wall_seconds"
            "End-to-end latency (queue + exec) of completed jobs, by priority lane."
            lane = Fixed(&LANE_NAMES);
        Update "st_service_update_seconds"
            "Wall latency of applied batch updates, by maintenance mode."
            mode = Fixed(&["incremental", "recomputed"]);
        CachedWall "st_service_cached_wall_seconds"
            "End-to-end latency of submissions served from the result cache.";
        AlgoExec "st_service_algo_exec_seconds"
            "Execution time of completed jobs, by algorithm."
            algorithm = Algorithms;
    }
}

/// `num / den`, or 0 when nothing was counted yet.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// How a job left the service; the order follows the `outcome` values
/// of `st_service_jobs_finished_total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcomeKind {
    /// Finished with a result after real execution.
    Completed,
    /// Served from the result cache without executing.
    Cached,
    /// Explicitly cancelled (before or during execution).
    Cancelled,
    /// Deadline passed (before or during execution).
    DeadlineExceeded,
    /// The algorithm panicked; the pool isolated it.
    Panicked,
}

impl JobOutcomeKind {
    /// The outcome's `outcome` label value on the page.
    pub fn name(self) -> &'static str {
        SLOT_LABELS[Slot::completed as usize + self as usize]
    }
}

/// Why admission refused a submission; the order follows the `reason`
/// values of `st_service_reject_reason_total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue was full (or the submission could not be queued for
    /// another reason of the same kind, e.g. a stale version pin).
    Backpressure,
    /// The tenant's queued-job quota was full.
    Quota,
    /// The lane's queue-delay estimate already exceeded the deadline.
    DeadlineUnmeetable,
}

/// The storage behind every service metric.
#[derive(Debug)]
pub struct PoolGauges {
    slots: [AtomicU64; NUM_SLOTS],
    hists: [Box<[ShardedHistogram]>; NUM_HISTS],
    /// Label values of [`Hist::AlgoExec`].
    algorithms: Box<[&'static str]>,
}

impl PoolGauges {
    /// Fresh, all-zero gauges whose per-algorithm histograms are
    /// labeled `algorithms` (recorded by index into that list).
    pub fn new(algorithms: &[&'static str]) -> Self {
        let algorithms: Box<[&'static str]> = algorithms.into();
        let hists = std::array::from_fn(|h| {
            let series = match HIST_LABELS[h] {
                Fixed(values) => values.len(),
                Algorithms => algorithms.len(),
            };
            (0..series)
                .map(|_| ShardedHistogram::new(HIST_SHARDS))
                .collect()
        });
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            hists,
            algorithms,
        }
    }

    fn slot(&self, first: Slot, offset: usize) -> &AtomicU64 {
        &self.slots[first as usize + offset]
    }

    fn add(&self, first: Slot, offset: usize, n: u64) {
        self.slot(first, offset).fetch_add(n, Relaxed);
    }

    fn record(&self, hist: Hist, series: usize, ns: u64) {
        if let Some(h) = self.hists[hist as usize].get(series) {
            h.record(ns);
        }
    }

    /// Records an accepted submission into priority lane `lane`
    /// (queue depth rises).
    pub fn on_submit(&self, lane: usize) {
        self.add(Slot::submitted, 0, 1);
        self.add(Slot::queue_depth_high, lane, 1);
        let depth = self.slot(Slot::queue_depth, 0).fetch_add(1, Relaxed) + 1;
        self.slot(Slot::max_queue_depth, 0)
            .fetch_max(depth, Relaxed);
    }

    /// Records a submission refused before entering lane `lane`.
    pub fn on_reject(&self, lane: usize, reason: RejectReason) {
        self.add(Slot::rejected, 0, 1);
        self.add(Slot::rejected_high, lane, 1);
        self.add(Slot::rejected_backpressure, reason as usize, 1);
    }

    /// Records a job leaving lane `lane` of the queue for a dispatcher.
    ///
    /// A dequeue without a matching [`on_submit`](Self::on_submit)
    /// (a double-dequeue bug) would wrap the gauge to ~2^64 and poison
    /// every subsequent scrape; the decrement therefore asserts in
    /// debug builds and saturates at zero in release.
    pub fn on_dequeue(&self, lane: usize) {
        self.add(Slot::dequeued_high, lane, 1);
        Self::dec_guarded(self.slot(Slot::queue_depth_high, lane), "lane_depth");
        Self::dec_guarded(self.slot(Slot::queue_depth, 0), "queue_depth");
    }

    /// Decrements `gauge`, refusing to wrap below zero.
    fn dec_guarded(gauge: &AtomicU64, name: &str) {
        let res = gauge.fetch_update(Relaxed, Relaxed, |v| v.checked_sub(1));
        debug_assert!(res.is_ok(), "gauge underflow: {name} decremented below 0");
        let _ = (res, name);
    }

    /// Records a submission served entirely from the result cache: it
    /// counts as submitted and as a cached completion, and its wall
    /// latency goes to the cached series — never to the execution
    /// histograms.
    pub fn on_cache_hit(&self, wall_ns: u64) {
        self.add(Slot::submitted, 0, 1);
        self.add(Slot::cache_hits, 0, 1);
        self.add(Slot::completed, JobOutcomeKind::Cached as usize, 1);
        self.record(Hist::CachedWall, 0, wall_ns);
    }

    /// Records an accepted submission that resolved at the door
    /// without ever entering a queue lane (e.g. its deadline was
    /// already expired): it counts as submitted so the finish counters
    /// stay reconcilable against `submitted`.
    pub fn on_submit_unqueued(&self) {
        self.add(Slot::submitted, 0, 1);
    }

    /// Records a catalog-addressed submission the cache could not serve.
    pub fn on_cache_miss(&self) {
        self.add(Slot::cache_misses, 0, 1);
    }

    /// Records a team starting a job.
    pub fn on_team_busy(&self) {
        self.add(Slot::busy_teams, 0, 1);
    }

    /// Records a team returning to the pool.
    pub fn on_team_idle(&self) {
        self.slot(Slot::busy_teams, 0).fetch_sub(1, Relaxed);
    }

    /// Records one applied batch update: which maintenance path ran
    /// (incremental splice vs full recompute), what the batch actually
    /// changed, and its wall latency.
    pub fn on_update(&self, incremental: bool, edges_added: u64, edges_removed: u64, wall_ns: u64) {
        let mode = usize::from(!incremental);
        self.add(Slot::updates_incremental, mode, 1);
        self.add(Slot::update_edges_added, 0, edges_added);
        self.add(Slot::update_edges_removed, 0, edges_removed);
        self.record(Hist::Update, mode, wall_ns);
    }

    /// Records a job leaving the service after waiting in lane `lane`
    /// (and perhaps running): its outcome and the queue/exec time
    /// totals, plus — for a completed execution only — the latency
    /// histograms of its lane and of algorithm `algo` (an index into
    /// the list given to [`new`](Self::new)).
    pub fn on_finish(
        &self,
        outcome: JobOutcomeKind,
        lane: usize,
        algo: usize,
        queue_ns: u64,
        exec_ns: u64,
    ) {
        self.add(Slot::completed, outcome as usize, 1);
        self.add(Slot::queue_ns_total, 0, queue_ns);
        self.add(Slot::exec_ns_total, 0, exec_ns);
        if outcome == JobOutcomeKind::Completed {
            self.record(Hist::JobQueue, lane, queue_ns);
            self.record(Hist::JobExec, lane, exec_ns);
            self.record(Hist::JobWall, lane, queue_ns + exec_ns);
            self.record(Hist::AlgoExec, algo, exec_ns);
        }
    }

    /// Every stored sample, by slot.
    pub(crate) fn load(&self) -> [u64; NUM_SLOTS] {
        std::array::from_fn(|i| self.slots[i].load(Relaxed))
    }

    /// A point-in-time copy of every stored sample.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot::from_slots(&self.load())
    }

    /// The series of histogram family `hist`, index-aligned with
    /// [`label_values`](Self::label_values).
    pub fn histograms(&self, hist: Hist) -> &[ShardedHistogram] {
        &self.hists[hist as usize]
    }

    /// The label values of histogram family `hist` (`[""]` for an
    /// unlabeled family).
    pub fn label_values(&self, hist: Hist) -> &[&'static str] {
        match HIST_LABELS[hist as usize] {
            Fixed(values) => values,
            Algorithms => &self.algorithms,
        }
    }

    /// Every series of histogram family `hist`, merged.
    pub fn merged(&self, hist: Hist) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for h in self.histograms(hist) {
            merged.merge(&h.snapshot());
        }
        merged
    }
}

impl PoolSnapshot {
    /// Jobs that left the service, by any road (including cached
    /// completions, which never executed).
    pub fn finished(&self) -> u64 {
        self.completed
            + self.completed_cached
            + self.cancelled
            + self.deadline_exceeded
            + self.panicked
    }

    /// Jobs that left the service after actually running or waiting —
    /// the population the queue/exec time totals describe.
    pub fn finished_executed(&self) -> u64 {
        self.completed + self.cancelled + self.deadline_exceeded + self.panicked
    }

    /// Mean queue wait over executed finished jobs, nanoseconds
    /// (0 when none).
    pub fn mean_queue_ns(&self) -> u64 {
        self.queue_ns_total
            .checked_div(self.finished_executed())
            .unwrap_or(0)
    }

    /// Compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("value-tree serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_accounting() {
        let g = PoolGauges::new(&[]);
        g.on_submit(1);
        g.on_submit(2);
        g.on_reject(0, RejectReason::Backpressure);
        let s = g.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.rejected_high, 1);
        assert_eq!(s.rejected_normal + s.rejected_low, 0);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_depth_normal, 1);
        assert_eq!(s.queue_depth_low, 1);
        assert_eq!(s.queue_depth_high, 0);
        assert_eq!(s.max_queue_depth, 2);

        g.on_dequeue(1);
        g.on_team_busy();
        g.on_finish(JobOutcomeKind::Completed, 1, 0, 100, 900);
        g.on_team_idle();
        g.on_dequeue(2);
        g.on_finish(JobOutcomeKind::Cancelled, 2, 0, 50, 0);

        let s = g.snapshot();
        assert_eq!(s.queue_depth, 0);
        assert_eq!(
            s.queue_depth_high + s.queue_depth_normal + s.queue_depth_low,
            0
        );
        assert_eq!(s.dequeued_normal, 1);
        assert_eq!(s.dequeued_low, 1);
        assert_eq!(s.dequeued_high, 0);
        assert_eq!(s.max_queue_depth, 2, "high-water mark must persist");
        assert_eq!(s.busy_teams, 0);
        assert_eq!(s.completed, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.finished(), 2);
        assert_eq!(s.queue_ns_total, 150);
        assert_eq!(s.exec_ns_total, 900);
        assert_eq!(s.mean_queue_ns(), 75);
    }

    #[test]
    fn cache_hits_count_as_submissions_not_queue_entries() {
        let g = PoolGauges::new(&[]);
        g.on_cache_miss();
        g.on_submit(1);
        g.on_dequeue(1);
        g.on_finish(JobOutcomeKind::Completed, 1, 0, 10, 20);
        g.on_cache_hit(5);
        let s = g.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 1, "cached completions stay out of completed");
        assert_eq!(s.completed_cached, 1);
        assert_eq!(s.finished(), 2);
        assert_eq!(s.finished_executed(), 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.queue_depth, 0, "hits never enter the queue");
        assert_eq!(s.max_queue_depth, 1);
        assert_eq!(
            s.mean_queue_ns(),
            10,
            "zero-cost cache hits must not dilute the mean"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "gauge underflow")]
    fn double_dequeue_asserts_in_debug() {
        let g = PoolGauges::new(&[]);
        g.on_submit(0);
        g.on_dequeue(0);
        g.on_dequeue(0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn double_dequeue_saturates_in_release() {
        let g = PoolGauges::new(&[]);
        g.on_submit(0);
        g.on_dequeue(0);
        g.on_dequeue(0);
        let s = g.snapshot();
        assert_eq!(s.queue_depth, 0, "must saturate, not wrap to ~2^64");
        assert_eq!(s.queue_depth_high, 0);
    }

    #[test]
    fn reject_reasons_split_the_total() {
        let g = PoolGauges::new(&[]);
        g.on_reject(0, RejectReason::Backpressure);
        g.on_reject(1, RejectReason::Quota);
        g.on_reject(1, RejectReason::Quota);
        g.on_reject(2, RejectReason::DeadlineUnmeetable);
        let s = g.snapshot();
        assert_eq!(s.rejected, 4, "every reason counts toward the total");
        assert_eq!(s.rejected_quota, 2);
        assert_eq!(s.rejected_deadline_unmeetable, 1);
        assert_eq!(s.rejected_backpressure, 1);
        assert_eq!(s.rejected_high, 1);
        assert_eq!(s.rejected_normal, 2);
        assert_eq!(s.rejected_low, 1);
    }

    #[test]
    fn batch_updates_split_by_maintenance_path() {
        let g = PoolGauges::new(&[]);
        g.on_update(true, 8, 2, 1_000);
        g.on_update(true, 1, 0, 2_000);
        g.on_update(false, 100, 50, 3_000);
        let s = g.snapshot();
        assert_eq!(s.updates_incremental, 2);
        assert_eq!(s.updates_recomputed, 1);
        assert_eq!(s.update_edges_added, 109);
        assert_eq!(s.update_edges_removed, 52);
        let counts: Vec<u64> = g
            .histograms(Hist::Update)
            .iter()
            .map(|h| h.snapshot().count)
            .collect();
        assert_eq!(counts, vec![2, 1], "latency lands under its mode");
    }

    #[test]
    fn outcome_and_reason_indices_follow_the_table() {
        let names: Vec<&str> = [
            JobOutcomeKind::Completed,
            JobOutcomeKind::Cached,
            JobOutcomeKind::Cancelled,
            JobOutcomeKind::DeadlineExceeded,
            JobOutcomeKind::Panicked,
        ]
        .map(JobOutcomeKind::name)
        .to_vec();
        assert_eq!(
            names,
            [
                "completed",
                "cached",
                "cancelled",
                "deadline_exceeded",
                "panicked"
            ]
        );
        let g = PoolGauges::new(&[]);
        g.on_reject(0, RejectReason::DeadlineUnmeetable);
        let s = g.snapshot();
        assert_eq!(s.rejected_deadline_unmeetable, 1);
        assert_eq!(s.rejected_quota + s.rejected_backpressure, 0);
    }

    #[test]
    fn only_completed_executions_feed_the_latency_histograms() {
        let g = PoolGauges::new(&["a", "b"]);
        g.on_finish(JobOutcomeKind::Completed, 0, 1, 10, 20);
        g.on_finish(JobOutcomeKind::Cancelled, 0, 1, 10, 0);
        g.on_cache_hit(7);
        assert_eq!(g.merged(Hist::JobWall).count, 1);
        assert_eq!(g.merged(Hist::JobWall).sum, 30);
        assert_eq!(g.histograms(Hist::AlgoExec)[1].snapshot().count, 1);
        assert_eq!(g.histograms(Hist::AlgoExec)[0].snapshot().count, 0);
        assert_eq!(g.label_values(Hist::AlgoExec), ["a", "b"]);
        assert_eq!(g.merged(Hist::CachedWall).count, 1);
    }

    #[test]
    fn empty_snapshot_means() {
        let s = PoolSnapshot::default();
        assert_eq!(s.finished(), 0);
        assert_eq!(s.mean_queue_ns(), 0);
    }

    #[test]
    fn snapshot_serializes() {
        let g = PoolGauges::new(&[]);
        g.on_submit(0);
        let json = g.snapshot().to_json();
        assert!(json.contains("\"submitted\""));
        assert!(json.contains("\"queue_depth\""));
        assert!(json.contains("\"cache_hits\""));
    }
}
