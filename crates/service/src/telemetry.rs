//! Server-side telemetry: the metrics, the job event journal, the
//! in-flight table, and the slow-job log.
//!
//! [`Telemetry`] answers three questions. *How is the pool doing* —
//! the table-declared [`PoolGauges`]: counters, gauges, and the
//! per-lane and per-algorithm latency histograms the dispatchers
//! record into. *What happened to this particular job* — the bounded
//! [`EventJournal`] of lifecycle events keyed by [`TraceId`] and the
//! in-flight table behind `/debug/jobs`. *Why was it slow* — the
//! slow-job log that keeps the full [`JobMetrics`] of any job whose
//! wall latency crossed the configured threshold.
//!
//! The lifecycle hooks take a `JobTag` and update every surface a
//! transition touches, so the gauges, the journal, and the in-flight
//! table cannot disagree about a job.
//!
//! Everything here is bounded: histograms are fixed arrays, the
//! journal and slow log are drop-oldest rings, and the in-flight table
//! shrinks as jobs finish — telemetry never grows with uptime.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use st_obs::journal::{escape_json_into, EventJournal, JobEventKind, TraceId};
use st_obs::{Hist, JobMetrics, JobOutcomeKind, PoolGauges};

use crate::job::{JobError, JobTag};
use crate::spec::AlgorithmId;

/// Default journal capacity when the builder sets none: six events per
/// job means ~1350 jobs of history at ~100 bytes an event.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

/// Default slow-job threshold (wall latency, queue + exec) when the
/// builder sets none.
pub const DEFAULT_SLOW_JOB_MS: u64 = 1000;

/// Slow-job reports retained (drop-oldest).
const SLOW_LOG_CAPACITY: usize = 32;

/// Histogram label for jobs whose algorithm is not one of the
/// catalog-addressable [`AlgorithmId`]s (in-process submissions of
/// custom [`SpanningAlgorithm`](st_core::engine::SpanningAlgorithm)s).
const OTHER_ALGORITHM: &str = "other";

/// One entry of the in-flight table: a job that has been admitted but
/// has not resolved yet.
#[derive(Clone, Debug)]
pub struct InflightJob {
    /// The job's trace id.
    pub trace: TraceId,
    /// Admission lane (0 = highest priority).
    pub lane: u8,
    /// Algorithm label (an [`AlgorithmId`] name or `"other"`).
    pub algorithm: &'static str,
    /// `"queued"` until a dispatcher starts the job, then `"running"`.
    pub stage: &'static str,
    /// Executing team id once running.
    pub team: Option<u32>,
    /// Journal-epoch nanoseconds when the job was submitted.
    pub submitted_t_ns: u64,
}

/// One slow-job report: the trace id, the wall latency that tripped
/// the threshold, and the job's full metrics (per-rank counters,
/// phases, spans) as rendered JSON.
#[derive(Clone, Debug)]
pub struct SlowJob {
    /// The job's trace id.
    pub trace: TraceId,
    /// Wall latency (queue + exec) in nanoseconds.
    pub wall_ns: u64,
    /// The complete [`JobMetrics`] report, pre-rendered as JSON.
    pub metrics_json: String,
}

/// The service's telemetry plane: metrics, journal, in-flight table,
/// slow-job log.
pub struct Telemetry {
    /// Every table-declared service metric.
    gauges: PoolGauges,
    /// Lifecycle event ring.
    journal: EventJournal,
    /// Wall-latency threshold past which a job's full metrics are kept.
    slow_threshold_ns: u64,
    /// Recent slow-job reports (drop-oldest ring).
    slow: Mutex<VecDeque<SlowJob>>,
    /// Admitted-but-unresolved jobs, keyed by raw trace id.
    inflight: Mutex<HashMap<u64, InflightJob>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("journal", &self.journal)
            .field("slow_threshold_ns", &self.slow_threshold_ns)
            .finish()
    }
}

impl Telemetry {
    /// A fresh telemetry plane with the given journal capacity and
    /// slow-job threshold.
    pub fn new(journal_capacity: usize, slow_threshold_ns: u64) -> Self {
        let algorithms: Vec<&'static str> = AlgorithmId::ALL
            .iter()
            .map(|a| a.name())
            .chain([OTHER_ALGORITHM])
            .collect();
        Self {
            gauges: PoolGauges::new(&algorithms),
            journal: EventJournal::new(journal_capacity),
            slow_threshold_ns,
            slow: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// The index a submission records its algorithm histogram under:
    /// the engine algorithm's position among the catalog
    /// [`AlgorithmId`]s, or the trailing `"other"` slot for custom
    /// algorithms (bounded label set — Prometheus series must not grow
    /// with tenant creativity).
    pub(crate) fn algo_index(engine_name: &str) -> usize {
        AlgorithmId::ALL
            .iter()
            .position(|a| a.name() == engine_name)
            .unwrap_or(AlgorithmId::ALL.len())
    }

    /// The service's metrics: counters, gauges, latency histograms.
    pub fn gauges(&self) -> &PoolGauges {
        &self.gauges
    }

    /// The lifecycle event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The configured slow-job threshold, nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    // ---- lifecycle hooks (called by the service/dispatchers) ----

    /// Journals a submission's `submitted` event, naming its algorithm.
    pub(crate) fn on_submitted(&self, job: &JobTag) {
        self.journal.record_now(
            job.state.trace,
            JobEventKind::Submitted,
            Some(job.lane as u8),
            None,
            Some(self.algo_name(job).to_owned()),
        );
    }

    /// The job's algorithm label.
    fn algo_name(&self, job: &JobTag) -> &'static str {
        self.gauges.label_values(Hist::AlgoExec)[job.algo]
    }

    /// Records a job entering the queue: its in-flight entry, the
    /// queue gauges, and the `admitted` event.
    pub(crate) fn on_admitted(&self, job: &JobTag) {
        let trace = job.state.trace;
        let entry = InflightJob {
            trace,
            lane: job.lane as u8,
            algorithm: self.algo_name(job),
            stage: "queued",
            team: None,
            submitted_t_ns: self.journal.now_ns(),
        };
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(trace.as_u64(), entry);
        self.gauges.on_submit(job.lane);
        self.journal.record_now(
            trace,
            JobEventKind::Admitted,
            Some(job.lane as u8),
            None,
            None,
        );
    }

    /// Records a job leaving its queue lane (for a dispatcher, or swept
    /// out by an eager cancel).
    pub(crate) fn on_dequeued(&self, job: &JobTag) {
        self.gauges.on_dequeue(job.lane);
        self.journal.record_now(
            job.state.trace,
            JobEventKind::Dequeued,
            Some(job.lane as u8),
            None,
            None,
        );
    }

    /// Marks an in-flight job as running on `team` and journals the
    /// start.
    pub(crate) fn on_started(&self, job: &JobTag, team: u32) {
        let trace = job.state.trace;
        if let Some(entry) = self
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&trace.as_u64())
        {
            entry.stage = "running";
            entry.team = Some(team);
        }
        self.journal.record_now(
            trace,
            JobEventKind::Started,
            Some(job.lane as u8),
            Some(team),
            None,
        );
    }

    /// Records a job's end: its outcome in the gauges (and, for a
    /// completed execution, the latency histograms), removal from the
    /// in-flight table, the slow-job report past the threshold, and the
    /// `finished` event naming the outcome.
    pub(crate) fn on_finished(
        &self,
        job: &JobTag,
        team: Option<u32>,
        outcome: Result<&JobMetrics, &JobError>,
        queue_ns: u64,
        exec_ns: u64,
    ) {
        let trace = job.state.trace;
        let (kind, detail) = match outcome {
            Ok(_) => (JobOutcomeKind::Completed, JobOutcomeKind::Completed.name()),
            Err(e) => (e.outcome_kind(), e.name()),
        };
        self.gauges
            .on_finish(kind, job.lane, job.algo, queue_ns, exec_ns);
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&trace.as_u64());
        if let Ok(m) = outcome {
            // A hybrid run that executed any bottom-up round switched
            // direction at least once — worth a discrete event, since
            // switch behavior is exactly what distribution-level
            // telemetry exists to expose.
            let bu = m.get(st_obs::Counter::RoundsBottomUp);
            if bu > 0 {
                let td = m.get(st_obs::Counter::RoundsTopDown);
                self.journal.record_now(
                    trace,
                    JobEventKind::DirectionSwitched,
                    Some(job.lane as u8),
                    team,
                    Some(format!("rounds_top_down={td},rounds_bottom_up={bu}")),
                );
            }
            let wall_ns = queue_ns + exec_ns;
            if wall_ns >= self.slow_threshold_ns {
                let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
                if slow.len() >= SLOW_LOG_CAPACITY {
                    slow.pop_front();
                }
                slow.push_back(SlowJob {
                    trace,
                    wall_ns,
                    metrics_json: m.to_json(),
                });
            }
        }
        self.journal_finished(job, team, detail);
    }

    /// Records a submission resolved from the result cache: a cached
    /// completion whose wall latency goes to the dedicated cached
    /// series, never to the execution histograms.
    pub(crate) fn on_cache_hit(&self, job: &JobTag, wall_ns: u64) {
        self.gauges.on_cache_hit(wall_ns);
        self.journal_finished(job, None, "cache_hit");
    }

    /// Records a submission admission refused with `err`.
    pub(crate) fn on_rejected(&self, job: &JobTag, err: &JobError) {
        self.gauges.on_reject(job.lane, err.reject_reason());
        self.journal_finished(job, None, err.name());
    }

    /// Journals a trace's terminal `finished` event.
    pub(crate) fn journal_finished(&self, job: &JobTag, team: Option<u32>, detail: &str) {
        self.journal.record_now(
            job.state.trace,
            JobEventKind::Finished,
            Some(job.lane as u8),
            team,
            Some(detail.to_owned()),
        );
    }

    // ---- read side (HTTP observability plane, tests, bench) ----

    /// p50/p99 of completed-job wall latency across all lanes,
    /// nanoseconds (0 when nothing completed) — the server-side numbers
    /// the bench report pairs with its client-side stopwatch.
    pub fn wall_quantiles(&self) -> (u64, u64) {
        let merged = self.gauges.merged(Hist::JobWall);
        (merged.quantile(0.50), merged.quantile(0.99))
    }

    /// The in-flight table as a JSON array (sorted by trace id so the
    /// output is stable).
    pub fn inflight_json(&self) -> String {
        let mut jobs: Vec<InflightJob> = self
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        jobs.sort_by_key(|j| j.trace);
        let mut out = String::with_capacity(64 + jobs.len() * 128);
        out.push('[');
        for (i, j) in jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"trace\":\"{}\",\"lane\":{},\"algorithm\":\"{}\",\"stage\":\"{}\",",
                j.trace, j.lane, j.algorithm, j.stage
            ));
            match j.team {
                Some(t) => out.push_str(&format!("\"team\":{t},")),
                None => out.push_str("\"team\":null,"),
            }
            out.push_str(&format!("\"submitted_t_ns\":{}}}", j.submitted_t_ns));
        }
        out.push(']');
        out
    }

    /// Jobs currently admitted but unresolved.
    pub fn inflight_len(&self) -> usize {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Recent slow-job reports, oldest first.
    pub fn slow_jobs(&self) -> Vec<SlowJob> {
        self.slow
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The slow-job log as a JSON array (each entry embeds the job's
    /// full pre-rendered metrics report).
    pub fn slow_jobs_json(&self) -> String {
        let slow = self.slow_jobs();
        let mut out = String::with_capacity(64 + slow.len() * 256);
        out.push('[');
        for (i, s) in slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"trace\":\"{}\",\"wall_ns\":{},\"metrics\":",
                s.trace, s.wall_ns
            ));
            out.push_str(&s.metrics_json);
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Escapes `s` as a JSON string body (re-exported convenience for the
/// HTTP layer's error payloads).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    escape_json_into(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use st_smp::CancelToken;

    fn tag(lane: usize, algorithm: &str) -> JobTag {
        JobTag {
            state: JobState::new(CancelToken::new(), TraceId::mint()),
            lane,
            algo: Telemetry::algo_index(algorithm),
        }
    }

    #[test]
    fn algo_labels_are_bounded() {
        let t = Telemetry::new(1, u64::MAX);
        let label = |name| t.gauges().label_values(Hist::AlgoExec)[Telemetry::algo_index(name)];
        assert_eq!(label("bader-cong"), "bader-cong");
        assert_eq!(label("sv"), "sv");
        assert_eq!(label("my-custom-algo"), "other");
        assert_eq!(label(""), "other");
    }

    #[test]
    fn completed_jobs_feed_histograms_and_inflight_drains() {
        let t = Telemetry::new(64, u64::MAX);
        let job = tag(0, "bader-cong");
        t.on_admitted(&job);
        assert_eq!(t.inflight_len(), 1);
        t.on_started(&job, 2);
        let m = JobMetrics::default();
        t.on_finished(&job, Some(2), Ok(&m), 1_000_000, 4_000_000);
        assert_eq!(t.inflight_len(), 0);
        let (p50, p99) = t.wall_quantiles();
        assert!(p50 >= 5_000_000, "wall = queue + exec, p50 = {p50}");
        assert!(p99 >= p50);
        let g = t.gauges();
        assert_eq!(g.label_values(Hist::JobWall)[0], "high");
        assert_eq!(g.histograms(Hist::JobWall)[0].snapshot().count, 1);
        let algo = g.label_values(Hist::AlgoExec);
        let bc = algo.iter().position(|n| *n == "bader-cong").unwrap();
        assert_eq!(g.histograms(Hist::AlgoExec)[bc].snapshot().count, 1);
    }

    #[test]
    fn non_completed_outcomes_skip_latency_histograms() {
        let t = Telemetry::new(64, u64::MAX);
        let job = tag(1, "sv");
        t.on_admitted(&job);
        t.on_finished(&job, None, Err(&JobError::Cancelled), 500, 0);
        assert_eq!(t.wall_quantiles(), (0, 0));
        assert_eq!(t.inflight_len(), 0);
    }

    #[test]
    fn cached_hits_use_their_own_series() {
        let t = Telemetry::new(64, u64::MAX);
        let job = tag(1, "bader-cong");
        t.on_cache_hit(&job, 2_000);
        assert_eq!(t.wall_quantiles(), (0, 0), "cache hits stay out of wall");
        assert_eq!(t.gauges().merged(Hist::CachedWall).count, 1);
        let events = t.journal().events_for(job.state.trace);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].detail.as_deref(), Some("cache_hit"));
    }

    #[test]
    fn slow_jobs_keep_full_metrics() {
        let t = Telemetry::new(64, 1_000_000); // 1ms threshold
        let fast = tag(0, "hcs");
        let slow = tag(0, "hcs");
        let m = JobMetrics {
            trace_id: slow.state.trace.as_u64(),
            p: 2,
            ..JobMetrics::default()
        };
        t.on_finished(&fast, Some(0), Ok(&m), 100, 100);
        t.on_finished(&slow, Some(0), Ok(&m), 1_000_000, 5_000_000);
        let reports = t.slow_jobs();
        assert_eq!(reports.len(), 1, "only the slow job is kept");
        assert_eq!(reports[0].trace, slow.state.trace);
        assert_eq!(reports[0].wall_ns, 6_000_000);
        assert!(reports[0].metrics_json.contains("\"trace_id\""));
        let json = t.slow_jobs_json();
        assert!(json.starts_with('['));
        serde_json::parse_value(&json).expect("slow-job JSON parses");
    }

    #[test]
    fn inflight_json_is_valid() {
        let t = Telemetry::new(64, u64::MAX);
        let a = tag(0, "bader-cong");
        let b = tag(2, "other");
        t.on_admitted(&a);
        t.on_admitted(&b);
        t.on_started(&b, 1);
        let json = t.inflight_json();
        let v = serde_json::parse_value(&json).expect("inflight JSON parses");
        match v {
            serde::Value::Array(jobs) => assert_eq!(jobs.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
        assert!(json.contains("\"stage\":\"queued\""));
        assert!(json.contains("\"stage\":\"running\""));
        assert!(json.contains("\"team\":1"));
    }

    #[test]
    fn direction_switch_is_journaled() {
        let t = Telemetry::new(64, u64::MAX);
        let job = tag(1, "sv");
        let mut m = JobMetrics::default();
        // Simulate a hybrid run with both directions exercised.
        let set = st_obs::CounterSet::new(1);
        set.rank(0).add(st_obs::Counter::RoundsTopDown, 3);
        set.rank(0).add(st_obs::Counter::RoundsBottomUp, 2);
        m.totals = set.merged();
        t.on_finished(&job, Some(0), Ok(&m), 10, 10);
        let events = t.journal().events_for(job.state.trace);
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![JobEventKind::DirectionSwitched, JobEventKind::Finished],
            "switch event precedes the finish"
        );
        assert!(events[0]
            .detail
            .as_deref()
            .unwrap()
            .contains("rounds_bottom_up=2"));
    }
}
