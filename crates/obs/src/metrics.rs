//! Structured per-job reports.

use serde::Serialize;

use crate::counters::{Counter, CounterSnapshot};
use crate::trace::{Phase, SpanEvent};

pub use crate::trace::PhaseTotal;

/// Everything one engine job reported: merged counters, per-rank
/// breakdowns, and (when `obs-trace` is compiled in) the recorded phase
/// spans.
///
/// Returned by `Workspace::finish_job`. It is the one record of what an
/// engine job did: every `Engine` run hands it back as
/// `SpanningForest::stats.metrics`, and no other field copies a counter.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct JobMetrics {
    /// Trace id of the service job this report belongs to (0 when the
    /// job ran outside the service and no id was minted). Matches the
    /// `trace` field of the service event journal, so a slow-job dump
    /// can be joined against its lifecycle events.
    pub trace_id: u64,
    /// Team size the job ran with.
    pub p: usize,
    /// Nanoseconds the job spent waiting before execution began (zero
    /// outside a shared pool; the job service records its admission
    /// queue wait here).
    pub queue_ns: u64,
    /// Nanoseconds from `begin_job` to `finish_job` — the execution
    /// time proper, excluding any queue wait.
    pub exec_ns: u64,
    /// Counters summed across ranks.
    pub totals: CounterSnapshot,
    /// Per-rank counter snapshots, `per_rank.len() == p`.
    pub per_rank: Vec<CounterSnapshot>,
    /// Coarse per-phase wall totals from the always-on accumulators —
    /// populated in every build, unlike [`spans`](Self::spans).
    pub phases: Vec<PhaseTotal>,
    /// Phase spans across all ranks, sorted by start time. Empty unless
    /// built with `--features obs-trace`.
    pub spans: Vec<SpanEvent>,
    /// Spans lost to ring overflow (0 when tracing is compiled out).
    pub spans_dropped: u64,
}

impl JobMetrics {
    /// Merged value of one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.totals.get(c)
    }

    /// Total wall-clock nanoseconds attributed to the job:
    /// `queue_ns + exec_ns`.
    pub fn wall_ns(&self) -> u64 {
        self.queue_ns + self.exec_ns
    }

    /// Load imbalance of the per-rank [`Counter::Processed`] counts: the
    /// busiest rank's count over the mean (1.0 = perfectly balanced).
    /// Returns 0.0 when nothing was processed.
    pub fn load_imbalance(&self) -> f64 {
        let processed = self.per_rank.iter().map(|s| s.get(Counter::Processed));
        let (total, max) = processed.fold((0, 0), |(t, m), v| (t + v, m.max(v)));
        if total == 0 {
            return 0.0;
        }
        max as f64 * self.per_rank.len() as f64 / total as f64
    }

    /// Per-phase totals derived from the recorded [`spans`](Self::spans)
    /// (phases with no spans are omitted; empty without `obs-trace`).
    /// For totals that exist in every build, read
    /// [`phases`](Self::phases) instead.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let (mut count, mut total_ns) = (0u64, 0u64);
                for s in self.spans.iter().filter(|s| s.phase == phase) {
                    count += 1;
                    total_ns += s.dur_ns;
                }
                (count > 0).then_some(PhaseTotal {
                    phase,
                    count,
                    total_ns,
                })
            })
            .collect()
    }

    /// Compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("value-tree serialization is infallible")
    }

    /// Indented JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("value-tree serialization is infallible")
    }

    /// The job as a Chrome trace-event JSON string (see
    /// [`crate::chrome`]).
    pub fn to_chrome_trace(&self) -> String {
        let mut buf = Vec::new();
        crate::chrome::write_chrome_trace(self, &mut buf).expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("chrome trace is valid UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSet;

    fn sample() -> JobMetrics {
        let set = CounterSet::new(2);
        set.rank(0).add(Counter::Processed, 3);
        set.rank(1).add(Counter::Processed, 4);
        set.rank(1).incr(Counter::Steals);
        JobMetrics {
            trace_id: 7,
            p: 2,
            queue_ns: 300,
            exec_ns: 700,
            totals: set.merged(),
            per_rank: set.snapshots(2),
            phases: vec![PhaseTotal {
                phase: Phase::Traverse,
                count: 2,
                total_ns: 1350,
            }],
            spans: vec![
                SpanEvent {
                    rank: 0,
                    phase: Phase::Traverse,
                    start_ns: 0,
                    dur_ns: 700,
                },
                SpanEvent {
                    rank: 1,
                    phase: Phase::Traverse,
                    start_ns: 10,
                    dur_ns: 650,
                },
                SpanEvent {
                    rank: 1,
                    phase: Phase::Idle,
                    start_ns: 660,
                    dur_ns: 40,
                },
            ],
            spans_dropped: 0,
        }
    }

    #[test]
    fn totals_and_accessor_agree() {
        let m = sample();
        assert_eq!(m.get(Counter::Processed), 7);
        assert_eq!(m.get(Counter::Steals), 1);
        assert_eq!(m.per_rank.len(), 2);
        assert_eq!(m.wall_ns(), 1_000);
    }

    #[test]
    fn load_imbalance_math() {
        let with = |processed: &[u64]| {
            let set = CounterSet::new(processed.len());
            for (r, &v) in processed.iter().enumerate() {
                set.rank(r).add(Counter::Processed, v);
            }
            JobMetrics {
                p: processed.len(),
                per_rank: set.snapshots(processed.len()),
                ..JobMetrics::default()
            }
        };
        assert_eq!(JobMetrics::default().load_imbalance(), 0.0);
        assert_eq!(with(&[0, 0]).load_imbalance(), 0.0);
        assert!((with(&[10, 10, 10, 10]).load_imbalance() - 1.0).abs() < 1e-12);
        assert!((with(&[40, 0, 0, 0]).load_imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn phase_totals_aggregate() {
        let m = sample();
        let pt = m.phase_totals();
        assert_eq!(pt.len(), 2);
        assert_eq!(pt[0].phase, Phase::Traverse);
        assert_eq!(pt[0].count, 2);
        assert_eq!(pt[0].total_ns, 1350);
        assert_eq!(pt[1].phase, Phase::Idle);
        assert_eq!(pt[1].total_ns, 40);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let m = sample();
        let parsed = serde_json::parse_value(&m.to_json()).expect("valid JSON");
        match parsed {
            serde::Value::Object(o) => {
                assert_eq!(o.get("p"), Some(&serde::Value::Number(2.0)));
                assert!(o.contains_key("totals"));
                assert!(o.contains_key("per_rank"));
                assert!(o.contains_key("spans"));
            }
            other => panic!("expected object, got {other:?}"),
        }
        // Pretty output parses to the same tree.
        let pretty = serde_json::parse_value(&m.to_json_pretty()).expect("valid JSON");
        assert_eq!(pretty, serde_json::parse_value(&m.to_json()).unwrap());
    }

    #[test]
    fn default_is_empty() {
        let m = JobMetrics::default();
        assert_eq!(m.p, 0);
        assert!(m.totals.is_zero());
        assert!(m.spans.is_empty());
    }
}
