//! Chrome trace-event export.
//!
//! Emits the JSON-array flavor of the Trace Event Format, loadable in
//! `chrome://tracing` and <https://ui.perfetto.dev>: one complete
//! (`"ph": "X"`) event per recorded span, thread-name metadata per
//! rank, and a single instant event carrying the job's merged counter
//! totals as `args`. Timestamps are microseconds (the format's unit),
//! converted from the span clock's nanoseconds.

use std::collections::BTreeMap;
use std::io::{self, Write};

use serde::{Serialize, Value};

use crate::metrics::JobMetrics;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut m = BTreeMap::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

fn us(ns: u64) -> Value {
    Value::Number(ns as f64 / 1_000.0)
}

/// Writes `m` as a Chrome trace-event JSON array.
///
/// Always emits the metadata and counter-totals events, so the output
/// is a valid, openable trace even when the build had span recording
/// compiled out (the timeline is then simply empty).
pub fn write_chrome_trace<W: Write>(m: &JobMetrics, mut w: W) -> io::Result<()> {
    let mut events: Vec<Value> = Vec::with_capacity(m.spans.len() + m.p + 2);

    events.push(obj(vec![
        ("ph", s("M")),
        ("pid", Value::Number(0.0)),
        ("tid", Value::Number(0.0)),
        ("name", s("process_name")),
        ("args", obj(vec![("name", s("spanning-engine"))])),
    ]));
    for rank in 0..m.p.max(1) {
        events.push(obj(vec![
            ("ph", s("M")),
            ("pid", Value::Number(0.0)),
            ("tid", Value::Number(rank as f64)),
            ("name", s("thread_name")),
            ("args", obj(vec![("name", s(&format!("rank {rank}")))])),
        ]));
    }

    for span in &m.spans {
        events.push(obj(vec![
            ("ph", s("X")),
            ("pid", Value::Number(0.0)),
            ("tid", Value::Number(span.rank as f64)),
            ("ts", us(span.start_ns)),
            ("dur", us(span.dur_ns)),
            ("name", s(span.phase.name())),
            ("cat", s("phase")),
        ]));
    }

    let start = m.spans.first().map_or(0, |sp| sp.start_ns);
    events.push(obj(vec![
        ("ph", s("I")),
        ("pid", Value::Number(0.0)),
        ("tid", Value::Number(0.0)),
        ("ts", us(start)),
        ("s", s("g")),
        ("name", s("job_totals")),
        ("args", m.totals.to_value()),
    ]));

    let json = serde_json::to_string(&Value::Array(events)).map_err(io::Error::other)?;
    w.write_all(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{Counter, CounterSet};
    use crate::trace::{Phase, SpanEvent};

    fn sample() -> JobMetrics {
        let set = CounterSet::new(2);
        set.rank(0).add(Counter::Steals, 2);
        JobMetrics {
            trace_id: 0,
            p: 2,
            queue_ns: 0,
            exec_ns: 500,
            totals: set.merged(),
            per_rank: set.snapshots(2),
            phases: Vec::new(),
            spans: vec![SpanEvent {
                rank: 1,
                phase: Phase::Traverse,
                start_ns: 2_000,
                dur_ns: 3_000,
            }],
            spans_dropped: 0,
        }
    }

    #[test]
    fn trace_is_parseable_array_with_events() {
        let m = sample();
        let mut buf = Vec::new();
        write_chrome_trace(&m, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = serde_json::parse_value(&text).expect("valid JSON");
        let events = match v {
            Value::Array(events) => events,
            other => panic!("expected array, got {other:?}"),
        };
        // process_name + 2 thread_name + 1 span + totals instant.
        assert_eq!(events.len(), 5);
        let span = events
            .iter()
            .find_map(|e| match e {
                Value::Object(o) if o.get("ph") == Some(&Value::String("X".into())) => Some(o),
                _ => None,
            })
            .expect("one complete event");
        assert_eq!(span.get("ts"), Some(&Value::Number(2.0)));
        assert_eq!(span.get("dur"), Some(&Value::Number(3.0)));
        assert_eq!(span.get("tid"), Some(&Value::Number(1.0)));
        assert_eq!(span.get("name"), Some(&Value::String("traverse".into())));
    }

    #[test]
    fn empty_metrics_still_produce_valid_trace() {
        let m = JobMetrics::default();
        let text = m.to_chrome_trace();
        let v = serde_json::parse_value(&text).expect("valid JSON");
        match v {
            Value::Array(events) => assert!(!events.is_empty()),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn totals_ride_along_as_args() {
        let m = sample();
        let text = m.to_chrome_trace();
        assert!(text.contains("job_totals"));
        assert!(text.contains("\"steals\":2"));
    }
}
