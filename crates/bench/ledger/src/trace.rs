//! Spans recorded around the ledger's calls into each layer.
//!
//! A span is `{op_id, name, start_ns, end_ns, parent}`; spans of one
//! operation share its `op_id`, whether recorded at the wire call or in
//! a later in-process replay of the same operation. Spans stay in
//! memory and are written once, at the end of a traced run, together
//! with the counts the program exports for the same operations.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The operation this span belongs to.
    pub op_id: u64,
    /// Layer boundary, e.g. `net.submit` or `core.engine_p2`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
}

#[derive(Default)]
struct Buffers {
    spans: Vec<Span>,
    counts: Vec<(u64, BTreeMap<String, f64>)>,
}

/// An in-memory span and count store, shared by client threads.
pub struct Tracer {
    epoch: Instant,
    buffers: Mutex<Buffers>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            buffers: Mutex::new(Buffers::default()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id (for children to name as
    /// parent).
    pub fn span(
        &self,
        op_id: u64,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut b = self.buffers.lock().expect("a tracer user panicked");
        let id = u32::try_from(b.spans.len()).expect("fewer than 2^32 spans");
        b.spans.push(Span {
            id,
            op_id,
            name,
            start_ns,
            end_ns,
            parent,
        });
        id
    }

    /// Records counts the program exported for operation `op_id`.
    pub fn counts(&self, op_id: u64, counts: &[(&str, f64)]) {
        let map = counts.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
        self.buffers
            .lock()
            .expect("a tracer user panicked")
            .counts
            .push((op_id, map));
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.buffers
            .lock()
            .expect("a tracer user panicked")
            .spans
            .len()
    }

    /// Writes every span (with its self time) and every count record as
    /// JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let b = self.buffers.lock().expect("a tracer user panicked");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let own = self_times(&b.spans);
        for (s, self_ns) in b.spans.iter().zip(own) {
            let record = Value::Object(BTreeMap::from([
                ("kind".to_owned(), Value::String("span".to_owned())),
                ("id".to_owned(), Value::Number(f64::from(s.id))),
                ("op_id".to_owned(), Value::Number(s.op_id as f64)),
                ("name".to_owned(), Value::String(s.name.to_owned())),
                ("start_ns".to_owned(), Value::Number(s.start_ns as f64)),
                ("end_ns".to_owned(), Value::Number(s.end_ns as f64)),
                (
                    "parent".to_owned(),
                    s.parent
                        .map_or(Value::Null, |p| Value::Number(f64::from(p))),
                ),
                ("self_ns".to_owned(), Value::Number(self_ns as f64)),
            ]));
            writeln!(
                out,
                "{}",
                serde_json::to_string(&record).map_err(std::io::Error::other)?
            )?;
        }
        for (op_id, counts) in &b.counts {
            let record = Value::Object(BTreeMap::from([
                ("kind".to_owned(), Value::String("counts".to_owned())),
                ("op_id".to_owned(), Value::Number(*op_id as f64)),
                (
                    "counts".to_owned(),
                    Value::Object(
                        counts
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Number(*v)))
                            .collect(),
                    ),
                ),
            ]));
            writeln!(
                out,
                "{}",
                serde_json::to_string(&record).map_err(std::io::Error::other)?
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (overlapping children count
/// once; a child's part outside the parent does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return total;
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            total - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            op_id: 1,
            name: "x",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 40, Some(0)),
            span(2, 30, 60, Some(0)),  // overlaps child 1 by 10
            span(3, 90, 130, Some(0)), // sticks out past the parent
            span(4, 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 40, 8]);
    }
}
