//! Metric declarations and the result line they shape.
//!
//! Every metric is declared once, in the repository's `BENCHMARK.json`,
//! with its unit and direction (and, end to end, its regression bound).
//! The ledger embeds that file at build time and refuses to print a run
//! whose metrics are not exactly the declared set for its mode, so a
//! typo or a forgotten metric fails the run instead of silently
//! disappearing from the record.

use std::collections::BTreeMap;

use serde_json::Value;

/// The declaration file, embedded at build time.
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// Which table of `BENCHMARK.json` a metric is declared in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// What a user of the service sees; reported by untraced runs.
    EndToEnd,
    /// One layer's share; reported by traced runs.
    PerLayer,
}

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit printed next to every value.
    pub unit: String,
    /// True when a larger value is an improvement.
    pub higher_is_better: bool,
    /// Fraction of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: Option<f64>,
    /// Declaring table.
    pub layer: Layer,
}

/// True when `name` matches the metric-name grammar `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn document() -> BTreeMap<String, Value> {
    match serde_json::parse_value(BENCHMARK_JSON) {
        Ok(Value::Object(map)) => map,
        other => panic!("BENCHMARK.json is not a JSON object: {other:?}"),
    }
}

fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
    match obj {
        Value::Object(map) => map
            .get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{key}`")),
        _ => panic!("BENCHMARK.json entry is not an object"),
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => panic!("BENCHMARK.json: expected a string, got {other:?}"),
    }
}

fn array<'a>(doc: &'a BTreeMap<String, Value>, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Array(items)) => items,
        _ => panic!("BENCHMARK.json lacks the `{key}` array"),
    }
}

/// Every declared metric, end-to-end first, in declaration order.
pub fn declared() -> Vec<Metric> {
    let doc = document();
    let mut out = Vec::new();
    for (key, layer) in [
        ("end_to_end", Layer::EndToEnd),
        ("per_layer", Layer::PerLayer),
    ] {
        for entry in array(&doc, key) {
            let better = text(field(entry, "better"));
            assert!(
                better == "higher" || better == "lower",
                "BENCHMARK.json: `better` must be higher or lower, got {better}"
            );
            out.push(Metric {
                name: text(field(entry, "name")),
                unit: text(field(entry, "unit")),
                higher_is_better: better == "higher",
                bound: match layer {
                    Layer::EndToEnd => match field(entry, "bound") {
                        Value::Number(b) => Some(*b),
                        other => panic!("BENCHMARK.json: bound must be a number, got {other:?}"),
                    },
                    Layer::PerLayer => None,
                },
                layer,
            });
        }
    }
    out
}

/// The declared workload names, in declaration order.
pub fn workloads() -> Vec<String> {
    array(&document(), "workloads")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect()
}

/// The declared seconds one run measures for.
pub fn run_seconds() -> f64 {
    match document().get("run_seconds") {
        Some(Value::Number(s)) => *s,
        _ => panic!("BENCHMARK.json lacks `run_seconds`"),
    }
}

/// One run's result: its metric values plus the operation tally.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations sent to the program under test.
    pub attempted: u64,
    /// Operations that errored, were refused, did not complete, or
    /// returned a wrong answer.
    pub failed: u64,
    /// First wrong answer seen, if any.
    pub wrong: Option<String>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one attempted operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a wrong answer; the run then exits non-zero.
    pub fn wrong(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.wrong.get_or_insert_with(|| what.into());
    }

    /// Folds another tally (e.g. a client thread's) into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.wrong.is_none() {
            self.wrong = other.wrong;
        }
        self.metrics.extend(other.metrics);
    }
}

/// Renders a run as `<workload> <metric> <value> <unit>` lines plus the
/// closing JSON result line. Fails unless the run's metrics are exactly
/// the metrics declared for `layer`, each finite.
pub fn render(
    workload: &str,
    outcome: &Outcome,
    layer: Layer,
) -> Result<(Vec<String>, String), String> {
    let declared: Vec<Metric> = declared()
        .into_iter()
        .filter(|m| m.layer == layer)
        .collect();
    let mut lines = Vec::with_capacity(declared.len());
    let mut json = BTreeMap::new();
    for m in &declared {
        let value = *outcome
            .metrics
            .get(m.name.as_str())
            .ok_or_else(|| format!("{workload}: declared metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("{workload}: metric {} is {value}", m.name));
        }
        lines.push(format!("{workload} {} {value} {}", m.name, m.unit));
        json.insert(
            m.name.clone(),
            Value::Object(BTreeMap::from([
                ("value".to_owned(), Value::Number(value)),
                ("unit".to_owned(), Value::String(m.unit.clone())),
            ])),
        );
    }
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|m| m.name == **k))
    {
        return Err(format!(
            "{workload}: metric {extra} is not declared for this mode"
        ));
    }
    let result = Value::Object(BTreeMap::from([
        ("correct".to_owned(), Value::Bool(outcome.wrong.is_none())),
        (
            "attempted".to_owned(),
            Value::Number(outcome.attempted as f64),
        ),
        ("failed".to_owned(), Value::Number(outcome.failed as f64)),
        ("metrics".to_owned(), Value::Object(json)),
    ]));
    let line = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    Ok((lines, line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in ["setup_s", "net.ping_rtt_us", "a-b.c_9", "X"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "a b", "ms/s", "é", "a\n", "x,y"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_declared_name_and_unit_is_well_formed() {
        let metrics = declared();
        assert!(metrics.iter().any(|m| m.name == "setup_s"));
        for m in &metrics {
            assert!(valid_name(&m.name), "bad metric name {}", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "bad unit {}",
                m.unit
            );
            assert_eq!(m.bound.is_some(), m.layer == Layer::EndToEnd, "{}", m.name);
        }
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "a metric is declared twice");
        assert!(workloads().iter().all(|w| valid_name(w)));
    }

    #[test]
    fn render_refuses_missing_and_undeclared_metrics() {
        let mut outcome = Outcome::default();
        outcome.op(true);
        assert!(render("w", &outcome, Layer::EndToEnd).is_err());
        for m in declared().iter().filter(|m| m.layer == Layer::EndToEnd) {
            outcome.set(Box::leak(m.name.clone().into_boxed_str()), 1.5);
        }
        let (lines, json) = render("w", &outcome, Layer::EndToEnd).expect("complete");
        assert!(lines.iter().any(|l| l.starts_with("w setup_s 1.5 s")));
        assert!(json.starts_with("{\"attempted\":1,\"correct\":true,\"failed\":0,\"metrics\":{"));
        outcome.set("not_declared", 1.0);
        assert!(render("w", &outcome, Layer::EndToEnd).is_err());
    }
}
