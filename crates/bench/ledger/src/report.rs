//! The ledger report (every run of every workload, with its host) and
//! `--compare`, which judges a report against its parent's.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::registry::{self, Layer};
use crate::stats;

/// What one workload's runs produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadRuns {
    /// Each metric's value in every run, in run order.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Operations attempted over all runs.
    pub attempted: u64,
    /// Operations failed over all runs.
    pub failed: u64,
}

impl WorkloadRuns {
    /// Folds in one run's closing JSON line.
    pub fn absorb(&mut self, result: &Value) -> Result<(), String> {
        let Value::Object(top) = result else {
            return Err("result line is not a JSON object".to_owned());
        };
        let number = |key: &str| match top.get(key) {
            Some(Value::Number(n)) => Ok(*n),
            _ => Err(format!("result line lacks a numeric `{key}`")),
        };
        self.attempted += number("attempted")? as u64;
        self.failed += number("failed")? as u64;
        let Some(Value::Object(metrics)) = top.get("metrics") else {
            return Err("result line lacks `metrics`".to_owned());
        };
        for (name, m) in metrics {
            let Value::Object(m) = m else {
                return Err(format!("metric {name} is not an object"));
            };
            let Some(Value::Number(v)) = m.get("value") else {
                return Err(format!("metric {name} has no numeric value"));
            };
            self.values.entry(name.clone()).or_default().push(*v);
        }
        Ok(())
    }

    /// Median of one metric over the runs.
    pub fn median(&self, metric: &str) -> Option<f64> {
        stats::median(self.values.get(metric)?)
    }

    /// Failed operations as a share of attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The report as JSON: host block, run settings, and per workload the
/// tally and each metric's values, median and quartiles.
pub fn to_json(
    host: BTreeMap<String, Value>,
    settings: BTreeMap<String, Value>,
    runs: &BTreeMap<String, WorkloadRuns>,
) -> Value {
    let units: BTreeMap<String, String> = registry::declared()
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect();
    let workloads = runs
        .iter()
        .map(|(w, r)| {
            let metrics = r
                .values
                .iter()
                .map(|(name, values)| {
                    let mut m = BTreeMap::from([
                        (
                            "unit".to_owned(),
                            Value::String(units.get(name).cloned().unwrap_or_default()),
                        ),
                        (
                            "values".to_owned(),
                            Value::Array(values.iter().map(|&v| Value::Number(v)).collect()),
                        ),
                    ]);
                    if let Some(median) = stats::median(values) {
                        m.insert("median".to_owned(), Value::Number(median));
                    }
                    if let Some([q1, _, q3]) = stats::quartiles(values) {
                        m.insert("q1".to_owned(), Value::Number(q1));
                        m.insert("q3".to_owned(), Value::Number(q3));
                    }
                    (name.clone(), Value::Object(m))
                })
                .collect();
            let entry = BTreeMap::from([
                ("attempted".to_owned(), Value::Number(r.attempted as f64)),
                ("failed".to_owned(), Value::Number(r.failed as f64)),
                ("metrics".to_owned(), Value::Object(metrics)),
            ]);
            (w.clone(), Value::Object(entry))
        })
        .collect();
    let mut top = settings;
    top.insert("host".to_owned(), Value::Object(host));
    top.insert("workloads".to_owned(), Value::Object(workloads));
    Value::Object(top)
}

/// Reads the per-workload runs back out of a report.
pub fn from_json(report: &Value) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    let Value::Object(top) = report else {
        return Err("report is not a JSON object".to_owned());
    };
    let Some(Value::Object(workloads)) = top.get("workloads") else {
        return Err("report lacks `workloads`".to_owned());
    };
    let mut out = BTreeMap::new();
    for (w, entry) in workloads {
        let Value::Object(entry) = entry else {
            return Err(format!("workload {w} is not an object"));
        };
        let count = |key: &str| match entry.get(key) {
            Some(Value::Number(n)) => Ok(*n as u64),
            _ => Err(format!("workload {w} lacks `{key}`")),
        };
        let mut runs = WorkloadRuns {
            attempted: count("attempted")?,
            failed: count("failed")?,
            ..WorkloadRuns::default()
        };
        if let Some(Value::Object(metrics)) = entry.get("metrics") {
            for (name, m) in metrics {
                if let Value::Object(m) = m {
                    if let Some(Value::Array(values)) = m.get("values") {
                        let values = values
                            .iter()
                            .filter_map(|v| match v {
                                Value::Number(n) => Some(*n),
                                _ => None,
                            })
                            .collect();
                        runs.values.insert(name.clone(), values);
                    }
                }
            }
        }
        out.insert(w.clone(), runs);
    }
    Ok(out)
}

/// Compares a change's runs with its parent's: one line per (workload,
/// end-to-end metric) with both medians and the bound, plus each
/// workload's failed fraction. Returns the lines and whether anything
/// regressed: a median worse than its bound, or more failures.
pub fn compare(
    parent: &BTreeMap<String, WorkloadRuns>,
    change: &BTreeMap<String, WorkloadRuns>,
) -> (Vec<String>, bool) {
    let metrics: Vec<_> = registry::declared()
        .into_iter()
        .filter(|m| m.layer == Layer::EndToEnd)
        .collect();
    let mut lines = Vec::new();
    let mut regressed = false;
    for (w, new) in change {
        let Some(old) = parent.get(w) else {
            lines.push(format!("{w}: no parent runs to compare with"));
            continue;
        };
        for m in &metrics {
            let bound = m.bound.unwrap_or(0.0);
            let (Some(a), Some(b)) = (old.median(&m.name), new.median(&m.name)) else {
                lines.push(format!("{w} {}: not measured on both sides", m.name));
                continue;
            };
            let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
            let worse = if m.higher_is_better { -change } else { change };
            let verdict = if worse > bound {
                regressed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            lines.push(format!(
                "{w} {} parent {a} change {b} {} ({:+.1}% worse, bound {:.0}%) {verdict}",
                m.name,
                m.unit,
                worse * 100.0,
                bound * 100.0
            ));
        }
        let (a, b) = (old.failed_frac(), new.failed_frac());
        let verdict = if b > a {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        lines.push(format!(
            "{w} failed_frac parent {a} change {b} ratio {verdict}"
        ));
    }
    (lines, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(metric: &str, values: &[f64], failed: u64) -> BTreeMap<String, WorkloadRuns> {
        let mut r = WorkloadRuns {
            attempted: 100,
            failed,
            ..WorkloadRuns::default()
        };
        r.values.insert(metric.to_owned(), values.to_vec());
        BTreeMap::from([("w".to_owned(), r)])
    }

    #[test]
    fn compare_flags_a_median_past_its_bound_and_new_failures() {
        let bound = |name: &str| {
            registry::declared()
                .into_iter()
                .find(|m| m.name == name)
                .and_then(|m| m.bound)
                .expect("declared end to end")
        };
        // peak_rss_mb is lower-is-better.
        let b = bound("peak_rss_mb");
        let parent = runs("peak_rss_mb", &[10.0, 10.2, 9.8], 0);
        let inside = 10.0 * (1.0 + b / 2.0);
        assert!(!compare(&parent, &runs("peak_rss_mb", &[inside], 0)).1);
        let past = 10.0 * (1.0 + b * 1.5);
        let (lines, bad) = compare(&parent, &runs("peak_rss_mb", &[past], 0));
        assert!(bad, "{past} is past the bound");
        assert!(lines
            .iter()
            .any(|l| l.contains("peak_rss_mb") && l.ends_with("REGRESSED")));
        let (_, bad) = compare(&parent, &runs("peak_rss_mb", &[8.0], 1));
        assert!(bad, "a failure the parent did not have is a regression");
        // speedup_vs_bfs is higher-is-better: a drop is the regression.
        let b = bound("speedup_vs_bfs");
        let parent = runs("speedup_vs_bfs", &[2.0], 0);
        assert!(
            compare(
                &parent,
                &runs("speedup_vs_bfs", &[2.0 * (1.0 - b * 1.5)], 0)
            )
            .1
        );
        assert!(
            !compare(
                &parent,
                &runs("speedup_vs_bfs", &[2.0 * (1.0 - b / 2.0)], 0)
            )
            .1
        );
        assert!(!compare(&parent, &runs("speedup_vs_bfs", &[2.5], 0)).1);
    }

    #[test]
    fn reports_round_trip() {
        let mut r = WorkloadRuns::default();
        let line = serde_json::parse_value(
            r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#,
        )
        .unwrap();
        r.absorb(&line).unwrap();
        r.absorb(&line).unwrap();
        let all = BTreeMap::from([("w".to_owned(), r.clone())]);
        let json = to_json(BTreeMap::new(), BTreeMap::new(), &all);
        let text = serde_json::to_string(&json).unwrap();
        let back = from_json(&serde_json::parse_value(&text).unwrap()).unwrap();
        assert_eq!(back, all);
        assert_eq!(back["w"].median("setup_s"), Some(0.5));
        assert_eq!(back["w"].attempted, 14);
    }
}
