//! Prometheus text exposition of the service's metrics.
//!
//! [`render_service_prometheus`] walks the declaration table
//! ([`FAMILIES`]) and renders every family from a [`PoolGauges`] in the
//! [Prometheus text exposition format]: for each family a `# HELP`
//! line, a `# TYPE` line, then the samples. The service's `/metrics`
//! endpoint and the wire op `METRICS` both serve this page. Counters
//! follow the `_total` suffix convention; durations are exported in
//! seconds as Prometheus prescribes; the per-outcome and per-lane
//! breakdowns use labels so dashboards can aggregate or slice without
//! new metric names. Histograms render the canonical
//! `_bucket{le=…}`/`_sum`/`_count` triple over a fixed ladder of
//! second-denominated bounds ([`DEFAULT_LATENCY_BOUNDS_NS`]),
//! cumulative by construction.
//!
//! The renderer is deliberately dependency-free, and the format is
//! checkable offline: [`lint_exposition`] validates a rendered page
//! against the grammar subset we emit (metric name charset, label
//! syntax, float-parsable values, HELP/TYPE ordering, no duplicate
//! samples) plus the histogram invariants (bucket monotonicity,
//! `+Inf` bucket equal to `_count`, `_sum` present). CI curls the live
//! `/metrics` page through it so a broken scrape fails the build.
//!
//! [Prometheus text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::hist::HistogramSnapshot;
use crate::pool::{PoolGauges, PoolSnapshot, Series, FAMILIES};

/// Content type remote scrapers should be told (`text/plain; version
/// 0.0.4` is the canonical exposition content type).
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The `le` ladder for latency histograms, in nanoseconds: 50µs to 30s
/// in a 1–2.5–5 progression. Rendered bounds are divided by 1e9 into
/// seconds; a final `+Inf` bucket is always appended.
pub const DEFAULT_LATENCY_BOUNDS_NS: [u64; 18] = [
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
    30_000_000_000,
];

struct Page {
    out: String,
}

impl Page {
    /// Opens a metric family: HELP + TYPE header lines.
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        debug_assert!(is_valid_metric_name(name), "bad metric name {name}");
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One sample carrying a label set (rendered in order; none for an
    /// unlabeled sample).
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = write!(self.out, "{name}");
        if !labels.is_empty() {
            let _ = write!(self.out, "{{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    let _ = write!(self.out, ",");
                }
                let _ = write!(self.out, "{k}=\"{v}\"");
            }
            let _ = write!(self.out, "}}");
        }
        let _ = writeln!(self.out, " {}", fmt_value(value));
    }

    /// Renders one histogram series: the cumulative `_bucket` ladder
    /// (in seconds), then `_sum` and `_count` under the same labels.
    fn histogram_series(&mut self, family: &str, base: &[(&str, &str)], snap: &HistogramSnapshot) {
        let cum = snap.cumulative_le(&DEFAULT_LATENCY_BOUNDS_NS);
        let bucket = format!("{family}_bucket");
        for (i, &bound_ns) in DEFAULT_LATENCY_BOUNDS_NS.iter().enumerate() {
            let le = fmt_value(bound_ns as f64 / 1e9);
            let mut labels = base.to_vec();
            labels.push(("le", le.as_str()));
            self.sample(&bucket, &labels, cum[i] as f64);
        }
        let mut labels = base.to_vec();
        labels.push(("le", "+Inf"));
        self.sample(&bucket, &labels, snap.count as f64);
        self.sample(&format!("{family}_sum"), base, snap.sum as f64 / 1e9);
        self.sample(&format!("{family}_count"), base, snap.count as f64);
    }
}

/// Values render as integers when they are integral (the common case
/// for counters) and as plain decimals otherwise — both are valid
/// exposition floats.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// True for names matching `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Renders every family of the declaration table ([`FAMILIES`]) from
/// `gauges` as one Prometheus text-format page, in table order.
///
/// Every family is present even when zero — scrapers need stable
/// series — and each stored value is read once, so the page agrees
/// with itself (a ratio gauge with the counters it divides).
pub fn render_service_prometheus(gauges: &PoolGauges) -> String {
    let raw = gauges.load();
    let snap = PoolSnapshot::from_slots(&raw);
    let mut p = Page {
        out: String::with_capacity(32 * 1024),
    };
    for f in FAMILIES {
        p.family(f.name, f.kind.name(), f.help);
        match f.series {
            Series::Slots(samples) => {
                for &(value, slot, divisor) in samples {
                    let label = f.label.map(|key| (key, value));
                    p.sample(f.name, label.as_slice(), raw[slot] as f64 / divisor);
                }
            }
            Series::Derived(compute) => p.sample(f.name, &[], compute(&snap)),
            Series::Histogram(hist) => {
                let series = gauges
                    .label_values(hist)
                    .iter()
                    .zip(gauges.histograms(hist));
                for (&value, h) in series {
                    let label = f.label.map(|key| (key, value));
                    p.histogram_series(f.name, label.as_slice(), &h.snapshot());
                }
            }
        }
    }
    p.out
}

/// Validates `page` against the exposition-format grammar subset the
/// exporter emits, plus histogram invariants (monotone cumulative
/// buckets, `+Inf` bucket equal to `_count`, `_sum` present).
///
/// Returns the parsed (name or name+labels) → value map on success, a
/// line-qualified description of the first violation otherwise. This
/// is the offline lint CI runs against the live `/metrics` page.
pub fn lint_exposition(page: &str) -> Result<HashMap<String, f64>, String> {
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut helped: HashSet<String> = HashSet::new();
    let mut samples: HashMap<String, f64> = HashMap::new();
    // (family, non-le labels) → ladder of (le, cumulative count).
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();

    // The TYPE-declared family a sample belongs to: histogram samples
    // carry a suffix on top of the family name.
    fn family_of<'a>(name: &'a str, typed: &HashMap<String, String>) -> Option<(&'a str, String)> {
        if let Some(kind) = typed.get(name) {
            return Some((name, kind.clone()));
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if typed.get(base).map(String::as_str) == Some("histogram") {
                    return Some((base, "histogram".to_owned()));
                }
            }
        }
        None
    }

    for (i, line) in page.lines().enumerate() {
        let ctx = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
        if line.is_empty() {
            return Err(ctx("empty line"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (kw, rest) = rest
                .split_once(' ')
                .ok_or_else(|| ctx("comment must be `# HELP|TYPE name …`"))?;
            let (name, payload) = rest.split_once(' ').ok_or_else(|| ctx("missing payload"))?;
            if !is_valid_metric_name(name) {
                return Err(ctx("bad metric name"));
            }
            match kw {
                "HELP" => {
                    if !helped.insert(name.to_owned()) {
                        return Err(ctx("duplicate HELP"));
                    }
                    if payload.is_empty() {
                        return Err(ctx("empty help text"));
                    }
                }
                "TYPE" => {
                    if !helped.contains(name) {
                        return Err(ctx("TYPE must follow its HELP"));
                    }
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&payload) {
                        return Err(ctx("unknown metric type"));
                    }
                    if typed.insert(name.to_owned(), payload.to_owned()).is_some() {
                        return Err(ctx("duplicate TYPE"));
                    }
                }
                _ => return Err(ctx("unknown comment keyword")),
            }
            continue;
        }
        // Sample line: name[{label="value",…}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| ctx("sample must be `series value`"))?;
        let mut labels: Vec<(String, String)> = Vec::new();
        let name = match series.split_once('{') {
            None => series,
            Some((name, rest)) => {
                let rest = rest
                    .strip_suffix('}')
                    .ok_or_else(|| ctx("unterminated label set"))?;
                for pair in rest.split(',') {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| ctx("label without `=`"))?;
                    if !is_valid_metric_name(k) {
                        return Err(ctx("bad label name"));
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return Err(ctx("label value must be quoted"));
                    }
                    labels.push((k.to_owned(), v[1..v.len() - 1].to_owned()));
                }
                name
            }
        };
        if !is_valid_metric_name(name) {
            return Err(ctx("bad sample name"));
        }
        let (fam, kind) = family_of(name, &typed).ok_or_else(|| ctx("sample before its TYPE"))?;
        if kind == "counter" && !name.ends_with("_total") {
            return Err(ctx("counter without _total"));
        }
        let value: f64 = value.parse().map_err(|_| ctx("unparsable sample value"))?;
        if samples.insert(series.to_owned(), value).is_some() {
            return Err(ctx("duplicate sample"));
        }
        if kind == "histogram" && name.ends_with("_bucket") {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| ctx("histogram bucket without le label"))?;
            let le_value = if le.1 == "+Inf" {
                f64::INFINITY
            } else {
                le.1.parse::<f64>()
                    .map_err(|_| ctx("unparsable le bound"))?
            };
            let rest: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            buckets
                .entry((fam.to_owned(), rest.join(",")))
                .or_default()
                .push((le_value, value));
        }
    }

    // Histogram invariants, per (family, label-set) series.
    for ((fam, label_set), ladder) in &buckets {
        let here = |what: &str| format!("histogram {fam}{{{label_set}}}: {what}");
        if !ladder.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(here("le bounds out of order or duplicated"));
        }
        if !ladder.windows(2).all(|w| w[0].1 <= w[1].1) {
            return Err(here("bucket counts are not monotone non-decreasing"));
        }
        let last = ladder.last().expect("group exists implies non-empty");
        if last.0 != f64::INFINITY {
            return Err(here("missing +Inf bucket"));
        }
        // Rebuild the label strings the way the renderer quotes them.
        let quoted: String = label_set
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|pair| {
                let (k, v) = pair.split_once('=').expect("built above with =");
                format!("{k}=\"{v}\"")
            })
            .collect::<Vec<_>>()
            .join(",");
        let count_key = if quoted.is_empty() {
            format!("{fam}_count")
        } else {
            format!("{fam}_count{{{quoted}}}")
        };
        let sum_key = if quoted.is_empty() {
            format!("{fam}_sum")
        } else {
            format!("{fam}_sum{{{quoted}}}")
        };
        let count = samples
            .get(&count_key)
            .ok_or_else(|| here("missing _count sample"))?;
        if last.1 != *count {
            return Err(here(&format!(
                "+Inf bucket ({}) disagrees with _count ({count})",
                last.1
            )));
        }
        if !samples.contains_key(&sum_key) {
            return Err(here("missing _sum sample"));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{JobOutcomeKind, RejectReason};

    /// Test-local shim over [`lint_exposition`] that panics on
    /// violations (the historical interface of this module's tests).
    fn check_exposition(page: &str) -> HashMap<String, f64> {
        lint_exposition(page).unwrap_or_else(|e| panic!("invalid exposition: {e}"))
    }

    #[test]
    fn rendered_page_passes_the_grammar() {
        let g = PoolGauges::new(&[]);
        for lane in [0, 1, 1, 2] {
            g.on_submit(lane);
        }
        g.on_dequeue(1);
        g.on_finish(JobOutcomeKind::Completed, 1, 0, 1_500_000_000, 500_000_000);
        g.on_reject(2, RejectReason::Backpressure);
        g.on_cache_hit(0);
        g.on_cache_miss();
        let page = render_service_prometheus(&g);
        let samples = check_exposition(&page);

        assert_eq!(samples["st_service_jobs_submitted_total"], 5.0);
        assert_eq!(samples["st_service_jobs_rejected_total"], 1.0);
        assert_eq!(samples["st_service_lane_rejected_total{lane=\"low\"}"], 1.0);
        assert_eq!(
            samples["st_service_reject_reason_total{reason=\"backpressure\"}"],
            1.0
        );
        assert_eq!(
            samples["st_service_reject_reason_total{reason=\"quota\"}"],
            0.0
        );
        assert_eq!(
            samples["st_service_lane_dequeued_total{lane=\"normal\"}"],
            1.0
        );
        assert_eq!(
            samples["st_service_jobs_finished_total{outcome=\"completed\"}"],
            1.0
        );
        assert_eq!(
            samples["st_service_jobs_finished_total{outcome=\"cached\"}"],
            1.0
        );
        assert_eq!(samples["st_service_queue_depth"], 3.0);
        assert_eq!(samples["st_service_lane_queue_depth{lane=\"high\"}"], 1.0);
        assert_eq!(samples["st_service_lane_queue_depth{lane=\"normal\"}"], 1.0);
        assert_eq!(samples["st_service_lane_queue_depth{lane=\"low\"}"], 1.0);
        assert_eq!(samples["st_service_queue_wait_seconds_total"], 1.5);
        assert_eq!(samples["st_service_exec_seconds_total"], 0.5);
        assert_eq!(samples["st_service_result_cache_hits_total"], 1.0);
        assert_eq!(samples["st_service_result_cache_misses_total"], 1.0);
        assert_eq!(samples["st_service_result_cache_hit_ratio"], 0.5);
        assert_eq!(samples["st_service_deadline_miss_ratio"], 0.0);
    }

    #[test]
    fn histograms_render_and_lint() {
        let g = PoolGauges::new(&[]);
        // 1ms, 3ms, 40ms, 2s — spread across the ladder.
        for ns in [1_000_000u64, 3_000_000, 40_000_000, 2_000_000_000] {
            g.on_finish(JobOutcomeKind::Completed, 0, 0, 0, ns);
        }
        let page = render_service_prometheus(&g);
        let samples = check_exposition(&page);
        assert_eq!(
            samples["st_service_job_wall_seconds_count{lane=\"high\"}"],
            4.0
        );
        assert_eq!(
            samples["st_service_job_wall_seconds_bucket{lane=\"high\",le=\"+Inf\"}"],
            4.0
        );
        // 1ms and 3ms land at or below the 5ms bound; 40ms and 2s above.
        assert_eq!(
            samples["st_service_job_wall_seconds_bucket{lane=\"high\",le=\"0.005\"}"],
            2.0
        );
        let sum = samples["st_service_job_wall_seconds_sum{lane=\"high\"}"];
        assert!((sum - 2.044).abs() < 1e-9, "sum = {sum}");
        assert_eq!(
            samples["st_service_job_wall_seconds_count{lane=\"normal\"}"], 0.0,
            "empty series still render (stable scrape set)"
        );
    }

    #[test]
    fn empty_snapshot_renders_every_family_at_zero() {
        let page = render_service_prometheus(&PoolGauges::new(&[]));
        let samples = check_exposition(&page);
        assert!(samples.values().all(|&v| v == 0.0));
        // Every family the exporter promises is present even when zero
        // (scrapers need stable series).
        for name in [
            "st_service_jobs_submitted_total",
            "st_service_queue_depth",
            "st_service_busy_teams",
            "st_service_queue_depth_peak",
            "st_service_result_cache_hits_total",
            "st_service_deadline_miss_ratio",
            "st_service_result_cache_hit_ratio",
        ] {
            assert!(samples.contains_key(name), "missing {name}");
        }
        assert_eq!(
            samples
                .keys()
                .filter(|k| k.starts_with("st_service_jobs_finished_total"))
                .count(),
            5,
            "all five outcome labels must be exported"
        );
        assert_eq!(
            samples
                .keys()
                .filter(|k| k.starts_with("st_service_lane_rejected_total"))
                .count(),
            3
        );
        assert_eq!(
            samples
                .keys()
                .filter(|k| k.starts_with("st_service_reject_reason_total"))
                .count(),
            3,
            "backpressure, quota, and deadline_unmeetable reasons"
        );
        assert_eq!(
            samples
                .keys()
                .filter(|k| k.starts_with("st_service_lane_dequeued_total"))
                .count(),
            3
        );
    }

    #[test]
    fn lint_rejects_violations() {
        let bad_pages = [
            "st_service_x 1\n",                       // sample before TYPE
            "# HELP m h\n# TYPE m counter\nm{x=y} 1", // unquoted label value
            "# HELP m h\n# TYPE m counter\nm one",    // non-numeric value
            "# HELP m h\n# TYPE m wibble\n",          // unknown type
            "# HELP m h\n# TYPE m counter\nm 1\nm 1", // duplicate sample
        ];
        for page in bad_pages {
            assert!(
                lint_exposition(page).is_err(),
                "lint accepted invalid page {page:?}"
            );
        }
    }

    #[test]
    fn lint_rejects_histogram_violations() {
        // Non-monotone buckets.
        let shrinking = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
             h_sum 1\nh_count 5";
        assert!(lint_exposition(shrinking).is_err(), "shrinking buckets");
        // +Inf disagrees with _count.
        let mismatch = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3";
        assert!(lint_exposition(mismatch).is_err(), "+Inf != _count");
        // Missing +Inf.
        let no_inf = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2";
        assert!(lint_exposition(no_inf).is_err(), "missing +Inf");
        // Missing _sum.
        let no_sum = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2";
        assert!(lint_exposition(no_sum).is_err(), "missing _sum");
        // A correct histogram passes.
        let good = "# HELP h x\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1.5\nh_count 3";
        assert!(lint_exposition(good).is_ok(), "valid histogram rejected");
    }

    #[test]
    fn metric_name_charset() {
        assert!(is_valid_metric_name("st_service_jobs_total"));
        assert!(is_valid_metric_name("_private:metric"));
        assert!(!is_valid_metric_name("9leading_digit"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_metric_name(""));
    }

    #[test]
    fn values_render_compactly() {
        assert_eq!(fmt_value(42.0), "42");
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(1.5), "1.5");
    }
}
