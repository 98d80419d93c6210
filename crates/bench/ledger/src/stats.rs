//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule, so a reported percentile is
//! always one of the measured values. A tail percentile is only
//! reported where at least [`TAIL_BEYOND`] samples lie beyond it;
//! fewer makes the number one or two outliers, not a tail.

/// Fewest samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Zero-based nearest-rank index of the `q` quantile among `n` sorted
/// samples (`n ≥ 1`).
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps q·n from rounding just above an integer.
    ((q * n as f64 - 1e-9).ceil().max(1.0) as usize).min(n) - 1
}

/// Samples strictly beyond the `q` quantile's rank among `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The fewest samples whose `q` quantile leaves [`TAIL_BEYOND`] beyond
/// it: the count a workload must reach before it stops measuring.
pub fn min_samples(q: f64) -> usize {
    assert!((0.0..1.0).contains(&q), "a tail level is below 1");
    (1..)
        .find(|&n| beyond(n, q) >= TAIL_BEYOND)
        .expect("every level below 1 is reached")
}

/// Median (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Mean of `values` after dropping the lowest and the highest
/// `trim` share of them (`0 ≤ trim < 0.5`).
pub fn trimmed_mean(values: &[f64], trim: f64) -> Option<f64> {
    assert!((0.0..0.5).contains(&trim), "a trim leaves the middle");
    let v = sorted(values);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The tail of a distribution: the `q` quantile when at least
/// [`TAIL_BEYOND`] samples lie beyond it, otherwise the highest of p99,
/// p90 and p75 below `q` that keeps that many, and the median when none
/// does. Returns the value and the level it was read at.
pub fn tail(values: &[f64], q: f64) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let level = [q, 0.99, 0.9, 0.75]
        .into_iter()
        .filter(|&l| l <= q)
        .find(|&l| beyond(n, l) >= TAIL_BEYOND)
        .unwrap_or(0.5);
    Some((v[rank(n, level)], level))
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, the rule the
/// run-to-run spread of a metric is judged by. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    Some(std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in (11..400).chain([999, 1000, 1001, 2500]) {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            for q in [0.5, 0.75, 0.9, 0.99, 0.999] {
                let (value, level) = tail(&values, q).expect("non-empty");
                assert!(level <= q, "the tail never reads above the asked level");
                let above = values.iter().filter(|&&x| x > value).count();
                assert!(
                    above >= TAIL_BEYOND || level == 0.5,
                    "n = {n}, q = {q}: only {above} samples beyond level {level}"
                );
            }
        }
    }

    #[test]
    fn tail_reads_the_asked_level_once_enough_samples_exist() {
        for q in [0.9, 0.99] {
            let n = min_samples(q);
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(tail(&values, q).map(|(_, l)| l), Some(q));
            let fewer = &values[..n - 1];
            assert!(tail(fewer, q).is_some_and(|(_, l)| l < q));
        }
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        assert_eq!(trimmed_mean(&[], 0.1), None);
        assert_eq!(trimmed_mean(&[2.0], 0.1), Some(2.0));
        // One of ten cut from each end: the 100 and the 0 go.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0];
        assert_eq!(trimmed_mean(&v, 0.1), Some(4.5));
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.0), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
