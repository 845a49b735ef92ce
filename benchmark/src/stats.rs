//! Sample statistics: medians, the percentile a sample count supports,
//! and the quartile spread the driver judges steadiness by.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest of `values`.
///
/// # Panics
/// On an empty slice.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "min/max of no samples");
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Nearest-rank percentile `p` (0-100) of `values`.
///
/// # Panics
/// On an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first, each with
/// the samples per thousand that lie beyond it (integers: `100.0 - 99.9`
/// is not exactly 0.1).
const TAIL_CANDIDATES: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)];

/// The highest tail percentile that still has at least ten samples beyond
/// it in a sample of `n`; `None` when even p90 has fewer (n < 100).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

/// `(percentile, value)` of the highest supported tail of `values`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    highest_supported_percentile(values.len()).map(|p| (p, percentile(values, p)))
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default 'exclusive' method).
///
/// # Panics
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver holds against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}
