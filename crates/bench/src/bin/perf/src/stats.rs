//! Order statistics for latency samples and for sets of runs.

/// Sorts a sample ascending (NaN-safe total order).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank percentile `p ∈ [0, 100]` of an ascending sample.
pub fn percentile_of_sorted(xs: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs.get(rank.clamp(1, xs.len().max(1)) - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// Median of an ascending sample (mean of the middle two when even).
pub fn median_of_sorted(xs: &[f64]) -> f64 {
    let n = xs.len();
    match (xs.get(n / 2), xs.get(n.saturating_sub(1) / 2)) {
        (Some(hi), Some(lo)) => (hi + lo) / 2.0,
        _ => f64::NAN,
    }
}

/// The tail percentile a sample of `n` supports: the highest of p99 / p95 /
/// p90 with at least ten samples beyond its nearest rank, or `None` below
/// 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99usize, 95, 90]
        .into_iter()
        .find(|p| n - (n * p).div_ceil(100) >= 10)
        .map(|p| p as f64)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method), so spreads computed here match the
/// acceptance check's. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let xs = sorted(xs.to_vec());
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> Option<f64> {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        let (lo, hi) = (xs.get(j - 1)?, xs.get(j)?);
        Some((lo * (4.0 - delta) + hi * delta) / 4.0)
    };
    Some((at(1)?, at(3)?))
}

/// Median and interquartile spread (IQR / median) of a set of run values.
pub fn median_and_spread(xs: &[f64]) -> (f64, f64) {
    let med = median_of_sorted(&sorted(xs.to_vec()));
    let spread = match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    };
    (med, spread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_of_sorted(&xs, 50.0), 500.0);
        assert_eq!(percentile_of_sorted(&xs, 99.0), 990.0);
        assert_eq!(percentile_of_sorted(&xs, 100.0), 1000.0);
        assert_eq!(percentile_of_sorted(&xs, 0.0), 1.0);
        assert!(percentile_of_sorted(&[], 50.0).is_nan());
        assert_eq!(median_of_sorted(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let (med, spread) = median_and_spread(&xs);
        assert_eq!(med, 5.5);
        assert_eq!(spread, 1.0);
    }
}
