//! Empirical CDFs and the Kolmogorov-Smirnov similarity of Definition 2.
//!
//! ELSI quantifies how well a reduced set `D_S` approximates `D` by
//! `sim(D_S, D) = 1 − sup_x |cdf_{K(D_S)}(x) − cdf_{K(D)}(x)|` over the
//! mapped keys (paper §III). The paper computes the distance with a scan
//! over `D_S` only, binary-searching each value's rank in `D` — an
//! `O(n_S log n)` algorithm that this module implements verbatim, plus the
//! `dist(D_U, D)` distance-from-uniform feature used by the method scorer
//! and the bin count of the update processor's bounded drift sketch.

/// KS distance between a reduced key set and the full key set, both sorted
/// ascending, using the paper's `O(n_S log n)` one-sided scan: for the
/// `i`-th value of `sample`, binary search its rank `j` in `full` and report
/// the maximum gap `|i/n_S − j/n|`.
///
/// Both step sides of the sample's empirical CDF are checked (ranks `i` and
/// `i + 1`), which tightens the estimate at no asymptotic cost.
///
/// ```
/// use elsi_data::ks_distance;
/// let full: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
/// let every_tenth: Vec<f64> = full.iter().copied().step_by(10).collect();
/// assert!(ks_distance(&every_tenth, &full) < 0.02);
/// ```
///
/// # Panics
/// Panics (debug builds) if either slice is unsorted.
pub fn ks_distance(sample: &[f64], full: &[f64]) -> f64 {
    debug_assert!(
        sample.windows(2).all(|w| w[0] <= w[1]),
        "sample must be sorted"
    );
    debug_assert!(full.windows(2).all(|w| w[0] <= w[1]), "full must be sorted");
    if sample.is_empty() || full.is_empty() {
        return 1.0;
    }
    let ns = sample.len() as f64;
    let n = full.len() as f64;
    let mut worst = 0.0f64;
    for (i, &v) in sample.iter().enumerate() {
        // Compare the two empirical CDFs on matching step sides of v:
        // just below v (ranks of elements < v) and at v (elements ≤ v).
        let j_lo = full.partition_point(|&x| x < v) as f64;
        let j_hi = full.partition_point(|&x| x <= v) as f64;
        let below = i as f64 / ns; // F_S just below v
        let at = (i + 1) as f64 / ns; // F_S at v
        worst = worst
            .max((below - j_lo / n).abs())
            .max((at - j_hi / n).abs());
    }
    worst.min(1.0)
}

/// Similarity of Definition 2: `1 − ks_distance`.
pub fn similarity(sample: &[f64], full: &[f64]) -> f64 {
    1.0 - ks_distance(sample, full)
}

/// KS distance between sorted keys in `[0,1]` and the uniform distribution
/// on `[0,1]` — the `dist(D_U, D)` feature of the method scorer and rebuild
/// predictor (computed exactly, no uniform sample needed).
pub fn dist_from_uniform(sorted_keys: &[f64]) -> f64 {
    debug_assert!(
        sorted_keys.windows(2).all(|w| w[0] <= w[1]),
        "keys must be sorted"
    );
    if sorted_keys.is_empty() {
        return 1.0;
    }
    let n = sorted_keys.len() as f64;
    let mut worst = 0.0f64;
    for (i, &k) in sorted_keys.iter().enumerate() {
        let k = k.clamp(0.0, 1.0);
        worst = worst
            .max((i as f64 / n - k).abs())
            .max(((i + 1) as f64 / n - k).abs());
    }
    worst.min(1.0)
}

/// Default resolution of a bounded CDF sketch (the update processor's
/// `DriftTracker`): sup-distance error ≤ 1/4096.
pub const DEFAULT_SKETCH_BINS: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_have_zero_distance() {
        let keys: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        assert!(ks_distance(&keys, &keys) < 1e-9);
        assert!((similarity(&keys, &keys) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_systematic_sample_has_small_distance() {
        let full: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let sample: Vec<f64> = full.iter().copied().step_by(10).collect();
        let d = ks_distance(&sample, &full);
        assert!(d < 0.02, "distance {d}");
    }

    #[test]
    fn disjoint_halves_have_large_distance() {
        // Sample concentrated in [0, 0.1], full spread over [0, 1]:
        // around x = 0.1 the sample CDF is 1.0 but the full CDF ≈ 0.1.
        let sample: Vec<f64> = (0..100).map(|i| i as f64 / 1000.0).collect();
        let full: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let d = ks_distance(&sample, &full);
        assert!(d > 0.85, "distance {d}");
    }

    #[test]
    fn distance_in_unit_interval() {
        let a = vec![0.5];
        let b: Vec<f64> = (0..10).map(|i| i as f64 / 9.0).collect();
        let d = ks_distance(&a, &b);
        assert!((0.0..=1.0).contains(&d));
        assert_eq!(ks_distance(&[], &b), 1.0);
        assert_eq!(ks_distance(&a, &[]), 1.0);
    }

    #[test]
    fn dist_from_uniform_of_uniform_keys_is_small() {
        let keys: Vec<f64> = (0..10_000).map(|i| (i as f64 + 0.5) / 10_000.0).collect();
        assert!(dist_from_uniform(&keys) < 0.001);
    }

    #[test]
    fn dist_from_uniform_of_point_mass_is_large() {
        let keys = vec![0.5; 100];
        let d = dist_from_uniform(&keys);
        assert!(d >= 0.5 - 1e-9, "distance {d}");
    }

    #[test]
    fn dist_from_uniform_of_skewed_keys_matches_analytic() {
        // keys = u^4: CDF F(x) = x^(1/4); sup |x^(1/4) − x| at x where
        // derivative 1/4 x^(-3/4) = 1 → x = (1/4)^(4/3) ≈ 0.1575;
        // sup ≈ 0.4724.
        let n = 100_000;
        let keys: Vec<f64> = (0..n)
            .map(|i| ((i as f64 + 0.5) / n as f64).powi(4))
            .collect();
        let d = dist_from_uniform(&keys);
        assert!((d - 0.4724).abs() < 0.01, "distance {d}");
    }
}
