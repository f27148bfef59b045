//! Mapped-and-sorted data: the storage layout of the map-and-sort paradigm.
//!
//! Every base index first maps its points to 1-D keys and sorts them
//! (Algorithm 1, lines 1–2). [`MappedData`] owns that sorted layout and is
//! both the training input of ELSI's build processor and the storage array
//! that predict-and-scan queries run over.

use crate::mapping::KeyMapper;
use crate::point::Point;

/// Points mapped to 1-D keys and sorted by key.
///
/// Invariant: `keys` is sorted ascending and `keys[i]` is the mapped key of
/// `points[i]`. The rank of a point is its position in this order — the
/// quantity an index model learns to predict.
///
/// Alongside the array-of-structs `points`, the same data is mirrored in
/// structure-of-arrays columns (`xs`/`ys`/`ids`, same rank order) so the
/// predict-and-scan hot paths can run the branchless kernels in
/// [`crate::scan`] directly over contiguous coordinate slices.
#[derive(Debug, Clone, Default)]
pub struct MappedData {
    points: Vec<Point>,
    keys: Vec<f64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u64>,
}

impl MappedData {
    /// Maps `points` with `mapper` and sorts them by key.
    pub fn build(points: Vec<Point>, mapper: &dyn KeyMapper) -> Self {
        let keys = mapper.keys(&points);
        Self::from_pairs(points, keys)
    }

    /// Builds from pre-computed `(point, key)` pairs (sorts them).
    pub fn from_pairs(points: Vec<Point>, keys: Vec<f64>) -> Self {
        assert_eq!(points.len(), keys.len());
        let mut pairs: Vec<(f64, Point)> = core::iter::zip(keys, points).collect();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let points = pairs.iter().map(|&(_, p)| p).collect();
        let keys = pairs.iter().map(|&(k, _)| k).collect();
        Self::with_soa(points, keys)
    }

    /// Builds from pairs already sorted by key.
    ///
    /// # Panics
    /// Panics (debug builds) if the keys are not sorted.
    pub fn from_sorted_pairs(points: Vec<Point>, keys: Vec<f64>) -> Self {
        assert_eq!(points.len(), keys.len());
        debug_assert!(keys.is_sorted(), "keys must be sorted");
        Self::with_soa(points, keys)
    }

    /// Builds the SoA coordinate mirror from the sorted AoS points.
    fn with_soa(points: Vec<Point>, keys: Vec<f64>) -> Self {
        let xs = points.iter().map(|p| p.x).collect();
        let ys = points.iter().map(|p| p.y).collect();
        let ids = points.iter().map(|p| p.id).collect();
        Self {
            points,
            keys,
            xs,
            ys,
            ids,
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sorted points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The sorted keys; `keys()[i]` belongs to `points()[i]`.
    #[inline]
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// X coordinates in rank order (SoA mirror of [`Self::points`]).
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Y coordinates in rank order (SoA mirror of [`Self::points`]).
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Point ids in rank order (SoA mirror of [`Self::points`]).
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The SoA columns for ranks `[lo, hi)`, clamped to the valid range:
    /// `(xs, ys, ids)` slices ready for the [`crate::scan`] kernels.
    #[inline]
    pub fn soa_range(&self, lo: isize, hi: isize) -> (&[f64], &[f64], &[u64]) {
        let n = self.len() as isize;
        let lo = lo.clamp(0, n) as usize;
        let hi = hi.clamp(0, n) as usize;
        crate::scan::soa_span(&self.xs, &self.ys, &self.ids, lo, hi)
    }

    /// Point at rank `i`. Out-of-range ranks yield a NaN-coordinate
    /// sentinel.
    #[inline]
    pub fn get(&self, i: usize) -> Point {
        debug_assert!(i < self.len());
        match self.points.get(i) {
            Some(&p) => p,
            None => Point {
                id: u64::MAX,
                x: f64::NAN,
                y: f64::NAN,
            },
        }
    }

    /// Rank of the first point whose key is `≥ key` (lower bound).
    #[inline]
    pub fn lower_bound(&self, key: f64) -> usize {
        self.keys.partition_point(|&k| k < key)
    }

    /// Rank one past the last point whose key is `≤ key` (upper bound).
    #[inline]
    pub fn upper_bound(&self, key: f64) -> usize {
        self.keys.partition_point(|&k| k <= key)
    }

    /// Fraction of points with key `< key`: the empirical CDF at `key`.
    #[inline]
    pub fn cdf(&self, key: f64) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.lower_bound(key) as f64 / self.len() as f64
        }
    }

    /// The points with ranks in `[lo, hi)`, clamped to the valid range.
    #[inline]
    pub fn range(&self, lo: isize, hi: isize) -> &[Point] {
        let n = self.len() as isize;
        let lo = lo.clamp(0, n) as usize;
        let hi = hi.clamp(0, n) as usize;
        match self.points.get(lo..hi) {
            Some(r) => r,
            None => &[],
        }
    }

    /// Consumes `self`, returning the sorted points and keys.
    pub fn into_parts(self) -> (Vec<Point>, Vec<f64>) {
        (self.points, self.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MortonMapper;

    fn sample() -> MappedData {
        let pts = vec![
            Point::new(0, 0.9, 0.9),
            Point::new(1, 0.1, 0.1),
            Point::new(2, 0.5, 0.5),
            Point::new(3, 0.2, 0.8),
        ];
        MappedData::build(pts, &MortonMapper)
    }

    #[test]
    fn build_sorts_by_key() {
        let d = sample();
        assert_eq!(d.len(), 4);
        assert!(d.keys().windows(2).all(|w| w[0] <= w[1]));
        // Lower-left point must come first in Z order.
        assert_eq!(d.get(0).id, 1);
        assert_eq!(d.get(d.len() - 1).id, 0);
    }

    #[test]
    fn bounds_and_cdf() {
        let pts: Vec<Point> = (0..10)
            .map(|i| Point::new(i, i as f64 / 10.0, 0.0))
            .collect();
        let keys: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let d = MappedData::from_sorted_pairs(pts, keys);
        assert_eq!(d.lower_bound(0.35), 4);
        assert_eq!(d.lower_bound(0.3), 3);
        assert_eq!(d.upper_bound(0.3), 4);
        assert_eq!(d.lower_bound(-1.0), 0);
        assert_eq!(d.lower_bound(2.0), 10);
        assert!((d.cdf(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(d.cdf(2.0), 1.0);
    }

    #[test]
    fn range_clamps() {
        let d = sample();
        assert_eq!(d.range(-5, 2).len(), 2);
        assert_eq!(d.range(2, 100).len(), 2);
        assert_eq!(d.range(3, 1).len(), 0);
        assert_eq!(d.range(-10, 100).len(), 4);
    }

    #[test]
    fn empty_data() {
        let d = MappedData::default();
        assert!(d.is_empty());
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.range(0, 10).len(), 0);
    }
}
