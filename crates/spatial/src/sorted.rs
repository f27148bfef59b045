//! Map-and-sort, and the columns the sorted points are stored in.
//!
//! Every base index first maps its points to 1-D keys and sorts them
//! (Algorithm 1, lines 1–2). [`sort_by_key`] is that step: its output is
//! the training input of a build and lives only as long as the build.
//! [`MappedData`] is what the build stores — the sorted key column and the
//! coordinate columns that predict-and-scan queries run over.

use crate::mapping::KeyMapper;
use crate::point::Point;

/// Maps `points` with `mapper` and sorts them by key: the sorted points and
/// their keys, `keys[i]` the key of `points[i]`. The rank of a point is its
/// position in this order — the quantity an index model learns to predict.
///
/// The order is total: equal keys fall back to (id, x bits, y bits), so the
/// result, and every build on it, depends on the point set alone, not on
/// the order it arrives in.
pub fn sort_by_key(points: Vec<Point>, mapper: &dyn KeyMapper) -> (Vec<Point>, Vec<f64>) {
    let keys = mapper.keys(&points);
    let mut pairs: Vec<(f64, Point)> = core::iter::zip(keys, points).collect();
    pairs.sort_unstable_by(|(ka, a), (kb, b)| {
        ka.total_cmp(kb)
            .then(a.id.cmp(&b.id))
            .then(a.x.to_bits().cmp(&b.x.to_bits()))
            .then(a.y.to_bits().cmp(&b.y.to_bits()))
    });
    pairs.into_iter().map(|(k, p)| (p, k)).unzip()
}

/// Key-sorted points in structure-of-arrays columns, so the predict-and-scan
/// hot paths run the branchless kernels in [`crate::scan`] directly over
/// contiguous coordinate slices.
///
/// Invariant: the four columns are parallel, `keys` is sorted ascending and
/// `keys[i]` is the mapped key of the point at rank `i`.
#[derive(Debug, Clone, Default)]
pub struct MappedData {
    keys: Vec<f64>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u64>,
}

impl MappedData {
    /// The columns of `points` and their `keys`, as [`sort_by_key`] returns
    /// them.
    pub fn from_sorted(points: &[Point], keys: Vec<f64>) -> Self {
        let xs = points.iter().map(|p| p.x).collect();
        let ys = points.iter().map(|p| p.y).collect();
        let ids = points.iter().map(|p| p.id).collect();
        Self::from_columns(keys, xs, ys, ids)
    }

    /// Adopts columns already in key order (a decoded snapshot).
    ///
    /// # Panics
    /// Panics if the columns differ in length, and (debug builds) if the
    /// keys are not sorted.
    pub fn from_columns(keys: Vec<f64>, xs: Vec<f64>, ys: Vec<f64>, ids: Vec<u64>) -> Self {
        assert!(
            keys.len() == ids.len() && xs.len() == ids.len() && ys.len() == ids.len(),
            "columns must be parallel"
        );
        debug_assert!(keys.is_sorted(), "keys must be sorted");
        Self { keys, xs, ys, ids }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted keys; `keys()[i]` belongs to the point at rank `i`.
    #[inline]
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// X coordinates in rank order.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Y coordinates in rank order.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Point ids in rank order.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The point at rank `i`, if there is one.
    #[inline]
    pub fn point(&self, i: usize) -> Option<Point> {
        Some(Point {
            id: *self.ids.get(i)?,
            x: *self.xs.get(i)?,
            y: *self.ys.get(i)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{HilbertMapper, IDistanceMapper, LisaMapper, MortonMapper};

    fn sample() -> (Vec<Point>, Vec<f64>) {
        let pts = vec![
            Point::new(0, 0.9, 0.9),
            Point::new(1, 0.1, 0.1),
            Point::new(2, 0.5, 0.5),
            Point::new(3, 0.2, 0.8),
        ];
        sort_by_key(pts, &MortonMapper)
    }

    #[test]
    fn build_sorts_by_key() {
        let (pts, keys) = sample();
        let d = MappedData::from_sorted(&pts, keys);
        assert_eq!(d.len(), 4);
        assert!(d.keys().windows(2).all(|w| w[0] <= w[1]));
        // Lower-left point must come first in Z order.
        assert_eq!(d.point(0).map(|p| p.id), Some(1));
        assert_eq!(d.point(d.len() - 1).map(|p| p.id), Some(0));
    }

    #[test]
    fn sort_by_key_orders_a_permutation_under_every_mapper() {
        // A scatter with every point stacked three times (equal keys).
        let mut input: Vec<Point> = (0..90u64)
            .map(|i| {
                let j = (i / 3) as f64;
                Point::new(i, (j * 0.37).fract(), (j * 0.61).fract())
            })
            .collect();
        input.reverse();
        let lisa = LisaMapper::fit(&input, 4);
        let idist = IDistanceMapper::new(vec![Point::at(0.2, 0.3), Point::at(0.8, 0.6)]);
        let mappers: [&dyn KeyMapper; 4] = [&MortonMapper, &HilbertMapper, &lisa, &idist];
        for mapper in mappers {
            let (pts, keys) = sort_by_key(input.clone(), mapper);
            assert!(keys.is_sorted());
            assert_eq!(keys, mapper.keys(&pts), "keys[i] is the key of points[i]");
            let mut ids: Vec<u64> = pts.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..90).collect::<Vec<u64>>());
            assert!(pts.iter().all(|p| input.contains(p)));
            // The order is total: any arrival order sorts to the same result.
            let mut shuffled = input.clone();
            shuffled.reverse();
            shuffled.rotate_left(41);
            assert_eq!(sort_by_key(shuffled, mapper), (pts, keys));

            let (pts, keys) = sort_by_key(Vec::new(), mapper);
            assert!(pts.is_empty() && keys.is_empty());
        }
    }

    #[test]
    fn bounds_and_cdf() {
        let pts: Vec<Point> = (0..10)
            .map(|i| Point::new(i, i as f64 / 10.0, 0.0))
            .collect();
        let keys: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let d = MappedData::from_sorted(&pts, keys);
        // The rank of a key is a search of the key column.
        let lower_bound = |key: f64| d.keys().partition_point(|&k| k < key);
        assert_eq!(lower_bound(0.35), 4);
        assert_eq!(lower_bound(0.3), 3);
        assert_eq!(lower_bound(-1.0), 0);
        assert_eq!(lower_bound(2.0), 10);
        // The columns hold the sorted points, rank for rank, and end there.
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(d.point(i), Some(*p));
            assert_eq!((d.ids()[i], d.xs()[i], d.ys()[i]), (p.id, p.x, p.y));
        }
        assert_eq!(d.point(10), None);
    }

    #[test]
    fn empty_data() {
        let d = MappedData::default();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.point(0), None);
        assert!(MappedData::from_sorted(&[], Vec::new()).is_empty());
    }
}
