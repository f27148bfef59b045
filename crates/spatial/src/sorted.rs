//! Map-and-sort, and the columns the sorted points are stored in.
//!
//! Every base index first maps its points to 1-D keys and sorts them
//! (Algorithm 1, lines 1–2). [`sort_by_key`] is that step: its output is
//! the training input of a build and lives only as long as the build.
//! [`MappedData`] is what the build stores — the sorted key column and the
//! coordinate columns that predict-and-scan queries run over.

use crate::block::stripe_mbrs;
use crate::mapping::KeyMapper;
use crate::order::canonical_point_key;
use crate::point::{Point, Rect};

/// Maps `points` with `mapper` and sorts them by key: the sorted points and
/// their keys, `keys[i]` the key of `points[i]`. The rank of a point is its
/// position in this order — the quantity an index model learns to predict.
///
/// The order is total: equal keys fall back to (id, x bits, y bits), so the
/// result, and every build on it, depends on the point set alone, not on
/// the order it arrives in.
///
/// The sort itself runs on integers: (the key's integer image under
/// [`f64::total_cmp`], input position) pairs, ordered by the image alone,
/// then one gather of points and keys. Equal images are bit-equal keys, so only inside a run
/// of them are the points put in (id, x bits, y bits) order — the same
/// vector, bit for bit, as one comparison sort on (key, id, x bits,
/// y bits).
pub fn sort_by_key(points: Vec<Point>, mapper: &dyn KeyMapper) -> (Vec<Point>, Vec<f64>) {
    let keys = mapper.keys(&points);
    let mut order: Vec<(u64, usize)> = keys
        .iter()
        .map(|&k| total_order_image(k))
        .zip(0..)
        .collect();
    order.sort_unstable_by_key(|&(image, _)| image);
    // `order` is a permutation of the input positions: every lookup hits.
    let (mut points, keys): (Vec<Point>, Vec<f64>) = order
        .iter()
        .filter_map(|&(_, i)| points.get(i).copied().zip(keys.get(i).copied()))
        .unzip();
    let mut rest = points.as_mut_slice();
    for run in keys.chunk_by(|a, b| a.to_bits() == b.to_bits()) {
        let (ties, tail) = std::mem::take(&mut rest).split_at_mut(run.len());
        if ties.len() > 1 {
            ties.sort_unstable_by_key(canonical_point_key);
        }
        rest = tail;
    }
    (points, keys)
}

/// The integer image of `key` under [`f64::total_cmp`]: `a.total_cmp(&b)`
/// is `total_order_image(a).cmp(&total_order_image(b))`. A negative key
/// has its magnitude bits flipped (larger magnitudes sort lower), and the
/// sign bit is flipped so negatives sort below positives as unsigned
/// integers.
#[inline]
fn total_order_image(key: f64) -> u64 {
    let b = key.to_bits();
    b ^ ((((b as i64) >> 63) as u64) >> 1) ^ (1 << 63)
}

/// Key-sorted points in structure-of-arrays columns, so the predict-and-scan
/// hot paths run the branchless kernels in [`crate::scan`] directly over
/// contiguous coordinate slices.
///
/// Invariant: `keys` is parallel to the point columns and sorted
/// ascending, and `keys[i]` is the mapped key of the point at rank `i`.
#[derive(Debug, Clone, Default)]
pub struct MappedData {
    keys: Vec<f64>,
    page: PageColumns,
}

impl MappedData {
    /// The columns of `points` and their `keys`, as [`sort_by_key`] returns
    /// them.
    pub fn from_sorted(points: &[Point], keys: Vec<f64>) -> Self {
        Self::keyed(keys, PageColumns::from_points(points))
    }

    /// Adopts columns already in key order (a decoded snapshot).
    ///
    /// # Panics
    /// Panics if the columns differ in length, and (debug builds) if the
    /// keys are not sorted.
    pub fn from_columns(keys: Vec<f64>, xs: Vec<f64>, ys: Vec<f64>, ids: Vec<u64>) -> Self {
        Self::keyed(keys, PageColumns::new(xs, ys, ids))
    }

    fn keyed(keys: Vec<f64>, page: PageColumns) -> Self {
        assert!(keys.len() == page.len(), "columns must be parallel");
        debug_assert!(keys.is_sorted(), "keys must be sorted");
        Self { keys, page }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.page.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.page.is_empty()
    }

    /// The sorted keys; `keys()[i]` belongs to the point at rank `i`.
    #[inline]
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// The points in rank order, with their stripe MBRs.
    #[inline]
    pub fn page(&self) -> &PageColumns {
        &self.page
    }

    /// X coordinates in rank order.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        self.page.xs()
    }

    /// Y coordinates in rank order.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        self.page.ys()
    }

    /// Point ids in rank order.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        self.page.ids()
    }

    /// The point at rank `i`, if there is one.
    #[inline]
    pub fn point(&self, i: usize) -> Option<Point> {
        self.page.point(i)
    }
}

/// The points of a sorted page in rank order, as SoA columns, and one MBR
/// per [`crate::STRIPE`] ranks that a window walk prunes
/// by. The MBRs are derived whenever columns are adopted — at build, at
/// snapshot decode, at a rebuild — and never persisted; a page is built
/// only through [`PageColumns::new`], so its stripes always bound its
/// points.
#[derive(Debug, Clone, Default)]
pub struct PageColumns {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u64>,
    stripes: Vec<Rect>,
}

impl PageColumns {
    /// Adopts parallel columns in rank order and derives their stripe MBRs.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, ids: Vec<u64>) -> Self {
        assert!(
            xs.len() == ids.len() && ys.len() == ids.len(),
            "columns must be parallel"
        );
        let stripes = stripe_mbrs(&xs, &ys);
        Self {
            xs,
            ys,
            ids,
            stripes,
        }
    }

    /// The columns of `points`, in their order.
    pub fn from_points(points: &[Point]) -> Self {
        let xs = points.iter().map(|p| p.x).collect();
        let ys = points.iter().map(|p| p.y).collect();
        let ids = points.iter().map(|p| p.id).collect();
        Self::new(xs, ys, ids)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the page is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
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

    /// One MBR per [`crate::STRIPE`] ranks, under [`Rect::expand_page`]'s
    /// rule: entry `s` bounds ranks `STRIPE·s .. STRIPE·(s + 1)`.
    #[inline]
    pub fn stripes(&self) -> &[Rect] {
        &self.stripes
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

    /// The points in rank order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.len()).filter_map(|i| self.point(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{HilbertMapper, IDistanceMapper, LisaMapper, MortonMapper};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The comparison sort [`sort_by_key`] must equal: one sort of (key,
    /// point) pairs on (key under `total_cmp`, id, x bits, y bits).
    fn reference_sort(points: Vec<Point>, mapper: &dyn KeyMapper) -> (Vec<Point>, Vec<f64>) {
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

    /// Values `total_cmp` has to get right, in its order: both infinities,
    /// `±0.0`, negative and positive subnormals, and NaNs of both signs
    /// with two payloads.
    const SPECIAL: [f64; 14] = [
        f64::from_bits(0xFFF8_0000_0000_0001),
        f64::from_bits(0xFFF8_0000_0000_0000),
        f64::NEG_INFINITY,
        -1.5,
        -f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE / 4.0,
        -0.0,
        0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 4.0,
        0.5,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001),
    ];

    /// The key of a point is its x coordinate, whatever it is.
    struct XKey;

    impl KeyMapper for XKey {
        fn key(&self, p: Point) -> f64 {
            p.x
        }
    }

    /// Bit-level view of a sort result, so NaN keys and coordinates compare.
    fn bits(sorted: &(Vec<Point>, Vec<f64>)) -> (Vec<(u64, u64, u64)>, Vec<u64>) {
        let (pts, keys) = sorted;
        (
            pts.iter().map(canonical_point_key).collect(),
            keys.iter().map(|k| k.to_bits()).collect(),
        )
    }

    #[test]
    fn total_order_image_orders_like_total_cmp() {
        for (i, a) in SPECIAL.iter().enumerate() {
            for (j, b) in SPECIAL.iter().enumerate() {
                assert_eq!(i.cmp(&j), a.total_cmp(b), "table order at {a:?}, {b:?}");
                assert_eq!(
                    total_order_image(*a).cmp(&total_order_image(*b)),
                    a.total_cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
        assert_eq!(
            total_order_image(f64::from_bits(0x8000_0000_0000_0000)),
            (1 << 63) - 1
        );
        assert_eq!(total_order_image(0.0), 1 << 63);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Map-and-sort equals the comparison sort bit for bit — keys,
        /// points and order — and so does a shuffled copy of its input.
        /// Coordinates come from [`SPECIAL`] or a few repeated values, and
        /// ids from a small range: runs of equal keys, special keys under
        /// [`XKey`], and equal ids at different coordinates.
        #[test]
        fn sort_by_key_equals_the_comparison_sort(
            raw in prop::collection::vec((0usize..24, 0usize..24, 0u64..12), 0..200),
            seed in any::<u64>()
        ) {
            let coord = |c: usize| SPECIAL.get(c).copied().unwrap_or(c as f64 / 32.0);
            let points: Vec<Point> =
                raw.iter().map(|&(x, y, id)| Point::new(id, coord(x), coord(y))).collect();
            let mut shuffled = points.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
            let mappers: [&dyn KeyMapper; 2] = [&XKey, &MortonMapper];
            for mapper in mappers {
                let want = bits(&reference_sort(points.clone(), mapper));
                prop_assert_eq!(bits(&sort_by_key(points.clone(), mapper)), want.clone());
                prop_assert_eq!(bits(&sort_by_key(shuffled.clone(), mapper)), want);
            }
        }
    }

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
