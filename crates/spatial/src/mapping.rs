//! Key mappers: point → 1-D key in `[0, 1]`.
//!
//! The map-and-sort paradigm (paper §III, applicability condition 1) requires
//! every base index to supply a mapping from points to a one-dimensional
//! space; points are then stored in the sorted order of the mapped space and
//! the index model learns that order. Each learned index contributes one
//! mapper:
//!
//! * [`MortonMapper`] — Z-curve values (ZM),
//! * [`HilbertMapper`] — Hilbert values (RSMI orderings, HRR),
//! * [`IDistanceMapper`] — iDistance pivots (ML-Index),
//! * [`LisaMapper`] — data-dependent grid + in-cell offset (LISA).
//!
//! All mappers normalise to `[0, 1]` so the same FFN architecture can learn
//! any of them, and so the Kolmogorov-Smirnov machinery in `elsi-data`
//! compares like with like.

use crate::curve::{hilbert_of, hilbert_to_unit, morton_of, morton_to_unit};
use crate::point::Point;

/// A mapping from a 2-D point to a key in `[0, 1]`.
///
/// Mappers must be deterministic: ELSI maps a point many times (build,
/// query, similarity computation) and relies on identical keys each time.
pub trait KeyMapper: Sync {
    /// The 1-D key of `p`, in `[0, 1]`.
    fn key(&self, p: Point) -> f64;

    /// Maps a batch of points. The default implementation maps one by one;
    /// mappers with amortisable setup may override it.
    fn keys(&self, pts: &[Point]) -> Vec<f64> {
        pts.iter().map(|&p| self.key(p)).collect()
    }
}

/// Z-order curve mapper (ZM index).
#[derive(Debug, Clone, Copy, Default)]
pub struct MortonMapper;

impl KeyMapper for MortonMapper {
    #[inline]
    fn key(&self, p: Point) -> f64 {
        morton_to_unit(morton_of(p.x, p.y))
    }
}

/// Hilbert curve mapper (HRR bulk loading, RSMI partition ordering).
#[derive(Debug, Clone, Copy, Default)]
pub struct HilbertMapper;

impl KeyMapper for HilbertMapper {
    #[inline]
    fn key(&self, p: Point) -> f64 {
        hilbert_to_unit(hilbert_of(p.x, p.y))
    }
}

/// iDistance mapper (ML-Index; Jagadish et al., TODS 2005).
///
/// Each point is assigned to its nearest reference point (pivot) `c_i` and
/// mapped to `i · c + dist(p, c_i)`, where the stretch constant `c` exceeds
/// any possible in-partition distance so pivot ranges never overlap.
#[derive(Debug, Clone)]
pub struct IDistanceMapper {
    pivots: Vec<Point>,
    /// Per-pivot range width; must be ≥ the diameter of the data space.
    stretch: f64,
}

impl IDistanceMapper {
    /// Creates a mapper from pivot points. The stretch constant defaults to
    /// the unit-square diameter √2 (so consecutive pivot ranges abut but
    /// never overlap for unit-square data).
    pub fn new(pivots: Vec<Point>) -> Self {
        assert!(!pivots.is_empty(), "iDistance requires at least one pivot");
        Self {
            pivots,
            stretch: std::f64::consts::SQRT_2,
        }
    }

    /// The pivots of this mapper.
    pub fn pivots(&self) -> &[Point] {
        &self.pivots
    }

    /// Index of the pivot nearest to `p` and the distance to it.
    #[inline]
    pub fn nearest_pivot(&self, p: Point) -> (usize, f64) {
        let mut best = 0;
        let mut best_d2 = f64::INFINITY;
        for (i, c) in self.pivots.iter().enumerate() {
            let d2 = c.dist2(&p);
            if d2 < best_d2 {
                best_d2 = d2;
                best = i;
            }
        }
        (best, best_d2.sqrt())
    }

    /// Full key range (normalisation denominator).
    #[inline]
    fn span(&self) -> f64 {
        self.pivots.len() as f64 * self.stretch
    }

    /// Normalised key of the point `(pivot, dist)` pair.
    #[inline]
    pub fn key_of(&self, pivot: usize, dist: f64) -> f64 {
        (pivot as f64 * self.stretch + dist.min(self.stretch)) / self.span()
    }
}

impl KeyMapper for IDistanceMapper {
    #[inline]
    fn key(&self, p: Point) -> f64 {
        let (i, d) = self.nearest_pivot(p);
        self.key_of(i, d)
    }
}

/// LISA mapper (Li et al., SIGMOD 2020).
///
/// LISA partitions the data space with a grid derived from the data itself
/// (equal-frequency strips along x, each strip split into equal-frequency
/// cells along y) and maps a point to `cell_number + in-cell offset`. The
/// mapped value is a weighted aggregation of the coordinates that follows
/// the data distribution — which is why building methods that synthesise
/// points *not in `D`* (CL, RL) are inapplicable to LISA (paper §VII-A).
#[derive(Debug, Clone)]
pub struct LisaMapper {
    /// Column boundaries over x: `cols.len() == g + 1`.
    cols: Vec<f64>,
    /// Row boundaries over y per column: `rows[c].len() == g + 1`.
    rows: Vec<Vec<f64>>,
}

impl LisaMapper {
    /// Fits a `g × g` data-dependent grid over `points`.
    ///
    /// # Panics
    /// Panics if `g == 0` or `points` is empty.
    pub fn fit(points: &[Point], g: usize) -> Self {
        assert!(g > 0, "grid resolution must be positive");
        assert!(!points.is_empty(), "LISA grid needs data");
        let mut xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        xs.sort_unstable_by(|a, b| a.total_cmp(b));
        let cols = quantile_boundaries(&xs, g);

        // Partition points into columns, then fit per-column y boundaries.
        let mut col_ys: Vec<Vec<f64>> = vec![Vec::new(); g];
        for p in points {
            let c = locate(&cols, p.x);
            col_ys[c].push(p.y);
        }
        let rows = col_ys
            .into_iter()
            .map(|mut ys| {
                if ys.is_empty() {
                    // Empty column: fall back to uniform boundaries.
                    (0..=g).map(|i| i as f64 / g as f64).collect()
                } else {
                    ys.sort_unstable_by(|a, b| a.total_cmp(b));
                    quantile_boundaries(&ys, g)
                }
            })
            .collect();
        Self { cols, rows }
    }

    /// Grid resolution `g`.
    #[inline]
    pub fn resolution(&self) -> usize {
        self.cols.len() - 1
    }

    /// The cell `(col, row)` containing `p`.
    #[inline]
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        let c = locate(&self.cols, p.x);
        let r = locate(&self.rows[c], p.y);
        (c, r)
    }

    /// Number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        let g = self.resolution();
        g * g
    }

    /// Key range `[lo, hi]` covered by cell `(col, row)`; useful for window
    /// queries that must enumerate candidate cells.
    pub fn cell_key_range(&self, col: usize, row: usize) -> (f64, f64) {
        let g = self.resolution();
        let id = (col * g + row) as f64;
        let n = self.num_cells() as f64;
        (id / n, (id + 1.0) / n)
    }

    /// Columns whose x-range intersects `[lo_x, hi_x]`.
    pub fn columns_overlapping(&self, lo_x: f64, hi_x: f64) -> std::ops::Range<usize> {
        let g = self.resolution();
        let start = locate(&self.cols, lo_x);
        let end = locate(&self.cols, hi_x) + 1;
        start..end.min(g)
    }

    /// Rows of column `c` whose y-range intersects `[lo_y, hi_y]`.
    pub fn rows_overlapping(&self, c: usize, lo_y: f64, hi_y: f64) -> std::ops::Range<usize> {
        let g = self.resolution();
        let start = locate(&self.rows[c], lo_y);
        let end = locate(&self.rows[c], hi_y) + 1;
        start..end.min(g)
    }

    /// The key of every point of column `c` at height `y`. It never falls
    /// as `y` grows, so the column's points with `y` in `[lo, hi]` have
    /// keys in `[column_key(c, lo), column_key(c, hi)]`.
    pub fn column_key(&self, c: usize, y: f64) -> f64 {
        let g = self.resolution();
        let r = locate(&self.rows[c], y);
        let cell_id = (c * g + r) as f64;
        // In-cell offset along y keeps the mapping monotone inside a cell.
        let lo = self.rows[c][r];
        let hi = self.rows[c][r + 1];
        let off = if hi > lo {
            ((y - lo) / (hi - lo)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        // Guard against offset exactly 1.0 spilling into the next cell.
        (cell_id + off.min(1.0 - 1e-12)) / self.num_cells() as f64
    }
}

impl KeyMapper for LisaMapper {
    fn key(&self, p: Point) -> f64 {
        self.column_key(locate(&self.cols, p.x), p.y)
    }
}

/// Equal-frequency boundaries over a sorted slice: `g + 1` values starting
/// at `0.0`-side minimum and ending just above the maximum.
fn quantile_boundaries(sorted: &[f64], g: usize) -> Vec<f64> {
    let n = sorted.len();
    let mut bounds = Vec::with_capacity(g + 1);
    bounds.push(f64::NEG_INFINITY);
    for i in 1..g {
        let idx = (i * n / g).min(n - 1);
        bounds.push(sorted[idx]);
    }
    bounds.push(f64::INFINITY);
    // Enforce monotonicity under duplicate-heavy data.
    for i in 1..bounds.len() {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }
    bounds
}

/// Index of the half-open interval `[bounds[i], bounds[i+1])` containing `v`.
#[inline]
fn locate(bounds: &[f64], v: f64) -> usize {
    // partition_point returns the count of boundaries ≤ v; subtract the
    // leading -inf sentinel.
    let i = bounds.partition_point(|b| *b <= v);
    i.saturating_sub(1).min(bounds.len() - 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<Point> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| {
                let x = (i % side) as f64 / side as f64;
                let y = (i / side) as f64 / side as f64;
                Point::new(i as u64, x, y)
            })
            .collect()
    }

    #[test]
    fn morton_and_hilbert_keys_in_unit_interval() {
        for p in grid_points(100) {
            let zm = MortonMapper.key(p);
            let h = HilbertMapper.key(p);
            assert!((0.0..1.0).contains(&zm), "morton key {zm}");
            assert!((0.0..1.0).contains(&h), "hilbert key {h}");
        }
    }

    #[test]
    fn idistance_key_groups_by_pivot() {
        let pivots = vec![Point::at(0.1, 0.1), Point::at(0.9, 0.9)];
        let m = IDistanceMapper::new(pivots);
        // A point near pivot 0 maps below any point near pivot 1.
        let near0 = m.key(Point::at(0.15, 0.12));
        let near1 = m.key(Point::at(0.85, 0.88));
        assert!(near0 < 0.5);
        assert!(near1 >= 0.5);
        // Within a pivot group, larger distance means larger key.
        let close = m.key(Point::at(0.1, 0.1));
        let far = m.key(Point::at(0.3, 0.3));
        assert!(close < far);
    }

    #[test]
    fn idistance_keys_bounded() {
        let pivots = vec![Point::at(0.5, 0.5)];
        let m = IDistanceMapper::new(pivots);
        for p in grid_points(64) {
            let k = m.key(p);
            assert!((0.0..=1.0).contains(&k));
        }
    }

    #[test]
    fn lisa_keys_in_unit_interval_and_cell_consistent() {
        let pts = grid_points(400);
        let m = LisaMapper::fit(&pts, 4);
        for &p in &pts {
            let k = m.key(p);
            assert!((0.0..1.0).contains(&k), "key {k}");
            let (c, r) = m.cell_of(p);
            let (lo, hi) = m.cell_key_range(c, r);
            assert!(k >= lo && k < hi, "key {k} outside cell range [{lo},{hi})");
        }
    }

    #[test]
    fn lisa_grid_is_roughly_equal_frequency() {
        let pts = grid_points(1600);
        let g = 4;
        let m = LisaMapper::fit(&pts, g);
        let mut counts = vec![0usize; g * g];
        for &p in &pts {
            let (c, r) = m.cell_of(p);
            counts[c * g + r] += 1;
        }
        let expected = pts.len() / (g * g);
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c >= expected / 4 && c <= expected * 4,
                "cell {i} count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    fn lisa_overlap_ranges_cover_cells() {
        let pts = grid_points(400);
        let m = LisaMapper::fit(&pts, 4);
        let cols = m.columns_overlapping(0.0, 1.0);
        assert_eq!(cols, 0..4);
        let rows = m.rows_overlapping(0, 0.0, 1.0);
        assert_eq!(rows, 0..4);
        // A degenerate query still maps to exactly one column.
        let cols = m.columns_overlapping(0.5, 0.5);
        assert_eq!(cols.len(), 1);
    }

    #[test]
    fn locate_handles_duplicates() {
        let bounds = vec![f64::NEG_INFINITY, 0.5, 0.5, f64::INFINITY];
        // v below, at, and above the duplicated boundary.
        assert_eq!(locate(&bounds, 0.4), 0);
        assert_eq!(locate(&bounds, 0.5), 2);
        assert_eq!(locate(&bounds, 0.6), 2);
    }
}
