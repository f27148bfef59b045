//! Query-to-shard routing.
//!
//! A [`Router`] is a pure, immutable description of a spatial partition:
//! it owns no data and takes no locks, so the query hot path can consult
//! it freely while shards are being updated elsewhere.
//!
//! There is one router and two ways to make it. [`Router::new`] cuts each
//! axis uniformly; [`Router::fit`] learns equi-mass cuts from per-axis
//! empirical CDF models (`DESIGN.md` §13), which keeps shard occupancy
//! balanced under skew. Both route through the same cut search, so a grid
//! is just a router whose cuts happen to be uniform.

mod learned;

use elsi_spatial::{Point, Rect};

/// Another name for [`Router`], kept for callers written against it.
#[doc(hidden)]
pub type GridRouter = Router;

/// Another name for [`Router`], kept for callers written against it.
#[doc(hidden)]
pub type LearnedRouter = Router;

/// An R×C partition of the unit square into `rows × cols` shards, cut
/// column-first: `cols + 1` x cuts, then per column its own `rows + 1`
/// y cuts (a Flood-style layout).
///
/// Shard ids are row-major: shard `r * cols + c` owns
/// `[x_cuts[c], x_cuts[c+1]] × [y_cuts[c][r], y_cuts[c][r+1]]`. A
/// coordinate exactly on an interior cut belongs to the *higher* cell,
/// and `1.0` to the last cell — the same closed-interval convention as
/// `elsi_spatial::curve::convert::coord_to_cell`.
///
/// Two contracts, relied on by `ShardedIndex`'s query merging
/// (`DESIGN.md` §9):
///
/// 1. **Ownership is a function of coordinates.** [`Router::shard_of`]
///    maps every point of the unit square to exactly one shard, and the
///    same coordinates always map to the same shard. Updates and point
///    queries are routed with it, so a stored point is always found again.
/// 2. **Rectangles cover ownership.** Every point `p` lies inside
///    [`Router::shard_rect`]`(shard_of(p))` (rectangles are closed, so
///    they may overlap on shared boundaries — that is a cover, not a
///    partition, and it is fine: MINDIST pruning and window routing only
///    need the rectangle to be a *superset* of the shard's points).
///
/// Both hold by construction: a shard's rect is read off the very cuts
/// that decide its ownership.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    rows: usize,
    cols: usize,
    /// `cols + 1` strictly increasing x cuts; first `0.0`, last `1.0`.
    x_cuts: Vec<f64>,
    /// Per column: `rows + 1` strictly increasing y cuts, first `0.0`,
    /// last `1.0`. `y_cuts.len() == cols`.
    y_cuts: Vec<Vec<f64>>,
}

impl Router {
    /// The uniform `rows × cols` grid (each clamped up to at least 1).
    /// Interior cut `j` of `n` is the smallest `f64` `v` with
    /// `(v * n as f64) as usize >= j`, so cell `c` holds exactly the
    /// coordinates the truncating grid arithmetic sends to `c`.
    pub fn new(rows: usize, cols: usize) -> Self {
        let (rows, cols) = (rows.max(1), cols.max(1));
        Self {
            rows,
            cols,
            x_cuts: uniform_cuts(cols),
            y_cuts: vec![uniform_cuts(rows); cols],
        }
    }

    /// Reassembles a router from previously computed cuts — the recovery
    /// path of the persistence layer (`DESIGN.md` §14), where the cuts
    /// come back from a serving-directory snapshot instead of a fit.
    ///
    /// Returns `None` unless the cuts satisfy every invariant the
    /// constructors guarantee: `x_cuts` has `cols + 1` strictly increasing
    /// values anchored at `0.0` and `1.0`, and `y_cuts` has one such
    /// `rows + 1` cut set per column. A decoded cut set that fails this
    /// check is corrupt — accepting it would break the ownership contracts
    /// that the cross-shard merge proofs rely on.
    pub fn from_cuts(
        rows: usize,
        cols: usize,
        x_cuts: Vec<f64>,
        y_cuts: Vec<Vec<f64>>,
    ) -> Option<Self> {
        let anchored = |cuts: &[f64], parts: usize| {
            cuts.len() == parts + 1
                && cuts.first() == Some(&0.0)
                && cuts.last() == Some(&1.0)
                && cuts.iter().zip(cuts.iter().skip(1)).all(|(a, b)| a < b)
        };
        if rows == 0 || cols == 0 || !anchored(&x_cuts, cols) {
            return None;
        }
        if y_cuts.len() != cols || !y_cuts.iter().all(|cuts| anchored(cuts, rows)) {
            return None;
        }
        Some(Self {
            rows,
            cols,
            x_cuts,
            y_cuts,
        })
    }

    /// Rows of the partition.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the partition.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The x cuts: `cols + 1` strictly increasing values from `0.0` to
    /// `1.0`.
    pub fn x_cuts(&self) -> &[f64] {
        &self.x_cuts
    }

    /// The y cuts of column `col` (`rows + 1` strictly increasing values
    /// from `0.0` to `1.0`), or `None` past the last column.
    pub fn y_cuts(&self, col: usize) -> Option<&[f64]> {
        self.y_cuts.get(col).map(Vec::as_slice)
    }

    /// Number of shards in the partition.
    pub fn num_shards(&self) -> usize {
        self.rows * self.cols
    }

    /// The shard owning point `p`: two binary searches over the cuts.
    // lint:hot_path
    // lint:serving_root
    pub fn shard_of(&self, p: Point) -> usize {
        let c = self.col_of(p.x);
        self.row_of(c, p.y) * self.cols + c
    }

    /// Closed bounding rectangle of shard `shard`'s territory.
    pub fn shard_rect(&self, shard: usize) -> Rect {
        let c = shard % self.cols;
        let r = shard / self.cols;
        let (lo_x, hi_x) = cut_bounds(&self.x_cuts, c);
        let (lo_y, hi_y) = match self.y_cuts.get(c) {
            Some(cuts) => cut_bounds(cuts, r),
            None => (0.0, 1.0),
        };
        Rect::new(lo_x, lo_y, hi_x, hi_y)
    }

    /// Every shard that could own a point inside window `w`, ascending by
    /// shard id. Columns intersecting the window form a contiguous x
    /// range; the row range then differs per column (per-column y cuts),
    /// so rows are enumerated within each column. Lower cells merely
    /// *touching* `w` on a shared cut are dropped: a boundary coordinate
    /// belongs to the higher cell, so they own nothing in `w`.
    pub fn shards_for_window(&self, w: &Rect) -> Vec<usize> {
        if w.is_empty() {
            return Vec::new();
        }
        let c0 = self.col_of(w.lo_x);
        let c1 = self.col_of(w.hi_x);
        let mut out = Vec::new();
        for c in c0..=c1 {
            let r0 = self.row_of(c, w.lo_y);
            let r1 = self.row_of(c, w.hi_y);
            for r in r0..=r1 {
                out.push(r * self.cols + c);
            }
        }
        out.sort_unstable();
        out
    }

    /// Column of `x` under the x cuts.
    fn col_of(&self, x: f64) -> usize {
        cut_cell(x, &self.x_cuts)
    }

    /// Row of `y` inside column `col`.
    fn row_of(&self, col: usize, y: f64) -> usize {
        match self.y_cuts.get(col) {
            Some(cuts) => cut_cell(y, cuts),
            None => 0,
        }
    }
}

/// Per-shard ownership counts of `points` under `router` — the
/// load-balance diagnostic behind the perf ledger's
/// `serve.occupancy_max_mean` cell: a balanced router keeps
/// `max(count) / mean(count)` near 1 regardless of data skew.
pub fn shard_occupancy(router: &Router, points: &[Point]) -> Vec<usize> {
    let mut counts = vec![0usize; router.num_shards()];
    for p in points {
        if let Some(c) = counts.get_mut(router.shard_of(*p)) {
            *c += 1;
        }
    }
    counts
}

/// Cell of `v` under strictly increasing `cuts` (`len == parts + 1`).
///
/// Counts the cuts at or below `v`, which lands a coordinate exactly on
/// an interior cut in the *higher* cell; the final `min` folds `v == 1.0`
/// (at or past the last cut) into the last cell. NaN clamps to `0.0`.
/// Total, allocation-free and panic-free — this sits on the query hot
/// path under `shard_of`.
fn cut_cell(v: f64, cuts: &[f64]) -> usize {
    let v = v.clamp(0.0, 1.0);
    let k = cuts.partition_point(|&c| c <= v);
    k.saturating_sub(1).min(cuts.len().saturating_sub(2))
}

/// Closed `[lo, hi]` span of `cell` under `cuts`; out-of-range cells
/// degrade to the full axis rather than panic.
fn cut_bounds(cuts: &[f64], cell: usize) -> (f64, f64) {
    let lo = cuts.get(cell).copied().unwrap_or(0.0);
    let hi = cuts.get(cell + 1).copied().unwrap_or(1.0);
    (lo, hi)
}

/// Uniform cuts of `parts` cells: `0.0`, then for each interior `j` the
/// smallest `f64` `v` with `(v * parts as f64) as usize >= j`, then `1.0`
/// — the exact boundaries of the truncating grid arithmetic, which
/// [`cut_cell`] over them reproduces everywhere. Each is a few ulps from
/// `j / parts` at most (equal for powers of two); a `j / parts` cut could
/// leave the point one ulp below it outside the cell it is routed to.
fn uniform_cuts(parts: usize) -> Vec<f64> {
    let parts = parts.max(1);
    let n = parts as f64;
    // Casting a value ≤ 0 gives 0 < j, so the downward walk stops at 0.
    let reaches = |v: f64, j: usize| (v * n) as usize >= j;
    let mut cuts = vec![0.0];
    for j in 1..parts {
        let mut v = j as f64 / n;
        while !reaches(v, j) {
            v = v.next_up();
        }
        while reaches(v.next_down(), j) {
            v = v.next_down();
        }
        cuts.push(v);
    }
    cuts.push(1.0);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same shape under both constructors: uniform cuts, and cuts
    /// fitted to a skewed sample.
    fn both(rows: usize, cols: usize) -> [Router; 2] {
        let sample = learned::tests::skewed_points(10_000);
        [Router::new(rows, cols), Router::fit(&sample, rows, cols)]
    }

    #[test]
    fn ownership_is_total_and_covered_by_rects() {
        for g in both(3, 4) {
            for i in 0..=40 {
                for j in 0..=40 {
                    let p = Point::at(i as f64 / 40.0, j as f64 / 40.0);
                    let s = g.shard_of(p);
                    assert!(s < g.num_shards());
                    assert!(g.shard_rect(s).contains(&p), "rect must cover owner");
                }
            }
        }
    }

    #[test]
    fn boundary_points_go_to_the_higher_cell() {
        let g = Router::new(2, 2);
        assert_eq!(g.shard_of(Point::at(0.5, 0.0)), 1);
        assert_eq!(g.shard_of(Point::at(0.0, 0.5)), 2);
        assert_eq!(g.shard_of(Point::at(0.5, 0.5)), 3);
        // 1.0 folds into the last cell, not past it.
        assert_eq!(g.shard_of(Point::at(1.0, 1.0)), 3);
        // Out-of-range coordinates clamp to the edge shards.
        assert_eq!(g.shard_of(Point::at(-0.3, 2.0)), 2);
        // Uniform cuts route exactly like the truncating grid arithmetic,
        // ulp for ulp around every cut, and powers of two keep `j / n`.
        let arithmetic = |v: f64, n: usize| ((v.clamp(0.0, 1.0) * n as f64) as usize).min(n - 1);
        for n in 1..=64 {
            let cuts = uniform_cuts(n);
            for j in 0..=n {
                let q = j as f64 / n as f64;
                let lowest = (0..3).fold(q, |v, _| v.next_down());
                for v in std::iter::successors(Some(lowest), |v| Some(v.next_up())).take(7) {
                    assert_eq!(cut_cell(v, &cuts), arithmetic(v, n), "n={n} v={v:e}");
                }
                if n.is_power_of_two() {
                    assert_eq!(cuts.get(j), Some(&q));
                }
            }
        }
        // Column 9 of 10 owns 0.9's lower neighbour, so its cut lies below
        // 0.9 and its rect covers that neighbour.
        let g = Router::new(1, 10);
        let p = Point::at(0.9f64.next_down(), 0.5);
        assert!(g.shard_rect(g.shard_of(p)).contains(&p));
    }

    #[test]
    fn window_routing_covers_ownership_and_never_exceeds_intersection() {
        let windows = [
            Rect::new(0.1, 0.1, 0.2, 0.9),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.49, 0.49, 0.51, 0.51),
            Rect::new(0.05, 0.0, 0.3, 0.12),
            Rect::new(0.2, 0.4, 0.2, 0.4), // degenerate point window on a boundary
        ];
        for (g, w) in both(3, 5)
            .iter()
            .flat_map(|g| windows.iter().map(move |w| (g, w)))
        {
            let fast = g.shards_for_window(w);
            // Never more than the closed-rect intersection scan...
            let scan: Vec<usize> = (0..g.num_shards())
                .filter(|&s| g.shard_rect(s).intersects(w))
                .collect();
            assert!(fast.iter().all(|s| scan.contains(s)), "window {w:?}");
            assert!(fast.windows(2).all(|p| p[0] < p[1]), "ascending ids");
            // ...and always a cover of ownership: any point of the window
            // routes to a listed shard.
            for i in 0..=10 {
                for j in 0..=10 {
                    let p = Point::at(
                        w.lo_x + (w.hi_x - w.lo_x) * i as f64 / 10.0,
                        w.lo_y + (w.hi_y - w.lo_y) * j as f64 / 10.0,
                    );
                    assert!(fast.contains(&g.shard_of(p)), "window {w:?} point {p:?}");
                }
            }
        }
        let empty = |g: &Router| g.shards_for_window(&Rect::empty()).is_empty();
        assert!(both(3, 5).iter().all(empty));
    }
}
