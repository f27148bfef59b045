//! Query-to-shard routing.
//!
//! A [`Router`] is a pure, immutable description of a spatial partition:
//! it owns no data and takes no locks, so the query hot path can consult
//! it freely while shards are being updated elsewhere. Correctness of the
//! serving layer rests on two contracts spelled out on the trait.
//!
//! Two implementations ship: [`GridRouter`] (uniform R×C cells, zero
//! per-deployment state) and [`LearnedRouter`] (equi-mass quantile cuts
//! derived from per-axis empirical CDF models, `DESIGN.md` §13), which
//! keeps shard occupancy balanced under skew.

mod learned;

pub use learned::LearnedRouter;

use elsi_spatial::{Point, Rect};

/// A spatial partition of the unit square into `num_shards` shards.
///
/// Contracts every implementation must uphold (relied on by
/// `ShardedIndex`'s query merging, see `DESIGN.md` §9):
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
pub trait Router: Send + Sync {
    /// Number of shards in the partition.
    fn num_shards(&self) -> usize;

    /// The shard owning point `p` (O(1) for the grid router).
    fn shard_of(&self, p: Point) -> usize;

    /// Closed bounding rectangle of shard `shard`'s territory.
    fn shard_rect(&self, shard: usize) -> Rect;

    /// Every shard that could own a point inside window `w`, ascending by
    /// shard id — a superset of the shards owning points in `w`, as small
    /// as the implementation can make it. The default scans all closed
    /// rectangles for intersection (always a valid superset); the grid
    /// router overrides it with direct enumeration that also drops lower
    /// cells merely *touching* `w` on a shared boundary (boundary points
    /// belong to the higher cell, so those cells own nothing in `w`).
    fn shards_for_window(&self, w: &Rect) -> Vec<usize> {
        (0..self.num_shards())
            .filter(|&s| self.shard_rect(s).intersects(w))
            .collect()
    }
}

/// Any boxed router routes like its contents — lets callers pick a
/// routing policy at runtime (`Box<dyn Router>`) and still use the
/// generic `ShardedIndex` machinery.
impl<R: Router + ?Sized> Router for Box<R> {
    fn num_shards(&self) -> usize {
        (**self).num_shards()
    }

    fn shard_of(&self, p: Point) -> usize {
        (**self).shard_of(p)
    }

    fn shard_rect(&self, shard: usize) -> Rect {
        (**self).shard_rect(shard)
    }

    fn shards_for_window(&self, w: &Rect) -> Vec<usize> {
        (**self).shards_for_window(w)
    }
}

/// Per-shard ownership counts of `points` under `router` — the
/// load-balance diagnostic behind the perf ledger's
/// `serve.occupancy_max_mean` cell: a balanced router keeps
/// `max(count) / mean(count)` near 1 regardless of data skew.
pub fn shard_occupancy<R: Router + ?Sized>(router: &R, points: &[Point]) -> Vec<usize> {
    let mut counts = vec![0usize; router.num_shards()];
    for p in points {
        if let Some(c) = counts.get_mut(router.shard_of(*p)) {
            *c += 1;
        }
    }
    counts
}

/// The R×C uniform grid partition of the unit square.
///
/// Shard ids are row-major: shard `r * cols + c` owns
/// `[c/cols, (c+1)/cols] × [r/rows, (r+1)/rows]`. A coordinate exactly on
/// an interior boundary belongs to the *higher* cell, and `1.0` to the
/// last cell — the same closed-interval convention as
/// `elsi_spatial::curve::convert::coord_to_cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridRouter {
    rows: usize,
    cols: usize,
}

impl GridRouter {
    /// A `rows × cols` grid (each clamped up to at least 1).
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows: rows.max(1),
            cols: cols.max(1),
        }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cell of `v` on an `n`-cell axis. The clamp bounds the scaled value
    /// to `[0, n]` before truncation and the `min` folds `v == 1.0` into
    /// the last cell, so the cast is total.
    fn cell_of(v: f64, n: usize) -> usize {
        let scaled = v.clamp(0.0, 1.0) * n as f64;
        (scaled as usize).min(n - 1)
    }
}

impl Router for GridRouter {
    fn num_shards(&self) -> usize {
        self.rows * self.cols
    }

    // lint:hot_path
    fn shard_of(&self, p: Point) -> usize {
        Self::cell_of(p.y, self.rows) * self.cols + Self::cell_of(p.x, self.cols)
    }

    fn shard_rect(&self, shard: usize) -> Rect {
        let r = shard / self.cols;
        let c = shard % self.cols;
        Rect::new(
            c as f64 / self.cols as f64,
            r as f64 / self.rows as f64,
            (c + 1) as f64 / self.cols as f64,
            (r + 1) as f64 / self.rows as f64,
        )
    }

    fn shards_for_window(&self, w: &Rect) -> Vec<usize> {
        if w.is_empty() {
            return Vec::new();
        }
        // The grid cells intersecting an axis-aligned window form a
        // contiguous block of rows × cols: enumerate it directly.
        let c0 = Self::cell_of(w.lo_x, self.cols);
        let c1 = Self::cell_of(w.hi_x, self.cols);
        let r0 = Self::cell_of(w.lo_y, self.rows);
        let r1 = Self::cell_of(w.hi_y, self.rows);
        let mut out = Vec::with_capacity((r1 - r0 + 1) * (c1 - c0 + 1));
        for r in r0..=r1 {
            for c in c0..=c1 {
                out.push(r * self.cols + c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_total_and_covered_by_rects() {
        let g = GridRouter::new(3, 4);
        for i in 0..=20 {
            for j in 0..=20 {
                let p = Point::at(i as f64 / 20.0, j as f64 / 20.0);
                let s = g.shard_of(p);
                assert!(s < g.num_shards());
                assert!(g.shard_rect(s).contains(&p), "rect must cover owner");
            }
        }
    }

    #[test]
    fn boundary_points_go_to_the_higher_cell() {
        let g = GridRouter::new(2, 2);
        assert_eq!(g.shard_of(Point::at(0.5, 0.0)), 1);
        assert_eq!(g.shard_of(Point::at(0.0, 0.5)), 2);
        assert_eq!(g.shard_of(Point::at(0.5, 0.5)), 3);
        // 1.0 folds into the last cell, not past it.
        assert_eq!(g.shard_of(Point::at(1.0, 1.0)), 3);
        // Out-of-range coordinates clamp to the edge shards.
        assert_eq!(g.shard_of(Point::at(-0.3, 2.0)), 2);
    }

    #[test]
    fn window_routing_covers_ownership_and_never_exceeds_intersection() {
        let g = GridRouter::new(3, 5);
        let windows = [
            Rect::new(0.1, 0.1, 0.2, 0.9),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.49, 0.49, 0.51, 0.51),
            Rect::new(0.2, 0.4, 0.2, 0.4), // degenerate point window on a boundary
        ];
        for w in &windows {
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
        assert!(g.shards_for_window(&Rect::empty()).is_empty());
    }
}
