//! Flood: a query-aware learned multi-dimensional index (Nathan et al.,
//! SIGMOD 2020) — the paper's closing future-work pointer ("we also plan to
//! extend ELSI to support query-aware learned indices such as Flood"),
//! realised here for `d = 2`.
//!
//! Flood partitions a `d`-dimensional space with a `(d−1)`-dimensional grid
//! and indexes the points of each partition by their last dimension with a
//! learned model. For `d = 2`: the x-axis is cut into `c` equal-frequency
//! columns; within a column, points are sorted by y and a rank model —
//! built through the pluggable [`ModelBuilder`], so ELSI accelerates Flood
//! builds exactly as it does the four paper indices — predicts the y-rank.
//!
//! The *query-aware* part is the column count: [`FloodIndex::tune`]
//! evaluates candidate resolutions against a sample window workload with
//! Flood's cost model (columns intersected × per-column scan width) and
//! picks the cheapest, mirroring the paper's Flood description
//! ("learning multi-dimensional indexes").
//!
//! Point and window queries are exact: within a column the y-keys are the
//! sort keys themselves, so error-bounded predict-and-scan plus a validated
//! locate covers every stored point.

use crate::leaf::{Delta, Leaf};
use crate::model::{locate_lower, BuildInput, BuildStats, ModelBuilder, RankModel};
use crate::traits::{knn_seeded_into, SpatialIndex};
use elsi_spatial::{Block, KeyMapper, PageColumns, Point, Rect, ScanScratch};
use std::collections::HashSet;

/// Flood configuration.
#[derive(Debug, Clone, Copy)]
pub struct FloodConfig {
    /// Number of x-columns. Use [`FloodIndex::tune`] to pick this from a
    /// query workload.
    pub columns: usize,
}

impl Default for FloodConfig {
    fn default() -> Self {
        Self { columns: 16 }
    }
}

struct Column {
    /// The column's points sorted by y; its `ys` doubles as the sort-key
    /// array the model predicts over.
    page: PageColumns,
    model: RankModel,
}

impl Column {
    /// The column as a sorted page keyed by y.
    fn leaf<'a>(&'a self, deleted: &'a HashSet<u64>) -> Leaf<'a> {
        Leaf {
            keys: self.page.ys(),
            page: &self.page,
            deleted,
        }
    }

    /// The rank run `[lo, hi)` of the y-extent of `w`, located through
    /// the column's model.
    fn y_run(&self, w: &Rect) -> (usize, usize) {
        let ys = self.page.ys();
        let lo = locate_lower(ys, self.model.search_range(w.lo_y), w.lo_y);
        let hi = locate_lower(ys, self.model.search_range(w.hi_y), w.hi_y.next_up());
        (lo, hi)
    }
}

/// The Flood index (2-D).
pub struct FloodIndex {
    /// Column boundaries over x (`len == columns + 1`, sentinel-bounded).
    bounds: Vec<f64>,
    columns: Vec<Column>,
    /// Per-column overflow pages for inserts, and tombstones.
    delta: Delta,
    n_stored: usize,
    stats: Vec<BuildStats>,
}

/// The y-coordinate is the mapped key within a column.
struct YMapper;

impl KeyMapper for YMapper {
    fn key(&self, p: Point) -> f64 {
        p.y
    }
}

impl FloodIndex {
    /// Builds a Flood index with the given column count.
    pub fn build(mut points: Vec<Point>, cfg: &FloodConfig, builder: &dyn ModelBuilder) -> Self {
        assert!(cfg.columns >= 1, "need at least one column");
        let n = points.len();
        let c = cfg.columns.min(n.max(1));

        // Equal-frequency column boundaries over x.
        points.sort_unstable_by(|a, b| a.x.total_cmp(&b.x));
        let mut bounds = Vec::with_capacity(c + 1);
        bounds.push(f64::NEG_INFINITY);
        for i in 1..c {
            if let Some(p) = points.get(i * n / c) {
                bounds.push(p.x);
            }
        }
        bounds.push(f64::INFINITY);
        let mut floor = f64::NEG_INFINITY;
        for b in bounds.iter_mut() {
            if *b < floor {
                *b = floor;
            }
            floor = *b;
        }

        // Partition, sort each column by y, and learn the y-rank function.
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); c];
        for p in points {
            if let Some(bucket) = buckets.get_mut(locate_column(&bounds, p.x)) {
                bucket.push(p);
            }
        }
        let mut columns = Vec::with_capacity(c);
        let mut stats = Vec::new();
        for (ci, mut pts) in buckets.into_iter().enumerate() {
            pts.sort_unstable_by(|a, b| a.y.total_cmp(&b.y));
            let page = PageColumns::from_points(&pts);
            let built = builder.build_model(&BuildInput {
                points: &pts,
                keys: page.ys(),
                mapper: &YMapper,
                seed: 0xF100D + ci as u64,
            });
            stats.push(built.stats);
            columns.push(Column {
                page,
                model: built.model,
            });
        }

        Self {
            bounds,
            columns,
            delta: Delta::new(vec![Block::new(); c], HashSet::new()),
            n_stored: n,
            stats,
        }
    }

    /// Query-aware tuning: evaluates candidate column counts against a
    /// window workload using Flood's cost model — estimated cost of a
    /// window = (columns intersected) · (model hop) + points scanned — on
    /// an `x`-histogram of the data, then builds with the cheapest.
    pub fn tune(
        points: Vec<Point>,
        workload: &[Rect],
        candidates: &[usize],
        builder: &dyn ModelBuilder,
    ) -> (Self, usize) {
        assert!(!candidates.is_empty(), "need candidate column counts");
        let n = points.len().max(1);
        // x-quantiles once (256-bin histogram stands in for the data CDF).
        let mut xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        xs.sort_unstable_by(|a, b| a.total_cmp(b));

        let mut best = candidates[0];
        let mut best_cost = f64::INFINITY;
        for &c in candidates {
            let c = c.max(1);
            let per_column = n as f64 / c as f64;
            let mut cost = 0.0;
            for w in workload {
                // Columns the window intersects (via the x CDF).
                let lo = xs.partition_point(|&x| x < w.lo_x) as f64 / n as f64;
                let hi = xs.partition_point(|&x| x <= w.hi_x) as f64 / n as f64;
                let cols = ((hi - lo) * c as f64).ceil().max(1.0);
                // Per intersected column: one model hop plus the expected
                // y-range scan.
                let y_frac = (w.hi_y - w.lo_y).clamp(0.0, 1.0);
                cost += cols * (8.0 + per_column * y_frac);
            }
            if cost < best_cost {
                best_cost = cost;
                best = c;
            }
        }
        (
            Self::build(points, &FloodConfig { columns: best }, builder),
            best,
        )
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Per-model build statistics.
    pub fn build_stats(&self) -> &[BuildStats] {
        &self.stats
    }

    /// First live stored (not overflow) point at `q`'s coordinates in
    /// column `c`, with id `only` when given.
    fn find_stored(&self, c: usize, q: Point, only: Option<u64>) -> Option<Point> {
        let col = self.columns.get(c)?;
        col.leaf(self.delta.tombstones())
            .find(col.model.search_range(q.y), q.y, q, only)
    }
}

#[inline]
fn locate_column(bounds: &[f64], x: f64) -> usize {
    bounds
        .partition_point(|&b| b <= x)
        .saturating_sub(1)
        .min(bounds.len() - 2)
}

impl SpatialIndex for FloodIndex {
    fn len(&self) -> usize {
        self.delta.len(self.n_stored)
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        let c = locate_column(&self.bounds, q.x);
        let stored = self.find_stored(c, q, None);
        let page = self.delta.pages.get(c);
        stored.or_else(|| page.and_then(|page| page.find_exact(q.x, q.y)))
    }

    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        let first = locate_column(&self.bounds, w.lo_x);
        let last = locate_column(&self.bounds, w.hi_x);
        for (c, col) in self.columns.iter().enumerate().take(last + 1).skip(first) {
            col.leaf(self.delta.tombstones())
                .window_into(col.y_run(w), w, scratch, out);
            if let Some(page) = self.delta.pages.get(c) {
                page.window_scan_into(w, out);
            }
        }
    }

    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        let k = k.min(self.len());
        let home = locate_column(&self.bounds, q.x);
        let deleted = self.delta.tombstones();
        knn_seeded_into(
            q,
            k,
            r2,
            scratch,
            out,
            |heap| {
                // `k` ranks either side of the query's own y-rank in its
                // column, plus the overflow pages.
                let mut run = (0, 0);
                if let Some(col) = self.columns.get(home) {
                    let pos = locate_lower(col.page.ys(), col.model.search_range(q.y), q.y);
                    run = (pos.saturating_sub(k), pos + k);
                    col.leaf(deleted).knn_offer_span(q, run, heap);
                }
                for page in &self.delta.pages {
                    page.knn_into(q.x, q.y, heap);
                }
                run
            },
            |run, ball, heap| {
                // The ball box's y-run in every column it reaches, minus
                // the seeded run of the home column.
                let first = locate_column(&self.bounds, ball.lo_x);
                let last = locate_column(&self.bounds, ball.hi_x);
                for (c, col) in self.columns.iter().enumerate().take(last + 1).skip(first) {
                    let seeded = if c == home { run } else { (0, 0) };
                    col.leaf(deleted)
                        .knn_offer_around(q, col.y_run(ball), seeded, heap);
                }
            },
        );
    }

    fn insert(&mut self, p: Point) {
        self.delta.insert(locate_column(&self.bounds, p.x), p);
    }

    fn delete(&mut self, p: Point) -> bool {
        let c = locate_column(&self.bounds, p.x);
        self.delta.remove(c, p) || {
            let stored = self.find_stored(c, p, Some(p.id));
            self.delta.bury(stored)
        }
    }

    fn name(&self) -> &'static str {
        "Flood"
    }

    fn depth(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OgBuilder, PwlBuilder};
    use elsi_data::gen::{nyc_like, uniform, window_queries};

    fn build_small(n: usize, columns: usize) -> (Vec<Point>, FloodIndex) {
        let pts = uniform(n, 29);
        let idx = FloodIndex::build(
            pts.clone(),
            &FloodConfig { columns },
            &OgBuilder::with_epochs(50),
        );
        (pts, idx)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, idx) = build_small(1200, 8);
        assert_eq!(idx.num_columns(), 8);
        for p in pts.iter().step_by(13) {
            assert_eq!(idx.point_query(*p).expect("found").id, p.id);
        }
    }

    #[test]
    fn window_query_is_exact() {
        let (pts, idx) = build_small(1500, 8);
        for w in [
            Rect::new(0.1, 0.1, 0.35, 0.8),
            Rect::unit(),
            Rect::new(0.49, 0.0, 0.51, 1.0), // straddles column boundaries
        ] {
            let mut got: Vec<u64> = idx.window_query(&w).iter().map(|p| p.id).collect();
            got.sort_unstable();
            got.dedup();
            let mut want: Vec<u64> = pts.iter().filter(|p| w.contains(p)).map(|p| p.id).collect();
            want.sort_unstable();
            assert_eq!(got, want, "window {w:?}");
        }
    }

    #[test]
    fn works_with_pwl_models_too() {
        let pts = nyc_like(2000, 4);
        let idx = FloodIndex::build(
            pts.clone(),
            &FloodConfig { columns: 8 },
            &PwlBuilder::default(),
        );
        for p in pts.iter().step_by(41) {
            assert!(idx.point_query(*p).is_some());
        }
    }

    #[test]
    fn tune_prefers_more_columns_for_tall_windows() {
        // Tall, narrow windows touch few columns but scan a large y-range:
        // more columns (narrower, fewer points each) should win over one
        // giant column.
        let pts = uniform(4000, 7);
        let tall: Vec<Rect> = (0..50)
            .map(|i| {
                let x = i as f64 / 50.0;
                Rect::new(x, 0.0, (x + 0.01).min(1.0), 1.0)
            })
            .collect();
        let (_, cols) = FloodIndex::tune(
            pts.clone(),
            &tall,
            &[1, 4, 16, 64],
            &OgBuilder::with_epochs(20),
        );
        assert!(
            cols >= 16,
            "tall windows should prefer many columns, got {cols}"
        );

        // Wide, flat windows intersect every column; fewer columns win.
        let flat: Vec<Rect> = (0..50)
            .map(|i| {
                let y = i as f64 / 50.0;
                Rect::new(0.0, y, 1.0, (y + 0.01).min(1.0))
            })
            .collect();
        let (_, cols) = FloodIndex::tune(pts, &flat, &[1, 4, 16, 64], &OgBuilder::with_epochs(20));
        assert!(
            cols <= 4,
            "flat windows should prefer few columns, got {cols}"
        );
    }

    #[test]
    fn insert_delete_roundtrip() {
        let (pts, mut idx) = build_small(600, 4);
        let p = Point::new(70_001, 0.123, 0.456);
        idx.insert(p);
        assert_eq!(idx.point_query(p).unwrap().id, 70_001);
        assert!(idx.delete(p));
        assert!(idx.point_query(p).is_none());
        assert!(idx.delete(pts[3]));
        assert!(idx.point_query(pts[3]).is_none());
        // A window over the deleted point excludes it.
        let w = Rect::window_around(pts[3], 0.01);
        assert!(!idx.window_query(&w).iter().any(|q| q.id == pts[3].id));
    }

    #[test]
    fn knn_matches_brute_force() {
        let (pts, idx) = build_small(900, 6);
        let q = Point::at(0.62, 0.37);
        let got = idx.knn_query(q, 10);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        assert_eq!(got.len(), 10);
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_and_single_column() {
        let idx = FloodIndex::build(
            Vec::new(),
            &FloodConfig::default(),
            &OgBuilder::with_epochs(5),
        );
        assert!(idx.point_query(Point::at(0.5, 0.5)).is_none());
        assert!(idx.window_query(&Rect::unit()).is_empty());

        let pts = uniform(50, 1);
        let idx = FloodIndex::build(
            pts.clone(),
            &FloodConfig { columns: 1 },
            &OgBuilder::with_epochs(30),
        );
        assert_eq!(idx.num_columns(), 1);
        assert!(idx.point_query(pts[0]).is_some());
    }

    #[test]
    fn workload_helper_integration() {
        // The data-distributed window generator drives tune() end to end.
        let pts = nyc_like(3000, 9);
        let wl = window_queries(&pts, 40, 0.001, 3);
        let (idx, cols) =
            FloodIndex::tune(pts.clone(), &wl, &[2, 8, 32], &OgBuilder::with_epochs(20));
        assert!([2, 8, 32].contains(&cols));
        for p in pts.iter().step_by(97) {
            assert!(idx.point_query(*p).is_some());
        }
    }
}
