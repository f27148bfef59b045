//! LISA: a learned index structure for spatial data (Li et al., SIGMOD 2020).
//!
//! LISA partitions the data space with a grid derived from the data, maps
//! each point to a one-dimensional value (cell number + in-cell offset — a
//! weighted aggregation of the coordinates), and learns a *shard prediction
//! function* from mapped values to shard ids. Points are stored shard-wise
//! in data pages; insertions append to the predicted shard's pages, creating
//! new pages as needed (paper §II).
//!
//! Following the paper's experimental setup (§VII-B1), the shard prediction
//! function is an FFN rather than LISA's original piecewise-linear function;
//! this "breaks the monotonicity of its shard prediction functions, which
//! impacts the accuracy of window queries" — window queries are therefore
//! approximate, while point queries stay exact via shard-level error bounds
//! and kNN via the data pages' MBRs (the model only chooses where the
//! search starts).
//!
//! Because the grid is built from `D` itself, building methods that
//! synthesise points not in `D` (CL, RL) are inapplicable (paper §VII-A);
//! the `elsi` crate masks them out for LISA.

use crate::model::{BuildInput, BuildStats, ModelBuilder, RankModel};
use crate::traits::{knn_seeded_into, SpatialIndex};
use elsi_spatial::{sort_by_key, Block, KeyMapper, KnnHeap, LisaMapper, Point, Rect, ScanScratch};
use rayon::prelude::*;
use std::collections::BTreeSet;

/// LISA configuration.
#[derive(Debug, Clone, Copy)]
pub struct LisaConfig {
    /// Grid resolution `g` (the mapper fits a `g × g` data-dependent grid).
    pub grid: usize,
    /// Target points per shard.
    pub shard_size: usize,
    /// Points per data page (paper: `B = 100`).
    pub block_size: usize,
}

impl Default for LisaConfig {
    fn default() -> Self {
        Self {
            grid: 16,
            shard_size: 400,
            block_size: 100,
        }
    }
}

/// The LISA index.
pub struct LisaIndex {
    mapper: LisaMapper,
    model: RankModel,
    /// Shard-level error bounds (actual − predicted shard id).
    shard_lo: i64,
    shard_hi: i64,
    /// Each shard's data pages (at least one), in key order at bulk load.
    shards: Vec<Vec<Block>>,
    shard_size: usize,
    /// Points per data page; a fuller page splits in half.
    block_size: usize,
    n_live: usize,
    stats: Vec<BuildStats>,
}

impl LisaIndex {
    /// Builds a LISA index over `points` using the given model builder.
    ///
    /// # Panics
    /// Panics if `points` is empty (LISA's grid needs data) unless you want
    /// an empty index — use [`LisaIndex::empty`] for that.
    pub fn build(points: Vec<Point>, cfg: &LisaConfig, builder: &dyn ModelBuilder) -> Self {
        if points.is_empty() {
            return Self::empty(cfg);
        }
        assert!(cfg.grid > 0 && cfg.shard_size > 0 && cfg.block_size > 0);
        let mapper = LisaMapper::fit(&points, cfg.grid);
        let (points, keys) = sort_by_key(points, &mapper);
        let n = points.len();
        let num_shards = n.div_ceil(cfg.shard_size).max(1);

        // The shard pages never read the model: bulk-load them in parallel
        // beside its training. Shard order follows the chunk order,
        // independent of thread count.
        let (built, shards) = rayon::join(
            || {
                builder.build_model(&BuildInput {
                    points: &points,
                    keys: &keys,
                    mapper: &mapper,
                    seed: 0x115A,
                })
            },
            || {
                let chunks: Vec<&[Point]> = points.chunks(cfg.shard_size).collect();
                chunks
                    .into_par_iter()
                    .map(|shard| {
                        let pages = shard.chunks(cfg.block_size).map(<[Point]>::to_vec);
                        pages.map(Block::from_points).collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            },
        );
        let stats = vec![built.stats];
        let model = built.model;

        // Shard-level error bounds: predicted vs actual shard of every
        // point. The scan is a pure min/max reduction, so chunked partials
        // merge to the same bounds for any thread count.
        let chunk = n.div_ceil(rayon::current_num_threads().max(1)).max(1);
        let starts: Vec<usize> = (0..n).step_by(chunk).collect();
        let partials: Vec<(i64, i64)> = starts
            .into_par_iter()
            .map(|start| {
                let end = (start + chunk).min(n);
                let mut lo = 0i64;
                let mut hi = 0i64;
                for (i, &k) in keys[start..end].iter().enumerate() {
                    let pred = shard_of_prediction(&model, k, cfg.shard_size, num_shards);
                    let actual = ((start + i) / cfg.shard_size) as i64;
                    lo = lo.min(actual - pred);
                    hi = hi.max(actual - pred);
                }
                (lo, hi)
            })
            .collect();
        let mut shard_lo = 0i64;
        let mut shard_hi = 0i64;
        for (lo, hi) in partials {
            shard_lo = shard_lo.min(lo);
            shard_hi = shard_hi.max(hi);
        }

        Self {
            mapper,
            model,
            shard_lo,
            shard_hi,
            shards,
            shard_size: cfg.shard_size,
            block_size: cfg.block_size,
            n_live: n,
            stats,
        }
    }

    /// An empty LISA index (uniform fallback grid).
    pub fn empty(cfg: &LisaConfig) -> Self {
        let dummy = vec![Point::at(0.5, 0.5)];
        let mapper = LisaMapper::fit(&dummy, cfg.grid.max(1));
        Self {
            mapper,
            model: RankModel::empty(0),
            shard_lo: 0,
            shard_hi: 0,
            shards: vec![vec![Block::new()]],
            shard_size: cfg.shard_size.max(1),
            block_size: cfg.block_size.max(1),
            n_live: 0,
            stats: Vec::new(),
        }
    }

    /// The fitted grid mapper.
    pub fn mapper(&self) -> &LisaMapper {
        &self.mapper
    }

    /// Build statistics of the shard prediction model.
    pub fn build_stats(&self) -> &[BuildStats] {
        &self.stats
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn predicted_shard(&self, key: f64) -> i64 {
        shard_of_prediction(&self.model, key, self.shard_size, self.shards.len())
    }

    /// Shard range guaranteed to contain a bulk-loaded point with this key.
    #[inline]
    fn shard_range(&self, key: f64) -> (usize, usize) {
        let pred = self.predicted_shard(key);
        let max = self.shards.len() as i64 - 1;
        let lo = (pred + self.shard_lo).clamp(0, max) as usize;
        let hi = (pred + self.shard_hi).clamp(0, max) as usize;
        (lo, hi)
    }

    /// Offers the pages of shard `s` that can still beat the heap's k-th
    /// distance (strict MBR pruning, so ties survive).
    fn knn_offer_shard(&self, q: Point, s: usize, heap: &mut KnnHeap) {
        for page in self.shards.get(s).into_iter().flatten() {
            if page.mbr().min_dist2(&q) <= heap.worst_dist2() {
                page.knn_into(q.x, q.y, heap);
            }
        }
    }

    /// MINDIST from `q` to the nearest page of shard `s`.
    fn shard_min_dist2(&self, q: Point, s: usize) -> f64 {
        let pages = self.shards.get(s).into_iter().flatten();
        pages
            .map(|b| b.mbr().min_dist2(&q))
            .fold(f64::INFINITY, f64::min)
    }
}

#[inline]
fn shard_of_prediction(model: &RankModel, key: f64, shard_size: usize, num_shards: usize) -> i64 {
    if model.is_empty() {
        return 0;
    }
    let rank = model.predict(key).max(0);
    (rank / shard_size as i64).min(num_shards as i64 - 1)
}

impl SpatialIndex for LisaIndex {
    fn len(&self) -> usize {
        self.n_live
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        if self.n_live == 0 {
            return None;
        }
        let key = self.mapper.key(q);
        let (lo, hi) = self.shard_range(key);
        let pages = self.shards[lo..=hi].iter().flatten();
        pages
            .filter(|page| page.mbr().contains(&q))
            .find_map(|page| page.find_exact(q.x, q.y))
    }

    fn window_query_into(&self, w: &Rect, _scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        if self.n_live == 0 {
            return;
        }
        // Candidate shards: per overlapping grid cell, the mapped-key range
        // of the window's y-extent inside that cell (keys are monotone in y
        // within a cell), widened by the shard error bounds.
        let mut candidates: BTreeSet<usize> = BTreeSet::new();
        for c in self.mapper.columns_overlapping(w.lo_x, w.hi_x) {
            for r in self.mapper.rows_overlapping(c, w.lo_y, w.hi_y) {
                let (cell_lo, cell_hi) = self.mapper.cell_key_range(c, r);
                // Key endpoints of the window's slice of this cell: clamp
                // the window's y-extremes into the cell's key range using
                // representative corner points.
                let x_mid = (w.lo_x + w.hi_x) / 2.0;
                let k_lo = self.mapper.key(Point::at(x_mid, w.lo_y)).max(cell_lo);
                let k_hi = self.mapper.key(Point::at(x_mid, w.hi_y)).min(cell_hi);
                let (lo1, hi1) = self.shard_range(k_lo.min(k_hi));
                let (lo2, hi2) = self.shard_range(k_lo.max(k_hi).min(cell_hi));
                // Also probe the cell key-range endpoints for robustness.
                let (lo3, hi3) = self.shard_range(cell_lo);
                let (lo4, hi4) = self.shard_range(cell_hi - 1e-12);
                let lo = lo1.min(lo2).min(lo3).min(lo4);
                let hi = hi1.max(hi2).max(hi3).max(hi4);
                candidates.extend(lo..=hi);
            }
        }
        // LISA deletes physically, so every stored point is live and the
        // kernels compress-store straight into `out`.
        for page in candidates.into_iter().flat_map(|s| &self.shards[s]) {
            page.window_scan_into(w, out);
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
        // Data pages keep their MBRs, so the sweep prunes on those rather
        // than on the shard prediction of the (approximate) window query:
        // kNN is exact here even though windows are not.
        let last = self.shards.len().saturating_sub(1);
        knn_seeded_into(
            q,
            k.min(self.n_live),
            r2,
            scratch,
            out,
            |heap| {
                // Of the shards the model's error bounds allow for the
                // query's key, the one with a page nearest the query; then
                // its neighbours in key order until `k` points are held.
                let (lo, hi) = self.shard_range(self.mapper.key(q));
                let mut home = (lo, f64::INFINITY);
                for s in lo..=hi {
                    let d2 = self.shard_min_dist2(q, s);
                    if d2 < home.1 {
                        home = (s, d2);
                    }
                }
                let (home, _) = home;
                let (mut lo, mut hi) = (home, home);
                self.knn_offer_shard(q, home, heap);
                while heap.len() < heap.k() && (lo > 0 || hi < last) {
                    if lo > 0 {
                        lo -= 1;
                        self.knn_offer_shard(q, lo, heap);
                    }
                    if hi < last {
                        hi += 1;
                        self.knn_offer_shard(q, hi, heap);
                    }
                }
                (lo, hi)
            },
            |(lo, hi), _ball, heap| {
                for s in (0..lo).chain(hi + 1..=last) {
                    self.knn_offer_shard(q, s, heap);
                }
            },
        );
    }

    /// LISA deletes physically: what its pages store is what is live.
    fn live_points_into(&self, out: &mut Vec<Point>) {
        out.extend(self.shards.iter().flatten().flat_map(Block::iter));
    }

    fn insert(&mut self, p: Point) {
        let key = self.mapper.key(p);
        let s = self
            .predicted_shard(key)
            .clamp(0, self.shards.len() as i64 - 1) as usize;
        // Append onto the shard's last page; a page over `block_size` is
        // sorted by key and cut in half ("new pages are created as needed").
        let shard = &mut self.shards[s];
        if let Some(page) = shard.last_mut() {
            page.push(p);
            if page.len() > self.block_size {
                let mut left = page.to_points();
                let mapper = &self.mapper;
                left.sort_by(|a, b| mapper.key(*a).total_cmp(&mapper.key(*b)));
                let right = left.split_off(left.len() / 2);
                *page = Block::from_points(left);
                shard.push(Block::from_points(right));
            }
        }
        self.n_live += 1;
    }

    fn delete(&mut self, p: Point) -> bool {
        if self.n_live == 0 {
            return false;
        }
        let key = self.mapper.key(p);
        let (lo, hi) = self.shard_range(key);
        // Inserted points live exactly at the predicted shard, bulk points
        // within the error-bounded range; search both.
        let pred = self
            .predicted_shard(key)
            .clamp(0, self.shards.len() as i64 - 1) as usize;
        let mut order: Vec<usize> = (lo..=hi).collect();
        if !order.contains(&pred) {
            order.push(pred);
        }
        let removed = order
            .into_iter()
            .any(|s| self.shards[s].iter_mut().any(|page| page.remove_exact(&p)));
        self.n_live -= usize::from(removed);
        removed
    }

    fn name(&self) -> &'static str {
        "LISA"
    }

    fn depth(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OgBuilder;
    use elsi_data::gen::{nyc_like, uniform};

    fn build_small(n: usize) -> (Vec<Point>, LisaIndex) {
        let pts = uniform(n, 23);
        let cfg = LisaConfig {
            grid: 8,
            shard_size: 100,
            block_size: 25,
        };
        let idx = LisaIndex::build(pts.clone(), &cfg, &OgBuilder::with_epochs(60));
        (pts, idx)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, idx) = build_small(800);
        assert!(idx.num_shards() >= 8);
        for p in &pts {
            assert_eq!(idx.point_query(*p).expect("found").id, p.id);
        }
    }

    #[test]
    fn window_query_recall_and_precision() {
        let (pts, idx) = build_small(1500);
        let mut want_total = 0;
        let mut got_total = 0;
        for i in 0..25 {
            let c = pts[(i * 53) % pts.len()];
            let w = Rect::window_around(c, 0.01);
            let got = idx.window_query(&w);
            assert!(got.iter().all(|p| w.contains(p)), "no false positives");
            let want = pts.iter().filter(|p| w.contains(p)).count();
            want_total += want;
            got_total += got.len().min(want);
        }
        let recall = got_total as f64 / want_total.max(1) as f64;
        assert!(recall >= 0.9, "recall {recall}");
    }

    #[test]
    fn skewed_data_still_exact_point_queries() {
        let pts = nyc_like(1000, 5);
        let cfg = LisaConfig {
            grid: 8,
            shard_size: 100,
            block_size: 25,
        };
        let idx = LisaIndex::build(pts.clone(), &cfg, &OgBuilder::with_epochs(60));
        for p in pts.iter().step_by(7) {
            assert!(idx.point_query(*p).is_some(), "missing {p}");
        }
    }

    #[test]
    fn insert_creates_pages_and_stays_findable() {
        let (_, mut idx) = build_small(300);
        let pages = |idx: &LisaIndex| idx.shards.iter().map(Vec::len).collect::<Vec<_>>();
        let before = pages(&idx);
        for i in 0..200u64 {
            let p = Point::new(50_000 + i, (i as f64 * 0.004_9) % 1.0, 0.5);
            let was = pages(&idx);
            idx.insert(p);
            assert!(idx.point_query(p).is_some(), "inserted point {i} lost");
            // A split leaves its halves last in the shard, in key order: no
            // key of the left half is above one of the right half.
            for (shard, was) in idx.shards.iter().zip(was) {
                if shard.len() > was {
                    let keys = |b: &Block| b.iter().map(|p| idx.mapper.key(p)).collect::<Vec<_>>();
                    let (left, right) = (keys(&shard[was - 1]), keys(&shard[was]));
                    let max_left = left.iter().copied().fold(f64::MIN, f64::max);
                    assert!(
                        right.iter().all(|&k| max_left <= k),
                        "split out of key order"
                    );
                }
            }
        }
        assert_eq!(idx.len(), 500);
        assert!(pages(&idx).iter().sum::<usize>() > before.iter().sum::<usize>());
        assert!(idx
            .shards
            .iter()
            .flatten()
            .all(|b| b.len() <= idx.block_size));
    }

    #[test]
    fn delete_removes_points() {
        let (pts, mut idx) = build_small(300);
        assert!(idx.delete(pts[123]));
        assert!(idx.point_query(pts[123]).is_none());
        assert_eq!(idx.len(), 299);
        assert!(!idx.delete(pts[123]));
        // Delete an inserted point too.
        let p = Point::new(7777, 0.42, 0.42);
        idx.insert(p);
        assert!(idx.delete(p));
        assert_eq!(idx.len(), 299);
    }

    #[test]
    fn knn_returns_reasonable_neighbours() {
        let (pts, idx) = build_small(1000);
        let q = Point::at(0.6, 0.4);
        let got = idx.knn_query(q, 5);
        assert_eq!(got.len(), 5);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        let exact_r = q.dist(&want[4]);
        assert!(got.iter().all(|p| q.dist(p) <= exact_r * 3.0 + 1e-9));
    }

    #[test]
    fn empty_index_is_safe() {
        let idx = LisaIndex::build(
            Vec::new(),
            &LisaConfig::default(),
            &OgBuilder::with_epochs(5),
        );
        assert!(idx.is_empty());
        assert!(idx.point_query(Point::at(0.5, 0.5)).is_none());
        assert!(idx.window_query(&Rect::unit()).is_empty());
        assert!(idx.knn_query(Point::at(0.5, 0.5), 3).is_empty());
    }

    #[test]
    fn insert_into_empty_then_query() {
        let mut idx = LisaIndex::empty(&LisaConfig::default());
        let p = Point::new(1, 0.3, 0.3);
        idx.insert(p);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.point_query(p).unwrap().id, 1);
    }
}
