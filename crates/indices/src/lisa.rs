//! LISA: a learned index structure for spatial data (Li et al., SIGMOD 2020).
//!
//! LISA partitions the data space with a grid derived from the data, maps
//! each point to a one-dimensional value (cell number + in-cell offset — a
//! weighted aggregation of the coordinates), and learns a *shard prediction
//! function* from mapped values to shard ids (paper §II). The bulk-loaded
//! points are one key-ordered page read through the learned [`Leaf`]:
//! shard `s` is its rank span `[s·S, (s+1)·S)`.
//!
//! Following the paper's experimental setup (§VII-B1), the shard prediction
//! function is an FFN rather than LISA's original piecewise-linear function;
//! this "breaks the monotonicity of its shard prediction functions, which
//! impacts the accuracy of window queries" — window queries are therefore
//! approximate, while point queries stay exact via shard-level error bounds
//! and kNN via the grid: keys grow with `y` within a grid column, so a
//! column's points in the ball box are one rank span.
//!
//! Insertions keep LISA's own procedure: a point is appended to its
//! predicted shard's pages, and a page over the paper's `B`
//! ([`DEFAULT_BLOCK_SIZE`]) splits in key order. Deletes follow `Delta`'s
//! rule: an inserted copy is removed, a bulk-loaded one tombstoned, and an
//! insert never touches the tombstones.
//!
//! Because the grid is built from `D` itself, building methods that
//! synthesise points not in `D` (CL, RL) are inapplicable (paper §VII-A);
//! the `elsi` crate masks them out for LISA.

use crate::leaf::Leaf;
use crate::model::{locate_lower, Bracket, BuildInput, BuildStats, ModelBuilder, RankModel};
use crate::traits::{knn_seeded_into, SpatialIndex};
use elsi_spatial::{
    sort_by_key, Block, KeyMapper, LisaMapper, MappedData, Point, Rect, ScanScratch,
    DEFAULT_BLOCK_SIZE,
};
use std::collections::HashSet;

/// LISA configuration.
#[derive(Debug, Clone, Copy)]
pub struct LisaConfig {
    /// Grid resolution `g` (the mapper fits a `g × g` data-dependent grid).
    pub grid: usize,
    /// Target points per shard.
    pub shard_size: usize,
}

impl Default for LisaConfig {
    fn default() -> Self {
        Self {
            grid: 16,
            shard_size: 400,
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
    /// The bulk-loaded points in key order: shard `s` is ranks
    /// `[s·S, (s+1)·S)`.
    data: MappedData,
    shard_size: usize,
    /// Each shard's pages of inserted points.
    pages: Vec<Vec<Block>>,
    /// Points in `pages`.
    inserted: usize,
    /// Ids of the tombstoned bulk-loaded points.
    deleted: HashSet<u64>,
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
        assert!(cfg.grid > 0 && cfg.shard_size > 0);
        let mapper = LisaMapper::fit(&points, cfg.grid);
        let (points, keys) = sort_by_key(&points, &mapper);
        let n = points.len();
        let num_shards = n.div_ceil(cfg.shard_size).max(1);
        let built = builder.build_model(&BuildInput {
            points: &points,
            keys: &keys,
            mapper: &mapper,
            seed: 0x115A,
        });
        let stats = vec![built.stats];
        let model = built.model;

        // Shard-level error bounds: predicted vs actual shard of every
        // point.
        let (mut shard_lo, mut shard_hi) = (0i64, 0i64);
        model.predict_each(&keys, |i, rank| {
            let err = (i / cfg.shard_size) as i64
                - shard_of_rank(rank, cfg.shard_size, num_shards) as i64;
            (shard_lo, shard_hi) = (shard_lo.min(err), shard_hi.max(err));
        });

        Self {
            mapper,
            model,
            shard_lo,
            shard_hi,
            data: MappedData::from_sorted(&points, keys),
            shard_size: cfg.shard_size,
            pages: vec![Vec::new(); num_shards],
            inserted: 0,
            deleted: HashSet::new(),
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
            data: MappedData::default(),
            shard_size: cfg.shard_size.max(1),
            pages: vec![Vec::new()],
            inserted: 0,
            deleted: HashSet::new(),
            stats: Vec::new(),
        }
    }

    /// Build statistics of the shard prediction model.
    pub fn build_stats(&self) -> &[BuildStats] {
        &self.stats
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.pages.len()
    }

    /// The stored page under the tombstones.
    fn leaf(&self) -> Leaf<'_> {
        Leaf::of(&self.data, &self.deleted)
    }

    /// The model's shard for `key`, where its inserted copies live.
    #[inline]
    fn home(&self, key: f64) -> usize {
        shard_of_rank(self.model.predict(key), self.shard_size, self.pages.len())
    }

    /// The shard range guaranteed to hold a bulk-loaded point whose key the
    /// model predicts at rank `pred`.
    #[inline]
    fn shard_range(&self, pred: i64) -> (usize, usize) {
        let s = shard_of_rank(pred, self.shard_size, self.pages.len()) as i64;
        let max = self.pages.len() as i64 - 1;
        let bound = |err: i64| (s + err).clamp(0, max) as usize;
        (bound(self.shard_lo), bound(self.shard_hi))
    }

    /// The ranks of the shards [`LisaIndex::shard_range`] allows for
    /// `key`, searched from its predicted rank.
    #[inline]
    fn bracket(&self, key: f64) -> Bracket {
        let (pred, n, size) = (self.model.predict(key), self.data.len(), self.shard_size);
        let (lo, hi) = self.shard_range(pred);
        let (pred, lo, hi) = (pred.clamp(0, n as i64) as usize, lo * size, (hi + 1) * size);
        Bracket {
            pred,
            lo,
            hi: hi.min(n),
        }
    }

    /// The candidate shards of window `w`, one range per grid cell it
    /// overlaps: those [`LisaIndex::shard_range`] allows for four keys —
    /// the window's y-extremes clamped into the cell (keys grow with y
    /// within a cell) and the ends of the cell's key range.
    fn candidate_shards<'a>(&'a self, w: &'a Rect) -> impl Iterator<Item = (usize, usize)> + 'a {
        let m = &self.mapper;
        let x_mid = (w.lo_x + w.hi_x) / 2.0;
        let y_lo = m.key(Point::at(x_mid, w.lo_y));
        let y_hi = m.key(Point::at(x_mid, w.hi_y));
        let columns = m.columns_overlapping(w.lo_x, w.hi_x);
        let cells =
            columns.flat_map(move |c| m.rows_overlapping(c, w.lo_y, w.hi_y).map(move |r| (c, r)));
        cells.map(move |(c, r)| {
            let (cell_lo, cell_hi) = m.cell_key_range(c, r);
            let (k_lo, k_hi) = (y_lo.max(cell_lo), y_hi.min(cell_hi));
            let probes = [
                k_lo.min(k_hi),
                k_lo.max(k_hi).min(cell_hi),
                cell_lo,
                cell_hi - 1e-12,
            ];
            let ranges = probes.map(|k| self.shard_range(self.model.predict(k)));
            ranges
                .into_iter()
                .fold((usize::MAX, 0), |(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
        })
    }

    /// Appends the inserted points of shards `lo..=hi` inside `w`. Cold:
    /// serving shadows inserts with its overlay, so only an index that took
    /// inserts through its own procedure holds any.
    #[cold]
    fn window_inserted(&self, (lo, hi): (usize, usize), w: &Rect, out: &mut Vec<Point>) {
        for page in self.pages.get(lo..=hi).into_iter().flatten().flatten() {
            page.window_scan_into(w, out);
        }
    }

    /// The rank span of column `c`'s stored points with `y` in
    /// `[lo_y, hi_y]`: its keys at those heights bound theirs.
    fn column_span(&self, c: usize, lo_y: f64, hi_y: f64) -> (usize, usize) {
        let at = |key: f64| locate_lower(self.data.keys(), self.bracket(key), key);
        let lo = self.mapper.column_key(c, lo_y);
        (at(lo), at(self.mapper.column_key(c, hi_y).next_up()))
    }
}

/// The shard a predicted rank falls in.
#[inline]
fn shard_of_rank(rank: i64, shard_size: usize, num_shards: usize) -> usize {
    (rank.max(0) as usize / shard_size).min(num_shards - 1)
}

impl SpatialIndex for LisaIndex {
    fn len(&self) -> usize {
        self.data.len() + self.inserted - self.deleted.len()
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        let key = self.mapper.key(q);
        let stored = self.leaf().find(self.bracket(key), key, q, None);
        stored.or_else(|| {
            let pages = (self.inserted > 0).then(|| self.pages.get(self.home(key)));
            let mut pages = pages.flatten().into_iter().flatten();
            pages.find_map(|page| page.find_exact(q.x, q.y))
        })
    }

    /// Reads the candidate shards once each, in ascending order: per run
    /// of shards its ranks, then its inserted pages.
    // lint:hot_path
    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        let mut runs = scratch.runs_take(self.mapper.num_cells());
        let m = runs
            .iter_mut()
            .zip(self.candidate_shards(w))
            .map(|(slot, run)| *slot = run)
            .count();
        let found = runs.get_mut(..m).unwrap_or_default();
        found.sort_unstable();
        let (leaf, size, mut next) = (self.leaf(), self.shard_size, 0);
        for &(lo, hi) in found.iter() {
            let lo = lo.max(next);
            if lo <= hi {
                leaf.window_into((lo * size, (hi + 1) * size), w, scratch, out);
                if self.inserted > 0 {
                    self.window_inserted((lo, hi), w, out);
                }
                next = hi + 1;
            }
        }
        scratch.runs_put(runs);
    }

    /// Seeds `k` ranks either side of the query's key, then sweeps each
    /// grid column's rank span in the ball box — the query's own first,
    /// the box tightening with the pool — less the seeded run, and the
    /// inserted pages. Columns are disjoint key ranges: no double offers.
    // lint:hot_path
    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        let (leaf, k, m) = (self.leaf(), k.min(self.len()), &self.mapper);
        knn_seeded_into(
            q,
            k,
            r2,
            scratch,
            out,
            |heap| {
                let key = m.key(q);
                let pos = locate_lower(self.data.keys(), self.bracket(key), key);
                let run = (pos.saturating_sub(k), pos + k);
                leaf.knn_offer_span(q, run, heap);
                run
            },
            |run, ball, heap| {
                let home = m.columns_overlapping(q.x, q.x).start;
                let rest = m
                    .columns_overlapping(ball.lo_x, ball.hi_x)
                    .filter(|&c| c != home);
                for c in std::iter::once(home).chain(rest) {
                    let ball = Rect::ball_box(q, heap.worst_dist2());
                    if m.columns_overlapping(ball.lo_x, ball.hi_x).contains(&c) {
                        let span = self.column_span(c, ball.lo_y, ball.hi_y);
                        leaf.knn_offer_around(q, span, run, heap);
                    }
                }
                if self.inserted > 0 {
                    for page in self.pages.iter().flatten() {
                        if page.mbr().min_dist2(&q) <= heap.worst_dist2() {
                            page.knn_into(q.x, q.y, heap);
                        }
                    }
                }
            },
        );
    }

    fn live_points_into(&self, out: &mut Vec<Point>) {
        let stored = self.data.page().points();
        out.extend(stored.filter(|p| !self.deleted.contains(&p.id)));
        out.extend(self.pages.iter().flatten().flat_map(Block::iter));
    }

    fn insert(&mut self, p: Point) {
        let s = self.home(self.mapper.key(p));
        let Some(shard) = self.pages.get_mut(s) else {
            return;
        };
        // Append onto the shard's last page; a page over `B` is sorted by
        // key and cut in half.
        match shard.last_mut() {
            Some(page) if page.len() < DEFAULT_BLOCK_SIZE => page.push(p),
            Some(page) => {
                let mut left = page.to_points();
                left.push(p);
                let mapper = &self.mapper;
                left.sort_by(|a, b| mapper.key(*a).total_cmp(&mapper.key(*b)));
                let right = left.split_off(left.len() / 2);
                *page = Block::from_points(left);
                shard.push(Block::from_points(right));
            }
            None => shard.push(Block::from_points(vec![p])),
        }
        self.inserted += 1;
    }

    /// An inserted copy lives in its predicted shard, which is always one
    /// the shard bounds allow (`shard_lo ≤ 0 ≤ shard_hi`): it is removed
    /// there; otherwise the bulk-loaded copy is tombstoned.
    fn delete(&mut self, p: Point) -> bool {
        let (key, s) = (self.mapper.key(p), self.home(self.mapper.key(p)));
        let mut pages = self.pages.get_mut(s).into_iter().flatten();
        if pages.any(|page| page.remove_exact(&p)) {
            self.inserted -= 1;
            return true;
        }
        let stored = self.leaf().find(self.bracket(key), key, p, Some(p.id));
        stored.is_some_and(|p| self.deleted.insert(p.id))
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
    use crate::model::{osm1_points, OgBuilder};
    use elsi_data::gen::{nyc_like, uniform};

    /// The shard-bound pass as a per-key loop over the model's prediction.
    fn shard_bounds_reference(idx: &LisaIndex, keys: &[f64]) -> (i64, i64) {
        let (mut lo, mut hi) = (0i64, 0i64);
        for (i, &k) in keys.iter().enumerate() {
            let pred = idx.home(k) as i64;
            let actual = (i / idx.shard_size) as i64;
            lo = lo.min(actual - pred);
            hi = hi.max(actual - pred);
        }
        (lo, hi)
    }

    #[test]
    fn shard_bounds_match_the_per_key_loop() {
        let stack = vec![Point::at(0.125, 0.5); 900];
        let inputs = [
            (osm1_points(20_000, None, 7), 0),
            (osm1_points(20_000, Some(16.0), 8), 0),
            (osm1_points(3_000, None, 9), 20),
            (stack, 0),
        ];
        for (pts, epochs) in &inputs {
            for shard_size in [1, 37, 256] {
                let cfg = LisaConfig {
                    grid: 8,
                    shard_size,
                };
                let idx = LisaIndex::build(pts.clone(), &cfg, &OgBuilder::with_epochs(*epochs));
                let keys = sort_by_key(pts, &idx.mapper).1;
                let want = shard_bounds_reference(&idx, &keys);
                assert_eq!(
                    (idx.shard_lo, idx.shard_hi),
                    want,
                    "shard size {shard_size}"
                );
            }
        }
    }

    fn build_small(n: usize) -> (Vec<Point>, LisaIndex) {
        let pts = uniform(n, 23);
        let cfg = LisaConfig {
            grid: 8,
            shard_size: 100,
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
        };
        let idx = LisaIndex::build(pts.clone(), &cfg, &OgBuilder::with_epochs(60));
        for p in pts.iter().step_by(7) {
            assert!(idx.point_query(*p).is_some(), "missing {p}");
        }
    }

    #[test]
    fn insert_creates_pages_and_stays_findable() {
        let (_, mut idx) = build_small(300);
        let pages = |idx: &LisaIndex| idx.pages.iter().map(Vec::len).collect::<Vec<_>>();
        for i in 0..600u64 {
            let p = Point::new(50_000 + i, (i as f64 * 0.004_9) % 1.0, 0.5);
            let was = pages(&idx);
            idx.insert(p);
            assert!(idx.point_query(p).is_some(), "inserted point {i} lost");
            // A split leaves its halves last in the shard, in key order: no
            // key of the left half is above one of the right half.
            for (shard, was) in idx.pages.iter().zip(was) {
                if shard.len() > was.max(1) {
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
        assert_eq!(idx.len(), 900);
        assert!(pages(&idx).iter().any(|&n| n > 1), "no page split");
        let all = idx.pages.iter().flatten();
        assert!(all.clone().all(|b| b.len() <= DEFAULT_BLOCK_SIZE));
        assert_eq!(all.map(Block::len).sum::<usize>(), 600);
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
