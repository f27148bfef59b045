//! ZM: the Z-order model index (Wang et al., MDM 2019).
//!
//! ZM maps points to Z-curve values, sorts them, and learns the rank
//! function with a small RMI: a root model routes a key to one of `S`
//! second-stage models, each predicting the global rank. Every model —
//! root and leaves — is built through the pluggable [`ModelBuilder`], which
//! is the ELSI integration seam.
//!
//! Point queries are exact: the per-leaf error bounds are computed over the
//! points that *route* to each leaf (including root misroutings), so the
//! predict-and-scan window always contains the queried point. Window
//! queries are exact too, via the Z-range property (all points in a window
//! have Z-values between the window corners' Z-values).

use crate::leaf::{Delta, Leaf};
use crate::model::{Bracket, BuildInput, BuildStats, ModelBuilder, RankModel};
use crate::persist::{
    decode_columns, decode_points, decode_rank_model, encode_columns, encode_rank_model,
};
use crate::traits::{knn_seeded_into, SpatialIndex};
use elsi_spatial::{
    sort_by_key, Block, KeyMapper, MappedData, MortonMapper, Point, Rect, ScanScratch,
};
use elsi_store::{ByteReader, ByteWriter, IndexCodec, StoreError};
use rayon::prelude::*;
use std::collections::HashSet;

/// ZM configuration.
#[derive(Debug, Clone, Copy)]
pub struct ZmConfig {
    /// Number of second-stage models, at most one per point; 0 means one.
    pub fanout: usize,
}

impl Default for ZmConfig {
    fn default() -> Self {
        Self { fanout: 8 }
    }
}

/// Keys the root routes at a time while the composed bounds are derived.
const ROUTE_BLOCK: usize = 256;

struct LeafModel {
    model: RankModel,
    /// Global rank of the leaf's first point.
    offset: usize,
    /// Composed error bounds (actual − predicted) over routed points.
    err_lo: i64,
    err_hi: i64,
}

/// The ZM index.
///
/// ```
/// use elsi_indices::{OgBuilder, SpatialIndex, ZmConfig, ZmIndex};
/// let pts = elsi_data::gen::uniform(500, 1);
/// let idx = ZmIndex::build(pts.clone(), &ZmConfig { fanout: 2 }, &OgBuilder::with_epochs(40));
/// assert!(idx.point_query(pts[42]).is_some()); // exact under predict-and-scan
/// ```
pub struct ZmIndex {
    data: MappedData,
    root: RankModel,
    leaves: Vec<LeafModel>,
    /// ZM's own insert page and tombstones. Serving shadows them with the
    /// overlay; bare-ZM inserts reach them (`train_rebuild_predictor`'s
    /// update runs, the conformance table's `Built` rows).
    delta: Delta,
    stats: Vec<BuildStats>,
}

impl ZmIndex {
    /// Builds a ZM index over `points` using the given model builder, with
    /// `cfg.fanout` second-stage models but at most one per point (a
    /// fanout of 0 builds one).
    pub fn build(points: Vec<Point>, cfg: &ZmConfig, builder: &dyn ModelBuilder) -> Self {
        let (points, keys) = sort_by_key(&points, &MortonMapper);
        let n = points.len();

        if n == 0 {
            return Self {
                data: MappedData::default(),
                root: RankModel::empty(0),
                leaves: Vec::new(),
                delta: Delta::new(vec![Block::new()], HashSet::new()),
                stats: Vec::new(),
            };
        }

        // The root over the full key CDF, and the second-stage models over
        // contiguous rank slices. The root only routes once trained, so no
        // model reads another: all train in parallel, the root beside the
        // leaves. Each seed is a pure function of the model's position, so
        // the result is identical for every thread count.
        let s = cfg.fanout.min(n).max(1);
        let (root_built, built_leaves) = rayon::join(
            || {
                builder.build_model(&BuildInput {
                    points: &points,
                    keys: &keys,
                    mapper: &MortonMapper,
                    seed: 0xD00,
                })
            },
            || {
                (0..s)
                    .into_par_iter()
                    .map(|j| {
                        let lo = j * n / s;
                        let hi = (j + 1) * n / s;
                        let built = builder.build_model(&BuildInput {
                            points: points.get(lo..hi).unwrap_or(&[]),
                            keys: keys.get(lo..hi).unwrap_or(&[]),
                            mapper: &MortonMapper,
                            seed: 0xD01 + j as u64,
                        });
                        (built, lo)
                    })
                    .collect::<Vec<_>>()
            },
        );
        let root = root_built.model;
        let mut stats = vec![root_built.stats];
        let mut leaves = Vec::with_capacity(s);
        for (built, lo) in built_leaves {
            stats.push(built.stats);
            leaves.push(LeafModel {
                model: built.model,
                offset: lo,
                err_lo: 0,
                err_hi: 0,
            });
        }

        // The models are trained: only the columns are stored.
        let mut zm = Self {
            data: MappedData::from_sorted(&points, keys),
            root,
            leaves,
            delta: Delta::new(vec![Block::new()], HashSet::new()),
            stats,
        };
        zm.compute_composed_bounds();
        zm
    }

    /// Algorithm 1, line 6, composed over the two stages: predict every
    /// point through its *routed* leaf and record per-leaf error bounds.
    ///
    /// The O(n · M(1)) prediction scan is chunked across threads; per-leaf
    /// min/max partials merge associatively, so the bounds are independent
    /// of the chunking and thread count. Within a chunk, the root routes a
    /// block of keys at a time ([`RankModel::predict_each`]), and each run
    /// of keys routed to one leaf goes through that leaf's `predict_each`;
    /// a min/max fold does not depend on order, so the bounds equal a
    /// per-key loop's.
    fn compute_composed_bounds(&mut self) {
        let n = self.data.len();
        let s = self.leaves.len();
        if n == 0 || s == 0 {
            return;
        }
        let this = &*self;
        let chunk = n.div_ceil(rayon::current_num_threads().max(1)).max(1);
        let starts: Vec<usize> = (0..n.div_ceil(chunk)).map(|c| c * chunk).collect();
        let partials: Vec<Vec<(i64, i64)>> = starts
            .into_par_iter()
            .map(|start| {
                let mut bounds = vec![(0i64, 0i64); s];
                let span = this.data.keys().get(start..(start + chunk).min(n));
                let blocks = span.unwrap_or(&[]).chunks(ROUTE_BLOCK);
                for (b, block) in blocks.enumerate() {
                    this.fold_block_bounds(start + b * ROUTE_BLOCK, block, &mut bounds);
                }
                bounds
            })
            .collect();
        for partial in partials {
            for (leaf, (lo, hi)) in self.leaves.iter_mut().zip(partial) {
                leaf.err_lo = leaf.err_lo.min(lo);
                leaf.err_hi = leaf.err_hi.max(hi);
            }
        }
    }

    /// Folds the composed errors of `block`, the keys of global ranks
    /// `first..`, into the per-leaf `bounds`.
    fn fold_block_bounds(&self, first: usize, block: &[f64], bounds: &mut [(i64, i64)]) {
        let mut routes = [0usize; ROUTE_BLOCK];
        self.root.predict_each(block, |i, pred| {
            if let Some(r) = routes.get_mut(i) {
                *r = self.route_of(pred);
            }
        });
        let mut lo = 0;
        let routed = routes.get(..block.len()).unwrap_or(&[]);
        for run in routed.chunk_by(|a, b| a == b) {
            let keys = block.get(lo..lo + run.len()).unwrap_or(&[]);
            let j = run.first().copied().unwrap_or(0);
            if let (Some(leaf), Some(b)) = (self.leaves.get(j), bounds.get_mut(j)) {
                let base = (first + lo) as i64 - leaf.offset as i64;
                leaf.model.predict_each(keys, |off, pred| {
                    let err = base + off as i64 - pred;
                    b.0 = b.0.min(err);
                    b.1 = b.1.max(err);
                });
            }
            lo += run.len();
        }
    }

    /// Leaf index that `key` routes to.
    #[inline]
    fn route(&self, key: f64) -> usize {
        self.route_of(self.root.predict(key))
    }

    /// Leaf index that a root prediction `pred` routes to.
    #[inline]
    fn route_of(&self, pred: i64) -> usize {
        let n = self.data.len();
        let s = self.leaves.len();
        let pred = pred.clamp(0, n as i64 - 1) as usize;
        (pred * s / n).min(s - 1)
    }

    /// Global rank predicted by leaf `j` for `key`.
    #[inline]
    fn predict_global(&self, j: usize, key: f64) -> i64 {
        match self.leaves.get(j) {
            Some(leaf) => leaf.model.predict(key) + leaf.offset as i64,
            None => 0,
        }
    }

    /// The leaf's predicted global rank of `key` and the range guaranteed
    /// to hold a stored point with this key.
    fn search_range(&self, key: f64) -> Bracket {
        if self.data.is_empty() {
            return Bracket::default();
        }
        let j = self.route(key);
        let (err_lo, err_hi) = match self.leaves.get(j) {
            Some(leaf) => (leaf.err_lo, leaf.err_hi),
            None => (0, 0),
        };
        Bracket::around(self.predict_global(j, key), err_lo, err_hi, self.data.len())
    }

    /// Exact lower-bound rank of an arbitrary key: model-predicted range
    /// first, global binary search as the correctness fallback (FFNs are
    /// not monotone, so the predicted range only provably brackets *stored*
    /// keys).
    fn locate_lower(&self, key: f64) -> usize {
        if self.data.is_empty() {
            return 0;
        }
        crate::model::locate_lower(self.data.keys(), self.search_range(key), key)
    }

    /// The rank run `[lo, hi)` of the Z-range of `w`: every stored point
    /// inside `w` has its Z-value between the window corners' Z-values.
    fn z_range(&self, w: &Rect) -> (usize, usize) {
        let z_lo = MortonMapper.key(Point::at(w.lo_x, w.lo_y));
        let z_hi = MortonMapper.key(Point::at(w.hi_x, w.hi_y));
        (self.locate_lower(z_lo), self.locate_lower(z_hi.next_up()))
    }

    /// Per-model build statistics (root first, then the leaves).
    pub fn build_stats(&self) -> &[BuildStats] {
        &self.stats
    }

    /// Sum of all models' error spans, `Σ (err_l + err_u)`.
    pub fn total_err_span(&self) -> u64 {
        self.leaves
            .iter()
            .map(|l| (l.err_hi - l.err_lo) as u64)
            .sum()
    }

    /// First live stored (not buffered) point at `q`'s coordinates, with
    /// id `only` when given.
    fn find_stored(&self, q: Point, only: Option<u64>) -> Option<Point> {
        let key = MortonMapper.key(q);
        Leaf::of(&self.data, self.delta.tombstones()).find(self.search_range(key), key, q, only)
    }

    /// Serialises the built state — the sorted points, trained rank
    /// models, composed error bounds, buffered inserts and tombstones — so
    /// [`ZmIndex::decode_state`] can reconstruct the index without
    /// re-training. What decode derives is not stored: the Morton keys and
    /// the leaves' rank offsets. Build statistics are diagnostics of the
    /// build that produced them and are not persisted. Tombstone ids are
    /// written in sorted order, so the encoding of a given index is
    /// deterministic byte-for-byte regardless of hash-set iteration order.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let data = &self.data;
        let (ids, xs, ys) = (data.ids().iter(), data.xs().iter(), data.ys().iter());
        encode_columns(&mut w, ids.copied(), xs.copied(), ys.copied());
        encode_rank_model(&mut w, &self.root);
        w.put_usize(self.leaves.len());
        for leaf in &self.leaves {
            encode_rank_model(&mut w, &leaf.model);
            w.put_i64(leaf.err_lo);
            w.put_i64(leaf.err_hi);
        }
        let empty = Block::new();
        let page = self.delta.pages.first().unwrap_or(&empty);
        let (ids, xs, ys) = (page.ids().iter(), page.xs().iter(), page.ys().iter());
        encode_columns(&mut w, ids.copied(), xs.copied(), ys.copied());
        let mut deleted: Vec<u64> = self.delta.tombstones().iter().copied().collect();
        deleted.sort_unstable();
        w.put_u64s(&deleted);
        w.into_vec()
    }

    /// Reconstructs an index from [`ZmIndex::encode_state`] output — the
    /// snapshot fast path that skips model training entirely. All model
    /// parameters and error bounds round-trip bit-exactly, and the keys and
    /// offsets are re-derived as [`ZmIndex::build`] derived them, so the
    /// decoded index answers every query identically to the encoded one.
    /// Any malformed input yields a clean [`StoreError`], never a panic.
    pub fn decode_state(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes, "zm state");
        let (ids, xs, ys) = decode_columns(&mut r)?;
        let keys: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| MortonMapper.key(Point::at(x, y)))
            .collect();
        if !keys.is_sorted() {
            return Err(StoreError::corrupt(
                "zm state",
                "points are not in key order",
            ));
        }
        let data = MappedData::from_columns(keys, xs, ys, ids);
        let root = decode_rank_model(&mut r)?;
        let (n, s) = (data.len(), r.get_len(1)?);
        // `route` divides the ranks among the leaves: points need leaves.
        if (s == 0) != (n == 0) {
            return Err(StoreError::corrupt(
                "zm state",
                "leaf models disagree with the point columns",
            ));
        }
        let mut leaves = Vec::with_capacity(s);
        for j in 0..s {
            let model = decode_rank_model(&mut r)?;
            let err_lo = r.get_i64()?;
            let err_hi = r.get_i64()?;
            leaves.push(LeafModel {
                model,
                offset: j * n / s,
                err_lo,
                err_hi,
            });
        }
        let buffer = decode_points(&mut r)?;
        let deleted = r.get_u64s()?.into_iter().collect();
        r.expect_end()?;
        Ok(Self {
            data,
            root,
            leaves,
            delta: Delta::new(vec![Block::from_points(buffer)], deleted),
            stats: Vec::new(),
        })
    }
}

/// The [`IndexCodec`] that persists a built [`ZmIndex`] — the snapshot
/// fast path that makes recovery skip FFN training.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZmStateCodec;

impl IndexCodec<ZmIndex> for ZmStateCodec {
    fn encode(&self, index: &ZmIndex) -> Option<Vec<u8>> {
        Some(index.encode_state())
    }

    fn decode(&self, bytes: &[u8]) -> Result<ZmIndex, StoreError> {
        ZmIndex::decode_state(bytes)
    }
}

impl SpatialIndex for ZmIndex {
    fn len(&self) -> usize {
        self.delta.len(self.data.len())
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        let stored = self.find_stored(q, None);
        let pages = &self.delta.pages;
        stored.or_else(|| pages.iter().find_map(|page| page.find_exact(q.x, q.y)))
    }

    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        Leaf::of(&self.data, self.delta.tombstones()).window_into(self.z_range(w), w, scratch, out);
        for page in &self.delta.pages {
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
        let k = k.min(self.len());
        let leaf = Leaf::of(&self.data, self.delta.tombstones());
        knn_seeded_into(
            q,
            k,
            r2,
            scratch,
            out,
            |heap| {
                // `k` ranks either side of the query's own position on the
                // curve, plus the insert buffer.
                let pos = self.locate_lower(MortonMapper.key(q));
                let run = (pos.saturating_sub(k), pos + k);
                leaf.knn_offer_span(q, run, heap);
                for page in &self.delta.pages {
                    page.knn_into(q.x, q.y, heap);
                }
                run
            },
            // The rest of the ball box's Z-range, either side of the run.
            |run, ball, heap| leaf.knn_offer_around(q, self.z_range(ball), run, heap),
        );
    }

    fn insert(&mut self, p: Point) {
        self.delta.insert(0, p);
    }

    fn delete(&mut self, p: Point) -> bool {
        self.delta.remove(0, p) || {
            let stored = self.find_stored(p, Some(p.id));
            self.delta.bury(stored)
        }
    }

    fn name(&self) -> &'static str {
        "ZM"
    }

    fn depth(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{gallop, osm1_points, OgBuilder};
    use crate::persist::encode_points;

    /// The composed-bounds pass as a per-key loop: route, predict through
    /// the routed leaf, fold.
    fn composed_bounds_reference(zm: &ZmIndex) -> Vec<(i64, i64)> {
        let mut bounds = vec![(0i64, 0i64); zm.leaves.len()];
        for (i, &key) in zm.data.keys().iter().enumerate() {
            let j = zm.route(key);
            let err = i as i64 - zm.predict_global(j, key);
            if let Some(b) = bounds.get_mut(j) {
                b.0 = b.0.min(err);
                b.1 = b.1.max(err);
            }
        }
        bounds
    }

    #[test]
    fn composed_bounds_match_the_per_key_loop() {
        let stack = vec![Point::at(0.25, 0.75); 700];
        let inputs = [
            (osm1_points(20_000, None, 1), 0),
            (osm1_points(20_000, Some(16.0), 2), 0),
            (osm1_points(3_000, None, 3), 20),
            (stack, 0),
        ];
        for (pts, epochs) in &inputs {
            for fanout in [1, 8, 100] {
                let builder = OgBuilder::with_epochs(*epochs);
                let zm = ZmIndex::build(pts.clone(), &ZmConfig { fanout }, &builder);
                let got: Vec<(i64, i64)> = zm.leaves.iter().map(|l| (l.err_lo, l.err_hi)).collect();
                assert_eq!(got, composed_bounds_reference(&zm), "fanout {fanout}");
            }
        }
    }

    fn build_small(n: usize) -> (Vec<Point>, ZmIndex) {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let x = (i % 31) as f64 / 31.0 + 0.003;
                let y = (i / 31) as f64 / ((n / 31 + 1) as f64) + 0.007;
                Point::new(i as u64, x, y)
            })
            .collect();
        let idx = ZmIndex::build(
            pts.clone(),
            &ZmConfig { fanout: 4 },
            &OgBuilder::with_epochs(60),
        );
        (pts, idx)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, idx) = build_small(500);
        assert_eq!(idx.len(), 500);
        for p in &pts {
            let got = idx.point_query(*p).expect("point must be found");
            assert_eq!(got.id, p.id);
        }
    }

    #[test]
    fn point_query_misses_absent_point() {
        let (_, idx) = build_small(200);
        assert!(idx.point_query(Point::at(0.9999, 0.00001)).is_none());
    }

    #[test]
    fn window_query_is_exact() {
        let (pts, idx) = build_small(500);
        let w = Rect::new(0.2, 0.2, 0.6, 0.7);
        let mut got: Vec<u64> = idx.window_query(&w).iter().map(|p| p.id).collect();
        let mut want: Vec<u64> = pts.iter().filter(|p| w.contains(p)).map(|p| p.id).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn knn_matches_brute_force() {
        let (pts, idx) = build_small(400);
        let q = Point::at(0.41, 0.39);
        let got = idx.knn_query(q, 7);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        assert_eq!(got.len(), 7);
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn insert_then_query() {
        let (_, mut idx) = build_small(100);
        let p = Point::new(9999, 0.123456, 0.654321);
        assert!(idx.point_query(p).is_none());
        idx.insert(p);
        assert_eq!(idx.point_query(p).unwrap().id, 9999);
        assert_eq!(idx.len(), 101);
        // Window over the inserted point sees it too.
        let w = Rect::new(0.12, 0.65, 0.13, 0.66);
        assert!(idx.window_query(&w).iter().any(|q| q.id == 9999));
    }

    #[test]
    fn delete_hides_point() {
        let (pts, mut idx) = build_small(100);
        assert!(idx.delete(pts[42]));
        assert!(idx.point_query(pts[42]).is_none());
        assert_eq!(idx.len(), 99);
        assert!(!idx.delete(pts[42]), "double delete must fail");
        let w = Rect::unit();
        assert!(!idx.window_query(&w).iter().any(|p| p.id == 42));
    }

    #[test]
    fn empty_index() {
        let idx = ZmIndex::build(
            Vec::new(),
            &ZmConfig::default(),
            &OgBuilder::with_epochs(10),
        );
        assert!(idx.is_empty());
        assert!(idx.point_query(Point::at(0.5, 0.5)).is_none());
        assert!(idx.window_query(&Rect::unit()).is_empty());
        assert!(idx.knn_query(Point::at(0.5, 0.5), 3).is_empty());
    }

    #[test]
    fn duplicate_coordinates_are_found() {
        // TPC-H-style data: massive key duplication must not break the
        // predict-and-scan guarantee.
        let mut pts: Vec<Point> = (0..300)
            .map(|i| {
                Point::new(
                    i,
                    ((i % 5) as f64 + 0.5) / 5.0,
                    ((i % 7) as f64 + 0.5) / 7.0,
                )
            })
            .collect();
        pts.push(Point::new(999, 0.31, 0.41));
        let idx = ZmIndex::build(
            pts.clone(),
            &ZmConfig { fanout: 2 },
            &OgBuilder::with_epochs(40),
        );
        for p in pts.iter().step_by(17) {
            assert!(idx.point_query(*p).is_some(), "lost {p}");
        }
        assert_eq!(idx.point_query(Point::at(0.31, 0.41)).unwrap().id, 999);
    }

    #[test]
    fn fanout_zero_builds_one_leaf() {
        let pts: Vec<Point> = (0..120)
            .map(|i| Point::new(i, (i % 11) as f64 / 11.0, (i / 11) as f64 / 11.0))
            .collect();
        let idx = ZmIndex::build(
            pts.clone(),
            &ZmConfig { fanout: 0 },
            &OgBuilder::with_epochs(40),
        );
        assert_eq!(idx.leaves.len(), 1);
        assert_eq!(idx.build_stats().len(), 2, "root + one leaf");
        for p in &pts {
            assert_eq!(idx.point_query(*p).map(|q| q.id), Some(p.id));
        }
    }

    #[test]
    fn build_stats_cover_all_models() {
        let (_, idx) = build_small(300);
        // Root + 4 leaves.
        assert_eq!(idx.build_stats().len(), 5);
        assert!(idx.build_stats().iter().all(|s| s.method == "OG"));
    }

    #[test]
    fn encoded_state_round_trips_queries_bit_identically() {
        // 402 points over four leaves: the offsets `j·n/s` round down.
        let (pts, mut idx) = build_small(402);
        // Exercise the mutable state too: buffered inserts + tombstones.
        idx.insert(Point::new(9001, 0.111, 0.222));
        idx.insert(Point::new(9002, 0.333, 0.444));
        assert!(idx.delete(pts[17]));

        let back = ZmIndex::decode_state(&idx.encode_state()).unwrap();
        assert_eq!(back.len(), idx.len());
        for p in pts.iter().step_by(7) {
            assert_eq!(back.point_query(*p), idx.point_query(*p));
        }
        assert_eq!(
            back.point_query(Point::at(0.111, 0.222)),
            idx.point_query(Point::at(0.111, 0.222))
        );
        for w in [
            Rect::new(0.1, 0.1, 0.4, 0.9),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.7, 0.2, 0.72, 0.25),
        ] {
            assert_eq!(back.window_query(&w), idx.window_query(&w));
        }
        for q in [Point::at(0.3, 0.3), Point::at(0.91, 0.13)] {
            assert_eq!(back.knn_query(q, 9), idx.knn_query(q, 9));
        }
        // The error bounds — the part that costs an O(n·M(1)) pass to
        // recompute — are restored, not re-derived; the keys and offsets
        // are re-derived to what the build made.
        assert_eq!(back.total_err_span(), idx.total_err_span());
        assert_eq!(back.data.keys(), idx.data.keys());
        let offsets = |zm: &ZmIndex| zm.leaves.iter().map(|l| l.offset).collect::<Vec<_>>();
        assert_eq!(offsets(&back), offsets(&idx));
    }

    #[test]
    fn encoding_is_deterministic_bytes() {
        let (pts, mut idx) = build_small(150);
        for p in pts.iter().take(20) {
            idx.delete(*p); // populate the hash set
        }
        let a = idx.encode_state();
        let b = idx.encode_state();
        assert_eq!(a, b);
        // And the re-encoded decode matches too.
        let back = ZmIndex::decode_state(&a).unwrap();
        assert_eq!(back.encode_state(), a);
    }

    #[test]
    fn empty_index_state_round_trips() {
        let idx = ZmIndex::build(
            Vec::new(),
            &ZmConfig::default(),
            &OgBuilder::with_epochs(10),
        );
        let back = ZmIndex::decode_state(&idx.encode_state()).unwrap();
        assert!(back.is_empty());
        assert!(back.point_query(Point::at(0.5, 0.5)).is_none());
    }

    #[test]
    fn damaged_state_is_a_clean_error() -> Result<(), StoreError> {
        let (_, idx) = build_small(120);
        let clean = idx.encode_state();
        for cut in 0..clean.len().min(400) {
            assert!(
                ZmIndex::decode_state(&clean[..cut]).is_err(),
                "cut {cut} decoded"
            );
        }
        // Points out of key order are corrupt: swap the coordinates of the
        // first and last point, keeping their ids.
        let mut r = elsi_store::ByteReader::new(&clean, "probe");
        let mut points = decode_points(&mut r)?;
        let n = points.len();
        let (first, last) = (points[0], points[n - 1]);
        points[0] = Point::new(first.id, last.x, last.y);
        points[n - 1] = Point::new(last.id, first.x, first.y);
        let mut w = ByteWriter::new();
        encode_points(&mut w, &points);
        let swapped = [w.as_slice(), &clean[r.pos()..]].concat();
        // The model shape must agree with the columns: points need leaves.
        decode_rank_model(&mut r)?;
        let count_at = r.pos();
        for _ in 0..r.get_usize()? {
            decode_rank_model(&mut r)?;
            r.get_raw(16)?;
        }
        let leafless = [&clean[..count_at], &[0u8; 8][..], &clean[r.pos()..]].concat();
        for (what, bad) in [
            ("points out of key order", swapped),
            ("no leaves", leafless),
        ] {
            assert!(
                matches!(ZmIndex::decode_state(&bad), Err(StoreError::Corrupt { .. })),
                "{what} decoded"
            );
        }
        Ok(())
    }

    #[test]
    fn stored_page_is_the_point_column_layout() {
        // The blob opens with the sorted points in the one point-set
        // layout, and the root model follows: no key column, no prefix.
        let (pts, idx) = build_small(150);
        let (sorted, _) = sort_by_key(&pts, &MortonMapper);
        let mut w = ByteWriter::new();
        encode_points(&mut w, &sorted);
        encode_rank_model(&mut w, &idx.root);
        assert_eq!(idx.encode_state()[..w.len()], *w.as_slice());
    }

    #[test]
    fn codec_trait_wires_encode_to_decode() {
        let (pts, idx) = build_small(100);
        let codec = ZmStateCodec;
        let bytes = IndexCodec::encode(&codec, &idx).expect("ZM always has a fast path");
        let back = IndexCodec::decode(&codec, &bytes).unwrap();
        assert_eq!(back.point_query(pts[3]), idx.point_query(pts[3]));
    }
    #[test]
    fn corner_keys_gallop_within_a_comparison_of_bisecting() {
        // One deployment shard's worth of OSM1-like points under the
        // serving model (0 epochs: the CDF interpolant). Each search counts
        // the gallop's key comparisons from the prediction, and the
        // comparisons a binary search over the whole bracket would make.
        // `z_range`'s corner keys are not stored, so they land farther from
        // their predictions than stored keys and gallop a little longer —
        // less than one comparison more than bisecting, whose scattered
        // probes measured slower all the same (EXPERIMENTS, "Window
        // queries").
        let pts = osm1_points(15_625, None, 5);
        let zm = ZmIndex::build(
            pts.clone(),
            &ZmConfig { fanout: 8 },
            &OgBuilder::with_epochs(0),
        );
        let keys = zm.data.keys();
        let n = keys.len();
        let mean = |keys_searched: &[f64]| {
            let (mut galloped, mut binary, mut fallbacks) = (0, 0, 0);
            for &key in keys_searched {
                let b = zm.search_range(key);
                let cand = gallop(b, n, |i| {
                    galloped += 1;
                    keys.get(i).is_some_and(|&k| k < key)
                });
                let width = b.hi.min(n).saturating_sub(b.lo.min(n));
                binary += (usize::BITS - width.leading_zeros()) as usize;
                fallbacks += usize::from(zm.locate_lower(key) != cand);
            }
            let per = |c: usize| c as f64 / keys_searched.len() as f64;
            (per(galloped), per(binary), fallbacks)
        };
        let corners = |area: f64| -> Vec<f64> {
            let windows = elsi_data::gen::window_queries(&pts, 2_000, area, 9);
            let z = |x, y| MortonMapper.key(Point::at(x, y));
            let corner = |w: &Rect| [z(w.lo_x, w.lo_y), z(w.hi_x, w.hi_y).next_up()];
            windows.iter().flat_map(corner).collect()
        };
        let (stored_gallop, stored_binary, stored_fallbacks) = mean(keys);
        assert_eq!(stored_fallbacks, 0, "the bracket holds every stored key");
        for area in [1e-4, 1e-2] {
            let (galloped, binary, fallbacks) = mean(&corners(area));
            eprintln!(
                "area {area}: corner keys {galloped:.2} galloped / {binary:.2} binary \
                 comparisons, {fallbacks} of 4000 fall back; stored keys \
                 {stored_gallop:.2} / {stored_binary:.2}"
            );
            assert!(
                galloped < binary + 1.0,
                "{galloped} vs {binary} at area {area}"
            );
            assert!(
                galloped < stored_gallop + 1.0,
                "{galloped} vs {stored_gallop}"
            );
        }
    }
}
