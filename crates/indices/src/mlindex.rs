//! ML-Index (Davitkova et al., EDBT 2020).
//!
//! The ML-Index maps points to one-dimensional keys with the iDistance
//! technique — each point's key is `pivot_id · c + dist(p, pivot)` for its
//! nearest pivot — and learns the rank function of the sorted keys, one
//! model per pivot partition. Every model is built through the pluggable
//! [`ModelBuilder`] (the ELSI seam).
//!
//! Window queries are **exact** (paper §VII-G2, "by design, ML offers
//! accurate results"): every point inside a window `w` that is assigned to
//! pivot `c_i` has `dist(p, c_i)` between the window's minimum and maximum
//! distance to `c_i`, so scanning each pivot's distance annulus and
//! filtering by containment cannot miss.
//!
//! Inserts go to per-pivot overflow pages (paper §VII-H: "ML uses extra
//! data pages to store points inserted into each index model").

use crate::leaf::{Delta, Leaf};
use crate::model::{locate_lower, BuildInput, BuildStats, ModelBuilder, RankModel};
use crate::traits::{knn_seeded_into, SpatialIndex};
use elsi_ml::kmeans;
use elsi_spatial::{sort_by_key, Block, IDistanceMapper, MappedData, Point, Rect, ScanScratch};
use rayon::prelude::*;
use std::collections::HashSet;

/// ML-Index configuration.
#[derive(Debug, Clone, Copy)]
pub struct MlConfig {
    /// Number of iDistance pivots (and hence rank models).
    pub pivots: usize,
    /// k-means iterations for pivot selection.
    pub kmeans_iters: usize,
    /// At most this many points participate in pivot selection (a uniform
    /// prefix sample keeps pivot selection `O(1)` in `n`).
    pub kmeans_sample: usize,
    /// Seed for pivot selection.
    pub seed: u64,
}

impl Default for MlConfig {
    fn default() -> Self {
        Self {
            pivots: 8,
            kmeans_iters: 10,
            kmeans_sample: 10_000,
            seed: 0,
        }
    }
}

struct Partition {
    model: RankModel,
    offset: usize,
    len: usize,
}

/// The ML-Index.
pub struct MlIndex {
    mapper: IDistanceMapper,
    data: MappedData,
    partitions: Vec<Partition>,
    /// Per-pivot overflow pages for inserts, and tombstones.
    delta: Delta,
    stats: Vec<BuildStats>,
}

impl MlIndex {
    /// Builds an ML-Index over `points` using the given model builder.
    pub fn build(points: Vec<Point>, cfg: &MlConfig, builder: &dyn ModelBuilder) -> Self {
        assert!(cfg.pivots >= 1, "need at least one pivot");
        let mapper = Self::fit_pivots(&points, cfg);
        let k = mapper.pivots().len();
        let (points, keys) = sort_by_key(points, &mapper);
        let n = points.len();
        let rank_of = |key: f64| keys.partition_point(|&k| k < key);

        // Per-pivot models train in parallel; each partition's seed is a
        // pure function of the pivot index, so the built index is identical
        // for every thread count.
        let built_parts: Vec<_> = (0..k)
            .into_par_iter()
            .map(|i| {
                // Pivot i's keys live in [i/k, (i+1)/k) by the iDistance layout.
                let lo = rank_of(i as f64 / k as f64);
                let hi = if i + 1 == k {
                    n
                } else {
                    rank_of((i + 1) as f64 / k as f64)
                };
                let built = builder.build_model(&BuildInput {
                    points: points.get(lo..hi).unwrap_or(&[]),
                    keys: keys.get(lo..hi).unwrap_or(&[]),
                    mapper: &mapper,
                    seed: 0x31 + i as u64,
                });
                (built, lo, hi)
            })
            .collect();
        let mut partitions = Vec::with_capacity(k);
        let mut stats = Vec::new();
        for (built, lo, hi) in built_parts {
            stats.push(built.stats);
            partitions.push(Partition {
                model: built.model,
                offset: lo,
                len: hi - lo,
            });
        }

        Self {
            mapper,
            data: MappedData::from_sorted(&points, keys),
            partitions,
            delta: Delta::new(vec![Block::new(); k], HashSet::new()),
            stats,
        }
    }

    fn fit_pivots(points: &[Point], cfg: &MlConfig) -> IDistanceMapper {
        if points.is_empty() {
            return IDistanceMapper::new(vec![Point::at(0.5, 0.5)]);
        }
        let stride = (points.len() / cfg.kmeans_sample.max(1)).max(1);
        let sample: Vec<(f64, f64)> = points.iter().step_by(stride).map(|p| (p.x, p.y)).collect();
        let result = kmeans(&sample, cfg.pivots, cfg.kmeans_iters, cfg.seed);
        let pivots = result
            .centroids
            .iter()
            .map(|&(x, y)| Point::at(x, y))
            .collect();
        IDistanceMapper::new(pivots)
    }

    /// The fitted iDistance mapper.
    pub fn mapper(&self) -> &IDistanceMapper {
        &self.mapper
    }

    /// Per-model build statistics.
    pub fn build_stats(&self) -> &[BuildStats] {
        &self.stats
    }

    /// First live stored (not overflow) point at `q`'s coordinates, with id
    /// `only` when given, in the partition of `q`'s nearest pivot `i` at
    /// distance `d`. The partition model's range is partition-local and
    /// clamped to the partition, so shifting it by the partition's offset
    /// searches the same keys.
    fn find_stored(&self, q: Point, (i, d): (usize, f64), only: Option<u64>) -> Option<Point> {
        let part = self.partitions.get(i)?;
        let key = self.mapper.key_of(i, d);
        let hint = part.model.search_range(key).shifted(part.offset);
        Leaf::of(&self.data, self.delta.tombstones()).find(hint, key, q, only)
    }

    /// The key range of pivot `i`'s annulus around `w`: every point of the
    /// partition inside `w` has its pivot distance between the window's
    /// minimum and maximum distance to the pivot.
    fn pivot_key_range(&self, i: usize, pivot: &Point, w: &Rect) -> (f64, f64) {
        let corners = [
            Point::at(w.lo_x, w.lo_y),
            Point::at(w.lo_x, w.hi_y),
            Point::at(w.hi_x, w.lo_y),
            Point::at(w.hi_x, w.hi_y),
        ];
        let d_min = w.min_dist2(pivot).sqrt();
        let d_max = corners.iter().map(|c| pivot.dist(c)).fold(0.0f64, f64::max);
        (self.mapper.key_of(i, d_min), self.mapper.key_of(i, d_max))
    }

    /// The global rank run `[lo, hi)` of the keys `[key_lo, key_hi]` of
    /// partition `i`, located through the partition's model.
    fn partition_ranks(&self, i: usize, (key_lo, key_hi): (f64, f64)) -> (usize, usize) {
        let part = match self.partitions.get(i) {
            Some(part) if part.len > 0 => part,
            _ => return (0, 0),
        };
        let keys = self
            .data
            .keys()
            .get(part.offset..part.offset + part.len)
            .unwrap_or(&[]);
        let lo = locate_lower(keys, part.model.search_range(key_lo), key_lo);
        let hi = locate_lower(keys, part.model.search_range(key_hi), key_hi.next_up());
        (part.offset + lo, part.offset + hi)
    }
}

impl SpatialIndex for MlIndex {
    fn len(&self) -> usize {
        self.delta.len(self.data.len())
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        let (i, d) = self.mapper.nearest_pivot(q);
        let stored = self.find_stored(q, (i, d), None);
        let page = self.delta.pages.get(i);
        stored.or_else(|| page.and_then(|page| page.find_exact(q.x, q.y)))
    }

    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        let leaf = Leaf::of(&self.data, self.delta.tombstones());
        for (i, pivot) in self.mapper.pivots().iter().enumerate() {
            let ranks = self.partition_ranks(i, self.pivot_key_range(i, pivot, w));
            leaf.window_into(ranks, w, scratch, out);
            if let Some(page) = self.delta.pages.get(i) {
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
        let leaf = Leaf::of(&self.data, self.delta.tombstones());
        knn_seeded_into(
            q,
            k,
            r2,
            scratch,
            out,
            |heap| {
                // iDistance orders a partition by distance from its pivot,
                // so the ranks around the query's key are a *ring* through
                // the query, not its neighbourhood. Widen the ring (ranks
                // are offered once: each round adds the two rims) until it
                // is as thick as the k-th distance found in it — it then
                // holds every point of the partition that close, since
                // |d(p, c) − d(q, c)| ≤ d(p, q) — or the partition is spent.
                for page in &self.delta.pages {
                    page.knn_into(q.x, q.y, heap);
                }
                let (home, d) = self.mapper.nearest_pivot(q);
                let (Some(pivot), Some(part)) =
                    (self.mapper.pivots().get(home), self.partitions.get(home))
                else {
                    return (0, 0);
                };
                let (p_lo, p_hi) = (part.offset, part.offset + part.len);
                let key = self.mapper.key_of(home, d);
                let pos = self.partition_ranks(home, (key, key)).0.clamp(p_lo, p_hi);
                let rim = |rank: usize| {
                    let at = self.data.point(rank);
                    at.map_or(f64::NAN, |p| (pivot.dist(&p) - d).abs())
                };
                let (mut run, mut reach) = ((pos, pos), k);
                loop {
                    let wider = (pos.saturating_sub(reach).max(p_lo), (pos + reach).min(p_hi));
                    leaf.knn_offer_around(q, wider, run, heap);
                    run = wider;
                    let r = heap.worst_dist2().sqrt();
                    if (run.0 == p_lo || rim(run.0) >= r) && (run.1 == p_hi || rim(run.1 - 1) >= r)
                    {
                        return run;
                    }
                    reach *= 2;
                }
            },
            |run, ball, heap| {
                // Every pivot's annulus around the ball box, minus the run.
                for (i, pivot) in self.mapper.pivots().iter().enumerate() {
                    let ranks = self.partition_ranks(i, self.pivot_key_range(i, pivot, ball));
                    leaf.knn_offer_around(q, ranks, run, heap);
                }
            },
        );
    }

    fn insert(&mut self, p: Point) {
        let (i, _) = self.mapper.nearest_pivot(p);
        self.delta.insert(i, p);
    }

    fn delete(&mut self, p: Point) -> bool {
        let (i, d) = self.mapper.nearest_pivot(p);
        self.delta.remove(i, p) || {
            let stored = self.find_stored(p, (i, d), Some(p.id));
            self.delta.bury(stored)
        }
    }

    fn name(&self) -> &'static str {
        "ML"
    }

    fn depth(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OgBuilder;
    use elsi_data::gen::uniform;

    fn build_small(n: usize) -> (Vec<Point>, MlIndex) {
        let pts = uniform(n, 42);
        let cfg = MlConfig {
            pivots: 4,
            ..MlConfig::default()
        };
        let idx = MlIndex::build(pts.clone(), &cfg, &OgBuilder::with_epochs(60));
        (pts, idx)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, idx) = build_small(500);
        for p in &pts {
            assert_eq!(idx.point_query(*p).expect("found").id, p.id);
        }
    }

    #[test]
    fn window_query_is_exact() {
        let (pts, idx) = build_small(800);
        for w in [
            Rect::new(0.1, 0.1, 0.3, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.45, 0.05, 0.55, 0.95),
        ] {
            let mut got: Vec<u64> = idx.window_query(&w).iter().map(|p| p.id).collect();
            let mut want: Vec<u64> = pts.iter().filter(|p| w.contains(p)).map(|p| p.id).collect();
            got.sort_unstable();
            got.dedup();
            want.sort_unstable();
            assert_eq!(got, want, "window {w:?}");
        }
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let (pts, idx) = build_small(600);
        let q = Point::at(0.3, 0.7);
        let got = idx.knn_query(q, 10);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        assert_eq!(got.len(), 10);
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let (pts, mut idx) = build_small(200);
        let p = Point::new(5555, 0.314159, 0.271828);
        idx.insert(p);
        assert_eq!(idx.len(), 201);
        assert_eq!(idx.point_query(p).unwrap().id, 5555);
        assert!(idx.delete(p));
        assert!(idx.point_query(p).is_none());
        assert_eq!(idx.len(), 200);
        // Delete an original point too.
        assert!(idx.delete(pts[10]));
        assert!(idx.point_query(pts[10]).is_none());
    }

    #[test]
    fn empty_index() {
        let idx = MlIndex::build(
            Vec::new(),
            &MlConfig::default(),
            &OgBuilder::with_epochs(10),
        );
        assert!(idx.is_empty());
        assert!(idx.point_query(Point::at(0.5, 0.5)).is_none());
        assert!(idx.window_query(&Rect::unit()).is_empty());
    }

    #[test]
    fn stats_one_per_pivot() {
        let (_, idx) = build_small(300);
        assert_eq!(idx.build_stats().len(), idx.mapper().pivots().len());
    }
}
