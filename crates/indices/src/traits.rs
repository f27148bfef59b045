//! The common query interface of all spatial indices.

use elsi_data::stream::Update;
use elsi_spatial::{sort_canonical, z_order, KnnEntry, KnnHeap, Point, Rect, ScanScratch};
use rayon::prelude::*;

/// Point, window and kNN queries plus updates: the operations the paper
/// evaluates (§VII-G, §VII-H). All indices — learned and traditional —
/// implement this trait so the harness can sweep them uniformly.
///
/// An index **implements** three query methods —
/// [`point_query`](SpatialIndex::point_query),
/// [`window_query_into`](SpatialIndex::window_query_into) and
/// [`knn_within_into`](SpatialIndex::knn_within_into) — plus `len`,
/// `insert`, `delete` and `name`. The other six query methods are
/// **provided** here, once, on top of those three and must not be
/// overridden: [`knn_query_into`](SpatialIndex::knn_query_into) (no
/// radius), the allocating [`window_query`](SpatialIndex::window_query)
/// / [`knn_query`](SpatialIndex::knn_query) and the thread-parallel
/// [`par_point_queries`](SpatialIndex::par_point_queries) /
/// [`par_window_queries`](SpatialIndex::par_window_queries) /
/// [`par_knn_queries`](SpatialIndex::par_knn_queries). Every index
/// therefore batches, chunks and allocates identically, so comparisons
/// between indices are like for like.
///
/// `Send + Sync` is a supertrait contract (as on `ModelBuilder`): the
/// batch methods share `&self` across rayon workers.
pub trait SpatialIndex: Send + Sync {
    /// Number of indexed points (including buffered inserts, excluding
    /// deleted points).
    fn len(&self) -> usize;

    /// Whether the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finds a stored point with exactly the coordinates of `q` and returns
    /// it. Paper point queries look up indexed points by location.
    fn point_query(&self, q: Point) -> Option<Point>;

    /// All stored points inside `w`, written into a caller-provided buffer
    /// and reusing `scratch` across calls: `out` is cleared and refilled,
    /// and steady-state queries perform no allocations once both buffers
    /// have grown to their high-water marks. Learned indices may return
    /// approximate results (RSMI by design, LISA under FFN shard
    /// prediction); the traditional indices and ML-Index are exact.
    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>);

    /// The `k` nearest stored points to `q` among those with
    /// `dist²(q, p) ≤ r2`, written into a caller-provided buffer and
    /// reusing `scratch` (hit buffer + kNN candidate pool) across calls;
    /// `out` is cleared and refilled in canonical `(dist², id)` order.
    /// Points at exactly `r2` are kept (the canonical order settles them);
    /// `r2 = ∞` is plain kNN. Exact for every index of this crate — RSMI
    /// and LISA included: their kNN prunes on page MBRs, not on the
    /// predictions that make their window queries approximate.
    ///
    /// The radius is how a merge asks a part only for the points that
    /// could still displace its running k-th (`ShardedIndex`, DESIGN §9).
    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    );

    /// Provided: the `k` nearest stored points to `q` —
    /// [`SpatialIndex::knn_within_into`] with `r2 = ∞`.
    // lint:serving_root
    fn knn_query_into(&self, q: Point, k: usize, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        self.knn_within_into(q, k, f64::INFINITY, scratch, out);
    }

    /// Inserts a point.
    ///
    /// An id names one point: a bare index expects unique ids over its
    /// lifetime, the serving doors keep each id's last copy, and
    /// `DeltaOverlay` overwrites a live id. Re-inserting a deleted id also
    /// un-tombstones the old stored point in RSMI, whose local rebuilds
    /// merge inserts into the stored pages (both copies visible, both in
    /// [`SpatialIndex::len`]); every other index keeps the old copy deleted.
    fn insert(&mut self, p: Point);

    /// Deletes the stored point with the coordinates and id of `p`;
    /// returns whether it was found.
    fn delete(&mut self, p: Point) -> bool;

    /// Display name ("ZM", "RSMI", "Grid", …).
    fn name(&self) -> &'static str;

    /// Structural depth (model layers for learned indices, tree height for
    /// traditional ones); an input feature of the rebuild predictor.
    fn depth(&self) -> usize {
        1
    }

    /// Appends every live point to `out`, in the index's own order — exact
    /// for every index: it owns its live set, and whatever else needs the
    /// points derives them from this.
    ///
    /// Provided as the unit-square window, the live set wherever windows are
    /// exact; overridden where they are not (RSMI, LISA: walk the pages) and
    /// by wrappers (walk the parts).
    fn live_points_into(&self, out: &mut Vec<Point>) {
        out.append(&mut self.window_query(&Rect::unit()));
    }

    /// Provided: the live set in canonical order (ascending id) — the
    /// sequence a rebuild is fed, whatever order the points arrived in.
    fn live_points(&self) -> Vec<Point> {
        let mut out = Vec::new();
        self.live_points_into(&mut out);
        sort_canonical(&mut out, &mut Vec::new());
        out
    }

    /// Applies `updates` in arrival order and returns, per operation, the live
    /// copy it retired: the point a delete dropped (`None`: it found nothing
    /// and took no effect) or an insert replaced (`None`: a fresh id).
    ///
    /// Provided: the fold of the batch through [`SpatialIndex::insert`] /
    /// [`SpatialIndex::delete`] — an update has one meaning per index,
    /// whether it arrives alone or in a batch. Overridden only by
    /// `DeltaOverlay`, whose inserts can replace a live copy of their id.
    fn ingest_batch(&mut self, updates: &[Update]) -> Vec<Option<Point>> {
        updates
            .iter()
            .map(|u| match *u {
                Update::Insert(p) => {
                    self.insert(p);
                    None
                }
                Update::Delete(p) => self.delete(p).then_some(p),
            })
            .collect()
    }

    /// Provided: [`SpatialIndex::window_query_into`] with fresh buffers.
    // lint:serving_root
    fn window_query(&self, w: &Rect) -> Vec<Point> {
        let mut out = Vec::new();
        self.window_query_into(w, &mut ScanScratch::new(), &mut out);
        out
    }

    /// Provided: [`SpatialIndex::knn_query_into`] with fresh buffers.
    // lint:serving_root
    fn knn_query(&self, q: Point, k: usize) -> Vec<Point> {
        let mut out = Vec::new();
        self.knn_query_into(q, k, &mut ScanScratch::new(), &mut out);
        out
    }

    /// Provided: a batch of point queries, one result per query, in query
    /// order regardless of the thread count. Batches under a thousand
    /// lookups run inline; longer ones are answered in Z-order across the
    /// rayon pool (`DESIGN.md` §9).
    // lint:serving_root
    fn par_point_queries(&self, queries: &[Point]) -> Vec<Option<Point>> {
        batch_in_z_order(
            queries,
            POINT_BATCH_CROSSOVER,
            |q| *q,
            |&q, _| self.point_query(q),
        )
    }

    /// Provided: a batch of window queries, one result vector per window,
    /// in query order; batched like [`SpatialIndex::par_point_queries`]
    /// (by window centre, from 256 windows up). Each worker range reuses
    /// one [`ScanScratch`], so per-query allocations are limited to the
    /// result vectors themselves.
    // lint:serving_root
    fn par_window_queries(&self, windows: &[Rect]) -> Vec<Vec<Point>> {
        batch_in_z_order(windows, SCAN_BATCH_CROSSOVER, Rect::center, |w, scratch| {
            let mut out = Vec::new();
            self.window_query_into(w, scratch, &mut out);
            out
        })
    }

    /// Provided: a batch of kNN queries (all with the same `k`) batched
    /// like [`SpatialIndex::par_window_queries`], one result vector per
    /// query point, in query order.
    // lint:serving_root
    fn par_knn_queries(&self, queries: &[Point], k: usize) -> Vec<Vec<Point>> {
        batch_in_z_order(
            queries,
            SCAN_BATCH_CROSSOVER,
            |q| *q,
            |&q, scratch| {
                let mut out = Vec::new();
                self.knn_query_into(q, k, scratch, &mut out);
                out
            },
        )
    }
}

/// Point-lookup batches shorter than this run inline on the caller's
/// thread, in caller order. The rayon stand-in spawns and joins OS threads
/// on every call — about 100 µs per `par_*` call on the ledger's two-core
/// host (`batch64_p50_us` was ≈ 357 µs for the three calls of a 64-query
/// batch whose queries take ≈ 45 µs in a loop) — and a cold lookup costs
/// under a microsecond, so sorting and fanning out only pays from about a
/// thousand lookups up (measured table in `DESIGN.md` §9).
const POINT_BATCH_CROSSOVER: usize = 1024;

/// The same crossover for window and kNN batches, whose small queries cost
/// some four lookups each.
const SCAN_BATCH_CROSSOVER: usize = 256;

/// The one body of the `par_*` family: answers every query of a batch and
/// returns the answers in caller order.
///
/// Below `crossover` the batch runs inline, one [`ScanScratch`] for all of
/// it. From there up the queries are put in [`z_order`] of their `centre`
/// (the 2¹¹ × 2¹¹ grid cell of its top Morton bits, ties by position, so
/// the order is a pure function of the batch), split into contiguous
/// chunks of that order across the rayon pool, answered chunk by chunk —
/// every index, and every shard behind a router, sees neighbouring
/// queries back to back and finds their pages already in cache — and
/// scattered back to the caller's positions. An answer depends on its
/// query alone, so the result is the sequential loop's for every thread
/// count.
fn batch_in_z_order<Q: Sync, A: Default + Send>(
    queries: &[Q],
    crossover: usize,
    centre: impl Fn(&Q) -> Point,
    answer: impl Fn(&Q, &mut ScanScratch) -> A + Sync,
) -> Vec<A> {
    if queries.len() < crossover {
        let mut scratch = ScanScratch::new();
        return queries.iter().map(|q| answer(q, &mut scratch)).collect();
    }
    let order = z_order(queries.iter().map(centre));
    let per_chunk: Vec<Vec<A>> = scratch_chunks(order.len())
        .par_iter()
        .map(|&(lo, hi)| {
            let mut scratch = ScanScratch::new();
            order
                .get(lo..hi)
                .unwrap_or(&[])
                .iter()
                .filter_map(|&i| queries.get(i))
                .map(|q| answer(q, &mut scratch))
                .collect()
        })
        .collect();
    let mut out: Vec<A> = Vec::new();
    out.resize_with(queries.len(), A::default);
    for (a, &i) in per_chunk.into_iter().flatten().zip(&order) {
        if let Some(slot) = out.get_mut(i) {
            *slot = a;
        }
    }
    out
}

/// Contiguous query ranges for scratch-sharing workers, four per thread,
/// each amortising one [`ScanScratch`] (and its allocations) over its
/// queries. The pool hands each thread a contiguous run of these chunks,
/// so the split does not balance load; that needs dynamic claiming.
fn scratch_chunks(n: usize) -> Vec<(usize, usize)> {
    let chunk = n.div_ceil(rayon::current_num_threads().max(1) * 4).max(1);
    (0..n.div_ceil(chunk).max(1))
        .map(|c| (c * chunk, ((c + 1) * chunk).min(n)))
        .collect()
}

impl<T: SpatialIndex + ?Sized> SpatialIndex for Box<T> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn point_query(&self, q: Point) -> Option<Point> {
        (**self).point_query(q)
    }
    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        (**self).window_query_into(w, scratch, out)
    }
    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        (**self).knn_within_into(q, k, r2, scratch, out)
    }
    fn insert(&mut self, p: Point) {
        (**self).insert(p)
    }
    fn delete(&mut self, p: Point) -> bool {
        (**self).delete(p)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn depth(&self) -> usize {
        (**self).depth()
    }
    fn live_points_into(&self, out: &mut Vec<Point>) {
        (**self).live_points_into(out)
    }
    fn ingest_batch(&mut self, updates: &[Update]) -> Vec<Option<Point>> {
        (**self).ingest_batch(updates)
    }
}

/// The one kNN driver of the learned and grid-shaped indices: **seed, then
/// sweep**, through one bounded candidate pool.
///
/// 1. `scratch.heap_within(k, r2)` sizes the pool, its bound at `r2`.
/// 2. `seed` offers the live points around the query's *model-predicted
///    position* — a few ranks either side of it, the predicted leaf, the
///    insert buffer — and returns a token naming what it offered.
/// 3. `heap.worst_dist2()` bounds the answer: no true neighbour is
///    farther than the k-th seeded point (`r2` while fewer than `k` points
///    within it were seeded).
/// 4. `sweep` receives the token, the padded ball box
///    ([`Rect::ball_box`]; the whole plane when the bound is `∞`) and the
///    *same, warm* pool. It must offer every live point whose leaf can
///    reach into the box and that the seed did **not** already offer — the
///    pool keeps one slot per offer, so a point offered twice would be
///    returned twice. It may prune harder than the box as the pool
///    tightens (`mbr.min_dist2(q) > heap.worst_dist2()`, strict, so ties
///    at the k-th distance survive).
/// 5. `heap.finish()` writes the canonical `(dist², id)` order into `out`.
///
/// No hit vector is materialised, nothing is sorted but the final `k`, and
/// no point is visited twice. The answer is exact whenever the sweep's
/// leaf enumeration is, whatever the quality of the seed: a poor seed only
/// widens the box.
///
/// Not a `lint:hot_path` root: sizing the pool and `extend`ing the
/// caller's `out` are allocation facts to the analyzer (both amortise to
/// nothing once the buffers reach their high-water marks); the scans the
/// closures run go through the `knn_scan` root.
pub fn knn_seeded_into<T>(
    q: Point,
    k: usize,
    r2: f64,
    scratch: &mut ScanScratch,
    out: &mut Vec<Point>,
    seed: impl FnOnce(&mut KnnHeap) -> T,
    sweep: impl FnOnce(T, &Rect, &mut KnnHeap),
) {
    out.clear();
    if k == 0 {
        return;
    }
    let heap = scratch.heap_within(k, r2);
    let seeded = seed(heap);
    let ball = Rect::ball_box(q, heap.worst_dist2());
    sweep(seeded, &ball, heap);
    out.extend(heap.finish().iter().map(KnnEntry::point));
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_spatial::canonical_knn_cmp;
    use elsi_spatial::curve::morton_of;

    fn brute_knn(data: &[Point], q: Point, k: usize) -> Vec<Point> {
        let mut pts = data.to_vec();
        pts.sort_by(|a, b| canonical_knn_cmp(q, a, b));
        pts.truncate(k);
        pts
    }

    /// Seeded kNN over a linear scan: the seed is the first `seed_len`
    /// points wherever they lie, the sweep filters the rest by the ball box.
    fn seeded_knn(data: &[Point], q: Point, k: usize, seed_len: usize) -> Vec<Point> {
        let mut out = Vec::new();
        let (head, tail) = data.split_at(seed_len.min(data.len()));
        knn_seeded_into(
            q,
            k,
            f64::INFINITY,
            &mut ScanScratch::new(),
            &mut out,
            |heap| head.iter().for_each(|p| heap.offer_point(q, *p)),
            |(), ball, heap| {
                for p in tail.iter().filter(|p| ball.contains(p)) {
                    heap.offer_point(q, *p);
                }
            },
        );
        out
    }

    fn lattice(side: u64, step: f64, origin: f64) -> Vec<Point> {
        (0..side * side)
            .map(|i| {
                Point::new(
                    i,
                    (i % side) as f64 * step + origin,
                    (i / side) as f64 * step + origin,
                )
            })
            .collect()
    }

    #[test]
    fn seeded_knn_matches_brute_force() {
        let data = lattice(20, 0.05, 0.01);
        let q = Point::at(0.52, 0.48);
        // A short seed (r² = ∞), an exactly-k seed and a long one.
        for seed_len in [0, 3, 10, 200] {
            assert_eq!(
                seeded_knn(&data, q, 10, seed_len),
                brute_knn(&data, q, 10),
                "seed {seed_len}"
            );
        }
    }

    #[test]
    fn knn_with_k_larger_than_n() {
        let data = [Point::new(0, 0.5, 0.5), Point::new(1, 0.6, 0.6)];
        let q = Point::at(0.1, 0.1);
        assert_eq!(seeded_knn(&data, q, 5, 1), brute_knn(&data, q, 5));
    }

    #[test]
    fn knn_zero_k() {
        assert!(seeded_knn(&lattice(3, 0.1, 0.0), Point::at(0.5, 0.5), 0, 4).is_empty());
        assert!(seeded_knn(&[], Point::at(0.5, 0.5), 3, 0).is_empty());
    }

    #[test]
    fn knn_near_corner() {
        // Lattice distances tie in pairs around the corner: the canonical
        // order must settle them the way the oracle does.
        let data = lattice(10, 0.1, 0.0);
        let q = Point::at(0.0, 0.0);
        assert_eq!(seeded_knn(&data, q, 3, 50), brute_knn(&data, q, 3));
    }

    #[test]
    fn batches_either_side_of_both_crossovers_equal_the_sequential_loop() {
        use crate::{GridConfig, GridIndex, PwlBuilder, ZmConfig, ZmIndex};
        let data = elsi_data::gen::skewed(1500, 3, 9);
        let grid = GridIndex::build(data.clone(), &GridConfig { block_size: 32 });
        let zm = ZmIndex::build(
            data.clone(),
            &ZmConfig { fanout: 4 },
            &PwlBuilder::default(),
        );
        // Four query streams: as drawn (a stride through the data,
        // repeating once past its length, every fifth query absent), the
        // same presorted along the Z-curve, one query repeated throughout,
        // and a crowd in one cell of the 2¹¹ × 2¹¹ batch-order grid —
        // stored points of that cell, repeated, and misses a few ulps of
        // the cell apart — mixed with centres outside the unit square and
        // NaN centres.
        let drawn = |n: usize| -> Vec<Point> {
            (0..n)
                .map(|i| match (data[i * 7 % data.len()], i % 5) {
                    (p, 0) => Point::at(p.y, p.x),
                    (p, _) => p,
                })
                .collect()
        };
        let cell = |p: &Point| morton_of(p.x, p.y) >> 42;
        let mut cells: Vec<u64> = data.iter().map(cell).collect();
        cells.sort_unstable();
        let busiest = cells
            .chunk_by(|a, b| a == b)
            .max_by_key(|c| c.len())
            .map_or(0, |c| c[0]);
        let crowd: Vec<Point> = data
            .iter()
            .filter(|p| cell(p) == busiest)
            .copied()
            .collect();
        assert!(
            crowd.len() > 1,
            "the crowd's cell holds {} points",
            crowd.len()
        );
        let edges = |n: usize| -> Vec<Point> {
            (0..n)
                .map(|i| match i % 8 {
                    0 => Point::at(-0.25, 1.0 + i as f64 * 1e-3),
                    1 => Point::at(1.5, f64::NAN),
                    2 => Point::at(f64::NAN, 0.5),
                    3 => Point::at(crowd[0].x + (i % 50) as f64 * 1e-9, crowd[0].y),
                    _ => crowd[i % crowd.len()],
                })
                .collect()
        };
        let orders = |n: usize| -> [Vec<Point>; 4] {
            let mut presorted = drawn(n);
            presorted.sort_by_key(|p| morton_of(p.x, p.y));
            [drawn(n), presorted, vec![data[3]; n], edges(n)]
        };
        for threads in [1, 2, 8] {
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global();
            for idx in [&grid as &dyn SpatialIndex, &zm] {
                let at = format!("{} at {threads} threads", idx.name());
                let c = POINT_BATCH_CROSSOVER;
                for n in [0, 1, c - 1, c, c + 1, 2 * c + 77] {
                    for qs in orders(n) {
                        let want: Vec<_> = qs.iter().map(|&q| idx.point_query(q)).collect();
                        assert_eq!(idx.par_point_queries(&qs), want, "{at}, {n} lookups");
                    }
                }
                let c = SCAN_BATCH_CROSSOVER;
                for n in [0, 1, c - 1, c, c + 1, 2 * c + 77] {
                    for qs in orders(n) {
                        let ws: Vec<Rect> =
                            qs.iter().map(|&q| Rect::window_around(q, 0.02)).collect();
                        let want: Vec<_> = ws.iter().map(|w| idx.window_query(w)).collect();
                        assert_eq!(idx.par_window_queries(&ws), want, "{at}, {n} windows");
                        let want: Vec<_> = qs.iter().map(|&q| idx.knn_query(q, 3)).collect();
                        assert_eq!(idx.par_knn_queries(&qs, 3), want, "{at}, {n} kNN");
                    }
                }
            }
        }
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global();
    }

    #[test]
    fn tombstones_are_filtered_on_every_door() {
        use crate::leaf::{Delta, Leaf, Soa};
        use elsi_spatial::Block;
        // Ranks 0..30 stored (keyed by rank), the tail on an overflow page.
        let data = lattice(6, 0.1, 0.05);
        let (stored, tail) = data.split_at(30);
        let (xs, ys, ids): (Vec<f64>, Vec<f64>, Vec<u64>) = (
            stored.iter().map(|p| p.x).collect(),
            stored.iter().map(|p| p.y).collect(),
            stored.iter().map(|p| p.id).collect(),
        );
        let keys: Vec<f64> = (0..30).map(f64::from).collect();
        let cols = (&xs[..], &ys[..], &ids[..]);
        fn page<'a>(keys: &'a [f64], cols: Soa<'a>, delta: &'a Delta) -> Leaf<'a> {
            let deleted = delta.tombstones();
            Leaf {
                keys,
                cols,
                deleted,
            }
        }
        let mut delta = Delta::new(vec![Block::new()], Default::default());
        tail.iter().for_each(|p| delta.insert(0, *p));

        // Tombstone the four stored points nearest the query, take one
        // overflow point out, and re-insert a tombstoned id elsewhere.
        let q = Point::at(0.3, 0.3);
        let gone = brute_knn(&data, q, 4);
        for p in &gone {
            assert!(!delta.remove(0, *p), "{p:?} is stored, not buffered");
            let hit = page(&keys, cols, &delta).find((0, 30), p.id as f64, *p, Some(p.id));
            assert!(delta.bury(hit), "{p:?}");
            let again = page(&keys, cols, &delta).find((0, 30), p.id as f64, *p, Some(p.id));
            assert!(!delta.bury(again), "{p:?} tombstoned twice");
        }
        assert!(delta.remove(0, data[35]) && !delta.remove(0, data[35]));
        let back = Point::new(gone[0].id, 0.31, 0.29);
        delta.insert(0, back);
        let live: Vec<Point> = data
            .iter()
            .filter(|p| !gone.contains(p) && **p != data[35])
            .chain([&back])
            .copied()
            .collect();
        assert_eq!(delta.len(30), live.len());
        let leaf = page(&keys, cols, &delta);

        // kNN: ranks 0..30 around the seeded run 10..20, the run itself,
        // and the overflow page — every live point exactly once.
        let mut scratch = ScanScratch::new();
        let heap = scratch.heap_for(5);
        leaf.knn_offer_around(q, (0, 30), (10, 20), heap);
        leaf.knn_offer_span(q, (10, 20), heap);
        delta.pages[0].knn_into(q.x, q.y, heap);
        let got: Vec<Point> = heap.finish().iter().map(KnnEntry::point).collect();
        assert_eq!(got, brute_knn(&live, q, 5));

        // Window: stored hits in rank order, then the page in arrival order.
        let w = Rect::new(0.2, 0.2, 0.6, 0.6);
        let mut got = Vec::new();
        leaf.window_into((0, 30), &w, &mut scratch, &mut got);
        delta.pages[0].window_scan_into(&w, &mut got);
        let want: Vec<Point> = live.iter().filter(|p| w.contains(p)).copied().collect();
        assert_eq!(got, want);

        // Point: a tombstoned stored point is gone, its re-inserted id is
        // found where it was put, everything live is found once.
        for p in &data {
            let found = leaf.find((0, 30), p.id as f64, *p, None);
            let found = found.or_else(|| delta.pages[0].find_exact(p.x, p.y));
            assert_eq!(found, live.contains(p).then_some(*p), "{p:?}");
        }
        assert_eq!(delta.pages[0].find_exact(back.x, back.y), Some(back));
    }
}
