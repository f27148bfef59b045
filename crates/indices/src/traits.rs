//! The common query interface of all spatial indices.

use elsi_data::stream::Update;
use elsi_spatial::{canonical_knn_cmp, Point, Rect, ScanScratch};
use rayon::prelude::*;

/// Point, window and kNN queries plus updates: the operations the paper
/// evaluates (§VII-G, §VII-H). All indices — learned and traditional —
/// implement this trait so the harness can sweep them uniformly.
///
/// An index **implements** three query methods —
/// [`point_query`](SpatialIndex::point_query),
/// [`window_query_into`](SpatialIndex::window_query_into) and
/// [`knn_query_into`](SpatialIndex::knn_query_into) — plus `len`,
/// `insert`, `delete` and `name`. The other five query methods are
/// **provided** here, once, on top of those three and must not be
/// overridden: the allocating [`window_query`](SpatialIndex::window_query)
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

    /// The `k` nearest stored points to `q`, written into a caller-provided
    /// buffer and reusing `scratch` (hit buffer + bounded best-k heap)
    /// across calls; `out` is cleared and refilled in canonical
    /// `(dist², id)` order. May be approximate for the indices whose window
    /// queries are approximate.
    fn knn_query_into(&self, q: Point, k: usize, scratch: &mut ScanScratch, out: &mut Vec<Point>);

    /// Inserts a point.
    ///
    /// Point ids are expected to be unique across the index's lifetime.
    /// Re-inserting an id that was previously deleted additionally
    /// un-tombstones the old stored point in the learned indices (both
    /// copies become visible and count toward [`SpatialIndex::len`]).
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

    /// Applies `updates` in arrival order. Returns one "took effect" flag
    /// per operation: `true` for every insert, `true` for a delete that
    /// dropped a live copy.
    ///
    /// The default folds the batch through [`SpatialIndex::insert`] /
    /// [`SpatialIndex::delete`]; an index with a bulk merge may override
    /// it, and must then report exactly the flags (and reach exactly the
    /// state) this fold would.
    fn ingest_batch(&mut self, updates: &[Update]) -> Vec<bool> {
        updates
            .iter()
            .map(|u| match *u {
                Update::Insert(p) => {
                    self.insert(p);
                    true
                }
                Update::Delete(p) => self.delete(p),
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

    /// Provided: a batch of point queries fanned out across the rayon
    /// pool, one result per query, in query order regardless of the
    /// thread count.
    // lint:serving_root
    fn par_point_queries(&self, queries: &[Point]) -> Vec<Option<Point>> {
        queries.par_iter().map(|&q| self.point_query(q)).collect()
    }

    /// Provided: a batch of window queries fanned out across the rayon
    /// pool, one result vector per window, in query order. Each worker
    /// range reuses one [`ScanScratch`], so per-query allocations are
    /// limited to the result vectors themselves.
    // lint:serving_root
    fn par_window_queries(&self, windows: &[Rect]) -> Vec<Vec<Point>> {
        let per_range: Vec<Vec<Vec<Point>>> = scratch_chunks(windows.len())
            .par_iter()
            .map(|&(lo, hi)| {
                let mut scratch = ScanScratch::new();
                windows[lo..hi]
                    .iter()
                    .map(|w| {
                        let mut out = Vec::new();
                        self.window_query_into(w, &mut scratch, &mut out);
                        out
                    })
                    .collect()
            })
            .collect();
        per_range.into_iter().flatten().collect()
    }

    /// Provided: a batch of kNN queries (all with the same `k`) fanned out
    /// like [`SpatialIndex::par_window_queries`], one result vector per
    /// query point, in query order.
    // lint:serving_root
    fn par_knn_queries(&self, queries: &[Point], k: usize) -> Vec<Vec<Point>> {
        let per_range: Vec<Vec<Vec<Point>>> = scratch_chunks(queries.len())
            .par_iter()
            .map(|&(lo, hi)| {
                let mut scratch = ScanScratch::new();
                queries[lo..hi]
                    .iter()
                    .map(|&q| {
                        let mut out = Vec::new();
                        self.knn_query_into(q, k, &mut scratch, &mut out);
                        out
                    })
                    .collect()
            })
            .collect();
        per_range.into_iter().flatten().collect()
    }
}

/// Contiguous query ranges for scratch-sharing workers: a few chunks per
/// thread keeps the load balanced while amortising one [`ScanScratch`]
/// (and its allocations) over many queries.
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
    fn knn_query_into(&self, q: Point, k: usize, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        (**self).knn_query_into(q, k, scratch, out)
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
    fn ingest_batch(&mut self, updates: &[Update]) -> Vec<bool> {
        (**self).ingest_batch(updates)
    }
}

/// Shared kNN fallback: expanding window search over any window-query
/// implementation.
///
/// Starts from a window sized to expect ~`k` points and doubles the side
/// until `k` results lie within `side / 2` of `q` — at that point no closer
/// point can be outside the window, so the result is exact *if* the window
/// query is exact (and inherits its recall otherwise, matching the paper's
/// observation that learned indices use window queries as the kNN basis).
///
/// The window results accumulate in `out`, which is then sorted canonically
/// and truncated in place. `window_into` must *replace* the contents of its
/// output buffer, matching the [`SpatialIndex::window_query_into`] contract.
///
/// Results come back in canonical `(dist², id)` order, so every
/// expanding-window kNN producer breaks distance ties identically.
pub fn knn_by_expanding_window_into<F>(
    q: Point,
    k: usize,
    n: usize,
    scratch: &mut ScanScratch,
    out: &mut Vec<Point>,
    mut window_into: F,
) where
    F: FnMut(&Rect, &mut ScanScratch, &mut Vec<Point>),
{
    out.clear();
    if k == 0 || n == 0 {
        return;
    }
    // Expected-density start: a window that would hold ~4k uniform points.
    let mut side = ((4 * k) as f64 / n as f64).sqrt().clamp(1e-4, 2.0);
    loop {
        let w = Rect::new(
            q.x - side / 2.0,
            q.y - side / 2.0,
            q.x + side / 2.0,
            q.y + side / 2.0,
        );
        window_into(&w, scratch, out);
        out.sort_unstable_by(|a, b| canonical_knn_cmp(q, a, b));
        out.truncate(k);
        let safe_radius = side / 2.0;
        if out.len() == k && q.dist(&out[k - 1]) <= safe_radius {
            return;
        }
        if side >= 2.0 {
            // Window covers the whole unit square: return what exists.
            return;
        }
        side = (side * 2.0).min(2.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_knn(data: &[Point], q: Point, k: usize) -> Vec<Point> {
        let mut pts = data.to_vec();
        pts.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        pts.truncate(k);
        pts
    }

    /// Expanding-window kNN over an exact linear-scan window query.
    fn expanding_knn(data: &[Point], q: Point, k: usize, n: usize) -> Vec<Point> {
        let mut out = Vec::new();
        knn_by_expanding_window_into(q, k, n, &mut ScanScratch::new(), &mut out, |w, _, buf| {
            buf.clear();
            buf.extend(data.iter().filter(|p| w.contains(p)));
        });
        out
    }

    #[test]
    fn expanding_window_matches_brute_force() {
        let data: Vec<Point> = (0..400)
            .map(|i| {
                Point::new(
                    i,
                    (i % 20) as f64 / 20.0 + 0.01,
                    (i / 20) as f64 / 20.0 + 0.01,
                )
            })
            .collect();
        let q = Point::at(0.52, 0.48);
        let got = expanding_knn(&data, q, 10, data.len());
        let want = brute_knn(&data, q, 10);
        assert_eq!(got.len(), 10);
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12, "distance mismatch");
        }
    }

    #[test]
    fn knn_with_k_larger_than_n() {
        let data = [Point::new(0, 0.5, 0.5), Point::new(1, 0.6, 0.6)];
        let got = expanding_knn(&data, Point::at(0.1, 0.1), 5, data.len());
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn knn_zero_k() {
        assert!(expanding_knn(&[], Point::at(0.5, 0.5), 0, 100).is_empty());
    }

    #[test]
    fn knn_near_corner() {
        let data: Vec<Point> = (0..100)
            .map(|i| Point::new(i, (i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0))
            .collect();
        let q = Point::at(0.0, 0.0);
        let got = expanding_knn(&data, q, 3, data.len());
        let want = brute_knn(&data, q, 3);
        assert_eq!(got.len(), 3);
        assert!((q.dist(&got[2]) - q.dist(&want[2])).abs() < 1e-12);
    }
}
