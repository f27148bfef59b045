//! Branchless SoA scan kernels: the query-side hot paths.
//!
//! Every index in this reproduction funnels point, window and kNN queries
//! into scans over data pages, so leaf-scan cost dominates query latency —
//! exactly as "The Case for Learned Spatial Indexes" (Pandey et al.)
//! reports. This module is the query-side counterpart of the training
//! kernels in `elsi-ml`: pages store coordinates as structure-of-arrays
//! (`xs`/`ys`/`ids` slices, see [`crate::block`]) and the kernels below
//! walk them four lanes at a time with branch-free predicates, writing
//! results into caller-provided scratch — zero allocations per query.
//!
//! Three kernels cover the three query shapes:
//!
//! * [`range_scan_into`] — window predicate, compress-store of matches;
//! * [`contains_scan`] — exact coordinate lookup (point queries);
//! * [`knn_scan`] — dist²-accumulating bounded best-k (no square roots).
//!
//! All three carry `// lint:hot_path` markers, so `cargo run -p analysis`
//! proves the closure reachable from them allocation-free (see the
//! `alloc_hot_path` rule in `crates/analysis`). Callers own the buffers:
//! [`ScanScratch`] holds a reusable hit buffer and a bounded kNN candidate
//! pool ([`KnnHeap`]); sizing them (the only allocating step, amortised
//! across queries) happens outside the kernels.
//!
//! kNN results obey the canonical `(dist², id)` order of
//! [`crate::order::canonical_knn_cmp`]: ascending squared distance, ties
//! broken by `(id, x bits, y bits)`. Equal result sets are therefore
//! bit-identical vectors regardless of which index, shard layout or thread
//! count produced them.

use crate::order::radix_pass;
use crate::point::{Point, Rect};
use core::cmp::Ordering;

/// Number of lanes the kernels process per unrolled iteration.
const LANES: usize = 4;

/// Points per stripe of the two-phase window kernel: the predicate pass
/// evaluates this many lanes branch-free into one `u64` hit mask before
/// the compress pass stores the matches. Sorted pages keep one MBR per
/// stripe of ranks ([`crate::PageColumns::stripes`]).
pub const STRIPE: usize = 64;

/// Collects the points of `(xs, ys, ids)` inside `w` into `out`;
/// returns the number of matches written to `out[..m]`.
///
/// Two phases per 64-point stripe. The predicate pass is branch-free —
/// every lane evaluates the full window test (no short-circuit) and its
/// 0/1 outcome is OR-ed into a `u64` bit mask, a reduction the compiler
/// turns into packed compares plus a movemask. The compress pass then
/// iterates the *set bits only* (`trailing_zeros` + clear-lowest), so
/// both the predicate work and the three-word point stores are paid
/// exactly once per lane and once per hit respectively — misses cost no
/// branches and no stores. `out` must hold at least `xs.len()` slots (get
/// one from [`ScanScratch::hits_slot`] or size an output vector's tail;
/// matches past the end of an undersized `out` are dropped); empty and
/// single-point slices take the same path, they just fill one short
/// stripe.
// lint:hot_path
pub fn range_scan_into(xs: &[f64], ys: &[f64], ids: &[u64], w: &Rect, out: &mut [Point]) -> usize {
    let n = xs.len();
    debug_assert!(ys.len() == n && ids.len() == n && out.len() >= n);
    let mut m = 0usize;
    let mut base = 0usize;
    while base < n {
        let hi = if n - base > STRIPE { base + STRIPE } else { n };
        let (sx, sy, si) = soa_span(xs, ys, ids, base, hi);
        let mut bits: u64 = 0;
        for (j, (&x, &y)) in core::iter::zip(sx, sy).enumerate() {
            let hit = (x >= w.lo_x) & (x <= w.hi_x) & (y >= w.lo_y) & (y <= w.hi_y);
            bits |= (hit as u64) << j;
        }
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let (Some(&x), Some(&y), Some(&id)) = (sx.get(j), sy.get(j), si.get(j)) {
                if let Some(slot) = out.get_mut(m) {
                    *slot = Point { id, x, y };
                }
                m += 1;
            }
        }
        base = hi;
    }
    m
}

/// Position of the first point with exactly the coordinates `(x, y)`.
///
/// Four lanes of equality tests are OR-combined into one branch per
/// stripe, so the common miss case runs branch-free; slices of length 0
/// or 1 never enter the unrolled loop.
// lint:hot_path
pub fn contains_scan(xs: &[f64], ys: &[f64], x: f64, y: f64) -> Option<usize> {
    let n = xs.len();
    debug_assert!(ys.len() == n);
    let head = n - (n % LANES);
    let (xh, xt) = xs.split_at(head);
    let (yh, yt) = ys.split_at(head);
    let mut i = 0usize;
    for (cx, cy) in xh.chunks_exact(LANES).zip(yh.chunks_exact(LANES)) {
        if let (&[x0, x1, x2, x3], &[y0, y1, y2, y3]) = (cx, cy) {
            let m0 = (x0 == x) & (y0 == y);
            let m1 = (x1 == x) & (y1 == y);
            let m2 = (x2 == x) & (y2 == y);
            let m3 = (x3 == x) & (y3 == y);
            if m0 | m1 | m2 | m3 {
                let off = (!m0) as usize + (!m0 & !m1) as usize + (!m0 & !m1 & !m2) as usize;
                return Some(i + off);
            }
        }
        i += LANES;
    }
    for (&px, &py) in core::iter::zip(xt, yt) {
        if (px == x) & (py == y) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Gathers every point of `(xs, ys, ids)` that can still enter the best k
/// into the candidate pool, accumulating squared distances to `(qx, qy)` —
/// no square roots.
///
/// Two phases per 64-point stripe, mirroring [`range_scan_into`]: the
/// distance pass evaluates every lane branch-free against the pool's
/// admission bound, packing survivors into a `u64` bit mask; the compress
/// pass then stores the surviving lanes into the pool's free tail — one
/// store per survivor, no comparison and no sift. Ordering waits for the
/// pool to fill, when one selection keeps the best k and tightens the
/// bound (see [`KnnHeap`]). Pruned lanes — the vast majority in a
/// multi-block scan — cost a couple of packed ALU ops and no branches.
/// The pool must be sized first with [`KnnHeap::reset`] (reachable via
/// [`ScanScratch::heap_for`]); empty and single-point slices take the
/// same path through one short stripe.
// lint:hot_path
#[inline]
pub fn knn_scan(qx: f64, qy: f64, xs: &[f64], ys: &[f64], ids: &[u64], heap: &mut KnnHeap) {
    knn_scan_live(qx, qy, xs, ys, ids, heap, |_| true);
}

/// [`knn_scan`] over the entries whose id passes `live` (tombstoned
/// deletes fail it). The predicate runs in the compress pass only, on the
/// lanes that beat the admission bound, so a dead lane costs a probe only
/// when it would otherwise have entered the pool.
// lint:hot_path
// `!(d > bound)` is deliberate NaN handling (see the phase-1 comment), and
// clippy's suggested `partial_cmp` is banned workspace-wide (float_order).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn knn_scan_live(
    qx: f64,
    qy: f64,
    xs: &[f64],
    ys: &[f64],
    ids: &[u64],
    heap: &mut KnnHeap,
    live: impl Fn(u64) -> bool,
) {
    let n = xs.len();
    debug_assert!(ys.len() == n && ids.len() == n);
    let mut base = 0usize;
    while base < n {
        let hi = if n - base > STRIPE { base + STRIPE } else { n };
        let (sx, sy, si) = soa_span(xs, ys, ids, base, hi);
        // Phase 1, branch-free: a lane survives unless its distance is
        // strictly worse than the admission bound — never below the exact
        // k-th best, so the filter never over-prunes. The `!(d > bound)`
        // form also keeps NaN distances flowing to the canonical
        // comparator instead of silently dropping them. The reduction
        // compiles to packed compares plus a movemask — pruned lanes cost
        // no branch and no store.
        let bound = heap.make_room();
        let mut bits: u64 = 0;
        for (j, (&x, &y)) in core::iter::zip(sx, sy).enumerate() {
            let (dx, dy) = (x - qx, y - qy);
            let d = dx * dx + dy * dy;
            bits |= (!(d > bound) as u64) << j;
        }
        // Phase 2: compress-store the surviving live lanes into the free
        // tail, which `make_room` left a whole stripe long (arrival order
        // does not affect the result — selection is canonical).
        let tail = heap.entries.get_mut(heap.filled..).unwrap_or_default();
        let mut m = 0usize;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let (Some(&x), Some(&y), Some(&id), Some(slot)) =
                (sx.get(j), sy.get(j), si.get(j), tail.get_mut(m))
            {
                if !live(id) {
                    continue;
                }
                let (dx, dy) = (x - qx, y - qy);
                *slot = KnnEntry {
                    dist2: dx * dx + dy * dy,
                    id,
                    x,
                    y,
                };
                m += 1;
            }
        }
        heap.admitted(m);
        base = hi;
    }
}

/// A kNN candidate: squared distance plus the point it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnEntry {
    /// Squared distance to the query point.
    pub dist2: f64,
    /// Stable identifier of the candidate point.
    pub id: u64,
    /// First coordinate.
    pub x: f64,
    /// Second coordinate.
    pub y: f64,
}

impl KnnEntry {
    /// The candidate as a [`Point`] (drops the distance).
    #[inline]
    pub fn point(&self) -> Point {
        Point {
            id: self.id,
            x: self.x,
            y: self.y,
        }
    }
}

/// The filler of unused pool slots.
const ZERO: KnnEntry = KnnEntry {
    dist2: 0.0,
    id: 0,
    x: 0.0,
    y: 0.0,
};

/// The canonical kNN order on entries: ascending `dist²` (IEEE 754 total
/// order), ties broken by `(id, x bits, y bits)` — the entry-level twin of
/// [`crate::order::canonical_knn_cmp`].
#[inline]
fn ent_cmp(a: &KnnEntry, b: &KnnEntry) -> Ordering {
    a.dist2.total_cmp(&b.dist2).then_with(|| {
        (a.id, a.x.to_bits(), a.y.to_bits()).cmp(&(b.id, b.x.to_bits(), b.y.to_bits()))
    })
}

/// A bounded pool of kNN candidates; its best `k` in canonical kNN order
/// is the answer.
///
/// Candidates are *gathered*, not sifted: admitting one is a store into
/// the pool's free tail. The pool holds `2k` slots plus one 64-lane stripe,
/// sized by [`KnnHeap::reset`]. When fewer than a stripe's worth are free,
/// one `select_nth_unstable_by` on the canonical order keeps the best `k`
/// and lowers the admission bound to the k-th's distance. A selection
/// discards at least `k` candidates, so it costs amortised O(1) per
/// admitted one, and [`KnnHeap::finish`] sorts only the final `k` — where
/// a binary heap pays `O(log k)` comparisons and swaps on every admission.
///
/// The bound starts at the radius `r²` the pool was reset with (`∞` for a
/// plain kNN) and only falls. A candidate is admitted unless its distance
/// is strictly greater, so ties at the bound reach the canonical
/// comparator. Nothing here allocates after `reset`.
#[derive(Debug, Clone, Default)]
pub struct KnnHeap {
    /// `2k + STRIPE` slots; the candidates are `entries[..filled]`.
    entries: Vec<KnnEntry>,
    filled: usize,
    k: usize,
    /// Admission bound: `r²`, then the k-th best distance as of the last
    /// selection — never below the exact k-th best.
    bound: f64,
    /// `entries[..k]` are the canonical best `k`, the k-th last: true from
    /// a selection until the next admission.
    settled: bool,
    /// [`KnnHeap::finish`]'s buffers, kept for the next query: each kept
    /// entry's distance bucket, the bucket starts, and the answer.
    buckets: Vec<u32>,
    starts: Vec<u32>,
    sorted: Vec<KnnEntry>,
}

impl KnnHeap {
    /// Clears the pool and sizes it for the best `k` among candidates with
    /// `dist² ≤ r2` (`f64::INFINITY`: no radius). The only allocating step
    /// of the kNN scan path; amortised across queries when the pool is
    /// reused.
    pub fn reset(&mut self, k: usize, r2: f64) {
        self.entries
            .resize(k.saturating_mul(2).saturating_add(STRIPE), ZERO);
        self.filled = 0;
        self.k = k;
        self.bound = r2;
        self.settled = false;
    }

    /// Number of candidates held toward the answer: `min(admitted, k)`.
    #[inline]
    pub fn len(&self) -> usize {
        self.filled.min(self.k)
    }

    /// Whether no candidate is held toward the answer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` the pool was last [`KnnHeap::reset`] with.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Squared distance of the current k-th best candidate — selecting
    /// first if candidates arrived since the last selection — or the
    /// radius (`∞` for a plain kNN) while fewer than `k` were admitted.
    /// The search radius of seed-then-sweep and best-first traversals.
    pub fn worst_dist2(&mut self) -> f64 {
        if self.filled < self.k {
            return self.bound;
        }
        self.settle();
        let kth = self
            .k
            .checked_sub(1)
            .and_then(|last| self.entries.get(last));
        // k == 0: the best zero candidates reject everything.
        kth.map_or(f64::NEG_INFINITY, |kth| kth.dist2)
    }

    /// Admits a candidate unless it is strictly farther than the bound.
    /// Allocation-free.
    #[inline]
    pub fn offer(&mut self, e: KnnEntry) {
        if e.dist2 > self.bound {
            return;
        }
        if self.filled == self.entries.len() {
            self.settle();
        }
        if let Some(slot) = self.entries.get_mut(self.filled) {
            *slot = e;
            self.admitted(1);
        }
    }

    /// Offers the point `p` at its squared distance from `q` — the
    /// per-point door for candidates that are not in SoA columns (insert
    /// buffers, tombstone-filtered pages). `Point::dist2` rounds exactly
    /// like the [`knn_scan`] lanes, so both doors rank a point identically.
    #[inline]
    pub fn offer_point(&mut self, q: Point, p: Point) {
        self.offer(KnnEntry {
            dist2: q.dist2(&p),
            id: p.id,
            x: p.x,
            y: p.y,
        });
    }

    /// Leaves at least a stripe of free tail slots — selecting when fewer
    /// are free — and returns the admission bound for the next stripe.
    #[inline]
    fn make_room(&mut self) -> f64 {
        if self.entries.len().saturating_sub(self.filled) < STRIPE {
            self.settle();
        }
        self.bound
    }

    /// Counts `m` candidates just stored into the free tail.
    #[inline]
    fn admitted(&mut self, m: usize) {
        self.filled += m;
        self.settled &= m == 0;
    }

    /// Moves the canonical best `k` into `entries[..k]`, the k-th last,
    /// drops the rest and lowers the bound to the k-th's distance. A no-op
    /// while fewer than `k` candidates are held and when nothing arrived
    /// since the last selection.
    fn settle(&mut self) {
        let Some(last) = self.k.checked_sub(1) else {
            self.filled = 0;
            return;
        };
        if self.settled || self.filled <= last {
            return;
        }
        let held = self.entries.get_mut(..self.filled).unwrap_or_default();
        let (_, kth, _) = held.select_nth_unstable_by(last, ent_cmp);
        if kth.dist2 < self.bound {
            self.bound = kth.dist2;
        }
        self.filled = self.k;
        self.settled = true;
    }

    /// The best `k` candidates in ascending canonical order. Call once per
    /// query, after all scans.
    ///
    /// One selection keeps the best `kept ≤ k`; one counting pass then
    /// spreads them over `kept` buckets by distance — entry `e` into
    /// `min(⌊e.dist2 · kept / hi⌋, kept − 1)`, `hi` the largest kept
    /// distance — and each bucket of two or more is sorted canonically.
    /// The bucket never decreases as the distance grows (a multiply by a
    /// positive constant, truncation and `min` all keep order), so equal
    /// distances share a bucket and the buckets in turn are the canonical
    /// order. A NaN or negative distance, or a scale `kept / hi` that is
    /// not finite and positive (`hi` zero, infinite or subnormal), puts
    /// everything in one bucket: one canonical sort.
    pub fn finish(&mut self) -> &[KnnEntry] {
        self.settle();
        let kept = self.len();
        let held = self.entries.get_mut(..kept).unwrap_or_default();
        let (hi, ordinary) = held.iter().fold((0.0f64, true), |(hi, ok), e| {
            (hi.max(e.dist2), ok && e.dist2 >= 0.0)
        });
        let scale = kept as f64 / hi;
        if !(ordinary && scale.is_finite() && scale > 0.0) {
            held.sort_unstable_by(ent_cmp);
            return held;
        }
        let last = kept.saturating_sub(1);
        self.buckets.clear();
        // lint:allow(alloc_hot_path): a pooled buffer, grown to its high-water k once
        self.buckets.extend(
            held.iter()
                .map(|e| ((e.dist2 * scale) as usize).min(last) as u32),
        );
        self.starts.clear();
        self.starts.resize(kept, 0);
        self.sorted.resize(kept, ZERO);
        let buckets = &self.buckets;
        let sorted = self.sorted.as_mut_slice();
        radix_pass(held, sorted, &mut self.starts, |i, _| {
            buckets.get(i).map_or(usize::MAX, |&b| b as usize)
        });
        // `starts[b]` is now the end of bucket `b`.
        let mut lo = 0;
        for &end in &self.starts {
            let end = end as usize;
            if end > lo + 1 {
                if let Some(run) = sorted.get_mut(lo..end) {
                    run.sort_unstable_by(ent_cmp);
                }
            }
            lo = end;
        }
        sorted
    }
}

/// First *live* stored point with exactly the coordinates `(x, y)`:
/// repeated [`contains_scan`] probes that step past entries whose id fails
/// the `live` predicate (tombstoned deletes). The shared point-query tail
/// of every mapped-and-sorted index.
pub fn contains_scan_live(
    xs: &[f64],
    ys: &[f64],
    ids: &[u64],
    x: f64,
    y: f64,
    live: impl Fn(u64) -> bool,
) -> Option<Point> {
    let mut base = 0usize;
    loop {
        let (sx, sy, _) = soa_span(xs, ys, ids, base, xs.len());
        let i = contains_scan(sx, sy, x, y)?;
        let pos = base + i;
        if let (Some(&id), Some(&px), Some(&py)) = (ids.get(pos), xs.get(pos), ys.get(pos)) {
            if live(id) {
                return Some(Point { id, x: px, y: py });
            }
        }
        base = pos + 1;
    }
}

/// The `lo..hi` span of three parallel SoA arrays as kernel-ready slices.
/// Out-of-range or inverted spans yield empty slices instead of panicking,
/// so callers clamp once and slice freely.
#[inline]
pub fn soa_span<'a>(
    xs: &'a [f64],
    ys: &'a [f64],
    ids: &'a [u64],
    lo: usize,
    hi: usize,
) -> (&'a [f64], &'a [f64], &'a [u64]) {
    match (xs.get(lo..hi), ys.get(lo..hi), ids.get(lo..hi)) {
        (Some(sx), Some(sy), Some(si)) => (sx, sy, si),
        _ => (&[], &[], &[]),
    }
}

/// Appends the points of `(xs, ys, ids)` matching `w` to `out` by sizing
/// the tail of `out` and compress-storing through [`range_scan_into`].
/// The convenience wrapper indices use when no post-filtering is needed.
pub fn range_scan_append(xs: &[f64], ys: &[f64], ids: &[u64], w: &Rect, out: &mut Vec<Point>) {
    let base = out.len();
    out.resize(
        base + xs.len(),
        Point {
            id: 0,
            x: 0.0,
            y: 0.0,
        },
    );
    let (_, tail) = out.split_at_mut(base);
    let m = range_scan_into(xs, ys, ids, w, tail);
    out.truncate(base + m);
}

/// Appends every point of `(xs, ys, ids)` to `out` — the fast path when a
/// window fully contains a block's MBR.
pub fn append_all(xs: &[f64], ys: &[f64], ids: &[u64], out: &mut Vec<Point>) {
    out.extend(
        ids.iter()
            .zip(xs)
            .zip(ys)
            .map(|((&id, &x), &y)| Point { id, x, y }),
    );
}

/// Reusable per-query buffers: a hit buffer for staged range scans, a
/// bounded candidate pool for kNN scans, the two buffers of a merge layer
/// — a staging run of points and a visit order over its sub-indices — and
/// a run of index ranges an index collects before it reads them.
///
/// Lifecycle: construct once (or once per worker thread), then thread
/// through `window_query_into` / `knn_query_into` calls. The buffers grow
/// to the high-water mark of the queries they serve and are never shrunk,
/// so steady-state queries perform no allocations.
#[derive(Debug, Clone, Default)]
pub struct ScanScratch {
    hits: Vec<Point>,
    heap: KnnHeap,
    stage: Vec<Point>,
    order: Vec<(f64, usize)>,
    runs: Vec<(usize, usize)>,
}

impl ScanScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// A hit slot of at least `n` points for [`range_scan_into`]; read the
    /// matches back through [`ScanScratch::hits`].
    pub fn hits_slot(&mut self, n: usize) -> &mut [Point] {
        if self.hits.len() < n {
            self.hits.resize(
                n,
                Point {
                    id: 0,
                    x: 0.0,
                    y: 0.0,
                },
            );
        }
        let (slot, _) = self.hits.split_at_mut(n);
        slot
    }

    /// The hit buffer (valid up to the count the last kernel returned).
    #[inline]
    pub fn hits(&self) -> &[Point] {
        &self.hits
    }

    /// The first `m` hits — the matches a kernel reported. `m` past the
    /// buffer's end yields the whole buffer instead of panicking.
    #[inline]
    pub fn hits_upto(&self, m: usize) -> &[Point] {
        match self.hits.get(..m) {
            Some(h) => h,
            None => &self.hits,
        }
    }

    /// The kNN candidate pool, cleared and sized for `k` results.
    pub fn heap_for(&mut self, k: usize) -> &mut KnnHeap {
        self.heap_within(k, f64::INFINITY)
    }

    /// The kNN candidate pool, cleared and sized for the best `k` with
    /// `dist² ≤ r2`.
    pub fn heap_within(&mut self, k: usize, r2: f64) -> &mut KnnHeap {
        self.heap.reset(k, r2);
        &mut self.heap
    }

    /// The kNN pool as last sized; use to keep accumulating across blocks.
    #[inline]
    pub fn heap(&mut self) -> &mut KnnHeap {
        &mut self.heap
    }

    /// Moves the staging buffer out of the scratch. Merge layers that fan a
    /// query out over sub-indices need a second reusable buffer alongside
    /// the scratch itself (which the sub-indices borrow during their scans);
    /// taking it sidesteps the double-borrow while keeping its capacity
    /// pooled across queries. Pair with [`ScanScratch::stage_put`].
    #[inline]
    pub fn stage_take(&mut self) -> Vec<Point> {
        std::mem::take(&mut self.stage)
    }

    /// Returns a buffer taken with [`ScanScratch::stage_take`] so its
    /// capacity is reused by the next query.
    #[inline]
    pub fn stage_put(&mut self, buf: Vec<Point>) {
        self.stage = buf;
    }

    /// Moves the visit-order buffer out of the scratch: `(distance,
    /// sub-index)` pairs a merge layer sorts to visit its sub-indices
    /// nearest first, while they borrow the scratch. Pair with
    /// [`ScanScratch::order_put`].
    #[inline]
    pub fn order_take(&mut self) -> Vec<(f64, usize)> {
        std::mem::take(&mut self.order)
    }

    /// Returns a buffer taken with [`ScanScratch::order_take`] so its
    /// capacity is reused by the next query.
    #[inline]
    pub fn order_put(&mut self, buf: Vec<(f64, usize)>) {
        self.order = buf;
    }

    /// Moves the run buffer out, `n` entries long, like
    /// [`ScanScratch::order_take`]: ranges an index collects (LISA's
    /// candidate shards) and reads while the kernels borrow the scratch.
    pub fn runs_take(&mut self, n: usize) -> Vec<(usize, usize)> {
        let mut runs = std::mem::take(&mut self.runs);
        runs.resize(n, (0, 0));
        runs
    }

    /// Returns a buffer taken with [`ScanScratch::runs_take`].
    pub fn runs_put(&mut self, buf: Vec<(usize, usize)>) {
        self.runs = buf;
    }
}

/// Scalar reference of [`range_scan_into`]: the pre-SoA AoS filter loop.
/// Kept as the proptest oracle and the criterion baseline.
pub fn range_scan_scalar(xs: &[f64], ys: &[f64], ids: &[u64], w: &Rect, out: &mut Vec<Point>) {
    for ((&x, &y), &id) in core::iter::zip(core::iter::zip(xs, ys), ids) {
        let p = Point { id, x, y };
        if w.contains(&p) {
            out.push(p);
        }
    }
}

/// Scalar reference of [`contains_scan`]: short-circuit find loop.
pub fn contains_scan_scalar(xs: &[f64], ys: &[f64], x: f64, y: f64) -> Option<usize> {
    core::iter::zip(xs, ys).position(|(&px, &py)| px == x && py == y)
}

/// Scalar reference of [`knn_scan`]: computes every distance, sorts the
/// full candidate set canonically and truncates to `k`. The proptest
/// oracle and the criterion baseline.
pub fn knn_scan_scalar(
    qx: f64,
    qy: f64,
    xs: &[f64],
    ys: &[f64],
    ids: &[u64],
    k: usize,
    out: &mut Vec<KnnEntry>,
) {
    for ((&x, &y), &id) in core::iter::zip(core::iter::zip(xs, ys), ids) {
        let (dx, dy) = (x - qx, y - qy);
        out.push(KnnEntry {
            dist2: dx * dx + dy * dy,
            id,
            x,
            y,
        });
    }
    out.sort_unstable_by(ent_cmp);
    out.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soa(n: usize) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
        // Deterministic scattered coordinates in the unit square.
        let xs: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 / 101.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 53) % 97) as f64 / 97.0).collect();
        let ids: Vec<u64> = (0..n as u64).collect();
        (xs, ys, ids)
    }

    const EDGE_LENS: [usize; 6] = [0, 1, 2, 3, 5, 100];

    #[test]
    fn range_scan_matches_scalar_at_edge_lengths() {
        let w = Rect::new(0.2, 0.1, 0.7, 0.8);
        for n in EDGE_LENS {
            let (xs, ys, ids) = soa(n);
            let mut slot = vec![Point::at(0.0, 0.0); n];
            let m = range_scan_into(&xs, &ys, &ids, &w, &mut slot);
            let mut want = Vec::new();
            range_scan_scalar(&xs, &ys, &ids, &w, &mut want);
            assert_eq!(&slot[..m], &want[..], "len {n}");
        }
    }

    #[test]
    fn contains_scan_matches_scalar_at_edge_lengths() {
        for n in EDGE_LENS {
            let (xs, ys, _) = soa(n);
            // Probe every stored position plus a guaranteed miss.
            for i in 0..n {
                assert_eq!(
                    contains_scan(&xs, &ys, xs[i], ys[i]),
                    contains_scan_scalar(&xs, &ys, xs[i], ys[i]),
                    "len {n} probe {i}"
                );
            }
            assert_eq!(contains_scan(&xs, &ys, 2.0, 2.0), None, "len {n} miss");
        }
    }

    #[test]
    fn contains_scan_returns_first_match_within_a_stripe() {
        // Duplicates inside one 4-lane stripe: position matters.
        let xs = [0.5, 0.5, 0.5, 0.5, 0.1];
        let ys = [0.5, 0.5, 0.5, 0.5, 0.1];
        assert_eq!(contains_scan(&xs, &ys, 0.5, 0.5), Some(0));
        let xs = [0.1, 0.5, 0.5, 0.2, 0.1];
        assert_eq!(contains_scan(&xs, &ys[..5], 0.5, 0.5), Some(1));
        let xs = [0.1, 0.2, 0.3, 0.5, 0.1];
        assert_eq!(contains_scan(&xs, &ys[..5], 0.5, 0.5), Some(3));
    }

    /// The scalar reference under a radius: every candidate, canonically
    /// sorted, those with `dist² ≤ r2` — NaN distances are never greater —
    /// the first `k`.
    fn scalar_within(xs: &[f64], ys: &[f64], ids: &[u64], k: usize, r2: f64) -> Vec<KnnEntry> {
        let mut all = Vec::new();
        knn_scan_scalar(0.4, 0.6, xs, ys, ids, xs.len(), &mut all);
        all.retain(|e| e.dist2 <= r2 || e.dist2.is_nan());
        all.truncate(k);
        all
    }

    #[test]
    fn knn_scan_matches_scalar_at_edge_lengths() {
        // The lattice distances of `soa` tie, and 0.0961 is one of them.
        for n in EDGE_LENS {
            let (xs, ys, ids) = soa(n);
            for k in [0usize, 1, 3, 10] {
                for r2 in [f64::INFINITY, 0.0, 0.0961, 0.05] {
                    let mut heap = KnnHeap::default();
                    heap.reset(k, r2);
                    knn_scan(0.4, 0.6, &xs, &ys, &ids, &mut heap);
                    let want = scalar_within(&xs, &ys, &ids, k, r2);
                    assert_eq!(heap.finish(), &want[..], "len {n} k {k} r2 {r2}");
                }
            }
        }
    }

    #[test]
    fn the_pool_selects_across_stripes_blocks_and_doors() {
        // 5 000 points in 40-point blocks, a tenth of them snapped onto a
        // coarse lattice (ties) and two with NaN coordinates; every third
        // block arrives through the per-point door instead of the kernel.
        let n = 5_000;
        let coord = |i: usize, m: usize| match i % 10 {
            0 => ((i * m) % 7) as f64 / 8.0,
            _ => ((i * m) % 4999) as f64 / 4999.0,
        };
        let mut xs: Vec<f64> = (0..n).map(|i| coord(i, 37)).collect();
        let ys: Vec<f64> = (0..n).map(|i| coord(i, 53)).collect();
        let ids: Vec<u64> = (0..n as u64).map(|i| i % 1_700).collect();
        xs[17] = f64::NAN;
        xs[4_000] = f64::NAN;
        for k in [1usize, 63, 64, 65, 1_000, n - 1, n, n + 3] {
            for r2 in [f64::INFINITY, 0.02] {
                let mut heap = KnnHeap::default();
                heap.reset(k, r2);
                for (b, lo) in (0..n).step_by(40).enumerate() {
                    let (bx, by, bi) = soa_span(&xs, &ys, &ids, lo, lo + 40);
                    if b % 3 == 0 {
                        for ((&x, &y), &id) in bx.iter().zip(by).zip(bi) {
                            heap.offer_point(Point::at(0.4, 0.6), Point { id, x, y });
                        }
                    } else {
                        knn_scan(0.4, 0.6, bx, by, bi, &mut heap);
                    }
                }
                // NaN entries compare unequal to themselves: compare bits.
                let bits = |es: &[KnnEntry]| -> Vec<(u64, u64, u64, u64)> {
                    let b = |e: &KnnEntry| (e.dist2.to_bits(), e.id, e.x.to_bits(), e.y.to_bits());
                    es.iter().map(b).collect()
                };
                let want = scalar_within(&xs, &ys, &ids, k, r2);
                assert_eq!(bits(heap.finish()), bits(&want), "k {k} r2 {r2}");
            }
        }
    }

    #[test]
    fn knn_ties_break_canonically_by_id() {
        // Four points at identical distance from the origin query.
        let xs = [1.0, 0.0, -1.0, 0.0];
        let ys = [0.0, 1.0, 0.0, -1.0];
        let ids = [7u64, 3, 9, 1];
        let mut heap = KnnHeap::default();
        heap.reset(2, f64::INFINITY);
        knn_scan(0.0, 0.0, &xs, &ys, &ids, &mut heap);
        let got: Vec<u64> = heap.finish().iter().map(|e| e.id).collect();
        assert_eq!(got, vec![1, 3], "smallest ids win distance ties");
    }

    #[test]
    fn knn_heap_worst_dist2_tracks_admission_bound() {
        let mut heap = KnnHeap::default();
        heap.reset(2, f64::INFINITY);
        assert_eq!(heap.worst_dist2(), f64::INFINITY);
        heap.offer(KnnEntry {
            dist2: 4.0,
            id: 0,
            x: 2.0,
            y: 0.0,
        });
        assert_eq!(heap.worst_dist2(), f64::INFINITY, "not full yet");
        heap.offer(KnnEntry {
            dist2: 1.0,
            id: 1,
            x: 1.0,
            y: 0.0,
        });
        assert_eq!(heap.worst_dist2(), 4.0);
        heap.offer(KnnEntry {
            dist2: 2.0,
            id: 2,
            x: 0.0,
            y: 2.0f64.sqrt(),
        });
        assert_eq!(heap.worst_dist2(), 2.0, "worse entry evicted");
        assert_eq!(heap.len(), 2);
        assert!(!heap.is_empty());
        assert_eq!(heap.k(), 2);

        // Under a radius the bound starts there, and ties at it are kept.
        heap.reset(2, 1.0);
        assert_eq!(heap.worst_dist2(), 1.0, "the radius until k are held");
        for (dist2, id) in [(4.0, 0), (1.0, 1), (0.25, 2), (1.0, 3)] {
            heap.offer(KnnEntry {
                dist2,
                id,
                x: dist2.sqrt(),
                y: 0.0,
            });
        }
        assert_eq!(heap.worst_dist2(), 1.0);
        let ids: Vec<u64> = heap.finish().iter().map(|e| e.id).collect();
        assert_eq!(ids, [2, 1], "4.0 refused, the tie settled by id");
    }

    #[test]
    fn range_scan_append_sizes_and_truncates() {
        let (xs, ys, ids) = soa(100);
        let w = Rect::new(0.0, 0.0, 0.5, 0.5);
        let mut out = vec![Point::new(999, 0.9, 0.9)];
        range_scan_append(&xs, &ys, &ids, &w, &mut out);
        assert_eq!(out[0].id, 999, "existing content preserved");
        let mut want = Vec::new();
        range_scan_scalar(&xs, &ys, &ids, &w, &mut want);
        assert_eq!(&out[1..], &want[..]);
    }

    #[test]
    fn append_all_reconstructs_points() {
        let (xs, ys, ids) = soa(7);
        let mut out = Vec::new();
        append_all(&xs, &ys, &ids, &mut out);
        assert_eq!(out.len(), 7);
        for (i, p) in out.iter().enumerate() {
            assert_eq!(p.id, ids[i]);
            assert_eq!(p.x, xs[i]);
            assert_eq!(p.y, ys[i]);
        }
    }

    #[test]
    fn scratch_buffers_are_reusable() {
        let mut scratch = ScanScratch::new();
        let (xs, ys, ids) = soa(50);
        let w = Rect::new(0.1, 0.1, 0.9, 0.9);
        let m1 = range_scan_into(&xs, &ys, &ids, &w, scratch.hits_slot(50));
        assert!(m1 > 0);
        let narrow = Rect::new(2.0, 2.0, 3.0, 3.0);
        let m2 = range_scan_into(&xs, &ys, &ids, &narrow, scratch.hits_slot(50));
        assert_eq!(m2, 0);
        let heap = scratch.heap_for(3);
        knn_scan(0.5, 0.5, &xs, &ys, &ids, heap);
        assert_eq!(scratch.heap().finish().len(), 3);
    }
}
