//! Block (data page) storage — structure-of-arrays layout.
//!
//! The paper stores points in blocks of `B = 100` (§VII-B1). Grid keeps an
//! array of block MBRs per cell, LISA keeps pages per shard, and ML-Index
//! uses extra pages for inserted points. Since the scan-kernel rework the
//! substrate is structure-of-arrays: coordinates and ids live in parallel
//! `xs`/`ys`/`ids` arrays so the branchless kernels in [`crate::scan`] can
//! stream them four lanes at a time without pointer chasing.
//!
//! Two granularities share the layout:
//!
//! * [`Block`] — one page owning its three arrays; what tree-shaped
//!   indices (Grid cells, KDB and R-tree leaves) embed directly.
//! * [`BlockStore`] — an ordered sequence of pages over *one shared* set
//!   of arrays with a per-block offset table and maintained MBRs; what
//!   the shard-shaped indices (LISA) use. Block `b` spans
//!   `offsets[b] .. offsets[b + 1]`.
//!
//! AoS compatibility shims ([`Block::from_points`], [`Block::to_points`],
//! [`BlockStore::bulk_load`], the `Point`-yielding iterators) keep
//! bulk-load, insert and delete code working on `Vec<Point>` at the edges;
//! only the scan paths require the SoA view.

use crate::point::{Point, Rect};
use crate::scan;

/// Default block size used across the experiments (paper §VII-B1).
pub const DEFAULT_BLOCK_SIZE: usize = 100;

/// A fixed-capacity data page with a maintained MBR, stored as three
/// parallel arrays (structure-of-arrays).
#[derive(Debug, Clone)]
pub struct Block {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u64>,
    mbr: Rect,
}

impl Block {
    /// An empty block.
    pub fn new() -> Self {
        Self {
            xs: Vec::new(),
            ys: Vec::new(),
            ids: Vec::new(),
            mbr: Rect::empty(),
        }
    }

    /// Builds a block from AoS points (computes the MBR) — the
    /// compatibility constructor bulk-load paths use.
    pub fn from_points(points: Vec<Point>) -> Self {
        let mbr = Rect::mbr_of(&points);
        let mut xs = Vec::with_capacity(points.len());
        let mut ys = Vec::with_capacity(points.len());
        let mut ids = Vec::with_capacity(points.len());
        for p in &points {
            xs.push(p.x);
            ys.push(p.y);
            ids.push(p.id);
        }
        Self { xs, ys, ids, mbr }
    }

    /// The x coordinates, one per stored point.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y coordinates, one per stored point.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The point ids, one per stored point.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The `i`-th stored point, reassembled from the three arrays.
    /// Out-of-range positions yield a NaN-coordinate sentinel.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        debug_assert!(i < self.len());
        match (self.ids.get(i), self.xs.get(i), self.ys.get(i)) {
            (Some(&id), Some(&x), Some(&y)) => Point { id, x, y },
            _ => Point {
                id: u64::MAX,
                x: f64::NAN,
                y: f64::NAN,
            },
        }
    }

    /// Iterates the stored points in order (reassembled).
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.ids
            .iter()
            .zip(&self.xs)
            .zip(&self.ys)
            .map(|((&id, &x), &y)| Point { id, x, y })
    }

    /// Materialises the block as AoS points — the compatibility accessor
    /// for split/rebuild code that sorts whole pages.
    pub fn to_points(&self) -> Vec<Point> {
        self.iter().collect()
    }

    /// Number of points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The minimum bounding rectangle of the block's points.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Adds a point, growing the MBR.
    pub fn push(&mut self, p: Point) {
        self.mbr.expand(&p);
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.ids.push(p.id);
    }

    /// Removes the point matching `p` exactly (id *and* coordinates) —
    /// the delete contract of the spatial indices. Returns whether it was
    /// found.
    pub fn remove_exact(&mut self, p: &Point) -> bool {
        let pos = core::iter::zip(core::iter::zip(&self.ids, &self.xs), &self.ys)
            .position(|((&id, &x), &y)| id == p.id && x == p.x && y == p.y);
        if let Some(pos) = pos {
            self.remove_at(pos);
            true
        } else {
            false
        }
    }

    fn remove_at(&mut self, pos: usize) {
        let (x, y) = match (self.xs.get(pos), self.ys.get(pos)) {
            (Some(&x), Some(&y)) => (x, y),
            _ => return,
        };
        self.xs.swap_remove(pos);
        self.ys.swap_remove(pos);
        self.ids.swap_remove(pos);
        // A point strictly inside the MBR cannot define any of its four
        // edges, so the MBR is unchanged; only boundary points pay the
        // O(n) recompute.
        if !self.mbr.strictly_inside(x, y) {
            self.mbr = mbr_of_soa(&self.xs, &self.ys);
        }
    }

    /// Finds a stored point with exactly the coordinates `(x, y)` via the
    /// branchless [`scan::contains_scan`] kernel.
    #[inline]
    pub fn find_exact(&self, x: f64, y: f64) -> Option<Point> {
        scan::contains_scan(&self.xs, &self.ys, x, y).map(|i| self.point(i))
    }

    /// Appends the block's points inside `w` to `out`: MBR prune, whole
    ///-block append when `w` covers the MBR, branchless
    /// [`scan::range_scan_into`] otherwise.
    pub fn window_scan_into(&self, w: &Rect, out: &mut Vec<Point>) {
        if self.is_empty() || !w.intersects(&self.mbr) {
            return;
        }
        if w.contains_rect(&self.mbr) {
            scan::append_all(&self.xs, &self.ys, &self.ids, out);
        } else {
            scan::range_scan_append(&self.xs, &self.ys, &self.ids, w, out);
        }
    }

    /// Offers every stored point to the bounded best-k heap via
    /// [`scan::knn_scan`].
    #[inline]
    pub fn knn_into(&self, qx: f64, qy: f64, heap: &mut scan::KnnHeap) {
        scan::knn_scan(qx, qy, &self.xs, &self.ys, &self.ids, heap);
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// MBR over parallel coordinate arrays.
fn mbr_of_soa(xs: &[f64], ys: &[f64]) -> Rect {
    let mut r = Rect::empty();
    for (&x, &y) in core::iter::zip(xs, ys) {
        r.expand(&Point { id: 0, x, y });
    }
    r
}

/// A borrowed view of one block of a [`BlockStore`]: the three SoA slices
/// plus the maintained MBR, ready to feed the [`crate::scan`] kernels.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    /// x coordinates of the block's points.
    pub xs: &'a [f64],
    /// y coordinates of the block's points.
    pub ys: &'a [f64],
    /// ids of the block's points.
    pub ids: &'a [u64],
    /// The block's maintained MBR.
    pub mbr: Rect,
}

impl BlockView<'_> {
    /// Number of points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `i`-th point of the block (reassembled). Out-of-range positions
    /// yield a NaN-coordinate sentinel.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        debug_assert!(i < self.len());
        match (self.ids.get(i), self.xs.get(i), self.ys.get(i)) {
            (Some(&id), Some(&x), Some(&y)) => Point { id, x, y },
            _ => Point {
                id: u64::MAX,
                x: f64::NAN,
                y: f64::NAN,
            },
        }
    }
}

/// An ordered sequence of fixed-capacity pages over one shared set of
/// structure-of-arrays buffers.
///
/// Block `b` spans `offsets[b] .. offsets[b + 1]` of `xs`/`ys`/`ids`;
/// `mbrs[b]` is its maintained MBR. The layout keeps all pages of a shard
/// contiguous, so multi-block scans stream linearly through memory.
#[derive(Debug, Clone)]
pub struct BlockStore {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u64>,
    /// `num_blocks() + 1` monotone offsets into the point arrays.
    offsets: Vec<usize>,
    /// Maintained MBR per block.
    mbrs: Vec<Rect>,
    capacity: usize,
}

impl BlockStore {
    /// An empty store with the given block capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "block capacity must be positive");
        Self {
            xs: Vec::new(),
            ys: Vec::new(),
            ids: Vec::new(),
            offsets: vec![0],
            mbrs: Vec::new(),
            capacity,
        }
    }

    /// Bulk loads points in their given order, `capacity` per block.
    pub fn bulk_load(points: &[Point], capacity: usize) -> Self {
        assert!(capacity > 0, "block capacity must be positive");
        let n = points.len();
        let mut s = Self {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            offsets: Vec::with_capacity(n / capacity + 2),
            mbrs: Vec::with_capacity(n / capacity + 1),
            capacity,
        };
        s.offsets.push(0);
        for chunk in points.chunks(capacity) {
            for p in chunk {
                s.xs.push(p.x);
                s.ys.push(p.y);
                s.ids.push(p.id);
            }
            s.offsets.push(s.xs.len());
            s.mbrs.push(Rect::mbr_of(chunk));
        }
        s
    }

    /// The shared x-coordinate column (all blocks, in block order).
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The shared y-coordinate column (all blocks, in block order).
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The shared id column (all blocks, in block order).
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The maintained MBR of each block.
    #[inline]
    pub fn mbrs(&self) -> &[Rect] {
        &self.mbrs
    }

    /// Total number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.mbrs.len()
    }

    /// The `offsets[b] .. offsets[b + 1]` span of block `b`; `(0, 0)` for
    /// out-of-range blocks.
    #[inline]
    fn block_span(&self, b: usize) -> (usize, usize) {
        match (self.offsets.get(b), self.offsets.get(b + 1)) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0, 0),
        }
    }

    /// The SoA view of block `b` (empty for out-of-range blocks).
    #[inline]
    pub fn view(&self, b: usize) -> BlockView<'_> {
        let (lo, hi) = self.block_span(b);
        let (xs, ys, ids) = scan::soa_span(&self.xs, &self.ys, &self.ids, lo, hi);
        let mbr = match self.mbrs.get(b) {
            Some(&m) => m,
            None => Rect::empty(),
        };
        BlockView { xs, ys, ids, mbr }
    }

    /// Iterates the blocks as SoA views, in order.
    pub fn views(&self) -> impl Iterator<Item = BlockView<'_>> {
        (0..self.num_blocks()).map(|b| self.view(b))
    }

    /// Appends a point to block `idx`, splitting the block in half (by the
    /// given key function order) when it would exceed capacity. Returns the
    /// number of blocks added (0 or 1).
    pub fn insert_into(&mut self, idx: usize, p: Point, key: impl Fn(&Point) -> f64) -> usize {
        if self.mbrs.is_empty() {
            self.offsets.push(0);
            self.mbrs.push(Rect::empty());
        }
        let idx = idx.min(self.num_blocks() - 1);
        let (_, at) = self.block_span(idx);
        self.xs.insert(at, p.x);
        self.ys.insert(at, p.y);
        self.ids.insert(at, p.id);
        for off in self.offsets.iter_mut().skip(idx + 1) {
            *off += 1;
        }
        if let Some(m) = self.mbrs.get_mut(idx) {
            m.expand(&p);
        }
        let (lo, hi) = self.block_span(idx);
        if hi - lo <= self.capacity {
            return 0;
        }
        // Overflow: rewrite the block in key order and cut it in half.
        let (bx, by, bi) = scan::soa_span(&self.xs, &self.ys, &self.ids, lo, hi);
        let mut pts: Vec<Point> = bi
            .iter()
            .zip(bx)
            .zip(by)
            .map(|((&id, &x), &y)| Point { id, x, y })
            .collect();
        pts.sort_by(|a, b| key(a).total_cmp(&key(b)));
        if let (Some(wx), Some(wy), Some(wi)) = (
            self.xs.get_mut(lo..hi),
            self.ys.get_mut(lo..hi),
            self.ids.get_mut(lo..hi),
        ) {
            for (((x, y), id), sp) in wx
                .iter_mut()
                .zip(wy.iter_mut())
                .zip(wi.iter_mut())
                .zip(&pts)
            {
                *x = sp.x;
                *y = sp.y;
                *id = sp.id;
            }
        }
        let half = pts.len() / 2;
        self.offsets.insert(idx + 1, lo + half);
        let (left, right) = pts.split_at(half);
        if let Some(m) = self.mbrs.get_mut(idx) {
            *m = Rect::mbr_of(left);
        }
        self.mbrs.insert(idx + 1, Rect::mbr_of(right));
        1
    }

    /// Removes the stored point matching `p` exactly (id *and* coordinates
    /// — the delete contract of the spatial indices) from block `idx` or
    /// its `slack` neighbours either side, to tolerate split-shifted ranks.
    /// Returns whether it was found.
    pub fn remove_point_near(&mut self, idx: usize, p: &Point, slack: usize) -> bool {
        if self.mbrs.is_empty() {
            return false;
        }
        let idx = idx.min(self.num_blocks() - 1);
        let lo = idx.saturating_sub(slack);
        let hi = (idx + slack + 1).min(self.num_blocks());
        for b in lo..hi {
            let (blo, bhi) = self.block_span(b);
            let (bx, by, bi) = scan::soa_span(&self.xs, &self.ys, &self.ids, blo, bhi);
            let hit = core::iter::zip(core::iter::zip(bi, bx), by)
                .position(|((&id, &x), &y)| id == p.id && x == p.x && y == p.y);
            if let Some(i) = hit {
                self.remove_pos(b, blo + i);
                return true;
            }
        }
        false
    }

    /// Removes the point at global position `pos` inside block `b`,
    /// shifting the arrays and fixing the offset table and the block MBR.
    fn remove_pos(&mut self, b: usize, pos: usize) {
        let (x, y) = match (self.xs.get(pos), self.ys.get(pos)) {
            (Some(&x), Some(&y)) => (x, y),
            _ => return,
        };
        self.xs.remove(pos);
        self.ys.remove(pos);
        self.ids.remove(pos);
        for off in self.offsets.iter_mut().skip(b + 1) {
            *off -= 1;
        }
        // Same interior fast path as `Block::remove_exact`: an interior point
        // cannot define an MBR edge.
        let stale = match self.mbrs.get(b) {
            Some(m) => !m.strictly_inside(x, y),
            None => false,
        };
        if stale {
            let (lo, hi) = self.block_span(b);
            let (bx, by, _) = scan::soa_span(&self.xs, &self.ys, &self.ids, lo, hi);
            if let Some(m) = self.mbrs.get_mut(b) {
                *m = mbr_of_soa(bx, by);
            }
        }
    }

    /// Iterates over all points (block order, reassembled).
    pub fn iter_points(&self) -> impl Iterator<Item = Point> + '_ {
        self.ids
            .iter()
            .zip(&self.xs)
            .zip(&self.ys)
            .map(|((&id, &x), &y)| Point { id, x, y })
    }

    /// Collects points inside `window`, pruning whole blocks by MBR and
    /// scanning the survivors with the branchless kernels.
    pub fn window_scan(&self, window: &Rect, out: &mut Vec<Point>) {
        for v in self.views() {
            if v.is_empty() || !window.intersects(&v.mbr) {
                continue;
            }
            if window.contains_rect(&v.mbr) {
                scan::append_all(v.xs, v.ys, v.ids, out);
            } else {
                scan::range_scan_append(v.xs, v.ys, v.ids, window, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as u64, i as f64 / n as f64, 0.5))
            .collect()
    }

    #[test]
    fn bulk_load_chunks() {
        let s = BlockStore::bulk_load(&pts(250), 100);
        assert_eq!(s.num_blocks(), 3);
        assert_eq!(s.len(), 250);
        assert_eq!(s.view(0).len(), 100);
        assert_eq!(s.view(2).len(), 50);
    }

    #[test]
    fn block_mbr_tracks_points() {
        let mut b = Block::new();
        assert!(b.mbr().is_empty());
        b.push(Point::new(1, 0.25, 0.25));
        b.push(Point::new(2, 0.75, 0.5));
        assert_eq!(b.mbr(), Rect::new(0.25, 0.25, 0.75, 0.5));
        assert!(b.remove_exact(&Point::new(1, 0.25, 0.25)));
        assert_eq!(b.mbr(), Rect::new(0.75, 0.5, 0.75, 0.5));
        assert!(!b.remove_exact(&Point::new(42, 0.75, 0.5)));
    }

    #[test]
    fn interior_remove_skips_mbr_recompute() {
        // Corner points pin the MBR; id 5 sits strictly inside it.
        let mut b = Block::from_points(vec![
            Point::new(1, 0.0, 0.0),
            Point::new(2, 1.0, 0.0),
            Point::new(3, 1.0, 1.0),
            Point::new(4, 0.0, 1.0),
            Point::new(5, 0.5, 0.5),
        ]);
        let before = b.mbr();
        assert!(b.remove_exact(&Point::new(5, 0.5, 0.5)));
        assert_eq!(b.mbr(), before, "interior removal leaves the MBR alone");
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn boundary_remove_recomputes_mbr() {
        let mut b = Block::from_points(vec![
            Point::new(1, 0.0, 0.5),
            Point::new(2, 1.0, 0.5),
            Point::new(3, 0.5, 0.5),
        ]);
        assert!(
            b.remove_exact(&Point::new(2, 1.0, 0.5)),
            "boundary point (defines hi_x)"
        );
        assert_eq!(b.mbr(), Rect::new(0.0, 0.5, 0.5, 0.5), "MBR shrank");
        // A point on an edge but not a corner still triggers recompute.
        let mut c = Block::from_points(vec![
            Point::new(1, 0.0, 0.0),
            Point::new(2, 1.0, 1.0),
            Point::new(3, 0.0, 0.5),
        ]);
        let before = c.mbr();
        assert!(c.remove_exact(&Point::new(3, 0.0, 0.5)));
        assert_eq!(c.mbr(), before, "recompute reproduces the same MBR");
    }

    #[test]
    fn store_interior_remove_skips_mbr_recompute() {
        let corner_and_center = [
            Point::new(1, 0.0, 0.0),
            Point::new(2, 1.0, 1.0),
            Point::new(3, 0.5, 0.5),
        ];
        let mut s = BlockStore::bulk_load(&corner_and_center, 10);
        let before = s.view(0).mbr;
        assert!(
            s.remove_point_near(0, &corner_and_center[2], 0),
            "interior point"
        );
        assert_eq!(s.view(0).mbr, before);
        assert!(
            s.remove_point_near(0, &corner_and_center[1], 0),
            "boundary point"
        );
        assert_eq!(s.view(0).mbr, Rect::new(0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn block_remove_exact_requires_coordinates() {
        let mut b = Block::from_points(vec![Point::new(1, 0.3, 0.4), Point::new(2, 0.6, 0.7)]);
        assert!(
            !b.remove_exact(&Point::new(1, 0.6, 0.7)),
            "id/coord mismatch"
        );
        assert!(b.remove_exact(&Point::new(1, 0.3, 0.4)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn block_find_exact_uses_kernel() {
        let b = Block::from_points(pts(10));
        let p = b.point(7);
        assert_eq!(b.find_exact(p.x, p.y), Some(p));
        assert_eq!(b.find_exact(2.0, 2.0), None);
        assert_eq!(Block::new().find_exact(0.5, 0.5), None);
    }

    #[test]
    fn block_window_scan_into_matches_filter() {
        let b = Block::from_points(pts(100));
        let w = Rect::new(0.2, 0.0, 0.6, 1.0);
        let mut got = Vec::new();
        b.window_scan_into(&w, &mut got);
        let want: Vec<Point> = b.iter().filter(|p| w.contains(p)).collect();
        assert_eq!(got, want);
        // Fully covering window takes the append-all path.
        let mut all = Vec::new();
        b.window_scan_into(&Rect::unit(), &mut all);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn insert_splits_full_blocks() {
        let mut s = BlockStore::bulk_load(&pts(100), 100);
        assert_eq!(s.num_blocks(), 1);
        let added = s.insert_into(0, Point::new(1000, 0.001, 0.5), |p| p.x);
        assert_eq!(added, 1);
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(s.len(), 101);
        // Split keeps the key order between blocks.
        let max_left = s.view(0).xs.iter().fold(f64::MIN, |a, &b| a.max(b));
        let min_right = s.view(1).xs.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(max_left <= min_right);
        // Offsets stay contiguous and MBRs cover their blocks.
        for b in 0..s.num_blocks() {
            let v = s.view(b);
            for i in 0..v.len() {
                assert!(v.mbr.contains(&v.point(i)));
            }
        }
    }

    #[test]
    fn insert_into_empty_store() {
        let mut s = BlockStore::new(10);
        s.insert_into(5, Point::new(7, 0.5, 0.5), |p| p.x);
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_blocks(), 1);
    }

    #[test]
    fn remove_near_searches_neighbours() {
        let mut s = BlockStore::bulk_load(&pts(300), 100);
        // Point 150 lives in block 1; search with a wrong hint but slack.
        let p = pts(300)[150];
        assert!(s.remove_point_near(0, &p, 1));
        assert_eq!(s.len(), 299);
        assert!(!s.remove_point_near(0, &p, 2), "already removed");
    }

    #[test]
    fn remove_point_near_checks_coordinates() {
        let mut s = BlockStore::bulk_load(&pts(100), 25);
        let stored = s.view(2).point(0);
        let wrong = Point::new(stored.id, 0.99, 0.99);
        assert!(!s.remove_point_near(2, &wrong, 0));
        assert!(s.remove_point_near(2, &stored, 0));
        assert_eq!(s.len(), 99);
    }

    #[test]
    fn window_scan_filters() {
        let s = BlockStore::bulk_load(&pts(200), 50);
        let mut out = Vec::new();
        s.window_scan(&Rect::new(0.0, 0.0, 0.25, 1.0), &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|p| p.x <= 0.25));
        let expected = (0..200).filter(|&i| i as f64 / 200.0 <= 0.25).count();
        assert_eq!(out.len(), expected);
    }

    #[test]
    fn iter_points_walks_block_order() {
        let s = BlockStore::bulk_load(&pts(120), 50);
        let got: Vec<Point> = s.iter_points().collect();
        assert_eq!(got, pts(120));
    }
}
