//! Block (data page) storage — structure-of-arrays layout.
//!
//! The paper stores points in blocks of `B = 100` (§VII-B1). [`Block`] is
//! the one page type: Grid cells, KDB and R-tree leaves, LISA's shard
//! pages and the overflow pages of ZM, ML-Index and Flood all hold their
//! points in it. Coordinates and ids live in parallel `xs`/`ys`/`ids`
//! arrays so the branchless kernels in [`crate::scan`] can stream them
//! four lanes at a time without pointer chasing.
//!
//! AoS compatibility shims ([`Block::from_points`], [`Block::to_points`],
//! the `Point`-yielding iterator) keep bulk-load, split and rebuild code
//! working on `Vec<Point>` at the edges; only the scan paths require the
//! SoA view.

use crate::point::{Point, Rect};
use crate::scan::{self, STRIPE};

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
        let mut xs = Vec::with_capacity(points.len());
        let mut ys = Vec::with_capacity(points.len());
        let mut ids = Vec::with_capacity(points.len());
        for p in &points {
            xs.push(p.x);
            ys.push(p.y);
            ids.push(p.id);
        }
        let mbr = page_mbr(&xs, &ys);
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

    /// The minimum bounding rectangle of the block's points, under the
    /// page rule of [`Rect::expand_page`].
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Adds a point, growing the MBR.
    pub fn push(&mut self, p: Point) {
        self.mbr.expand_page(&p);
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.ids.push(p.id);
    }

    /// Inserts `p` at position `pos` (clamped to the length), shifting the
    /// later points up — for pages that keep their points in a key order.
    pub fn insert(&mut self, pos: usize, p: Point) {
        let pos = pos.min(self.len());
        self.mbr.expand_page(&p);
        self.xs.insert(pos, p.x);
        self.ys.insert(pos, p.y);
        self.ids.insert(pos, p.id);
    }

    /// Removes the point at `pos`, shifting the later points down so the
    /// order of the rest is kept (unlike [`Block::remove_exact`]).
    pub fn remove(&mut self, pos: usize) -> Option<Point> {
        if pos >= self.len() {
            return None;
        }
        let p = self.point(pos);
        self.xs.remove(pos);
        self.ys.remove(pos);
        self.ids.remove(pos);
        self.shrink_mbr(p.x, p.y);
        Some(p)
    }

    /// Splits the block at `at`: `self` keeps `[0, at)` and the returned
    /// block holds `[at, len)`, both in their order, with fresh MBRs.
    pub fn split_off(&mut self, at: usize) -> Block {
        let at = at.min(self.len());
        let (xs, ys) = (self.xs.split_off(at), self.ys.split_off(at));
        let ids = self.ids.split_off(at);
        self.mbr = page_mbr(&self.xs, &self.ys);
        let mbr = page_mbr(&xs, &ys);
        Block { xs, ys, ids, mbr }
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
        self.shrink_mbr(x, y);
    }

    /// Refits the MBR after the point at `(x, y)` left. A point strictly
    /// inside the MBR cannot define any of its four edges, so the MBR is
    /// unchanged; only boundary points pay the O(n) recompute.
    fn shrink_mbr(&mut self, x: f64, y: f64) {
        if !self.mbr.strictly_inside(x, y) {
            self.mbr = page_mbr(&self.xs, &self.ys);
        }
    }

    /// Finds a stored point with exactly the coordinates `(x, y)` via the
    /// branchless [`scan::contains_scan`] kernel.
    #[inline]
    pub fn find_exact(&self, x: f64, y: f64) -> Option<Point> {
        scan::contains_scan(&self.xs, &self.ys, x, y).map(|i| self.point(i))
    }

    /// Appends the block's points inside `w` to `out`: MBR prune, whole
    ///-block append when `w` [covers](Rect::covers) the MBR, branchless
    /// [`scan::range_scan_into`] otherwise.
    pub fn window_scan_into(&self, w: &Rect, out: &mut Vec<Point>) {
        if self.is_empty() || !w.intersects(&self.mbr) {
            return;
        }
        if w.covers(&self.mbr) {
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

/// The MBR of a page's coordinate columns under [`Rect::expand_page`]'s
/// rule: [`Rect::ALL`] when a coordinate is not finite. One branch-free
/// pass — `expand_page` point by point, with its test hoisted out.
fn page_mbr(xs: &[f64], ys: &[f64]) -> Rect {
    let mut r = Rect::empty();
    let mut finite = true;
    for (&x, &y) in core::iter::zip(xs, ys) {
        finite &= x.is_finite() & y.is_finite();
        r.expand(&Point { id: 0, x, y });
    }
    if finite {
        r
    } else {
        Rect::ALL
    }
}

/// One MBR per [`STRIPE`] ranks of the columns `(xs, ys)`, under
/// [`Rect::expand_page`]'s rule:
/// entry `s` bounds ranks `STRIPE·s .. STRIPE·(s + 1)`, the last stripe
/// short. A sorted page's window walk prunes, appends or scans a stripe
/// at a time by these ([`crate::PageColumns`] derives them).
pub(crate) fn stripe_mbrs(xs: &[f64], ys: &[f64]) -> Vec<Rect> {
    let stripes = core::iter::zip(xs.chunks(STRIPE), ys.chunks(STRIPE));
    stripes.map(|(xs, ys)| page_mbr(xs, ys)).collect()
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
    fn ordered_insert_remove_and_split_keep_order_and_mbrs() {
        let mut b = Block::new();
        for (pos, id) in [(0, 3), (0, 1), (1, 2), (9, 5), (3, 4)] {
            b.insert(pos, Point::new(id, id as f64 / 10.0, 0.5));
        }
        assert_eq!(b.ids(), &[1, 2, 3, 4, 5]);
        assert_eq!(b.mbr(), Rect::new(0.1, 0.5, 0.5, 0.5));
        assert_eq!(b.remove(0), Some(Point::new(1, 0.1, 0.5)));
        assert_eq!(b.remove(9), None);
        assert_eq!(
            (b.ids(), b.mbr()),
            (&[2, 3, 4, 5][..], Rect::new(0.2, 0.5, 0.5, 0.5))
        );
        let tail = b.split_off(1);
        assert_eq!(
            (b.ids(), b.mbr()),
            (&[2][..], Rect::new(0.2, 0.5, 0.2, 0.5))
        );
        assert_eq!(
            (tail.ids(), tail.mbr()),
            (&[3, 4, 5][..], Rect::new(0.3, 0.5, 0.5, 0.5))
        );
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
    fn a_covering_window_tests_points_with_non_finite_coordinates() {
        // `f64::min`/`max` skip NaN, so a plain MBR of these points is the
        // one finite point, and a window around it used to take the
        // append-all path: ids [0, 1, 2] where brute force says [0].
        let w = Rect::new(0.0, 0.0, 0.6, 0.6);
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        for bad in [(nan, 0.5), (0.25, nan), (inf, 0.5), (0.25, -inf)] {
            let pts = vec![Point::new(0, 0.5, 0.5), Point::new(1, bad.0, bad.1)];
            let mut pushed = Block::new();
            pts.iter().for_each(|&p| pushed.push(p));
            let mut inserted = Block::new();
            pts.iter().rev().for_each(|&p| inserted.insert(0, p));
            for b in [Block::from_points(pts.clone()), pushed, inserted] {
                assert_eq!(b.mbr(), Rect::ALL, "{bad:?} poisons the MBR");
                for w in [w, Rect::ALL] {
                    let mut got = Vec::new();
                    b.window_scan_into(&w, &mut got);
                    let want: Vec<Point> = b.iter().filter(|p| w.contains(p)).collect();
                    assert_eq!(got, want, "{bad:?} in {w:?}");
                }
            }
        }
        let b = Block::from_points(vec![
            Point::new(0, 0.5, 0.5),
            Point::new(1, nan, 0.5),
            Point::new(2, 0.25, nan),
        ]);
        let mut got = Vec::new();
        b.window_scan_into(&w, &mut got);
        assert_eq!(got, [Point::new(0, 0.5, 0.5)]);
    }

    #[test]
    fn stripe_mbrs_bound_each_stripe_under_the_page_rule() {
        let xs: Vec<f64> = (0..150).map(|i| f64::from(i) / 150.0).collect();
        let mut ys = xs.clone();
        ys[70] = f64::NAN;
        let stripes = stripe_mbrs(&xs, &ys);
        assert_eq!(stripes.len(), 3);
        assert_eq!(stripes[0], page_mbr(&xs[..64], &ys[..64]));
        assert_eq!(stripes[0], Rect::new(0.0, 0.0, xs[63], xs[63]));
        assert_eq!(stripes[1], Rect::ALL);
        assert_eq!(stripes[2], Rect::new(xs[128], xs[128], xs[149], xs[149]));
        assert!(stripe_mbrs(&[], &[]).is_empty());
    }
}
