//! The leaf under the learned indices, and the update kit beside it.
//!
//! The models of a learned index narrow a query to a rank span of one
//! sorted page; what happens inside the span is the same whatever the
//! index. [`Leaf`] is that page, borrowed, with one body per query kind.
//! What differs (ZM's two-stage routing, ML's annuli, Flood's columns,
//! RSMI's probes, LISA's shards) stays in the index and only produces the
//! span. [`Delta`] is the update side ZM, ML-Index and Flood share; LISA
//! and RSMI keep pages of their own under the same update rule.

use crate::model::{equal_key_run, Bracket};
use elsi_spatial::{
    scan, Block, KnnHeap, MappedData, PageColumns, Point, Rect, ScanScratch, STRIPE,
};
use std::collections::HashSet;

/// Three parallel SoA columns, as the scan kernels take them.
pub(crate) type Soa<'a> = (&'a [f64], &'a [f64], &'a [u64]);

/// The liveness test of a stored id: not tombstoned and — when a delete
/// asks for one identity — that very id.
pub(crate) fn live(deleted: &HashSet<u64>, only: Option<u64>) -> impl Fn(u64) -> bool + '_ {
    move |id| only.is_none_or(|o| o == id) && !deleted.contains(&id)
}

/// Hits a window walk gathers before it appends them to its output: eight
/// stripes, 12 KB of points.
const FLUSH: usize = 8 * STRIPE;

/// One sorted page of a learned index, borrowed for a query.
pub(crate) struct Leaf<'a> {
    /// The sorted key column the page's model predicts over.
    pub keys: &'a [f64],
    /// The page's points, in the rank order of `keys`, with the stripe
    /// MBRs the window walk prunes by.
    pub page: &'a PageColumns,
    /// Ids of the owning index's tombstoned stored points.
    pub deleted: &'a HashSet<u64>,
}

impl<'a> Leaf<'a> {
    /// The whole of `data` as one page, under the tombstones `deleted`.
    #[inline]
    pub(crate) fn of(data: &'a MappedData, deleted: &'a HashSet<u64>) -> Self {
        Leaf {
            keys: data.keys(),
            page: data.page(),
            deleted,
        }
    }

    /// The page's three columns.
    #[inline]
    fn cols(&self) -> Soa<'a> {
        (self.page.xs(), self.page.ys(), self.page.ids())
    }

    /// The columns of ranks `lo..hi`: a span past the page's end is
    /// clipped, an inverted or wholly outside one is empty.
    #[inline]
    fn span(&self, (lo, hi): (usize, usize)) -> Soa<'_> {
        let (xs, ys, ids) = self.cols();
        scan::soa_span(xs, ys, ids, lo, hi.min(ids.len()))
    }

    /// First live stored point at `q`'s coordinates (with id `only`, when
    /// given): search the model's bracket `hint` outward from its
    /// prediction by `key`, then scan only the equal-key run (`DESIGN.md`
    /// §12).
    // lint:hot_path
    #[inline]
    pub(crate) fn find(
        &self,
        hint: Bracket,
        key: f64,
        q: Point,
        only: Option<u64>,
    ) -> Option<Point> {
        let (xs, ys, ids) = self.span(equal_key_run(self.keys, hint, key));
        scan::contains_scan_live(xs, ys, ids, q.x, q.y, live(self.deleted, only))
    }

    /// Appends the live points of ranks `span` inside `w` to `out`, in rank
    /// order, a stripe at a time: a stripe whose MBR misses `w` is skipped,
    /// one whose MBR `w` [covers](Rect::covers) is copied untested, and the
    /// rest runs through [`scan::range_scan_into`]. Hits gather in a short
    /// run of the scratch's hit buffer, which stays in L1 between its
    /// flushes to `out`; tombstoned hits are compacted away at the end.
    // lint:hot_path
    pub(crate) fn window_into(
        &self,
        (lo, hi): (usize, usize),
        w: &Rect,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        let (xs, ys, ids) = self.cols();
        let hi = hi.min(ids.len());
        let base = out.len();
        let hits = scratch.hits_slot(FLUSH);
        let mut m = 0;
        let mut start = lo;
        while start < hi {
            let stripe = start / STRIPE;
            let end = hi.min((stripe + 1) * STRIPE);
            let (xs, ys, ids) = scan::soa_span(xs, ys, ids, start, end);
            let free = hits.get_mut(m..).unwrap_or_default();
            m += match self.page.stripes().get(stripe) {
                Some(mbr) if !w.intersects(mbr) => 0,
                Some(mbr) if w.covers(mbr) => {
                    let stripe = core::iter::zip(core::iter::zip(ids, xs), ys);
                    for (slot, ((&id, &x), &y)) in free.iter_mut().zip(stripe) {
                        *slot = Point { id, x, y };
                    }
                    ids.len()
                }
                _ => scan::range_scan_into(xs, ys, ids, w, free),
            };
            if m > FLUSH - STRIPE || end == hi {
                out.extend_from_slice(hits.get(..m).unwrap_or(&[]));
                m = 0;
            }
            start = end;
        }
        if !self.deleted.is_empty() {
            let mut kept = base;
            for i in base..out.len() {
                if out.get(i).is_some_and(|p| !self.deleted.contains(&p.id)) {
                    out.swap(kept, i);
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
    }

    /// Offers the live points of ranks `span` to `heap` through the
    /// branch-free kernel; under tombstones it probes them only for the
    /// lanes that beat the pool's bound.
    pub(crate) fn knn_offer_span(&self, q: Point, span: (usize, usize), heap: &mut KnnHeap) {
        let (xs, ys, ids) = self.span(span);
        if self.deleted.is_empty() {
            scan::knn_scan(q.x, q.y, xs, ys, ids, heap);
        } else {
            scan::knn_scan_live(q.x, q.y, xs, ys, ids, heap, live(self.deleted, None));
        }
    }

    /// The sweep half of a rank-run seed: offers the live points of ranks
    /// `lo..hi` that lie outside the already-offered run `seeded`.
    pub(crate) fn knn_offer_around(
        &self,
        q: Point,
        (lo, hi): (usize, usize),
        (s_lo, s_hi): (usize, usize),
        heap: &mut KnnHeap,
    ) {
        self.knn_offer_span(q, (lo, s_lo.min(hi)), heap);
        self.knn_offer_span(q, (s_hi.max(lo), hi), heap);
    }
}

/// Overflow pages and tombstones: the built-in update procedure of ZM (one
/// page), ML-Index (one per pivot) and Flood (one per column).
///
/// The overflow pages are [`Block`]s, which the indices scan with the
/// page's own kernel-backed methods. A delete removes an overflow copy
/// physically, else tombstones the id of the stored copy — of that very
/// point, coordinates *and* id. Overflow points are therefore live by
/// construction and never tested against the tombstones, so a re-inserted
/// id cannot resurrect its deleted stored copy.
pub(crate) struct Delta {
    /// The overflow pages, in arrival order until a delete swaps one out.
    pub pages: Vec<Block>,
    deleted: HashSet<u64>,
}

impl Delta {
    /// A delta of the given overflow pages and tombstones.
    pub(crate) fn new(pages: Vec<Block>, deleted: HashSet<u64>) -> Self {
        Self { pages, deleted }
    }

    /// Ids of the tombstoned stored points.
    pub(crate) fn tombstones(&self) -> &HashSet<u64> {
        &self.deleted
    }

    /// Live points of an index holding `stored` stored ones.
    pub(crate) fn len(&self, stored: usize) -> usize {
        stored + self.pages.iter().map(Block::len).sum::<usize>() - self.deleted.len()
    }

    /// Appends `p` to overflow page `page`.
    pub(crate) fn insert(&mut self, page: usize, p: Point) {
        if let Some(page) = self.pages.get_mut(page) {
            page.push(p);
        }
    }

    /// The overflow half of a delete: removes the copy of `p` from `page`.
    pub(crate) fn remove(&mut self, page: usize, p: Point) -> bool {
        let page = self.pages.get_mut(page);
        page.is_some_and(|page| page.remove_exact(&p))
    }

    /// The stored half of a delete: tombstones the copy the index's own
    /// [`Leaf::find`] returned for the deleted point, if it found one.
    pub(crate) fn bury(&mut self, stored: Option<Point>) -> bool {
        stored.is_some_and(|p| self.deleted.insert(p.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The whole-span window body the stripe walk replaced: one kernel
    /// pass over every rank of `span`, then the tombstone compaction.
    fn window_into_reference(
        leaf: &Leaf<'_>,
        span: (usize, usize),
        w: &Rect,
        out: &mut Vec<Point>,
    ) {
        let (xs, ys, ids) = leaf.span(span);
        let mut hits = vec![Point::at(0.0, 0.0); xs.len()];
        let m = scan::range_scan_into(xs, ys, ids, w, &mut hits);
        let hits = hits.into_iter().take(m);
        out.extend(hits.filter(|p| !leaf.deleted.contains(&p.id)));
    }

    /// A coordinate from a 1/16 lattice, so windows touch stripe MBRs on
    /// their boundaries; with `hostile`, one draw in a hundred is NaN, ±∞
    /// or −0.0.
    fn coord(v: u32, hostile: bool) -> f64 {
        match (hostile, v % 100) {
            (true, 0) => f64::NAN,
            (true, 1) => f64::INFINITY,
            (true, 2) => f64::NEG_INFINITY,
            (true, 3) => -0.0,
            _ => f64::from(v % 16) / 16.0,
        }
    }

    fn bits(pts: &[Point]) -> Vec<(u64, u64, u64)> {
        pts.iter().map(elsi_spatial::canonical_point_key).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The stripe walk appends what one scan of the whole span
        /// appended, in the same order: pages sorted by (x, y) so stripes
        /// are compact — covered, missed or touched on a boundary by
        /// lattice windows — with repeated coordinates, tombstones and
        /// hostile coordinates, spans off the stripe boundaries, empty,
        /// inverted or past the end, longer than one flush of the hit
        /// buffer, and hits already in `out`.
        #[test]
        fn the_stripe_walk_appends_what_the_whole_span_scan_appended(
            raw in prop::collection::vec((0u32..400, 0u32..400), 0..1200),
            (hostile, dead) in (any::<bool>(), any::<u64>()),
            (lo, hi) in (0usize..1300, 0usize..1300),
            (wx, wy, ww, wh) in (0u32..17, 0u32..17, 0u32..18, 0u32..18),
            shape in 0u32..4,
        ) {
            let mut pts: Vec<Point> = raw
                .iter()
                .zip(0..)
                .map(|(&(x, y), id)| Point::new(id, coord(x, hostile), coord(y, hostile)))
                .collect();
            pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
            let page = PageColumns::from_points(&pts);
            let keys: Vec<f64> = (0..pts.len()).map(|i| i as f64).collect();
            let deleted: HashSet<u64> = (0..64).filter(|i| dead >> i & 1 == 1).collect();
            let leaf = Leaf {
                keys: &keys,
                page: &page,
                deleted: &deleted,
            };
            let edge = |v: u32| if v > 16 { f64::INFINITY } else { f64::from(v) / 16.0 };
            // A lattice window, one spanning every finite y (so whole
            // stripes of an x-run are covered), or the whole plane.
            let w = match shape {
                0 | 1 => Rect::new(edge(wx), edge(wy), edge(wx + ww), edge(wy + wh)),
                2 => Rect::new(edge(wx), f64::NEG_INFINITY, edge(wx + ww), f64::INFINITY),
                _ => Rect::ALL,
            };
            let span = (lo, if hi == 1299 { usize::MAX } else { hi });
            // A hit of an earlier span, whose id may be tombstoned: the
            // compaction must leave it alone.
            let earlier = vec![Point::new(0, 9.0, 9.0)];
            let mut want = earlier.clone();
            window_into_reference(&leaf, span, &w, &mut want);
            let mut got = earlier;
            leaf.window_into(span, &w, &mut ScanScratch::new(), &mut got);
            prop_assert!(bits(&got) == bits(&want), "{span:?} in {w:?}");
        }
    }

    #[test]
    fn spans_outside_the_page_scan_nothing() {
        // Eight points on a diagonal, keyed by rank; every one is inside
        // the window, at the query's distance or findable by key.
        let xs: Vec<f64> = (0..8).map(|i| f64::from(i) / 8.0).collect();
        let ids: Vec<u64> = (0..8).collect();
        for deleted in [HashSet::new(), HashSet::from([3])] {
            let page = PageColumns::new(xs.clone(), xs.clone(), ids.clone());
            let leaf = Leaf {
                keys: &xs,
                page: &page,
                deleted: &deleted,
            };
            let q = Point::at(0.5, 0.5);
            let mut scratch = ScanScratch::new();
            // Inverted, empty at the end, wholly past the end, inverted
            // past the end.
            for span in [(5, 2), (8, 8), (9, 20), (usize::MAX, 0)] {
                let (lo, hi) = span;
                let hint = Bracket { pred: lo, lo, hi };
                assert_eq!(leaf.find(hint, 0.5, q, None), None, "{span:?}");
                let mut out = Vec::new();
                leaf.window_into(span, &Rect::unit(), &mut scratch, &mut out);
                assert!(out.is_empty(), "{span:?}");
                let heap = scratch.heap_for(3);
                leaf.knn_offer_span(q, span, heap);
                leaf.knn_offer_around(q, span, (0, 0), heap);
                assert!(heap.finish().is_empty(), "{span:?}");
            }
            // A span reaching past the end is clipped to the page.
            let tail = 8 - 6 - usize::from(deleted.contains(&7));
            let hint = Bracket {
                pred: 4,
                lo: 4,
                hi: 99,
            };
            assert_eq!(leaf.find(hint, 0.5, q, None), Some(Point::new(4, 0.5, 0.5)));
            let mut out = Vec::new();
            leaf.window_into((6, 99), &Rect::unit(), &mut scratch, &mut out);
            assert_eq!(out.len(), tail);
            let heap = scratch.heap_for(8);
            leaf.knn_offer_span(q, (6, usize::MAX), heap);
            assert_eq!(heap.finish().len(), tail);
        }
    }
}
