//! The delta layer of the update processor (§IV-B2): [`DeltaOverlay`], the
//! default update procedure for base indices without built-in updates. The
//! base index owns its points; the overlay holds only what changed, and
//! merges it into query results.

use elsi_data::stream::Update;
use elsi_indices::SpatialIndex;
use elsi_spatial::curve::morton_of;
use elsi_spatial::{
    canonical_knn_cmp, canonical_point_key, Block, Point, Rect, ScanScratch, DEFAULT_BLOCK_SIZE,
};
use std::collections::{BTreeMap, HashSet};

/// Default update procedures: a delta layer over a static base index.
///
/// Inserted points are held twice: in an ordered map by id (the paper's
/// "binary tree on the IDs of the updated points", used by deletes,
/// persistence and the live enumeration) and in [`Block`] pages in
/// (Morton code, id) order, the read path. A query binary-searches the
/// page directory for the corner codes' range, skips the pages whose MBR
/// misses it and scans the rest with the block kernels, as every index
/// scans its own pages. Tombstones are a hashed id set: one O(1) probe
/// per base hit.
///
/// The point id is the identity: the base holds each id once (the serving
/// doors keep the last copy of each), and so does the overlay, the last
/// write winning. Inserting an id that the base index holds tombstones the
/// base copy, so the delta copy replaces it (an overwrite, possibly at new
/// coordinates); deleting that delta copy afterwards leaves the tombstone
/// in place, so the id is fully gone rather than resurrecting the base
/// copy. A delete of a delta copy is id-only; a delete of an untouched base
/// copy must quote its id **and** its stored coordinates. The base's live
/// points are enumerated once, at wrap time, so the base must not be
/// mutated behind the overlay's back, and points must lie in the unit square.
/// ```
/// use elsi::DeltaOverlay;
/// use elsi_indices::{GridConfig, GridIndex, SpatialIndex};
/// use elsi_spatial::Point;
///
/// let base = GridIndex::build(elsi_data::gen::uniform(100, 1), &GridConfig::default());
/// let mut overlay = DeltaOverlay::new(base);
/// let p = Point::new(999, 0.25, 0.75);
/// overlay.insert(p);
/// assert_eq!(overlay.point_query(p).unwrap().id, 999);
/// assert!(overlay.delete(p));
/// assert!(overlay.point_query(p).is_none());
///
/// // Overwrite a base point: id 5 moves to new coordinates.
/// let old = elsi_data::gen::uniform(100, 1)[5];
/// let moved = Point::new(old.id, 0.9, 0.9);
/// overlay.insert(moved);
/// assert_eq!(overlay.len(), 100); // still one copy of id 5
/// assert!(overlay.point_query(old).is_none());
/// assert_eq!(overlay.point_query(moved).unwrap().id, old.id);
/// ```
pub struct DeltaOverlay<I: SpatialIndex> {
    base: I,
    /// The base's live points at wrap time in canonical (ascending id)
    /// order — derived from the base, never persisted. One binary search
    /// answers whether the base holds an id and where it stored it.
    base_by_id: Vec<Point>,
    inserted: BTreeMap<u64, Point>,
    /// The same points as `inserted`, paged in (Morton code, id) order.
    pages: Pages,
    /// Tombstoned base copies: ids of `base_by_id`, one copy each. Delta
    /// points are never tombstoned — a delete drops them from `inserted`.
    deleted: HashSet<u64>,
}

impl<I: SpatialIndex> DeltaOverlay<I> {
    /// Wraps a freshly built base index.
    pub fn new(base: I) -> Self {
        Self {
            base_by_id: base.live_points(),
            base,
            inserted: BTreeMap::new(),
            pages: Pages::default(),
            deleted: HashSet::new(),
        }
    }

    /// The wrapped base index.
    pub fn base(&self) -> &I {
        &self.base
    }

    /// Number of buffered updates (inserts + deletes), in O(1) — the id
    /// map and the tombstone set track their lengths, so this is safe on
    /// hot load-probing paths.
    pub fn delta_len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// The buffered delta points, in ascending-id order.
    pub fn inserted_points(&self) -> impl Iterator<Item = &Point> {
        self.inserted.values()
    }

    /// Tombstoned base ids, in hash order: sort them before they reach
    /// bytes or an answer.
    pub fn deleted_ids(&self) -> &HashSet<u64> {
        &self.deleted
    }

    /// Reassembles an overlay from persisted parts: the restored base, the
    /// delta points (ascending id, one copy per id) and the tombstoned ids.
    /// The id column and the pages are recomputed rather than persisted —
    /// pure functions of the base and the delta.
    ///
    /// Returns `None` when the parts violate the overlay's invariants (a
    /// base that repeats an id, a duplicated delta id, a tombstone for an
    /// id the base never held, or a delta copy beside a live base copy of
    /// its id) — the codec layer turns that into a clean corruption error.
    pub fn from_restored(base: I, inserted: Vec<Point>, deleted: Vec<u64>) -> Option<Self> {
        let mut overlay = Self::new(base);
        // The id column is in id order: each id once iff strictly ascending.
        let unique = overlay.base_by_id.is_sorted_by(|a, b| a.id < b.id);
        for id in deleted {
            overlay.base_copy(id)?;
            overlay.deleted.insert(id);
        }
        // A delta point goes back in the way it came, and must retire
        // nothing: no second copy of its id, no live base copy.
        let clean = |p| overlay.apply(Update::Insert(p)).is_none();
        (unique && inserted.into_iter().all(clean)).then_some(overlay)
    }

    /// Applies `updates` in arrival order — [`SpatialIndex::ingest_batch`]
    /// — and returns, per operation, the live copy it retired (`None` for
    /// a fresh insert and for a delete that found nothing).
    pub fn apply_batch(&mut self, updates: &[Update]) -> Vec<Option<Point>> {
        self.ingest_batch(updates)
    }

    /// The base's copy of `id`, as the base stored it.
    fn base_copy(&self, id: u64) -> Option<Point> {
        let at = self.base_by_id.binary_search_by_key(&id, |b| b.id).ok()?;
        self.base_by_id.get(at).copied()
    }

    /// The first live base copy at `q`'s coordinates, asked for when the
    /// base's own answer there is tombstoned. The base's points at
    /// distance zero come from its kNN, which is exact on every index
    /// (unlike RSMI's and LISA's windows); at most one per tombstone is
    /// dead, so asking for one more reaches a live one if any exists.
    #[cold]
    fn live_twin(&self, q: Point) -> Option<Point> {
        let (mut scratch, mut at_q) = (ScanScratch::new(), Vec::new());
        let k = self.deleted.len() + 1;
        self.base
            .knn_within_into(q, k, 0.0, &mut scratch, &mut at_q);
        at_q.into_iter().find(|p| !self.deleted.contains(&p.id))
    }

    /// The one write body; returns the live copy `u` retired.
    ///
    /// An insert replaces the delta's copy of its id (whose base copy was
    /// tombstoned when the id first entered the delta), else the base's, which
    /// is tombstoned so the delta copy is the only live one. A delete drops
    /// a delta copy by id alone — the tombstone of a base copy it had
    /// overwritten stays, so the id is gone, not resurrected — and an
    /// untouched base copy only when it quotes the coordinates the base
    /// stored for that id: neither a foreign id at a stored location nor a
    /// stored id at another point's location deletes anything.
    fn apply(&mut self, u: Update) -> Option<Point> {
        let p = u.point();
        let old = match u {
            Update::Insert(_) => self.inserted.insert(p.id, p),
            Update::Delete(_) => self.inserted.remove(&p.id),
        };
        if let Some(old) = &old {
            self.pages.remove(old);
        }
        if u.is_insert() {
            self.pages.insert(p);
        }
        old.or_else(|| {
            let quoted = |b: &Point| u.is_insert() || (b.x == p.x && b.y == p.y);
            let copy = self.base_copy(p.id).filter(quoted)?;
            self.deleted.insert(p.id).then_some(copy)
        })
    }
}

impl<I: SpatialIndex> SpatialIndex for DeltaOverlay<I> {
    fn len(&self) -> usize {
        // Exact: a tombstone hides one base copy; every delta point is live.
        self.base.len() + self.inserted.len() - self.deleted.len()
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        // Delta points are live by invariant — no tombstone check needed.
        if let Some(p) = self.pages.first_at(q) {
            return Some(p);
        }
        let hit = self.base.point_query(q)?;
        if self.deleted.contains(&hit.id) {
            return self.live_twin(q);
        }
        Some(hit)
    }

    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        // Base hits land through the base's own scan kernels; tombstone
        // filtering preserves their order, so the merged result matches
        // the alloc-per-query path bit for bit.
        self.base.window_query_into(w, scratch, out);
        if !self.deleted.is_empty() {
            out.retain(|p| !self.deleted.contains(&p.id));
        }
        // Delta points in the window all have Morton codes between the
        // window corners' codes (Z-order dominance); they come out in
        // (Morton code, id) order.
        let (lo, hi) = (morton_of(w.lo_x, w.lo_y), morton_of(w.hi_x, w.hi_y));
        for page in self.pages.between(lo, hi) {
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
        // Base kNN first, growing the over-fetch until k live base
        // candidates are found (tombstones may blanket the nearest
        // neighbourhood), the base index is exhausted, or it returned fewer
        // than asked: it holds no more points inside the radius.
        out.clear();
        if k == 0 {
            return;
        }
        let mut overfetch = k + self.deleted.len().min(k);
        loop {
            self.base.knn_within_into(q, overfetch, r2, scratch, out);
            let fetched = out.len();
            if !self.deleted.is_empty() {
                out.retain(|p| !self.deleted.contains(&p.id));
            }
            if out.len() >= k || fetched < overfetch || overfetch >= self.base.len() {
                break;
            }
            overfetch = (overfetch * 2).max(k + 1);
        }
        out.truncate(k);
        // Only delta points inside the ball of the base's k-th candidate
        // can enter the answer (the ball of `r2` while the base holds fewer
        // than k). They lie in its bounding box, whose corners' codes bound
        // theirs (Z-order dominance, as in the window path).
        let r2 = match out.last() {
            Some(kth) if out.len() == k => q.dist2(kth),
            _ => r2,
        };
        let ball = Rect::ball_box(q, r2);
        let (lo, hi) = (
            morton_of(ball.lo_x, ball.lo_y),
            morton_of(ball.hi_x, ball.hi_y),
        );
        let base_len = out.len();
        for page in self.pages.between(lo, hi) {
            if page.mbr().min_dist2(&q) <= r2 {
                page.window_scan_into(&ball, out);
            }
        }
        // The base run is already canonical and a live id is never in
        // both layers (an insert tombstones the base copy), so with no
        // delta point in the box the answer is the base run as it stands;
        // otherwise the canonical (dist², id, coordinate-bits) order
        // settles ties by identity, exactly as the cross-shard merge does.
        // Delta points in the box's corners lie outside the ball: they sort
        // after everything inside it, and are dropped.
        if out.len() > base_len {
            out.sort_unstable_by(|a, b| canonical_knn_cmp(q, a, b));
            out.truncate(k);
            while out.last().is_some_and(|p| q.dist2(p) > r2) {
                out.pop();
            }
        }
    }

    fn live_points_into(&self, out: &mut Vec<Point>) {
        let untouched = |p: &&Point| !self.deleted.contains(&p.id);
        out.extend(self.base_by_id.iter().filter(untouched));
        out.extend(self.inserted.values());
    }

    /// The untouched base copies and the delta points are each in
    /// canonical order already, so a merge of the two replaces the
    /// provided sort of their concatenation.
    fn live_points(&self) -> Vec<Point> {
        let untouched = |p: &&Point| !self.deleted.contains(&p.id);
        let mut base = self.base_by_id.iter().filter(untouched).peekable();
        let mut delta = self.inserted.values().peekable();
        let mut out = Vec::with_capacity(self.len());
        while let (Some(b), Some(d)) = (base.peek(), delta.peek()) {
            let next = if canonical_point_key(d) < canonical_point_key(b) {
                delta.next()
            } else {
                base.next()
            };
            out.extend(next);
        }
        out.extend(base.chain(delta));
        out
    }

    fn insert(&mut self, p: Point) {
        self.apply(Update::Insert(p));
    }

    fn delete(&mut self, p: Point) -> bool {
        self.apply(Update::Delete(p)).is_some()
    }

    fn ingest_batch(&mut self, updates: &[Update]) -> Vec<Option<Point>> {
        updates.iter().map(|&u| self.apply(u)).collect()
    }

    fn name(&self) -> &'static str {
        self.base.name()
    }

    fn depth(&self) -> usize {
        self.base.depth() + 1
    }
}

/// The delta points in (Morton code, id) order, held as [`Block`] pages of
/// at most [`DEFAULT_BLOCK_SIZE`] (the paper's B) points under a directory
/// of each page's first key. An insert or a delete is a binary search over
/// the directory and one over the page's keys, then an in-page shift; a
/// page over B splits in half and an emptied page leaves the directory.
#[derive(Default)]
struct Pages {
    firsts: Vec<(u64, u64)>,
    pages: Vec<Page>,
}

/// The delta's order: Morton code, then id.
fn key(p: &Point) -> (u64, u64) {
    (morton_of(p.x, p.y), p.id)
}

/// One delta page, never empty: its points in key order and their codes.
struct Page {
    codes: Vec<u64>,
    block: Block,
}

impl Page {
    /// Where `k` goes among the page's keys: the first position at or past
    /// it. The binary search runs on the codes alone, which compiles
    /// branch-free where one on the pairs does not; the walk after it
    /// covers a run of equal codes, stacked points that differ by id.
    fn rank(&self, k: (u64, u64)) -> usize {
        let from = self.codes.partition_point(|&c| c < k.0);
        let run = self.codes.iter().zip(self.block.ids()).skip(from);
        from + run.take_while(|&(&c, &id)| (c, id) < k).count()
    }

    fn first(&self) -> Option<(u64, u64)> {
        Some((*self.codes.first()?, *self.block.ids().first()?))
    }
}

impl Pages {
    /// The page whose key range holds `k`: the last one starting at or
    /// before it (the first page for a key below every page).
    fn page_of(&self, k: (u64, u64)) -> usize {
        // As in `Page::rank`: a search on the codes, a walk on the ids.
        let from = self.firsts.partition_point(|f| f.0 < k.0);
        let run = self.firsts.iter().skip(from);
        let upto = from + run.take_while(|f| **f <= k).count();
        upto.saturating_sub(1)
    }

    /// The run of pages that can hold a point with a code in `lo..=hi`.
    fn between(&self, lo: u64, hi: u64) -> impl Iterator<Item = &Block> {
        let from = self.page_of((lo, 0));
        let upto = self.firsts.partition_point(|f| f.0 <= hi);
        let run = self.pages.get(from..upto).unwrap_or_default();
        run.iter().map(|page| &page.block)
    }

    /// The first delta point at exactly `q`'s coordinates. Equal
    /// coordinates share a Morton code, so it lies in that code's pages,
    /// the lowest id first. A clean overlay does not compute the code.
    fn first_at(&self, q: Point) -> Option<Point> {
        if self.pages.is_empty() {
            return None;
        }
        let code = morton_of(q.x, q.y);
        let mut pages = self.between(code, code);
        pages.find_map(|b| b.find_exact(q.x, q.y))
    }

    fn insert(&mut self, p: Point) {
        let k = key(&p);
        let at = self.page_of(k);
        let Some(page) = self.pages.get_mut(at) else {
            let block = Block::from_points(vec![p]);
            self.firsts.push(k);
            self.pages.push(Page {
                codes: vec![k.0],
                block,
            });
            return;
        };
        let pos = page.rank(k);
        page.codes.insert(pos, k.0);
        page.block.insert(pos, p);
        if let (0, Some(first)) = (pos, self.firsts.get_mut(at)) {
            *first = k;
        }
        if page.codes.len() > DEFAULT_BLOCK_SIZE {
            let half = page.codes.len() / 2;
            let (codes, block) = (page.codes.split_off(half), page.block.split_off(half));
            let tail = Page { codes, block };
            if let Some(first) = tail.first() {
                self.firsts.insert(at + 1, first);
                self.pages.insert(at + 1, tail);
            }
        }
    }

    /// Removes the stored delta point `p` (its exact copy).
    fn remove(&mut self, p: &Point) {
        let k = key(p);
        let at = self.page_of(k);
        let Some(page) = self.pages.get_mut(at) else {
            return;
        };
        let pos = page.rank(k);
        if page.block.ids().get(pos) != Some(&p.id) {
            return;
        }
        page.codes.remove(pos);
        page.block.remove(pos);
        match page.first() {
            None => {
                self.firsts.remove(at);
                self.pages.remove(at);
            }
            Some(first) => {
                if let Some(f) = self.firsts.get_mut(at) {
                    *f = first;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::uniform;
    use elsi_indices::{GridConfig, GridIndex};

    #[test]
    fn delta_overlay_merges_queries() {
        let base = GridIndex::build(uniform(200, 1), &GridConfig::default());
        let mut overlay = DeltaOverlay::new(base);
        let p = Point::new(9001, 0.111, 0.888);
        overlay.insert(p);
        assert_eq!(overlay.len(), 201);
        assert_eq!(overlay.point_query(p).unwrap().id, 9001);
        let w = Rect::new(0.1, 0.88, 0.12, 0.89);
        assert!(overlay.window_query(&w).iter().any(|q| q.id == 9001));
        // kNN sees the inserted point.
        let knn = overlay.knn_query(Point::at(0.111, 0.888), 1);
        assert_eq!(knn[0].id, 9001);
    }

    #[test]
    fn delta_overlay_deletes_base_points() {
        let pts = uniform(100, 2);
        let base = GridIndex::build(pts.clone(), &GridConfig::default());
        let mut overlay = DeltaOverlay::new(base);
        assert!(overlay.delete(pts[5]));
        assert!(overlay.point_query(pts[5]).is_none());
        assert_eq!(overlay.len(), 99);
        assert!(!overlay
            .window_query(&Rect::unit())
            .iter()
            .any(|p| p.id == 5));
        assert_eq!(overlay.delta_len(), 1);
    }

    #[test]
    fn overlay_base_deletes_match_id_and_coordinates() {
        // Regression: a delete of base id X quoting *another* stored
        // point's coordinates used to tombstone X (the coordinate probe hit
        // the other point, and X was a base id).
        let pts = uniform(100, 2);
        let mut overlay = DeltaOverlay::new(GridIndex::build(pts.clone(), &GridConfig::default()));
        let crossed = Point::new(pts[3].id, pts[9].x, pts[9].y);
        assert_eq!(overlay.apply_batch(&[Update::Delete(crossed)]), [None]);
        assert!(!overlay.delete(crossed));
        assert!(!overlay.delete(Point::new(pts[3].id, 0.123, 0.456)));
        assert_eq!((overlay.len(), overlay.delta_len()), (100, 0));
        assert_eq!(overlay.point_query(pts[3]), Some(pts[3]));
        assert_eq!(overlay.point_query(pts[9]), Some(pts[9]));
        assert_eq!(overlay.live_points(), pts);
        assert!(overlay.delete(pts[3]) && !overlay.delete(pts[3]));
    }

    #[test]
    fn live_points_merge_equals_the_sorted_enumeration() {
        let pts = uniform(300, 4);
        let fresh = uniform(400, 5);
        let mut overlay = DeltaOverlay::new(GridIndex::build(pts.clone(), &GridConfig::default()));
        let sorted = |overlay: &DeltaOverlay<GridIndex>| {
            let mut all = Vec::new();
            overlay.live_points_into(&mut all);
            elsi_spatial::sort_canonical(&mut all, &mut Vec::new());
            all
        };
        assert_eq!(overlay.live_points(), sorted(&overlay));
        for (i, f) in fresh.iter().enumerate() {
            let u = match i % 4 {
                // Fresh ids follow the base's; overwrites move base ids
                // into the delta, where the merge interleaves them.
                0 => Update::Insert(Point::new(1_000 + i as u64, f.x, f.y)),
                1 => Update::Insert(Point::new((i * 7 % 300) as u64, f.x, f.y)),
                2 => Update::Delete(pts[i * 13 % 300]),
                _ => Update::Delete(Point::new(1_000 + (i - 3) as u64, 0.0, 0.0)),
            };
            overlay.apply_batch(&[u]);
            if i % 37 == 0 {
                assert_eq!(overlay.live_points(), sorted(&overlay), "after {i}");
            }
        }
        assert!(overlay.delta_len() > 100);
        assert_eq!(overlay.live_points(), sorted(&overlay));
    }

    #[test]
    fn knn_ties_break_by_canonical_id_order() {
        // Four stored points exactly equidistant from q, inserted in
        // shuffled id order, split between base and delta: the overlay
        // must return the lowest ids first, matching the sharded merge's
        // canonical (dist², id) order rather than insertion order.
        let base_pts = vec![
            Point::new(90, 0.6, 0.5), // tie, base
            Point::new(10, 0.4, 0.5), // tie, base
            Point::new(99, 0.9, 0.9), // far away
        ];
        let base = GridIndex::build(base_pts, &GridConfig { block_size: 4 });
        let mut overlay = DeltaOverlay::new(base);
        overlay.insert(Point::new(70, 0.5, 0.6)); // tie, delta
        overlay.insert(Point::new(20, 0.5, 0.4)); // tie, delta
        let q = Point::at(0.5, 0.5);
        let got: Vec<u64> = overlay.knn_query(q, 3).iter().map(|p| p.id).collect();
        assert_eq!(got, vec![10, 20, 70], "ties must break by id");
    }

    #[test]
    fn overlay_batch_matches_sequential_overwrites_and_deletes() {
        let pts = uniform(60, 21);
        let mut overlay = DeltaOverlay::new(GridIndex::build(
            pts.clone(),
            &GridConfig { block_size: 16 },
        ));
        // Interleaved inserts/overwrites/deletes, duplicate ids within the
        // batch, base-id collisions, and no-op deletes.
        let batch = vec![
            Update::Insert(Point::new(5, 0.9, 0.1)), // overwrite base id
            Update::Insert(Point::new(1_000, 0.2, 0.2)), // fresh
            Update::Delete(Point::new(5, 0.9, 0.1)), // kill the overwrite
            Update::Insert(Point::new(1_000, 0.3, 0.3)), // move the fresh one
            Update::Delete(pts[7]),                  // tombstone a base copy
            Update::Delete(pts[7]),                  // no-op: already gone
            Update::Delete(Point::new(55_555, 0.5, 0.5)), // no-op: unknown id
            Update::Insert(Point::new(5, 0.15, 0.85)), // resurrect id 5 in delta
        ];
        // What each op retired: the base copy an overwrite buries, the
        // delta copy a delete or a move drops, nothing for fresh inserts
        // and no-op deletes.
        assert_eq!(
            overlay.apply_batch(&batch),
            [
                Some(pts[5]),
                None,
                Some(Point::new(5, 0.9, 0.1)),
                Some(Point::new(1_000, 0.2, 0.2)),
                Some(pts[7]),
                None,
                None,
                None,
            ]
        );
        // Ids 5 and 7 are tombstoned in the base; 5 and 1000 live in the delta.
        assert_eq!(overlay.len(), 60);
        assert_eq!(overlay.delta_len(), 4);
        let mut got: Vec<u64> = overlay
            .window_query(&Rect::unit())
            .iter()
            .map(|p| p.id)
            .collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..60).filter(|&id| id != 7).chain([1_000]).collect();
        assert_eq!(got, want, "one live copy per id, the last write");
        assert_eq!(
            overlay.point_query(Point::at(0.15, 0.85)).map(|p| p.id),
            Some(5)
        );
        assert_eq!(
            overlay.point_query(Point::at(0.3, 0.3)).map(|p| p.id),
            Some(1_000)
        );
        for gone in [Point::at(0.9, 0.1), Point::at(0.2, 0.2), pts[5], pts[7]] {
            assert_eq!(overlay.point_query(gone), None, "{gone:?}");
        }
    }
}
