//! The delta layer of the update processor (§IV-B2): [`DeltaOverlay`], the
//! default update procedure for base indices without built-in updates. The
//! base index owns its points; the overlay holds only what changed, and
//! merges it into query results.

use elsi_data::stream::Update;
use elsi_indices::SpatialIndex;
use elsi_spatial::curve::morton_of;
use elsi_spatial::{canonical_knn_cmp, Point, Rect, ScanScratch};
use std::collections::{BTreeMap, BTreeSet};

/// Default update procedures: a delta layer over a static base index.
///
/// Inserted points are held in two ordered maps: by id (the paper's
/// "binary tree on the IDs of the updated points", used by deletes) and by
/// Morton code (so point and window queries locate delta points in
/// `O(log n_u + answer)` instead of scanning the whole delta).
///
/// The point id is the identity: the overlay keeps **at most one live copy
/// per id**, and the last write wins. Inserting an id that the base index
/// already holds tombstones the base copy, so the delta copy replaces it
/// (an overwrite, possibly at new coordinates); deleting that delta copy
/// afterwards leaves the tombstone in place, so the id is fully gone
/// rather than resurrecting the base copy. A delete of a delta copy is
/// id-only; a delete of an untouched base copy must quote its id **and**
/// its stored coordinates. The base's live points are enumerated once, at
/// wrap time, so the base must not be mutated behind the overlay's back,
/// and points must lie in the unit square.
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
    /// Secondary order: (Morton code, id) → point.
    inserted_by_key: BTreeMap<(u64, u64), Point>,
    /// Tombstoned base copies: ids of `base_by_id`. Delta points are never
    /// tombstoned — a delete drops them from `inserted`.
    deleted: BTreeSet<u64>,
}

impl<I: SpatialIndex> DeltaOverlay<I> {
    /// Wraps a freshly built base index.
    pub fn new(base: I) -> Self {
        Self {
            base_by_id: base.live_points(),
            base,
            inserted: BTreeMap::new(),
            inserted_by_key: BTreeMap::new(),
            deleted: BTreeSet::new(),
        }
    }

    /// The wrapped base index.
    pub fn base(&self) -> &I {
        &self.base
    }

    /// Number of buffered updates (inserts + deletes), in O(1) — both maps
    /// track their length, so this is safe on hot load-probing paths.
    pub fn delta_len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// The buffered delta points, in ascending-id order.
    pub fn inserted_points(&self) -> impl Iterator<Item = &Point> {
        self.inserted.values()
    }

    /// Tombstoned base ids.
    pub fn deleted_ids(&self) -> &BTreeSet<u64> {
        &self.deleted
    }

    /// Reassembles an overlay from persisted parts: the restored base, the
    /// delta points (ascending id, one copy per id) and the tombstone set.
    /// The id column and the Morton-ordered secondary map are recomputed
    /// rather than persisted — pure functions of the base and the delta.
    ///
    /// Returns `None` when the parts violate the overlay's invariants (a
    /// duplicated delta id, a tombstone for an id the base never held, or
    /// a delta copy beside a live base copy of its id) — the codec layer
    /// turns that into a clean corruption error.
    pub fn from_restored(base: I, inserted: Vec<Point>, deleted: BTreeSet<u64>) -> Option<Self> {
        let mut overlay = Self::new(base);
        let held = |id: &u64| overlay.base_copies(*id).next().is_some();
        if !deleted.iter().all(held) {
            return None;
        }
        overlay.deleted = deleted;
        // A delta point goes back in the way it came, and must retire
        // nothing: no second copy of its id, no live base copy.
        let clean = |p| overlay.apply(Update::Insert(p)).is_none();
        inserted.into_iter().all(clean).then_some(overlay)
    }

    /// Applies `updates` in arrival order — [`SpatialIndex::ingest_batch`]
    /// — and returns, per operation, the live copy it retired (`None` for
    /// a fresh insert and for a delete that found nothing).
    pub fn apply_batch(&mut self, updates: &[Update]) -> Vec<Option<Point>> {
        self.ingest_batch(updates)
    }

    /// The base's copies of `id`: the equal-id run of the id column (one
    /// point, unless the base was built from duplicate ids).
    fn base_copies(&self, id: u64) -> impl Iterator<Item = &Point> {
        let lo = self.base_by_id.partition_point(|b| b.id < id);
        let from = self.base_by_id.iter().skip(lo);
        from.take_while(move |b| b.id == id)
    }

    /// The first live base copy at `q`'s coordinates, asked for when the
    /// base's own answer there is tombstoned. The base's points at
    /// distance zero come from its kNN, which is exact on every index
    /// (unlike RSMI's and LISA's windows); at most `deleted.len()` of them
    /// are dead, so asking for one more reaches a live one if any exists.
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
        let key = |q: &Point| (morton_of(q.x, q.y), q.id);
        let p = u.point();
        let old = match u {
            Update::Insert(_) => self.inserted.insert(p.id, p),
            Update::Delete(_) => self.inserted.remove(&p.id),
        };
        if let Some(old) = &old {
            self.inserted_by_key.remove(&key(old));
        }
        if u.is_insert() {
            self.inserted_by_key.insert(key(&p), p);
        }
        old.or_else(|| {
            let quoted = |b: &&Point| u.is_insert() || (b.x == p.x && b.y == p.y);
            let copy = self.base_copies(p.id).find(quoted).copied()?;
            self.deleted.insert(p.id).then_some(copy)
        })
    }
}

impl<I: SpatialIndex> SpatialIndex for DeltaOverlay<I> {
    fn len(&self) -> usize {
        // Exact: every tombstone hides one base copy, and every delta
        // point is live (the id-collision invariants above).
        self.base.len() + self.inserted.len() - self.deleted.len()
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        // Exact-coordinate delta lookup via the Morton-ordered map. Delta
        // points are live by invariant — no tombstone check needed.
        let code = morton_of(q.x, q.y);
        if let Some(p) = self
            .inserted_by_key
            .range((code, 0)..=(code, u64::MAX))
            .map(|(_, p)| p)
            .find(|p| p.x == q.x && p.y == q.y)
        {
            return Some(*p);
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
        // window corners' codes (Z-order dominance).
        let lo = (morton_of(w.lo_x, w.lo_y), 0u64);
        let hi = (morton_of(w.hi_x, w.hi_y), u64::MAX);
        out.extend(
            self.inserted_by_key
                .range(lo..=hi)
                .map(|(_, p)| p)
                .filter(|p| w.contains(p))
                .copied(),
        );
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
        // than k), and they all have Morton codes between the ball box
        // corners' codes (Z-order dominance, as in the window path).
        let r2 = match out.last() {
            Some(kth) if out.len() == k => q.dist2(kth),
            _ => r2,
        };
        let ball = Rect::ball_box(q, r2);
        let lo = (morton_of(ball.lo_x, ball.lo_y), 0u64);
        let hi = (morton_of(ball.hi_x, ball.hi_y), u64::MAX);
        let base_len = out.len();
        out.extend(
            self.inserted_by_key
                .range(lo..=hi)
                .map(|(_, p)| p)
                .filter(|p| q.dist2(p) <= r2)
                .copied(),
        );
        // The base run is already canonical and a live id is never in
        // both layers (an insert tombstones the base copy), so with no
        // delta point in the ball the answer is the base run as it stands;
        // otherwise the canonical (dist², id, coordinate-bits) order
        // settles ties by identity, exactly as the cross-shard merge does.
        if out.len() > base_len {
            out.sort_unstable_by(|a, b| canonical_knn_cmp(q, a, b));
            out.truncate(k);
        }
    }

    fn live_points_into(&self, out: &mut Vec<Point>) {
        let untouched = |p: &&Point| !self.deleted.contains(&p.id);
        out.extend(self.base_by_id.iter().filter(untouched));
        out.extend(self.inserted.values());
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
