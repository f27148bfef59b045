//! The delta layer of the update processor (§IV-B2): [`DeltaOverlay`], the
//! default update procedure for base indices without built-in updates.
//! Inserted and deleted points live in ordered maps keyed by point id (the
//! paper's "binary tree on the IDs of the updated points") and are merged
//! into query results.

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
/// rather than resurrecting the base copy. The base index is snapshotted
/// at wrap time to resolve id collisions, so the base must not be mutated
/// behind the overlay's back, and points must lie in the unit square.
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
    /// Ids stored in the base index at wrap time, for collision handling.
    base_ids: BTreeSet<u64>,
    inserted: BTreeMap<u64, Point>,
    /// Secondary order: (Morton code, id) → point.
    inserted_by_key: BTreeMap<(u64, u64), Point>,
    /// Tombstoned base copies. Invariant: `deleted ⊆ base_ids`, and delta
    /// points are never tombstoned — a delete drops them from `inserted`.
    deleted: BTreeSet<u64>,
}

impl<I: SpatialIndex> DeltaOverlay<I> {
    /// Wraps a freshly built base index.
    pub fn new(base: I) -> Self {
        let base_ids = base
            .window_query(&Rect::unit())
            .iter()
            .map(|p| p.id)
            .collect();
        Self {
            base,
            base_ids,
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

    /// Ids the base index held at wrap time (the collision-resolution
    /// snapshot). Persisted verbatim by the overlay codec so a restored
    /// overlay resolves id collisions exactly as the original did.
    pub fn base_ids(&self) -> &BTreeSet<u64> {
        &self.base_ids
    }

    /// The buffered delta points, in ascending-id order.
    pub fn inserted_points(&self) -> impl Iterator<Item = &Point> {
        self.inserted.values()
    }

    /// Tombstoned base ids.
    pub fn deleted_ids(&self) -> &BTreeSet<u64> {
        &self.deleted
    }

    /// Reassembles an overlay from persisted parts: the restored base,
    /// the wrap-time id snapshot, the delta points (ascending id, one
    /// copy per id) and the tombstone set. The Morton-ordered secondary
    /// map is recomputed rather than persisted — it is a pure function of
    /// the delta points.
    ///
    /// Returns `None` when the parts violate the overlay's invariants
    /// (a duplicated delta id, or a tombstone for an id the base never
    /// held) — the codec layer turns that into a clean corruption error.
    pub fn from_restored(
        base: I,
        base_ids: BTreeSet<u64>,
        inserted: Vec<Point>,
        deleted: BTreeSet<u64>,
    ) -> Option<Self> {
        if !deleted.is_subset(&base_ids) {
            return None;
        }
        let by_id: BTreeMap<u64, Point> = inserted.iter().map(|p| (p.id, *p)).collect();
        if by_id.len() != inserted.len() {
            return None;
        }
        let inserted_by_key = by_id
            .values()
            .map(|p| ((morton_of(p.x, p.y), p.id), *p))
            .collect();
        Some(Self {
            base,
            base_ids,
            inserted: by_id,
            inserted_by_key,
            deleted,
        })
    }

    /// Applies `updates` in arrival order — the provided
    /// [`SpatialIndex::ingest_batch`] fold over [`SpatialIndex::insert`] /
    /// [`SpatialIndex::delete`] — and returns one "took effect" flag per
    /// operation (inserts always take effect; a delete of an id with no
    /// live copy does not).
    pub fn apply_batch(&mut self, updates: &[Update]) -> Vec<bool> {
        self.ingest_batch(updates)
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
        self.base
            .point_query(q)
            .filter(|p| !self.deleted.contains(&p.id))
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

    fn knn_query_into(&self, q: Point, k: usize, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        // Base kNN first, growing the over-fetch until k live base
        // candidates are found (tombstones may blanket the nearest
        // neighbourhood) or the base index is exhausted.
        out.clear();
        if k == 0 {
            return;
        }
        let mut overfetch = k + self.deleted.len().min(k);
        loop {
            self.base.knn_query_into(q, overfetch, scratch, out);
            if !self.deleted.is_empty() {
                out.retain(|p| !self.deleted.contains(&p.id));
            }
            if out.len() >= k || overfetch >= self.base.len() {
                break;
            }
            overfetch = (overfetch * 2).max(k + 1);
        }
        out.truncate(k);
        // Only delta points inside the ball of the base's k-th candidate
        // can enter the answer (the whole delta while the base holds fewer
        // than k), and they all have Morton codes between the ball box
        // corners' codes (Z-order dominance, as in the window path).
        let r2 = match out.last() {
            Some(kth) if out.len() == k => q.dist2(kth),
            _ => f64::INFINITY,
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

    fn insert(&mut self, p: Point) {
        // Last write wins: a base copy of this id is tombstoned so the
        // delta copy is the only live one. (Previously the base copy
        // stayed visible and `len` double-counted the id.)
        if self.base_ids.contains(&p.id) {
            self.deleted.insert(p.id);
        }
        if let Some(old) = self.inserted.insert(p.id, p) {
            self.inserted_by_key
                .remove(&(morton_of(old.x, old.y), old.id));
        }
        self.inserted_by_key.insert((morton_of(p.x, p.y), p.id), p);
    }

    fn delete(&mut self, p: Point) -> bool {
        if let Some(old) = self.inserted.remove(&p.id) {
            self.inserted_by_key
                .remove(&(morton_of(old.x, old.y), old.id));
            // If the delta copy had overwritten a base copy, the tombstone
            // set at insert time stays: the id is gone, not resurrected.
            return true;
        }
        if self.deleted.contains(&p.id) {
            return false;
        }
        // Only an id the base holds can be tombstoned (`deleted ⊆ base_ids`):
        // the probe matches coordinates, and a foreign id that merely shares
        // a base point's location deletes nothing. The probe usually returns
        // the point itself, which settles membership without a set lookup.
        match self.base.point_query(p) {
            Some(found) if found.id == p.id || self.base_ids.contains(&p.id) => {
                self.deleted.insert(p.id);
                true
            }
            _ => false,
        }
    }

    fn name(&self) -> &'static str {
        self.base.name()
    }

    fn depth(&self) -> usize {
        self.base.depth() + 1
    }
}
