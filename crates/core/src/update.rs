//! The ELSI update processor (§IV-B2).
//!
//! Two pieces:
//!
//! * [`DeltaOverlay`] — the default update procedure for base indices
//!   without built-in updates: inserted and deleted points live in a
//!   separate ordered map keyed by point id (the paper's "binary tree on
//!   the IDs of the updated points") and are merged into query results.
//! * [`UpdateProcessor`] — the full lifecycle manager: routes updates to
//!   the base index, tracks the CDF drift `sim(D', D)` with bounded-size
//!   sketches, runs the rebuild predictor every `f_u` updates, and triggers
//!   full rebuilds through the build processor.
//!
//! Both layers also ingest **batches**: [`DeltaOverlay::apply_batch`]
//! bulk-merges a whole `&[Update]` into the delta maps with one ordered
//! splice per map (instead of `n` individual tree inserts), and
//! [`UpdateProcessor::apply_batch`] updates the drift sketch in a single
//! pass and consults the rebuild policy **once per batch**. The batched
//! delta merge is bit-identical to folding the same updates one at a time
//! (pinned by proptests in `tests/properties.rs`); see `DESIGN.md` §10 for
//! the merge algorithm and the exact equivalence claim.

use crate::rebuild::{RebuildFeatures, RebuildPolicy};
use elsi_data::cdf::DEFAULT_SKETCH_BINS;
pub use elsi_data::stream::Update;
use elsi_indices::SpatialIndex;
use elsi_spatial::curve::morton_of;
use elsi_spatial::{canonical_knn_cmp, KeyMapper, MortonMapper, Point, Rect, ScanScratch};
use elsi_store::{StoreError, WalWriter};
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

    /// Bulk-merges a whole update batch into the delta maps, bit-identically
    /// to folding the same updates through [`SpatialIndex::insert`] /
    /// [`SpatialIndex::delete`] one at a time. Returns one "took effect"
    /// flag per operation, exactly matching what the sequential calls would
    /// have reported (inserts always take effect; a delete of an id with no
    /// live copy does not).
    ///
    /// The merge runs in three steps (`DESIGN.md` §10):
    ///
    /// 1. *Group*: a stable sort of the operation indices by target id
    ///    groups each id's operations while preserving their arrival order.
    /// 2. *Simulate*: each id's group is folded over a two-field state
    ///    (live delta copy, tombstone) seeded from the current maps —
    ///    operations on different ids are independent, so this reproduces
    ///    the sequential outcome per id without touching the trees.
    /// 3. *Splice*: the surviving net effects are sorted by mapped (Morton)
    ///    key and merged with **one ordered splice per map**
    ///    (`BTreeMap::append` / `BTreeSet::append` bulk-merge the staged
    ///    sorted entries) instead of `n` individual inserts.
    ///
    /// Last-write-wins id-collision semantics are preserved exactly: an
    /// insert of a base id tombstones the base copy, a later delete of the
    /// delta copy leaves the tombstone in place, and only the final delta
    /// copy of an id survives the batch.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Vec<bool> {
        let mut applied = vec![false; updates.len()];
        if updates.is_empty() {
            return applied;
        }
        // `append` merges in O(delta + batch): a batch much smaller than
        // the resident delta would pay to retraverse the whole delta maps,
        // so per-op application wins there. The two paths are bit-identical
        // (proptest-pinned), so the cutover is purely a cost choice.
        if updates.len() * 4 < self.delta_len() {
            for (flag, &u) in applied.iter_mut().zip(updates) {
                *flag = match u {
                    Update::Insert(p) => {
                        self.insert(p);
                        true
                    }
                    Update::Delete(p) => self.delete(p),
                };
            }
            return applied;
        }
        // Step 1: group operations by id, arrival order preserved (stable
        // sort), without building a per-op tree.
        let mut order: Vec<(u64, u32)> = updates
            .iter()
            .enumerate()
            .map(|(i, u)| (u.point().id, i as u32))
            .collect();
        order.sort_by_key(|&(id, _)| id);

        // Step 2 output: net per-id effects, staged for the splice.
        let mut stale_inserted: Vec<u64> = Vec::new(); // ids whose delta copy dies
        let mut stale_by_key: Vec<(u64, u64)> = Vec::new();
        let mut add_inserted: Vec<(u64, Point)> = Vec::new(); // ascending id
        let mut add_by_key: Vec<((u64, u64), Point)> = Vec::new();
        let mut add_deleted: Vec<u64> = Vec::new(); // ascending id

        let mut rest: &[(u64, u32)] = &order;
        while let Some(&(id, _)) = rest.first() {
            let group_len = rest.iter().take_while(|&&(gid, _)| gid == id).count();
            let (group, tail) = rest.split_at(group_len);
            rest = tail;
            let original = self.inserted.get(&id).copied();
            let was_tombstoned = self.deleted.contains(&id);
            let in_base = self.base_ids.contains(&id);
            let mut delta = original;
            let mut tombstoned = was_tombstoned;
            for &(_, op) in group {
                let op = op as usize;
                let flag = match updates.get(op).copied() {
                    Some(Update::Insert(p)) => {
                        if in_base {
                            tombstoned = true;
                        }
                        delta = Some(p);
                        true
                    }
                    Some(Update::Delete(p)) => {
                        if delta.take().is_some() {
                            // The delta copy dies; an insert-time tombstone
                            // stays, so the id is gone, not resurrected.
                            true
                        } else if tombstoned {
                            false
                        } else if in_base && self.base.point_query(p).is_some() {
                            tombstoned = true;
                            true
                        } else {
                            false
                        }
                    }
                    None => false,
                };
                if let Some(slot) = applied.get_mut(op) {
                    *slot = flag;
                }
            }
            // Net effect of this id's group on the three maps.
            let old_key = original.map(|o| (morton_of(o.x, o.y), o.id));
            let new_key = delta.map(|p| (morton_of(p.x, p.y), p.id));
            if old_key != new_key {
                if let Some(k) = old_key {
                    stale_by_key.push(k);
                }
                if let (Some(k), Some(p)) = (new_key, delta) {
                    add_by_key.push((k, p));
                }
            }
            match (original, delta) {
                (_, Some(p)) if original != Some(p) => add_inserted.push((id, p)),
                (Some(_), None) => stale_inserted.push(id),
                _ => {}
            }
            if tombstoned && !was_tombstoned {
                add_deleted.push(id);
            }
        }

        // Step 3: removals of dead entries, then one ordered splice per map.
        for id in stale_inserted {
            self.inserted.remove(&id);
        }
        for k in stale_by_key {
            self.inserted_by_key.remove(&k);
        }
        if !add_inserted.is_empty() {
            // Already ascending by id (group order); collect bulk-builds.
            let mut staged: BTreeMap<u64, Point> = add_inserted.into_iter().collect();
            self.inserted.append(&mut staged);
        }
        if !add_by_key.is_empty() {
            add_by_key.sort_unstable_by_key(|&(k, _)| k); // Morton-key order
            let mut staged: BTreeMap<(u64, u64), Point> = add_by_key.into_iter().collect();
            self.inserted_by_key.append(&mut staged);
        }
        if !add_deleted.is_empty() {
            let mut staged: BTreeSet<u64> = add_deleted.into_iter().collect();
            self.deleted.append(&mut staged);
        }
        applied
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

    fn ingest_batch(&mut self, updates: &[Update]) -> Vec<bool> {
        self.apply_batch(updates)
    }
}

/// Bounded-size CDF drift tracker: counts per key bin at the last build vs
/// now; `dist()` is the sup-distance between the two cumulative histograms.
#[derive(Debug, Clone)]
pub struct DriftTracker {
    base: Vec<f64>,
    current: Vec<f64>,
    base_total: f64,
    current_total: f64,
}

impl DriftTracker {
    /// Starts tracking from the mapped keys of the data at build time.
    pub fn new(keys: impl IntoIterator<Item = f64>, bins: usize) -> Self {
        let bins = bins.max(1);
        let mut base = vec![0.0; bins];
        let mut total = 0.0;
        for k in keys {
            if let Some(bin) = base.get_mut(Self::bin_of(k, bins)) {
                *bin += 1.0;
            }
            total += 1.0;
        }
        Self {
            current: base.clone(),
            base,
            base_total: total,
            current_total: total,
        }
    }

    #[inline]
    fn bin_of(k: f64, bins: usize) -> usize {
        ((k.clamp(0.0, 1.0) * bins as f64) as usize).min(bins - 1)
    }

    /// Records an insertion.
    pub fn add(&mut self, key: f64) {
        let b = Self::bin_of(key, self.current.len());
        if let Some(bin) = self.current.get_mut(b) {
            *bin += 1.0;
            self.current_total += 1.0;
        }
    }

    /// Records a deletion.
    pub fn remove(&mut self, key: f64) {
        let b = Self::bin_of(key, self.current.len());
        if let Some(bin) = self.current.get_mut(b) {
            if *bin > 0.0 {
                *bin -= 1.0;
                self.current_total -= 1.0;
            }
        }
    }

    /// `dist(D', D)`: sup-distance between the current and at-build CDFs.
    pub fn dist(&self) -> f64 {
        if self.base_total == 0.0 || self.current_total == 0.0 {
            return if self.base_total == self.current_total {
                0.0
            } else {
                1.0
            };
        }
        let mut acc_b = 0.0;
        let mut acc_c = 0.0;
        let mut worst = 0.0f64;
        for (b, c) in self.base.iter().zip(&self.current) {
            acc_b += b / self.base_total;
            acc_c += c / self.current_total;
            worst = worst.max((acc_b - acc_c).abs());
        }
        worst
    }

    /// `dist(D_U, D')`: sup-distance of the current CDF from uniform.
    pub fn dist_from_uniform(&self) -> f64 {
        if self.current_total == 0.0 {
            return 1.0;
        }
        let bins = self.current.len() as f64;
        let mut acc = 0.0;
        let mut worst = 0.0f64;
        for (i, c) in self.current.iter().enumerate() {
            acc += c / self.current_total;
            worst = worst.max((acc - (i as f64 + 1.0) / bins).abs());
        }
        worst
    }

    /// Re-baselines the tracker after a rebuild.
    pub fn rebaseline(&mut self) {
        self.base = self.current.clone();
        self.base_total = self.current_total;
    }

    /// The sketch's raw state, for the snapshot writer:
    /// `(base bins, current bins, base total, current total)`.
    pub fn parts(&self) -> (&[f64], &[f64], f64, f64) {
        (
            &self.base,
            &self.current,
            self.base_total,
            self.current_total,
        )
    }

    /// Rebuilds a tracker from persisted [`DriftTracker::parts`].
    ///
    /// Returns `None` when the histograms are empty or their lengths
    /// disagree — both break the binning arithmetic, so a corrupted
    /// snapshot must not get this far.
    pub fn from_parts(
        base: Vec<f64>,
        current: Vec<f64>,
        base_total: f64,
        current_total: f64,
    ) -> Option<Self> {
        if base.is_empty() || base.len() != current.len() {
            return None;
        }
        Some(Self {
            base,
            current,
            base_total,
            current_total,
        })
    }
}

/// Outcome of one update routed through the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The update was applied to the base index.
    Applied,
    /// The update triggered a full rebuild.
    Rebuilt,
}

/// Outcome of one batch routed through [`UpdateProcessor::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Operations that took effect (every insert, plus deletes that
    /// dropped a live copy). Only these count toward the rebuild cadence.
    pub applied: usize,
    /// No-op deletes (no live copy to drop) — not counted as updates.
    pub ignored: usize,
    /// Whether the end-of-batch policy consultation triggered a rebuild.
    pub rebuilt: bool,
}

/// Rebuild callback of an [`UpdateProcessor`] (typically closing over an
/// `ElsiBuilder`). `Send + Sync` so processors can move across threads.
pub type RebuildFn<I> = Box<dyn Fn(Vec<Point>) -> I + Send + Sync>;

/// The full ELSI update lifecycle around a base index.
///
/// The processor owns the live point set (so it can hand it to the build
/// processor on rebuild), tracks drift, and consults a [`RebuildPolicy`]
/// every `f_u` updates.
pub struct UpdateProcessor<I: SpatialIndex> {
    index: I,
    rebuild_fn: RebuildFn<I>,
    policy: RebuildPolicy,
    /// Live point set, ordered by id so the rebuild input (and therefore
    /// the rebuilt index) is reproducible across runs and thread counts —
    /// a `HashMap` here would feed rebuilds in per-process random order.
    points: BTreeMap<u64, Point>,
    drift: DriftTracker,
    n_at_build: usize,
    updates_since_check: usize,
    /// Updates applied since the last (re)build — an O(1) counter so load
    /// probes (e.g. a shard router) never have to recompute drift features.
    updates_since_build: usize,
    f_u: usize,
    rebuilds: usize,
    /// Attached write-ahead log: every mutation is appended (and flushed)
    /// here *before* it touches the index, so a crash can lose at most
    /// the in-flight operation. `None` = not journaling.
    wal: Option<WalWriter>,
    /// The error that detached the WAL, when journaling has degraded.
    wal_error: Option<StoreError>,
}

/// The lifecycle counters a snapshot's meta section persists.
pub(crate) struct LifecycleCounters {
    pub n_at_build: usize,
    pub updates_since_check: usize,
    pub updates_since_build: usize,
    pub f_u: usize,
    pub rebuilds: usize,
}

impl<I: SpatialIndex> UpdateProcessor<I> {
    /// Wraps an index built over `initial` points; `rebuild_fn` rebuilds it
    /// from scratch (typically closing over an `ElsiBuilder`).
    pub fn new(
        initial: Vec<Point>,
        rebuild_fn: RebuildFn<I>,
        policy: RebuildPolicy,
        f_u: usize,
    ) -> Self {
        let index = rebuild_fn(initial.clone());
        let drift = DriftTracker::new(
            initial.iter().map(|p| MortonMapper.key(*p)),
            DEFAULT_SKETCH_BINS.min(1024),
        );
        let n_at_build = initial.len();
        let points = initial.into_iter().map(|p| (p.id, p)).collect();
        Self {
            index,
            rebuild_fn,
            policy,
            points,
            drift,
            n_at_build,
            updates_since_check: 0,
            updates_since_build: 0,
            f_u: f_u.max(1),
            rebuilds: 0,
            wal: None,
            wal_error: None,
        }
    }

    /// Reassembles a processor from snapshot parts (`persist` module).
    pub(crate) fn restore(
        index: I,
        rebuild_fn: RebuildFn<I>,
        policy: RebuildPolicy,
        points: BTreeMap<u64, Point>,
        drift: DriftTracker,
        c: LifecycleCounters,
    ) -> Self {
        Self {
            index,
            rebuild_fn,
            policy,
            points,
            drift,
            n_at_build: c.n_at_build,
            updates_since_check: c.updates_since_check,
            updates_since_build: c.updates_since_build,
            f_u: c.f_u.max(1),
            rebuilds: c.rebuilds,
            wal: None,
            wal_error: None,
        }
    }

    pub(crate) fn persist_counters(&self) -> LifecycleCounters {
        LifecycleCounters {
            n_at_build: self.n_at_build,
            updates_since_check: self.updates_since_check,
            updates_since_build: self.updates_since_build,
            f_u: self.f_u,
            rebuilds: self.rebuilds,
        }
    }

    /// The drift sketch (read-only; the snapshot writer persists it).
    pub fn drift_tracker(&self) -> &DriftTracker {
        &self.drift
    }

    /// The live point set in ascending-id order — the exact sequence a
    /// rebuild (and therefore snapshot recovery without an index codec)
    /// feeds to the build processor.
    pub fn live_points(&self) -> Vec<Point> {
        self.points.values().copied().collect()
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Number of full rebuilds performed so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Number of live points, in O(1) (no query against the index).
    pub fn live_len(&self) -> usize {
        self.points.len()
    }

    /// Cardinality at the last (re)build.
    pub fn n_at_build(&self) -> usize {
        self.n_at_build
    }

    /// Updates applied since the last (re)build, in O(1).
    ///
    /// This is the accessor hot paths (shard routers, load balancers,
    /// metrics) should read instead of [`UpdateProcessor::features`]: the
    /// full feature read walks both CDF sketches (O(bins) per call), which
    /// is fine at the every-`f_u`-updates rebuild cadence but not per query.
    pub fn pending_updates(&self) -> usize {
        self.updates_since_build
    }

    /// Current rebuild-decision features.
    ///
    /// Costs O(sketch bins): both drift statistics walk the bounded CDF
    /// sketches. Intended for the rebuild-predictor cadence (every `f_u`
    /// updates), not for per-query paths — those should use the O(1)
    /// accessors ([`UpdateProcessor::live_len`],
    /// [`UpdateProcessor::pending_updates`], [`UpdateProcessor::rebuilds`]).
    pub fn features(&self) -> RebuildFeatures {
        RebuildFeatures {
            n: self.points.len(),
            dist_u: self.drift.dist_from_uniform(),
            depth: self.index.depth(),
            update_ratio: if self.n_at_build == 0 {
                0.0
            } else {
                self.points.len() as f64 / self.n_at_build as f64 - 1.0
            },
            drift_sim: 1.0 - self.drift.dist(),
        }
    }

    /// Attaches a write-ahead log. Every subsequent mutation is appended
    /// to it before the in-memory state changes, so a crash can be
    /// replayed from the last snapshot ([`UpdateProcessor::replay_wal`]).
    /// Clears any previous journaling failure.
    pub fn attach_wal(&mut self, wal: WalWriter) {
        self.wal = Some(wal);
        self.wal_error = None;
    }

    /// Detaches the write-ahead log (e.g. right after a snapshot absorbed
    /// it), returning the writer so the caller can sync or retire it.
    pub fn detach_wal(&mut self) -> Option<WalWriter> {
        self.wal.take()
    }

    /// Whether a write-ahead log is currently attached.
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// The error that degraded journaling, if an append ever failed.
    ///
    /// An append failure must not poison serving: the processor drops the
    /// WAL, keeps applying updates in memory, and parks the error here so
    /// the operator layer can notice and re-establish durability (snapshot
    /// + fresh WAL).
    pub fn wal_error(&self) -> Option<&StoreError> {
        self.wal_error.as_ref()
    }

    /// Forces appended WAL records to stable storage. A no-op without an
    /// attached WAL.
    pub fn sync_wal(&mut self) -> Result<(), StoreError> {
        match self.wal.as_mut() {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Appends one update batch to the WAL (when attached) before the
    /// mutation it describes. On failure, degrades: detaches the WAL,
    /// records the error, and lets the mutation proceed in memory.
    fn log_updates(&mut self, updates: &[Update]) {
        if updates.is_empty() {
            return;
        }
        if let Some(wal) = self.wal.as_mut() {
            let payload = crate::persist::encode_updates(updates);
            if let Err(e) = wal.append(&payload) {
                self.wal = None;
                self.wal_error = Some(e);
            }
        }
    }

    /// Inserts a point, possibly triggering a rebuild.
    pub fn insert(&mut self, p: Point) -> UpdateOutcome {
        self.log_updates(&[Update::Insert(p)]);
        self.index.insert(p);
        self.points.insert(p.id, p);
        self.drift.add(MortonMapper.key(p));
        self.after_update()
    }

    /// Deletes a point, possibly triggering a rebuild. No-op deletes (the
    /// index held no live copy) are not updates: they leave the lifecycle
    /// counters untouched and never trigger a policy check. Use
    /// [`UpdateProcessor::delete_checked`] to also learn whether the point
    /// was actually dropped.
    pub fn delete(&mut self, p: Point) -> UpdateOutcome {
        self.delete_checked(p).1
    }

    /// Deletes a point; returns whether the index dropped a live copy and
    /// the lifecycle outcome.
    ///
    /// Only successful deletes count toward `pending_updates` and the
    /// every-`f_u` policy cadence — a failed delete changes nothing, so
    /// counting it would skew `update_ratio`/`drift_sim` toward spurious
    /// rebuild checks under workloads with many missing-id deletes.
    pub fn delete_checked(&mut self, p: Point) -> (bool, UpdateOutcome) {
        // Logged before the effect is known: a no-op delete replays as a
        // no-op (the batch path computes effects itself), so journaling it
        // is harmless — and waiting until after `index.delete` would leave
        // a window where a crash loses an applied delete.
        self.log_updates(&[Update::Delete(p)]);
        if self.index.delete(p) {
            self.points.remove(&p.id);
            self.drift.remove(MortonMapper.key(p));
            (true, self.after_update())
        } else {
            (false, UpdateOutcome::Applied)
        }
    }

    fn after_update(&mut self) -> UpdateOutcome {
        self.updates_since_check += 1;
        self.updates_since_build += 1;
        if self.updates_since_check < self.f_u {
            return UpdateOutcome::Applied;
        }
        self.updates_since_check = 0;
        if self.policy.should_rebuild(&self.features()) {
            self.rebuild();
            UpdateOutcome::Rebuilt
        } else {
            UpdateOutcome::Applied
        }
    }

    /// Applies a whole update batch: one bulk merge into the index
    /// ([`SpatialIndex::ingest_batch`]), one pass over the batch to update
    /// the live set and the drift sketch, and **one** rebuild-policy
    /// consultation at the end of the batch (when the effective-update
    /// counter has crossed `f_u`) instead of one every `f_u` single
    /// updates.
    ///
    /// Ingestion is bit-identical to folding the batch through
    /// [`UpdateProcessor::insert`] / [`UpdateProcessor::delete`]: the live
    /// set, drift sketch and counters end up exactly equal, and singleton
    /// batches reproduce the sequential path including its policy cadence.
    /// Only the *timing* of policy checks differs on multi-update batches —
    /// a check that sequential application would have run mid-batch is
    /// deferred to the batch end, so rebuild decisions see the whole
    /// batch's drift at once (`DESIGN.md` §10 states the exact equivalence
    /// claim; `tests/properties.rs` pins it).
    pub fn apply_batch(&mut self, updates: &[Update]) -> BatchOutcome {
        self.log_updates(updates);
        let flags = self.index.ingest_batch(updates);
        let mut applied = 0usize;
        if updates.len() * 4 < self.points.len() {
            // Small batch: a bulk merge would retraverse the whole live
            // map (`append` is O(live + batch)); per-op updates win. One
            // pass, in arrival order, so the drift sketch (whose `remove`
            // saturates at empty bins) evolves exactly as under
            // sequential application.
            for (u, ok) in updates.iter().zip(&flags) {
                match *u {
                    Update::Insert(p) => {
                        self.points.insert(p.id, p);
                        self.drift.add(MortonMapper.key(p));
                        applied += 1;
                    }
                    Update::Delete(p) if *ok => {
                        self.points.remove(&p.id);
                        self.drift.remove(MortonMapper.key(p));
                        applied += 1;
                    }
                    Update::Delete(_) => {}
                }
            }
        } else {
            // Drift replays per-op in arrival order; the live set only
            // needs each id's *net* effect, staged in ascending-id order
            // and merged with one ordered splice — the same group-and-
            // splice discipline as `DeltaOverlay::apply_batch`.
            for (u, ok) in updates.iter().zip(&flags) {
                match *u {
                    Update::Insert(p) => {
                        self.drift.add(MortonMapper.key(p));
                        applied += 1;
                    }
                    Update::Delete(p) if *ok => {
                        self.drift.remove(MortonMapper.key(p));
                        applied += 1;
                    }
                    Update::Delete(_) => {}
                }
            }
            let mut order: Vec<(u64, u32)> = updates
                .iter()
                .enumerate()
                .map(|(i, u)| (u.point().id, i as u32))
                .collect();
            order.sort_by_key(|&(id, _)| id);
            let mut survivors: Vec<(u64, Point)> = Vec::new(); // ascending id
            let mut rest: &[(u64, u32)] = &order;
            while let Some(&(id, _)) = rest.first() {
                let group_len = rest.iter().take_while(|&&(gid, _)| gid == id).count();
                let (group, tail) = rest.split_at(group_len);
                rest = tail;
                // None = this id's live entry is untouched by the batch.
                let mut net: Option<Option<Point>> = None;
                for &(_, op) in group {
                    let op = op as usize;
                    match (updates.get(op).copied(), flags.get(op).copied()) {
                        (Some(Update::Insert(p)), _) => net = Some(Some(p)),
                        (Some(Update::Delete(_)), Some(true)) => net = Some(None),
                        _ => {}
                    }
                }
                match net {
                    Some(Some(p)) => survivors.push((id, p)),
                    Some(None) => {
                        self.points.remove(&id);
                    }
                    None => {}
                }
            }
            // Sorted input → linear bulk build, then one splice.
            let mut staged: BTreeMap<u64, Point> = survivors.into_iter().collect();
            self.points.append(&mut staged);
        }
        self.updates_since_check += applied;
        self.updates_since_build += applied;
        let mut rebuilt = false;
        if self.updates_since_check >= self.f_u {
            self.updates_since_check = 0;
            if self.policy.should_rebuild(&self.features()) {
                self.rebuild();
                rebuilt = true;
            }
        }
        BatchOutcome {
            applied,
            ignored: updates.len() - applied,
            rebuilt,
        }
    }

    /// Forces a full rebuild through the build processor. The live set is
    /// handed over in ascending-id order, so rebuilds are reproducible.
    pub fn rebuild(&mut self) {
        let pts: Vec<Point> = self.points.values().copied().collect();
        self.n_at_build = pts.len();
        self.index = (self.rebuild_fn)(pts);
        self.drift.rebaseline();
        self.rebuilds += 1;
        self.updates_since_build = 0;
    }
}

impl<I: SpatialIndex> SpatialIndex for UpdateProcessor<I> {
    fn len(&self) -> usize {
        self.index.len()
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        self.index.point_query(q)
    }

    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        self.index.window_query_into(w, scratch, out);
    }

    fn knn_query_into(&self, q: Point, k: usize, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        self.index.knn_query_into(q, k, scratch, out);
    }

    fn insert(&mut self, p: Point) {
        UpdateProcessor::insert(self, p);
    }

    fn delete(&mut self, p: Point) -> bool {
        // The wrapped index's own outcome, not a `points`-map guess: the
        // live set tracks ids while index deletes also match coordinates,
        // so the two can disagree (e.g. a delete at stale coordinates).
        self.delete_checked(p).0
    }

    fn name(&self) -> &'static str {
        self.index.name()
    }

    fn depth(&self) -> usize {
        self.index.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::uniform;
    use elsi_indices::{GridConfig, GridIndex};

    fn grid_rebuild() -> RebuildFn<GridIndex> {
        Box::new(|pts| GridIndex::build(pts, &GridConfig { block_size: 20 }))
    }

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
    fn drift_tracker_detects_skewed_inserts() {
        let keys: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let mut t = DriftTracker::new(keys.iter().copied(), 256);
        assert!(t.dist() < 1e-9, "no drift initially");
        // Insert a mass of keys at 0.05: the CDF shifts left.
        for _ in 0..500 {
            t.add(0.05);
        }
        assert!(t.dist() > 0.2, "drift {}", t.dist());
        t.rebaseline();
        assert!(t.dist() < 1e-9, "rebaselined");
    }

    #[test]
    fn drift_tracker_uniform_distance() {
        let uniform_keys: Vec<f64> = (0..4096).map(|i| (i as f64 + 0.5) / 4096.0).collect();
        let t = DriftTracker::new(uniform_keys.iter().copied(), 512);
        assert!(t.dist_from_uniform() < 0.01);
        let point_mass = DriftTracker::new(std::iter::repeat_n(0.3, 100), 512);
        assert!(point_mass.dist_from_uniform() > 0.5);
    }

    #[test]
    fn processor_never_policy_applies_updates() {
        let mut proc =
            UpdateProcessor::new(uniform(300, 3), grid_rebuild(), RebuildPolicy::Never, 8);
        for i in 0..100u64 {
            let out = proc.insert(Point::new(10_000 + i, 0.01, 0.01));
            assert_eq!(out, UpdateOutcome::Applied);
        }
        assert_eq!(proc.rebuilds(), 0);
        assert_eq!(proc.len(), 400);
    }

    #[test]
    fn processor_threshold_policy_triggers_rebuild() {
        let policy = RebuildPolicy::Threshold {
            max_drift: 0.1,
            max_ratio: 10.0,
        };
        let mut proc = UpdateProcessor::new(uniform(300, 4), grid_rebuild(), policy, 16);
        let mut rebuilt = false;
        // Heavy skewed insertions drift the CDF and must trigger a rebuild.
        for i in 0..400u64 {
            if proc.insert(Point::new(20_000 + i, 0.001, 0.001)) == UpdateOutcome::Rebuilt {
                rebuilt = true;
                break;
            }
        }
        assert!(rebuilt, "threshold policy never fired");
        assert_eq!(proc.rebuilds(), 1);
        // Rebuild preserves all live points.
        assert!(proc.len() > 300);
        assert!(proc.point_query(Point::new(20_000, 0.001, 0.001)).is_some());
    }

    #[test]
    fn processor_features_track_ratio() {
        let mut proc =
            UpdateProcessor::new(uniform(100, 5), grid_rebuild(), RebuildPolicy::Never, 1000);
        for i in 0..50u64 {
            proc.insert(Point::new(30_000 + i, 0.5, 0.5));
        }
        let f = proc.features();
        assert_eq!(f.n, 150);
        assert!((f.update_ratio - 0.5).abs() < 1e-9);
        assert!(f.drift_sim < 1.0);
    }

    #[test]
    fn cheap_accessors_track_update_lifecycle() {
        let mut proc =
            UpdateProcessor::new(uniform(200, 7), grid_rebuild(), RebuildPolicy::Never, 1000);
        assert_eq!(proc.live_len(), 200);
        assert_eq!(proc.n_at_build(), 200);
        assert_eq!(proc.pending_updates(), 0);
        for i in 0..30u64 {
            proc.insert(Point::new(40_000 + i, 0.25, 0.75));
        }
        assert_eq!(proc.live_len(), 230);
        assert_eq!(proc.pending_updates(), 30);
        proc.rebuild();
        assert_eq!(proc.pending_updates(), 0);
        assert_eq!(proc.n_at_build(), 230);
        assert_eq!(proc.rebuilds(), 1);
    }

    #[test]
    fn rebuild_input_order_is_id_sorted() {
        // The live set is a BTreeMap: rebuilds see ascending ids no matter
        // the insertion order, so rebuilt indices are reproducible.
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = std::sync::Arc::clone(&seen);
        let rebuild: RebuildFn<GridIndex> = Box::new(move |pts| {
            let ids: Vec<u64> = pts.iter().map(|p| p.id).collect();
            *crate::lock_unpoisoned(&log) = ids;
            GridIndex::build(pts, &GridConfig { block_size: 20 })
        });
        let mut proc = UpdateProcessor::new(uniform(50, 8), rebuild, RebuildPolicy::Never, 1000);
        for id in [907u64, 60, 733, 51, 999] {
            proc.insert(Point::new(id, 0.4, 0.6));
        }
        proc.rebuild();
        let ids = crate::lock_unpoisoned(&seen).clone();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "rebuild input not id-ordered");
        assert_eq!(ids.len(), 55);
    }

    #[test]
    fn processor_delete_updates_live_set() {
        let pts = uniform(100, 6);
        let mut proc =
            UpdateProcessor::new(pts.clone(), grid_rebuild(), RebuildPolicy::Never, 1000);
        proc.delete(pts[10]);
        assert_eq!(proc.len(), 99);
        proc.rebuild();
        assert_eq!(proc.len(), 99);
        assert!(proc.point_query(pts[10]).is_none());
    }

    #[test]
    fn noop_deletes_are_not_updates() {
        // Regression: a failed delete used to run `after_update()`, so
        // missing-id deletes inflated the counters and triggered spurious
        // policy checks.
        let pts = uniform(100, 11);
        let mut proc =
            UpdateProcessor::new(pts.clone(), grid_rebuild(), RebuildPolicy::Never, 1000);
        for i in 0..40u64 {
            let (had, out) = proc.delete_checked(Point::new(500_000 + i, 0.5, 0.5));
            assert!(!had);
            assert_eq!(out, UpdateOutcome::Applied);
        }
        assert_eq!(proc.pending_updates(), 0, "no-op deletes counted");
        // A successful delete still counts.
        assert!(proc.delete_checked(pts[3]).0);
        assert_eq!(proc.pending_updates(), 1);
    }

    #[test]
    fn noop_deletes_never_trigger_policy_checks() {
        // With f_u = 1 and a hair-trigger threshold policy, any counted
        // update runs a policy check that rebuilds. Failed deletes must
        // not reach it.
        let policy = RebuildPolicy::Threshold {
            max_drift: -1.0, // 1 - drift_sim >= 0 always exceeds this
            max_ratio: 1000.0,
        };
        let pts = uniform(50, 12);
        let mut proc = UpdateProcessor::new(pts.clone(), grid_rebuild(), policy, 1);
        for i in 0..10u64 {
            proc.delete(Point::new(700_000 + i, 0.1, 0.1));
        }
        assert_eq!(proc.rebuilds(), 0, "no-op deletes reached the policy");
        proc.delete(pts[0]);
        assert_eq!(proc.rebuilds(), 1, "real delete must consult the policy");
    }

    #[test]
    fn trait_delete_reports_the_index_outcome() {
        // Regression: the trait impl used to answer from the `points` map,
        // which can disagree with the wrapped index (deletes match
        // coordinates, the live set only ids).
        let pts = uniform(80, 13);
        let overlay_rebuild: RebuildFn<DeltaOverlay<GridIndex>> = Box::new(|pts| {
            DeltaOverlay::new(GridIndex::build(pts, &GridConfig { block_size: 20 }))
        });
        let mut proc = UpdateProcessor::new(pts.clone(), overlay_rebuild, RebuildPolicy::Never, 64);
        // Wrong coordinates: the id is live but the index finds nothing.
        let stale = Point::new(pts[7].id, (pts[7].x + 0.43) % 1.0, (pts[7].y + 0.39) % 1.0);
        assert!(proc.points.contains_key(&stale.id));
        let via_trait = SpatialIndex::delete(&mut proc, stale);
        assert!(!via_trait, "trait delete must report the index outcome");
        assert!(proc.point_query(pts[7]).is_some(), "live copy untouched");
        // Trait and inherent paths agree on a real delete.
        let mut proc2 = UpdateProcessor::new(pts.clone(), grid_rebuild(), RebuildPolicy::Never, 64);
        assert!(SpatialIndex::delete(&mut proc2, pts[7]));
        assert!(!SpatialIndex::delete(&mut proc2, pts[7]), "already gone");
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
        let build = || {
            DeltaOverlay::new(GridIndex::build(
                uniform(60, 21),
                &GridConfig { block_size: 16 },
            ))
        };
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
        let mut bulk = build();
        let got_flags = bulk.apply_batch(&batch);
        let mut seq = build();
        let want_flags: Vec<bool> = batch
            .iter()
            .map(|u| match *u {
                Update::Insert(p) => {
                    seq.insert(p);
                    true
                }
                Update::Delete(p) => seq.delete(p),
            })
            .collect();
        assert_eq!(got_flags, want_flags);
        assert_eq!(bulk.len(), seq.len());
        assert_eq!(bulk.delta_len(), seq.delta_len());
        assert_eq!(
            bulk.window_query(&Rect::unit()),
            seq.window_query(&Rect::unit()),
            "bulk merge must be bit-identical to sequential folding"
        );
    }

    #[test]
    fn processor_batch_consults_policy_once() {
        let policy = RebuildPolicy::Threshold {
            max_drift: -1.0, // every consultation rebuilds
            max_ratio: 1000.0,
        };
        let mut proc = UpdateProcessor::new(
            uniform(200, 22),
            Box::new(|pts| {
                DeltaOverlay::new(GridIndex::build(pts, &GridConfig { block_size: 20 }))
            }),
            policy,
            16,
        );
        let batch: Vec<Update> = (0..100u64)
            .map(|i| Update::Insert(Point::new(800_000 + i, 0.25, 0.75)))
            .collect();
        let out = proc.apply_batch(&batch);
        assert_eq!(out.applied, 100);
        assert_eq!(out.ignored, 0);
        assert!(out.rebuilt);
        // Sequential application would have consulted (and rebuilt) every
        // 16 updates; the batch path consults exactly once at the end.
        assert_eq!(proc.rebuilds(), 1);
        assert_eq!(proc.pending_updates(), 0, "rebuild resets the counter");
        assert_eq!(proc.len(), 300);
    }

    #[test]
    fn singleton_batches_reproduce_the_sequential_cadence() {
        let policy = || RebuildPolicy::Threshold {
            max_drift: 0.05,
            max_ratio: 10.0,
        };
        let overlay_rebuild = || -> RebuildFn<DeltaOverlay<GridIndex>> {
            Box::new(|pts| DeltaOverlay::new(GridIndex::build(pts, &GridConfig { block_size: 20 })))
        };
        let base = uniform(300, 23);
        let mut one_at_a_time = UpdateProcessor::new(base.clone(), overlay_rebuild(), policy(), 16);
        let mut singleton = UpdateProcessor::new(base, overlay_rebuild(), policy(), 16);
        for i in 0..200u64 {
            let u = if i % 5 == 4 {
                Update::Delete(Point::new(i / 5, 0.0, 0.0)) // mostly no-ops
            } else {
                Update::Insert(Point::new(900_000 + i, 0.02, 0.02))
            };
            match u {
                Update::Insert(p) => {
                    one_at_a_time.insert(p);
                }
                Update::Delete(p) => {
                    one_at_a_time.delete(p);
                }
            }
            singleton.apply_batch(&[u]);
        }
        assert_eq!(one_at_a_time.rebuilds(), singleton.rebuilds());
        assert_eq!(one_at_a_time.pending_updates(), singleton.pending_updates());
        assert_eq!(one_at_a_time.len(), singleton.len());
        assert_eq!(
            one_at_a_time.window_query(&Rect::unit()),
            singleton.window_query(&Rect::unit())
        );
        assert!(one_at_a_time.rebuilds() >= 1, "cadence never exercised");
    }
}
