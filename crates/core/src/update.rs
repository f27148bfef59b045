//! The ELSI update processor (§IV-B2).
//!
//! [`UpdateProcessor`] is the lifecycle manager around a base index: it
//! routes updates to the index (by default a [`DeltaOverlay`] delta layer),
//! tracks the CDF drift `sim(D', D)` with a bounded-size sketch
//! ([`DriftTracker`]), runs the rebuild predictor every `f_u` updates, and
//! triggers full rebuilds through the build processor.
//!
//! The **index owns the live set** and the processor holds no points: a
//! rebuild is fed [`SpatialIndex::live_points`], the live count is the
//! index's `len`, and the sketch retires the keys the index reports retired.
//!
//! There is **one write path**: [`UpdateProcessor::apply_batch`] is the only
//! body that mutates the index and the drift sketch, counts, and consults
//! the rebuild policy. It is one arrival-order fold — one policy
//! consultation per call — and the per-op entry points are singleton
//! batches of it (`DESIGN.md` §10). The processor journals nothing: the
//! deployment that owns it does, once per write call (`DESIGN.md` §14).

use crate::rebuild::{RebuildFeatures, RebuildPolicy};
use elsi_data::cdf::DEFAULT_SKETCH_BINS;
pub use elsi_data::stream::Update;
use elsi_indices::SpatialIndex;
use elsi_spatial::{KeyMapper, MortonMapper, Point, Rect, ScanScratch};
use elsi_store::StoreError;

pub use crate::drift::DriftTracker;
pub use crate::overlay::DeltaOverlay;

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

impl From<BatchOutcome> for UpdateOutcome {
    /// What a per-op caller learns of its singleton batch.
    fn from(out: BatchOutcome) -> Self {
        if out.rebuilt {
            UpdateOutcome::Rebuilt
        } else {
            UpdateOutcome::Applied
        }
    }
}

/// Rebuild callback of an [`UpdateProcessor`] (typically closing over an
/// `ElsiBuilder`). `Send + Sync` so processors can move across threads.
pub type RebuildFn<I> = Box<dyn Fn(Vec<Point>) -> I + Send + Sync>;

/// The full ELSI update lifecycle around a base index.
///
/// The processor tracks drift and consults a [`RebuildPolicy`] every
/// `f_u` updates; a rebuild hands the index's own live points to the build
/// processor.
pub struct UpdateProcessor<I: SpatialIndex> {
    index: I,
    rebuild_fn: RebuildFn<I>,
    policy: RebuildPolicy,
    drift: DriftTracker,
    counters: LifecycleCounters,
    /// Whether the owning deployment's journal is attached, as it last
    /// reported ([`UpdateProcessor::set_journal_status`]).
    wal_attached: bool,
    /// The error that detached that journal, as it last reported.
    wal_error: Option<StoreError>,
}

/// The lifecycle counters a snapshot's meta section persists.
#[derive(Default)]
pub(crate) struct LifecycleCounters {
    pub n_at_build: usize,
    pub updates_since_check: usize,
    /// Updates applied since the last (re)build — an O(1) counter so load
    /// probes (e.g. a shard router) never have to recompute drift features.
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
        let drift = DriftTracker::new(
            initial.iter().map(|p| MortonMapper.key(*p)),
            DEFAULT_SKETCH_BINS.min(1024),
        );
        let fresh = LifecycleCounters {
            n_at_build: initial.len(),
            f_u,
            ..Default::default()
        };
        Self::restore(rebuild_fn(initial), rebuild_fn, policy, drift, fresh)
    }

    /// Assembles a processor from its parts — a fresh one's, or a
    /// snapshot's (`persist` module).
    pub(crate) fn restore(
        index: I,
        rebuild_fn: RebuildFn<I>,
        policy: RebuildPolicy,
        drift: DriftTracker,
        mut counters: LifecycleCounters,
    ) -> Self {
        counters.f_u = counters.f_u.max(1);
        Self {
            index,
            rebuild_fn,
            policy,
            drift,
            counters,
            wal_attached: false,
            wal_error: None,
        }
    }

    pub(crate) fn persist_counters(&self) -> &LifecycleCounters {
        &self.counters
    }

    /// The drift sketch (read-only; the snapshot writer persists it).
    pub fn drift_tracker(&self) -> &DriftTracker {
        &self.drift
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Number of full rebuilds performed so far.
    pub fn rebuilds(&self) -> usize {
        self.counters.rebuilds
    }

    /// Number of live points: the index's own O(1) count.
    pub fn live_len(&self) -> usize {
        self.index.len()
    }

    /// Cardinality at the last (re)build.
    pub fn n_at_build(&self) -> usize {
        self.counters.n_at_build
    }

    /// Updates applied since the last (re)build, in O(1).
    ///
    /// This is the accessor hot paths (shard routers, load balancers,
    /// metrics) should read instead of [`UpdateProcessor::features`]: the
    /// full feature read walks both CDF sketches (O(bins) per call), which
    /// is fine at the every-`f_u`-updates rebuild cadence but not per query.
    pub fn pending_updates(&self) -> usize {
        self.counters.updates_since_build
    }

    /// Current rebuild-decision features.
    ///
    /// Costs O(sketch bins): both drift statistics walk the bounded CDF
    /// sketches. Intended for the rebuild-predictor cadence (every `f_u`
    /// updates), not for per-query paths — those should use the O(1)
    /// accessors ([`UpdateProcessor::live_len`],
    /// [`UpdateProcessor::pending_updates`], [`UpdateProcessor::rebuilds`]).
    pub fn features(&self) -> RebuildFeatures {
        self.features_with(self.drift.dist_from_uniform())
    }

    /// [`UpdateProcessor::features`] with `dist_u` given.
    fn features_with(&self, dist_u: f64) -> RebuildFeatures {
        let n = self.index.len();
        RebuildFeatures {
            n,
            dist_u,
            depth: self.index.depth(),
            update_ratio: if self.counters.n_at_build == 0 {
                0.0
            } else {
                n as f64 / self.counters.n_at_build as f64 - 1.0
            },
            drift_sim: 1.0 - self.drift.dist(),
        }
    }

    /// The policy's verdict on the current features, computing only those
    /// it reads: `Never` reads none, and `Threshold` never reads `dist_u`,
    /// so its second pass over the sketch is skipped (`NaN` stands in).
    fn policy_wants_rebuild(&self) -> bool {
        let dist_u = match self.policy {
            RebuildPolicy::Never => return false,
            RebuildPolicy::Threshold { .. } => f64::NAN,
            RebuildPolicy::Learned(_) => self.drift.dist_from_uniform(),
        };
        self.policy.should_rebuild(&self.features_with(dist_u))
    }

    /// Records what the deployment that owns this processor reports of
    /// its journal: whether one is attached, and the error that detached
    /// it. The processor itself journals nothing.
    pub fn set_journal_status(&mut self, attached: bool, error: Option<StoreError>) {
        self.wal_attached = attached;
        self.wal_error = error;
    }

    /// Whether the owning deployment's journal is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal_attached
    }

    /// The error that detached the owning deployment's journal, if an
    /// append ever failed. Serving goes on in memory; the operator layer
    /// re-establishes durability with a save.
    pub fn wal_error(&self) -> Option<&StoreError> {
        self.wal_error.as_ref()
    }

    /// Applies `updates` in arrival order — the processor's one write path.
    ///
    /// One call is one fold of the batch through the index
    /// ([`SpatialIndex::ingest_batch`]) and, by the retired copies it
    /// returns, through the drift sketch, and **one** rebuild-policy
    /// consultation at the end, when the effective-update counter has
    /// crossed `f_u`. A check that per-op application would have run
    /// mid-batch is thereby deferred to the batch end, so a rebuild
    /// decision sees the whole batch's drift at once (`DESIGN.md` §10).
    ///
    /// No-op deletes (the index held no live copy) are not updates: they
    /// leave the lifecycle counters untouched and never reach the policy,
    /// so a stream of missing-id deletes cannot skew `update_ratio` /
    /// `drift_sim` toward spurious rebuild checks.
    pub fn apply_batch(&mut self, updates: &[Update]) -> BatchOutcome {
        let retired = self.index.ingest_batch(updates);
        let mut applied = 0usize;
        for (&u, &old) in updates.iter().zip(&retired) {
            // The sketch follows the live set, not the request: an
            // overwrite first retires the key of the copy it replaces, and
            // a delete retires the key of the copy the index dropped —
            // deletes of delta points are id-only, so the request's own
            // coordinates may be stale.
            if let Some(old) = old {
                self.drift.remove(MortonMapper.key(old));
            }
            if let Update::Insert(p) = u {
                self.drift.add(MortonMapper.key(p));
            }
            // A delete that retired nothing is not an update.
            applied += usize::from(u.is_insert() || old.is_some());
        }
        self.counters.updates_since_check += applied;
        self.counters.updates_since_build += applied;
        let mut rebuilt = false;
        if self.counters.updates_since_check >= self.counters.f_u {
            self.counters.updates_since_check = 0;
            if self.policy_wants_rebuild() {
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

    /// Inserts a point — a singleton [`UpdateProcessor::apply_batch`] —
    /// possibly triggering a rebuild.
    pub fn insert(&mut self, p: Point) -> UpdateOutcome {
        self.apply_batch(&[Update::Insert(p)]).into()
    }

    /// Deletes a point, possibly triggering a rebuild. Use
    /// [`UpdateProcessor::delete_checked`] to also learn whether the point
    /// was actually dropped.
    pub fn delete(&mut self, p: Point) -> UpdateOutcome {
        self.delete_checked(p).1
    }

    /// Deletes a point — a singleton [`UpdateProcessor::apply_batch`];
    /// returns whether the index dropped a live copy and the lifecycle
    /// outcome.
    pub fn delete_checked(&mut self, p: Point) -> (bool, UpdateOutcome) {
        let out = self.apply_batch(&[Update::Delete(p)]);
        (out.applied == 1, out.into())
    }

    /// Forces a full rebuild through the build processor. The index's live
    /// set is handed over in ascending-id order ([`SpatialIndex::live_points`]),
    /// so rebuilds are reproducible.
    pub fn rebuild(&mut self) {
        let pts = self.index.live_points();
        self.counters.n_at_build = pts.len();
        self.index = (self.rebuild_fn)(pts);
        self.drift.rebaseline();
        self.counters.rebuilds += 1;
        self.counters.updates_since_build = 0;
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

    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        self.index.knn_within_into(q, k, r2, scratch, out);
    }

    fn live_points_into(&self, out: &mut Vec<Point>) {
        self.index.live_points_into(out);
    }

    fn insert(&mut self, p: Point) {
        UpdateProcessor::insert(self, p);
    }

    fn delete(&mut self, p: Point) -> bool {
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

    fn overlay_rebuild() -> RebuildFn<DeltaOverlay<GridIndex>> {
        Box::new(|pts| DeltaOverlay::new(GridIndex::build(pts, &GridConfig { block_size: 20 })))
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
        // The rebuild input is the index's canonical enumeration: rebuilds
        // see ascending ids no matter the insertion order or the index's
        // own layout, so rebuilt indices are reproducible.
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
        // Regression: a failed delete used to count as an update, so
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
        // Regression: the trait impl used to answer from an id map beside
        // the index, which disagreed with it (index deletes also match
        // coordinates).
        let pts = uniform(80, 13);
        let mut proc =
            UpdateProcessor::new(pts.clone(), overlay_rebuild(), RebuildPolicy::Never, 64);
        // Wrong coordinates: the id is live but the index finds nothing.
        let stale = Point::new(pts[7].id, (pts[7].x + 0.43) % 1.0, (pts[7].y + 0.39) % 1.0);
        assert!(proc.live_points().iter().any(|p| p.id == stale.id));
        let via_trait = SpatialIndex::delete(&mut proc, stale);
        assert!(!via_trait, "trait delete must report the index outcome");
        assert!(proc.point_query(pts[7]).is_some(), "live copy untouched");
        // Trait and inherent paths agree on a real delete.
        let mut proc2 = UpdateProcessor::new(pts.clone(), grid_rebuild(), RebuildPolicy::Never, 64);
        assert!(SpatialIndex::delete(&mut proc2, pts[7]));
        assert!(!SpatialIndex::delete(&mut proc2, pts[7]), "already gone");
    }

    #[test]
    fn processor_batch_consults_policy_once() {
        let make = || {
            UpdateProcessor::new(
                uniform(200, 22),
                overlay_rebuild(),
                RebuildPolicy::Threshold {
                    max_drift: -1.0, // every consultation rebuilds
                    max_ratio: 1000.0,
                },
                16,
            )
        };
        let inserts: Vec<Point> = (0..100u64)
            .map(|i| Point::new(800_000 + i, 0.25, 0.75))
            .collect();
        let batch: Vec<Update> = inserts.iter().map(|&p| Update::Insert(p)).collect();
        let mut proc = make();
        let out = proc.apply_batch(&batch);
        assert_eq!(out.applied, 100);
        assert_eq!(out.ignored, 0);
        assert!(out.rebuilt);
        // One call, one consultation, however many multiples of `f_u` the
        // batch carries.
        assert_eq!(proc.rebuilds(), 1);
        assert_eq!(proc.pending_updates(), 0, "rebuild resets the counter");
        assert_eq!(proc.len(), 300);

        // The per-op entry points are singleton batches, so the same hundred
        // inserts one call at a time consult at every 16th effective update
        // (six rebuilds, four updates pending); the no-op deletes in between
        // are not counted.
        let mut per_op = make();
        let mut rebuilt_outcomes = 0;
        for (i, &p) in inserts.iter().enumerate() {
            if per_op.insert(p) == UpdateOutcome::Rebuilt {
                rebuilt_outcomes += 1;
                assert_eq!((i + 1) % 16, 0, "consulted off the cadence");
            }
            let missing = Point::new(900_000 + i as u64, 0.5, 0.5);
            assert_eq!(
                per_op.delete_checked(missing),
                (false, UpdateOutcome::Applied)
            );
        }
        assert_eq!(rebuilt_outcomes, 6);
        assert_eq!(per_op.rebuilds(), 6);
        assert_eq!(per_op.pending_updates(), 4);
        assert_eq!(per_op.len(), 300);
    }
}
