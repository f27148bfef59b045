//! Property-based tests (proptest) over the core invariants of the stack:
//! curve bijectivity, KS-distance bounds, the systematic-sampling gap bound
//! (§V-A1), quadtree partition completeness, rank-model search-range
//! correctness, window-query exactness of the exact indices, and the
//! [`elsi::DeltaOverlay`] last-write-wins id semantics against a
//! brute-force oracle.

use elsi_data::{cdf, sample};
use elsi_indices::{
    build_on_training_set, GridConfig, GridIndex, HrrConfig, HrrIndex, PwlBuilder, SpatialIndex,
    ZmConfig, ZmIndex, ZmStateCodec,
};
use elsi_ml::TrainConfig;
use elsi_spatial::curve::{hilbert, morton};
use elsi_spatial::{canonical_point_key, quadtree_partition, KeyMapper, MortonMapper, Point, Rect};
use elsi_store::{IndexCodec, NoCodec, Snapshot, StoreError};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Snaps a raw unit-square coordinate so the boundary values 0.0 and 1.0
/// occur regularly — the batch-ingestion oracles should exercise points
/// on shard/grid edges, not just the interior.
fn snap(v: f64) -> f64 {
    if v < 0.03 {
        0.0
    } else if v > 0.97 {
        1.0
    } else {
        v
    }
}

/// Base points `0..n` of the batch-ingestion oracles.
fn base_points(raw: &[(f64, f64)]) -> Vec<Point> {
    raw.iter()
        .enumerate()
        .map(|(i, &(x, y))| Point::new(i as u64, x, y))
        .collect()
}

/// A window result in canonical order.
fn canonical(mut pts: Vec<Point>) -> Vec<Point> {
    pts.sort_by_key(canonical_point_key);
    pts
}

/// The id-keyed model of a [`elsi::DeltaOverlay`]: one live copy per id,
/// the last write wins; a delete of a buffered copy is id-only and leaves
/// a base copy of that id dead (no resurrection); a delete of an untouched
/// base copy needs its exact coordinates.
struct OverlayModel {
    base_ids: BTreeSet<u64>,
    live: BTreeMap<u64, Point>,
    /// Ids whose live copy is buffered in the delta.
    buffered: BTreeSet<u64>,
}

impl OverlayModel {
    fn new(base: &[Point]) -> Self {
        Self {
            base_ids: base.iter().map(|p| p.id).collect(),
            live: base.iter().map(|p| (p.id, *p)).collect(),
            buffered: BTreeSet::new(),
        }
    }

    /// Applies `u` and returns the live copy it retired: the one an insert
    /// replaced, the one a delete dropped.
    fn apply(&mut self, u: elsi::Update) -> Option<Point> {
        match u {
            elsi::Update::Insert(p) => {
                self.buffered.insert(p.id);
                self.live.insert(p.id, p)
            }
            elsi::Update::Delete(p) => {
                let hit = self.buffered.remove(&p.id)
                    || self
                        .live
                        .get(&p.id)
                        .is_some_and(|b| b.x == p.x && b.y == p.y);
                hit.then(|| self.live.remove(&p.id)).flatten()
            }
        }
    }

    /// A rebuild: the live set becomes the base, the delta is empty.
    fn rebase(&mut self) {
        self.base_ids = self.live.keys().copied().collect();
        self.buffered.clear();
    }

    /// Turns raw `(kind, id, x, y)` draws into a stream and applies it:
    /// kinds 0–1 insert at the (snapped) drawn coordinates, kind 2 deletes
    /// the id at its live coordinates when it has any, kind 3 at the drawn
    /// — stale — ones. Returns the stream and the copy each op retired.
    fn drive(&mut self, ops: &[(u8, u64, f64, f64)]) -> (Vec<elsi::Update>, Vec<Option<Point>>) {
        ops.iter()
            .map(|&(kind, id, x, y)| {
                let drawn = Point::new(id, snap(x), snap(y));
                let u = match kind {
                    0 | 1 => elsi::Update::Insert(drawn),
                    2 => elsi::Update::Delete(*self.live.get(&id).unwrap_or(&drawn)),
                    _ => elsi::Update::Delete(drawn),
                };
                (u, self.apply(u))
            })
            .unzip()
    }

    /// Buffered copies plus tombstones: base ids whose base copy is no
    /// longer the live one.
    fn delta_len(&self) -> usize {
        let untouched = |id: &u64| self.live.contains_key(id) && !self.buffered.contains(id);
        self.buffered.len() + self.base_ids.iter().filter(|id| !untouched(id)).count()
    }

    fn canonical_live(&self) -> Vec<Point> {
        canonical(self.live.values().copied().collect())
    }
}

/// Ops of a driven stream that took effect: every insert, and the deletes
/// that retired a copy.
fn effective(stream: &[elsi::Update], retired: &[Option<Point>]) -> usize {
    let took = |(u, r): (&elsi::Update, &Option<Point>)| {
        matches!(u, elsi::Update::Insert(_)) || r.is_some()
    };
    stream.iter().zip(retired).filter(|&ur| took(ur)).count()
}

type ZmShard = elsi::UpdateProcessor<elsi::DeltaOverlay<ZmIndex>>;

fn zm_overlay_rebuild() -> elsi::RebuildFn<elsi::DeltaOverlay<ZmIndex>> {
    Box::new(|p| {
        let builder = PwlBuilder { epsilon: 8 };
        elsi::DeltaOverlay::new(ZmIndex::build(p, &ZmConfig { fanout: 4 }, &builder))
    })
}

/// Saves `proc` into an in-memory snapshot image and reopens it.
fn reopen<C: IndexCodec<elsi::DeltaOverlay<ZmIndex>>>(
    proc: &ZmShard,
    codec: &C,
) -> Result<ZmShard, StoreError> {
    let image = proc.snapshot_writer(codec).to_bytes();
    let snap = Snapshot::from_bytes(&image, std::path::Path::new("mem"))?;
    let never = elsi::RebuildPolicy::Never;
    elsi::UpdateProcessor::from_snapshot(&snap, zm_overlay_rebuild(), never, codec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn morton_roundtrips(x in any::<u32>(), y in any::<u32>()) {
        let code = morton::morton_encode(x, y);
        prop_assert_eq!(morton::morton_decode(code), (x, y));
    }

    #[test]
    fn morton_monotone_under_dominance(
        x1 in 0u32..1000, y1 in 0u32..1000, dx in 0u32..1000, dy in 0u32..1000
    ) {
        // If (x1,y1) ≤ (x2,y2) componentwise, the Z-value cannot decrease —
        // the property ZM's exact window query relies on.
        let a = morton::morton_encode(x1, y1);
        let b = morton::morton_encode(x1 + dx, y1 + dy);
        prop_assert!(a <= b);
    }

    #[test]
    fn hilbert_roundtrips(x in 0u32..(1 << 16), y in 0u32..(1 << 16)) {
        let d = hilbert::hilbert_encode(16, x, y);
        prop_assert_eq!(hilbert::hilbert_decode(16, d), (x, y));
    }

    #[test]
    fn ks_distance_bounded_and_zero_on_self(mut keys in prop::collection::vec(0.0f64..1.0, 1..200)) {
        keys.sort_by(|a, b| a.total_cmp(b));
        let d = cdf::ks_distance(&keys, &keys);
        prop_assert!((0.0..1e-9).contains(&d));
        let uniform: Vec<f64> = (0..500).map(|i| (i as f64 + 0.5) / 500.0).collect();
        let d2 = cdf::ks_distance(&keys, &uniform);
        prop_assert!((0.0..=1.0).contains(&d2));
    }

    #[test]
    fn systematic_sampling_gap_bound(n in 1usize..2000, rho_m in 1usize..100) {
        // Pigeonhole bound of §V-A1: every rank within ⌊1/ρ⌋ − 1 of a sample.
        let rho = rho_m as f64 / 100.0;
        let idx = sample::systematic_indices(n, rho);
        let bound = (1.0 / rho).floor() as usize - 1;
        for i in 0..n {
            let nearest = idx.iter().map(|&j| j.abs_diff(i)).min().unwrap();
            prop_assert!(nearest <= bound, "rank {} gap {} bound {}", i, nearest, bound);
        }
    }

    #[test]
    fn quadtree_partition_is_complete_and_disjoint(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..300),
        beta in 1usize..50
    ) {
        let points: Vec<Point> =
            pts.iter().enumerate().map(|(i, &(x, y))| Point::new(i as u64, x, y)).collect();
        let leaves = quadtree_partition(&points, beta, Rect::unit());
        let mut seen = vec![false; points.len()];
        for leaf in &leaves {
            prop_assert!(!leaf.indices.is_empty());
            for &i in &leaf.indices {
                prop_assert!(!seen[i], "point {} appears twice", i);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some point dropped");
    }

    #[test]
    fn rank_model_search_range_contains_every_rank(
        raw in prop::collection::vec(0.0f64..1.0, 2..150)
    ) {
        let mut keys = raw;
        keys.sort_by(|a, b| a.total_cmp(b));
        // A deliberately under-trained model: bounds must still guarantee
        // containment because they are derived empirically.
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let built = build_on_training_set(&keys, &keys, 4, &cfg, 1, "OG", Duration::ZERO);
        for (i, &k) in keys.iter().enumerate() {
            let (lo, hi) = built.model.search_range(k);
            prop_assert!(lo <= i && i < hi, "rank {} outside [{}, {})", i, lo, hi);
        }
    }

    #[test]
    fn exact_indices_agree_with_brute_force_windows(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..250),
        (wx, wy, ww, wh) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5)
    ) {
        let points: Vec<Point> =
            pts.iter().enumerate().map(|(i, &(x, y))| Point::new(i as u64, x, y)).collect();
        let w = Rect::new(wx, wy, (wx + ww).min(1.0), (wy + wh).min(1.0));
        let mut want: Vec<u64> =
            points.iter().filter(|p| w.contains(p)).map(|p| p.id).collect();
        want.sort_unstable();

        let grid = GridIndex::build(points.clone(), &GridConfig { block_size: 16 });
        let mut got: Vec<u64> = grid.window_query(&w).iter().map(|p| p.id).collect();
        got.sort_unstable();
        prop_assert_eq!(&got, &want);

        let hrr = HrrIndex::build(points, &HrrConfig { leaf_capacity: 16, fanout: 4 });
        let mut got: Vec<u64> = hrr.window_query(&w).iter().map(|p| p.id).collect();
        got.sort_unstable();
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn delta_overlay_matches_id_oracle(
        base_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..60),
        ops in prop::collection::vec((0u8..4, 0u64..40, 0.0f64..1.0, 0.0f64..1.0), 0..120),
        (wx, wy, ww, wh) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.6, 0.0f64..0.6)
    ) {
        // Random mixed insert/delete/query workloads against a brute-force
        // id → point oracle. Op ids are drawn from a range overlapping the
        // base ids, so overwrites of base points (id collisions) are
        // exercised: the overlay must keep exactly one live copy per id,
        // with the last write winning.
        let points: Vec<Point> = base_pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point::new(i as u64, x, y))
            .collect();
        let mut live: BTreeMap<u64, Point> = points.iter().map(|p| (p.id, *p)).collect();
        let base = GridIndex::build(points, &GridConfig { block_size: 16 });
        let mut overlay = elsi::DeltaOverlay::new(base);

        for &(op, id, x, y) in &ops {
            match op {
                // Two insert arms: overwrites and fresh ids both happen.
                0 | 1 => {
                    let p = Point::new(id, x, y);
                    overlay.insert(p);
                    live.insert(id, p);
                }
                // Delete the live copy of an id (base, delta, or overwrite).
                2 => {
                    if let Some(p) = live.get(&id).copied() {
                        prop_assert!(overlay.delete(p), "live id {} not deleted", id);
                        live.remove(&id);
                    }
                }
                // Deleting a dead id must report not-found.
                _ => {
                    if !live.contains_key(&id) {
                        prop_assert!(!overlay.delete(Point::new(id, x, y)));
                    }
                }
            }
            prop_assert_eq!(overlay.len(), live.len(), "len after op {:?}", (op, id));
        }

        // Every live point is found at its coordinates under its id.
        for p in live.values() {
            prop_assert_eq!(overlay.point_query(*p).map(|g| g.id), Some(p.id));
        }

        // Window query agrees with the oracle, one copy per id.
        let w = Rect::new(wx, wy, (wx + ww).min(1.0), (wy + wh).min(1.0));
        let mut got: Vec<u64> = overlay.window_query(&w).iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> =
            live.values().filter(|p| w.contains(p)).map(|p| p.id).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        // kNN distances agree with brute force over the live set.
        let q = Point::at(0.5, 0.5);
        let got = overlay.knn_query(q, 5);
        prop_assert_eq!(got.len(), 5usize.min(live.len()));
        let mut dists: Vec<f64> = live.values().map(|p| q.dist(p)).collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        for (g, d) in got.iter().zip(&dists) {
            prop_assert!((q.dist(g) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn overlay_batch_ingestion_is_bit_identical_to_sequential(
        base_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..60),
        ops in prop::collection::vec((0u8..4, 0u64..90, 0.0f64..1.0, 0.0f64..1.0), 0..120)
    ) {
        // `DeltaOverlay::apply_batch` against the id-keyed model: the copy
        // each op retired, live size, delta size, the canonical unit-window
        // result and point probes, under random interleavings of inserts,
        // overwrites (duplicate ids in the same batch, ids colliding with
        // base points), exact and stale-coordinate deletes, including
        // boundary coordinates.
        let points = base_points(&base_pts);
        let mut model = OverlayModel::new(&points);
        let (batch, want_retired) = model.drive(&ops);
        let mut overlay = elsi::DeltaOverlay::new(
            GridIndex::build(points, &GridConfig { block_size: 16 })
        );

        prop_assert_eq!(overlay.apply_batch(&batch), want_retired);
        prop_assert_eq!(overlay.len(), model.live.len());
        prop_assert_eq!(overlay.delta_len(), model.delta_len());
        prop_assert_eq!(canonical(overlay.window_query(&Rect::unit())), model.canonical_live());
        prop_assert_eq!(overlay.live_points(), model.canonical_live());
        // Every op's coordinates answer with the live copy stored there, if
        // any (delete/insert of one id inside a batch resolve by arrival).
        for u in batch.iter().take(20) {
            let want = model.live.values().find(|p| p.x == u.point().x && p.y == u.point().y);
            prop_assert_eq!(overlay.point_query(u.point()), want.copied());
        }
    }

    #[test]
    fn processor_batch_ingestion_matches_sequential_under_never(
        base_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..50),
        ops in prop::collection::vec((0u8..4, 0u64..75, 0.0f64..1.0, 0.0f64..1.0), 0..100),
        chunk in 1usize..17,
        steps in prop::collection::vec(0u8..6, 1..8)
    ) {
        // At the lifecycle level (live set, counters, drift sketch) every
        // chunking of the stream — singletons through the per-op doors
        // included — must land on the model's state when the policy never
        // fires. Between chunks the drawn `steps` force the states whose
        // contents are derived from the index, not stored beside it: a
        // rebuild and a save → reopen through the points section (both fold
        // the delta into a fresh base), and a save → reopen through the
        // index blob (the exact state, delta intact).
        let points = base_points(&base_pts);
        let mut model = OverlayModel::new(&points);
        let mut proc =
            elsi::UpdateProcessor::new(points, zm_overlay_rebuild(), elsi::RebuildPolicy::Never, 8);
        let mut pending = 0usize;
        for (i, c) in ops.chunks(chunk).enumerate() {
            let (stream, retired) = model.drive(c);
            let applied = match *stream.as_slice() {
                [elsi::Update::Insert(p)] => {
                    proc.insert(p);
                    1
                }
                [elsi::Update::Delete(p)] => usize::from(SpatialIndex::delete(&mut proc, p)),
                _ => proc.apply_batch(&stream).applied,
            };
            prop_assert_eq!(applied, effective(&stream, &retired));
            pending += applied;
            match steps[i % steps.len()] {
                3 => {
                    proc.rebuild();
                    model.rebase();
                    pending = 0;
                }
                step @ 4..=5 => {
                    let reopened = if step == 4 {
                        model.rebase();
                        reopen(&proc, &elsi::OverlayCodec::new(NoCodec))
                    } else {
                        reopen(&proc, &elsi::OverlayCodec::new(ZmStateCodec))
                    };
                    prop_assert!(reopened.is_ok(), "{:?}", reopened.as_ref().err());
                    if let Ok(reopened) = reopened {
                        proc = reopened;
                    }
                }
                _ => {}
            }

            prop_assert_eq!(proc.len(), model.live.len());
            prop_assert_eq!(proc.live_len(), model.live.len());
            prop_assert_eq!(proc.pending_updates(), pending);
            prop_assert_eq!(proc.index().delta_len(), model.delta_len());
            prop_assert_eq!(proc.live_points(), model.live.values().copied().collect::<Vec<_>>());
            prop_assert_eq!(canonical(proc.window_query(&Rect::unit())), model.canonical_live());
            // The sketch follows the live set: its current histogram is the
            // one a fresh sketch over the model's points would hold.
            let keys = model.live.values().map(|p| MortonMapper.key(*p));
            let (_, current, _, current_total) = proc.drift_tracker().parts();
            let bins = current.len();
            prop_assert_eq!(current_total, model.live.len() as f64);
            prop_assert_eq!(current, elsi::DriftTracker::new(keys, bins).parts().1);
        }
    }

    #[test]
    fn aligned_batches_reproduce_sequential_rebuild_cadence(
        base_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 5..40),
        inserts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..80),
        f_u in 1usize..12
    ) {
        // When batch boundaries align with the policy cadence (insert-only
        // chunks of exactly f_u), once-per-batch checking is bit-identical
        // to per-f_u checking: same rebuild count, same post-rebuild index.
        let points: Vec<Point> = base_pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point::new(i as u64, x, y))
            .collect();
        let stream: Vec<elsi::Update> = inserts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| elsi::Update::Insert(Point::new(1_000 + i as u64, snap(x), snap(y))))
            .collect();
        let make = || {
            let pts = points.clone();
            let rebuild: elsi::RebuildFn<elsi::DeltaOverlay<GridIndex>> = Box::new(|p| {
                elsi::DeltaOverlay::new(GridIndex::build(p, &GridConfig { block_size: 16 }))
            });
            let policy = elsi::RebuildPolicy::Threshold { max_drift: 0.2, max_ratio: 4.0 };
            elsi::UpdateProcessor::new(pts, rebuild, policy, f_u)
        };

        let mut batched = make();
        for c in stream.chunks(f_u) {
            batched.apply_batch(c);
        }
        let mut seq = make();
        for &u in &stream {
            if let elsi::Update::Insert(p) = u {
                seq.insert(p);
            }
        }
        prop_assert_eq!(batched.rebuilds(), seq.rebuilds());
        prop_assert_eq!(batched.pending_updates(), seq.pending_updates());
        prop_assert_eq!(batched.window_query(&Rect::unit()), seq.window_query(&Rect::unit()));
    }

    #[test]
    fn drift_tracker_dist_is_bounded(
        base in prop::collection::vec(0.0f64..1.0, 1..200),
        adds in prop::collection::vec(0.0f64..1.0, 0..200)
    ) {
        let mut t = elsi::DriftTracker::new(base.iter().copied(), 64);
        for a in &adds {
            t.add(*a);
        }
        let d = t.dist();
        prop_assert!((0.0..=1.0).contains(&d));
        t.rebaseline();
        prop_assert!(t.dist() < 1e-12);
    }
}
