//! Property-based tests (proptest) over the core invariants of the stack:
//! curve bijectivity, KS-distance bounds, the systematic-sampling gap bound
//! (§V-A1), quadtree partition completeness, rank-model search-range
//! correctness, window-query exactness of the exact indices, and the
//! [`elsi::DeltaOverlay`] last-write-wins id semantics against a
//! brute-force oracle.

use elsi_data::{cdf, sample};
use elsi_indices::{
    build_on_training_set, GridConfig, GridIndex, HrrConfig, HrrIndex, SpatialIndex,
};
use elsi_ml::TrainConfig;
use elsi_spatial::curve::{hilbert, morton};
use elsi_spatial::{quadtree_partition, Point, Rect};
use proptest::prelude::*;
use std::time::Duration;

/// Snaps a raw unit-square coordinate so the boundary values 0.0 and 1.0
/// occur regularly — the batch-equivalence oracles should exercise points
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
        use std::collections::BTreeMap;
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
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..30, 0.0f64..1.0, 0.0f64..1.0), 0..120
        )
    ) {
        // The tentpole equivalence oracle: `DeltaOverlay::apply_batch` must
        // be indistinguishable from folding the same updates one at a time
        // — per-op outcome flags, live size, delta size and the full
        // canonical window result, under random interleavings of inserts,
        // overwrites (duplicate ids in the same batch, ids colliding with
        // base points) and deletes, including boundary coordinates.
        let points: Vec<Point> = base_pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point::new(i as u64, x, y))
            .collect();
        let batch: Vec<elsi::Update> = ops
            .iter()
            .map(|&(is_insert, id, x, y)| {
                let p = Point::new(id, snap(x), snap(y));
                if is_insert { elsi::Update::Insert(p) } else { elsi::Update::Delete(p) }
            })
            .collect();
        let build = || elsi::DeltaOverlay::new(
            GridIndex::build(points.clone(), &GridConfig { block_size: 16 })
        );

        let mut bulk = build();
        let bulk_flags = bulk.apply_batch(&batch);
        let mut seq = build();
        let seq_flags: Vec<bool> = batch
            .iter()
            .map(|u| match *u {
                elsi::Update::Insert(p) => {
                    seq.insert(p);
                    true
                }
                elsi::Update::Delete(p) => seq.delete(p),
            })
            .collect();

        prop_assert_eq!(bulk_flags, seq_flags);
        prop_assert_eq!(bulk.len(), seq.len());
        prop_assert_eq!(bulk.delta_len(), seq.delta_len());
        prop_assert_eq!(bulk.window_query(&Rect::unit()), seq.window_query(&Rect::unit()));
        // Random-probe agreement on point queries (delete/insert of the
        // same id inside one batch must resolve identically).
        for &(_, id, x, y) in ops.iter().take(20) {
            let p = Point::new(id, snap(x), snap(y));
            prop_assert_eq!(bulk.point_query(p), seq.point_query(p));
        }
    }

    #[test]
    fn processor_batch_ingestion_matches_sequential_under_never(
        base_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..50),
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..25, 0.0f64..1.0, 0.0f64..1.0), 0..100
        ),
        chunk in 1usize..17
    ) {
        // At the lifecycle level (live set, drift sketch, counters) the
        // batch path must match per-op application exactly when the policy
        // never fires, for every chunking of the stream.
        let points: Vec<Point> = base_pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point::new(i as u64, x, y))
            .collect();
        let stream: Vec<elsi::Update> = ops
            .iter()
            .map(|&(is_insert, id, x, y)| {
                let p = Point::new(id, snap(x), snap(y));
                if is_insert { elsi::Update::Insert(p) } else { elsi::Update::Delete(p) }
            })
            .collect();
        let make = || {
            let pts = points.clone();
            let rebuild: elsi::RebuildFn<elsi::DeltaOverlay<GridIndex>> = Box::new(|p| {
                elsi::DeltaOverlay::new(GridIndex::build(p, &GridConfig { block_size: 16 }))
            });
            elsi::UpdateProcessor::new(pts, rebuild, elsi::RebuildPolicy::Never, 8)
        };

        let mut batched = make();
        let mut applied = 0usize;
        for c in stream.chunks(chunk) {
            applied += batched.apply_batch(c).applied;
        }
        let mut seq = make();
        let mut seq_applied = 0usize;
        for &u in &stream {
            match u {
                elsi::Update::Insert(p) => {
                    seq.insert(p);
                    seq_applied += 1;
                }
                elsi::Update::Delete(p) => {
                    if SpatialIndex::delete(&mut seq, p) {
                        seq_applied += 1;
                    }
                }
            }
        }
        prop_assert_eq!(applied, seq_applied);
        prop_assert_eq!(batched.len(), seq.len());
        prop_assert_eq!(batched.pending_updates(), seq.pending_updates());
        prop_assert_eq!(batched.window_query(&Rect::unit()), seq.window_query(&Rect::unit()));
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
