//! Property-based tests (proptest) over the core invariants of the stack:
//! curve bijectivity, KS-distance bounds, the systematic-sampling gap bound
//! (§V-A1), rank-model search-range correctness, window-query exactness of
//! the exact indices, and the [`elsi::DeltaOverlay`] last-write-wins id
//! semantics against the conformance table's brute-force oracle.

#[path = "support/mod.rs"]
mod support;

use elsi::Update;
use elsi_data::{cdf, sample};
use elsi_indices::{build_on_training_set, SpatialIndex, ZmStateCodec};
use elsi_ml::TrainConfig;
use elsi_spatial::curve::{hilbert, morton};
use elsi_spatial::{canonical_knn_cmp, KeyMapper, MortonMapper, Point, Rect};
use elsi_store::NoCodec;
use proptest::prelude::*;
use support::*;

/// Drawn coordinates as points `0..n`.
fn base_points(raw: &[(f64, f64)]) -> Vec<Point> {
    raw.iter()
        .enumerate()
        .map(|(i, &(x, y))| Point::new(i as u64, x, y))
        .collect()
}

fn zm_overlay_rebuild() -> elsi::RebuildFn<elsi::DeltaOverlay<elsi_indices::ZmIndex>> {
    Box::new(|p| elsi::DeltaOverlay::new(Zoo::pwl(8, 8).zm(p)))
}

/// The lattice of `delta_pages_match_a_sorted_reference`: node `(dx, dy)`
/// of an 8×8 grid of pitch 0.004 around one of three centres.
fn lattice_point(id: u64, centre: usize, dx: u8, dy: u8) -> Point {
    const CENTRES: [(f64, f64); 3] = [(0.5, 0.5), (0.25, 0.75), (0.8, 0.3)];
    let (cx, cy) = CENTRES[centre % 3];
    let at = |c: f64, d: u8| c + (f64::from(d) - 3.5) * 0.004;
    Point::new(id, at(cx, dx), at(cy, dy))
}

/// The pages' reference order: Morton code, then id.
fn page_key(p: &Point) -> (u64, u64) {
    (morton::morton_of(p.x, p.y), p.id)
}

/// Applies `u` to the reference — the id's copy goes (an id-only delete),
/// an insert lands at its key — and returns the copy it retired.
fn write(reference: &mut Vec<Point>, u: Update) -> Option<Point> {
    let p = u.point();
    let old = reference
        .iter()
        .position(|r| r.id == p.id)
        .map(|at| reference.remove(at));
    if u.is_insert() {
        let at = reference.partition_point(|r| page_key(r) < page_key(&p));
        reference.insert(at, p);
    }
    old
}

/// The overlay over an empty base against the sorted reference: windows
/// across x = 0.5 and y = 0.5, the unit square and the drawn one, in
/// order; lookups at every lattice node (a stack answers its lowest id);
/// kNN at `r² = ∞` and within `r2`; and the length.
fn pages_agree(overlay: &impl SpatialIndex, reference: &[Point], drawn: Rect, r2: f64) {
    let straddling = [
        Rect::new(0.49, 0.0, 0.51, 1.0),
        Rect::new(0.0, 0.49, 1.0, 0.51),
        Rect::new(0.45, 0.45, 0.55, 0.55),
        Rect::unit(),
        drawn,
    ];
    for w in straddling {
        let want: Vec<Point> = reference
            .iter()
            .filter(|p| w.contains(p))
            .copied()
            .collect();
        prop_assert_eq!(overlay.window_query(&w), want, "{:?}", w);
    }
    for (c, dx, dy) in
        (0..3).flat_map(|c| (0..8).flat_map(move |dx| (0..8).map(move |dy| (c, dx, dy))))
    {
        let q = lattice_point(0, c, dx, dy);
        let want = reference.iter().find(|r| r.x == q.x && r.y == q.y).copied();
        prop_assert_eq!(overlay.point_query(q), want, "{:?}", q);
    }
    let (mut scratch, mut got) = (elsi_spatial::ScanScratch::new(), Vec::new());
    for q in [
        lattice_point(0, 0, 3, 4),
        lattice_point(0, 2, 0, 7),
        Point::at(drawn.lo_x, drawn.lo_y),
    ] {
        let mut by_distance = reference.to_vec();
        by_distance.sort_by(|a, b| canonical_knn_cmp(q, a, b));
        let within = by_distance.iter().filter(|p| q.dist2(p) <= r2);
        let within: Vec<Point> = within.copied().collect();
        for k in [1, 7, 60, reference.len() + 3] {
            let want = &by_distance[..k.min(by_distance.len())];
            prop_assert_eq!(&overlay.knn_query(q, k), want, "{:?} k={}", q, k);
            overlay.knn_within_into(q, k, r2, &mut scratch, &mut got);
            prop_assert_eq!(
                &got,
                &within[..k.min(within.len())],
                "{:?} k={} r2={}",
                q,
                k,
                r2
            );
        }
    }
    prop_assert_eq!(overlay.len(), reference.len());
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
            let nearest = idx.iter().map(|&j| j.abs_diff(i)).min();
            prop_assert!(nearest.is_some_and(|d| d <= bound), "rank {} gap {:?} bound {}", i, nearest, bound);
        }
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
        let built = build_on_training_set(&keys, &keys, 4, &cfg, 1, "OG");
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
        let points = base_points(&pts);
        let w = Rect::new(wx, wy, (wx + ww).min(1.0), (wy + wh).min(1.0));
        let (zoo, oracle) = (Zoo::pwl(16, 4), Oracle::new(&points));
        let qs = Queries::windows([w]);
        for kind in [Kind::Grid, Kind::Hrr] {
            check(&zoo.subject(kind, State::Built, &points, &[]), &oracle, &qs);
        }
    }

    #[test]
    fn delta_overlay_matches_id_oracle(
        base_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..60),
        ops in prop::collection::vec((0u8..4, 0u64..40, 0.0f64..1.0, 0.0f64..1.0), 0..120),
        (wx, wy, ww, wh) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.6, 0.0f64..0.6)
    ) {
        // Random mixed insert/delete/query workloads. Op ids overlap the
        // base ids, so overwrites of base points are exercised: one live
        // copy per id, the last write winning; a delete of a dead id must
        // report not-found.
        let points = base_points(&base_pts);
        let mut oracle = Oracle::new(&points);
        oracle.apply_draws(&ops);
        // Every live point is found at its coordinates, a window and the
        // nearest five of the centre agree with the oracle.
        let windows = vec![Rect::new(wx, wy, (wx + ww).min(1.0), (wy + wh).min(1.0))];
        let qs = Queries { points: oracle.live().to_vec(), windows, ..Queries::knn([Point::at(0.5, 0.5)], vec![5]) };
        check(&Zoo::pwl(16, 4).subject(Kind::Grid, State::Dirty, &points, &oracle.stream), &oracle, &qs);
    }

    #[test]
    fn delta_pages_match_a_sorted_reference(
        ops in prop::collection::vec((0u8..8, 0u64..400, 0usize..3, 0u8..8, 0u8..8), 300..800),
        (wx, wy, ww, wh) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5),
        r2 in 0.0f64..0.002,
    ) {
        // Writes clustered on three 8×8 lattices of stacked coordinates,
        // one centred on (0.5, 0.5) (the widest corner-code range), over an
        // empty base, so every answer comes from the delta pages. The first
        // half mostly inserts and overwrites, so pages fill past B and
        // split; the second half mostly exact and stale deletes, then every
        // survivor of the centre cluster goes, so pages empty. The
        // reference is the live delta sorted by (Morton code, id).
        let mut overlay = elsi::DeltaOverlay::new(Zoo::pwl(16, 4).build(Kind::Grid, Vec::new()));
        let mut reference: Vec<Point> = Vec::new();
        let drawn = Rect::new(wx, wy, (wx + ww).min(1.0), (wy + wh).min(1.0));
        let half = ops.len() / 2;
        for (i, &(kind, id, c, dx, dy)) in ops.iter().enumerate() {
            let p = lattice_point(id, c, dx, dy);
            let u = match (kind < if i < half { 6 } else { 2 }, kind % 2) {
                (true, _) => Update::Insert(p),
                (false, 0) => Update::Delete(reference.iter().find(|r| r.id == id).copied().unwrap_or(p)),
                (false, _) => Update::Delete(p),
            };
            prop_assert_eq!(overlay.apply_batch(&[u]), vec![write(&mut reference, u)]);
            if i % 100 == 99 {
                pages_agree(&overlay, &reference, drawn, r2);
            }
        }
        pages_agree(&overlay, &reference, drawn, r2);
        let centre: Vec<Point> = reference.iter().filter(|r| r.x > 0.4 && r.x < 0.6).copied().collect();
        for r in centre {
            let stale = Update::Delete(Point::new(r.id, 0.0, 0.0));
            prop_assert_eq!(overlay.apply_batch(&[stale]), vec![write(&mut reference, stale)]);
        }
        pages_agree(&overlay, &reference, drawn, r2);
    }

    #[test]
    fn overlay_batch_ingestion_is_bit_identical_to_sequential(
        base_pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..60),
        ops in prop::collection::vec((0u8..4, 0u64..90, 0.0f64..1.0, 0.0f64..1.0), 0..120)
    ) {
        // `DeltaOverlay::apply_batch` against the oracle: the copy each op
        // retired, live and delta size, the unit window and point probes,
        // under random interleavings of inserts, overwrites (duplicate ids
        // in one batch, ids colliding with base points), exact and
        // stale-coordinate deletes, on boundary coordinates too.
        let points = base_points(&base_pts);
        let mut oracle = Oracle::new(&points);
        let want_retired = oracle.apply_draws(&ops);
        let mut overlay = elsi::DeltaOverlay::new(Zoo::pwl(16, 4).build(Kind::Grid, points));
        prop_assert_eq!(overlay.apply_batch(&oracle.stream), want_retired);
        prop_assert_eq!(overlay.delta_len(), oracle.delta_len());
        prop_assert_eq!(overlay.live_points(), oracle.live());
        let probes = oracle.stream.iter().take(20).map(Update::point);
        let qs = Queries { windows: vec![Rect::unit()], ..Queries::lookups(probes) };
        check(&Subject::new(Kind::Grid, State::Dirty, Box::new(overlay)), &oracle, &qs);
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
        // included — must land on the oracle's state when the policy never
        // fires. Between chunks the drawn `steps` force a rebuild, a save →
        // reopen through the points section (both fold the delta into a
        // fresh base), or one through the index blob (delta intact).
        let points = base_points(&base_pts);
        let mut oracle = Oracle::new(&points);
        let mut proc =
            elsi::UpdateProcessor::new(points, zm_overlay_rebuild(), elsi::RebuildPolicy::Never, 8);
        let mut pending = 0usize;
        for (i, c) in ops.chunks(chunk).enumerate() {
            let from = oracle.stream.len();
            oracle.apply_draws(c);
            let applied = match oracle.stream[from..] {
                [Update::Insert(p)] => {
                    proc.insert(p);
                    1
                }
                [Update::Delete(p)] => usize::from(SpatialIndex::delete(&mut proc, p)),
                ref batch => proc.apply_batch(batch).applied,
            };
            prop_assert_eq!(applied, oracle.applied[from..].iter().filter(|&&t| t).count());
            pending += applied;
            let reopened = match steps[i % steps.len()] {
                3 => {
                    proc.rebuild();
                    oracle.rebase();
                    pending = 0;
                    None
                }
                4 => {
                    oracle.rebase();
                    Some(reopen(&proc, zm_overlay_rebuild(), &elsi::OverlayCodec::new(NoCodec)))
                }
                5 => Some(reopen(&proc, zm_overlay_rebuild(), &elsi::OverlayCodec::new(ZmStateCodec))),
                _ => None,
            };
            if let Some(reopened) = reopened {
                prop_assert!(reopened.is_ok(), "{:?}", reopened.as_ref().err());
                proc = reopened.unwrap_or(proc);
            }
            prop_assert_eq!(proc.len(), oracle.len());
            prop_assert_eq!(proc.live_len(), oracle.len());
            prop_assert_eq!(proc.pending_updates(), pending);
            prop_assert_eq!(proc.index().delta_len(), oracle.delta_len());
            prop_assert_eq!(proc.live_points(), oracle.live());
            prop_assert_eq!(canonical(proc.window_query(&Rect::unit())), oracle.live());
            // The sketch follows the live set: its current histogram is the
            // one a fresh sketch over the oracle's points would hold.
            let keys = oracle.live().iter().map(|p| MortonMapper.key(*p));
            let (_, current, _, current_total) = proc.drift_tracker().parts();
            prop_assert_eq!(current_total, oracle.len() as f64);
            prop_assert_eq!(current, elsi::DriftTracker::new(keys, current.len()).parts().1);
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
        let points = base_points(&base_pts);
        let fresh = inserts.iter().enumerate().map(|(i, &(x, y))| Point::new(1_000 + i as u64, snap(x), snap(y)));
        let stream: Vec<Update> = fresh.map(Update::Insert).collect();
        let make = || {
            let zoo = Zoo::pwl(16, 4);
            let rebuild: elsi::RebuildFn<_> = Box::new(move |p| elsi::DeltaOverlay::new(zoo.build(Kind::Grid, p)));
            let policy = elsi::RebuildPolicy::Threshold { max_drift: 0.2, max_ratio: 4.0 };
            elsi::UpdateProcessor::new(points.clone(), rebuild, policy, f_u)
        };
        let mut batched = make();
        for c in stream.chunks(f_u) {
            batched.apply_batch(c);
        }
        let mut seq = make();
        for u in &stream {
            seq.insert(u.point());
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
