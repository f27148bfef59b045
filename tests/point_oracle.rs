//! Point lookups against the brute-force oracle, for all nine indices and a
//! dirty [`DeltaOverlay`] over ZM.
//!
//! The model-backed indices (ZM, ML-Index, Flood, RSMI) answer a lookup by
//! *predict → bounded key search → equal-key run → coordinate scan*
//! (`DESIGN.md` §12), so the point sets aim at what a search by key can get
//! wrong where a scan of the whole error-bounded span could not: many
//! points stacked on one coordinate (one long equal-key run), coordinates
//! snapped onto a coarse lattice (runs of distinct points whose keys tie on
//! one axis), partition sizes the fanout does not divide, tombstones in the
//! middle of a run, buffered inserts on top of stored points, and queries
//! that are absent, on corners, outside the unit square or NaN.
//!
//! Where several live points share the query's coordinates any of them is a
//! correct answer for the nine-index sweep; for ZM and ML-Index, whose rank
//! order a test can reproduce, the answer is additionally held to the
//! *first live match of a whole-column scan in rank order* — the reference
//! the product no longer runs.

use elsi::DeltaOverlay;
use elsi_indices::*;
use elsi_spatial::{sort_by_key, MortonMapper, Point};
use proptest::prelude::*;
use std::collections::HashSet;

/// Clustered + lattice-snapped + stacked points with unique ids.
fn assemble(
    clustered: &[(f64, f64)],
    snapped: &[(u32, u32)],
    stack: (f64, f64, usize),
) -> Vec<Point> {
    const CENTRES: [(f64, f64); 3] = [(0.2, 0.7), (0.55, 0.5), (0.93, 0.08)];
    let clustered = clustered.iter().enumerate().map(|(i, &(dx, dy))| {
        let (cx, cy) = CENTRES[i % CENTRES.len()];
        (cx + dx * 0.04, cy + dy * 0.04)
    });
    let snapped = snapped
        .iter()
        .map(|&(i, j)| (f64::from(i) / 8.0, f64::from(j) / 8.0));
    let stacked = std::iter::repeat_n((stack.0, stack.1), stack.2);
    clustered
        .chain(snapped)
        .chain(stacked)
        .enumerate()
        .map(|(i, (x, y))| Point::new(i as u64, x, y))
        .collect()
}

/// All nine indices over `points`, with pages small enough that even a
/// hundred points spread over several leaves, cells, columns and shards.
fn all_nine(points: &[Point]) -> Vec<Box<dyn SpatialIndex>> {
    let pts = || points.to_vec();
    let b = PwlBuilder { epsilon: 4 };
    vec![
        Box::new(GridIndex::build(pts(), &GridConfig { block_size: 8 })),
        Box::new(KdbIndex::build(pts(), &KdbConfig { leaf_capacity: 8 })),
        Box::new(HrrIndex::build(
            pts(),
            &HrrConfig {
                leaf_capacity: 8,
                fanout: 4,
            },
        )),
        Box::new(RStarIndex::build(
            pts(),
            &RStarConfig {
                leaf_capacity: 8,
                fanout: 4,
                min_fill: 0.4,
            },
        )),
        Box::new(ZmIndex::build(pts(), &ZmConfig { fanout: 4 }, &b)),
        Box::new(MlIndex::build(
            pts(),
            &MlConfig {
                pivots: 4,
                ..MlConfig::default()
            },
            &b,
        )),
        Box::new(FloodIndex::build(pts(), &FloodConfig { columns: 4 }, &b)),
        Box::new(RsmiIndex::build(
            pts(),
            &RsmiConfig {
                leaf_capacity: 16,
                fanout: 4,
                ..RsmiConfig::default()
            },
            &b,
        )),
        Box::new(LisaIndex::build(
            pts(),
            &LisaConfig {
                grid: 4,
                shard_size: 32,
                block_size: 8,
            },
            &b,
        )),
    ]
}

/// The drawn query plus the fixed hard ones: the stack, lattice nodes and
/// corners (stored or not, as the draw has it), points outside the unit
/// square, and NaN coordinates.
fn hard_queries(q: (f64, f64), stack: (f64, f64, usize)) -> [Point; 11] {
    [
        Point::at(q.0, q.1),
        Point::at(stack.0, stack.1),
        Point::at(0.0, 0.0),
        Point::at(1.0, 1.0),
        Point::at(0.0, 1.0),
        Point::at(0.5, 0.375),
        Point::at(-0.3, 0.5),
        Point::at(1.7, 1.2),
        Point::at(f64::NAN, 0.5),
        Point::at(0.5, f64::NAN),
        Point::at(f64::NAN, f64::NAN),
    ]
}

/// `idx.point_query(q)` against brute force over `live`: a miss exactly
/// when no live point has `q`'s coordinates, else one of those that do.
fn check_lookup(idx: &dyn SpatialIndex, live: &[Point], q: Point) {
    let got = idx.point_query(q);
    let at_q = |p: &&Point| p.x == q.x && p.y == q.y;
    match got {
        None => assert!(
            !live.iter().any(|p| at_q(&p)),
            "{} missed a live point at {q:?}",
            idx.name()
        ),
        Some(found) => assert!(
            live.iter().filter(at_q).any(|p| *p == found),
            "{} answered {found:?} for {q:?}: not a live point there",
            idx.name()
        ),
    }
}

/// Every live point and every hard query of one index against the oracle.
fn check_all(idx: &dyn SpatialIndex, live: &[Point], q: (f64, f64), stack: (f64, f64, usize)) {
    for p in live {
        check_lookup(idx, live, *p);
    }
    for qp in hard_queries(q, stack) {
        check_lookup(idx, live, qp);
    }
}

/// The lookup the model-backed indices used to run, kept as the reference:
/// the first live coordinate match of a scan over the *whole* sorted
/// column in rank order, then the insert buffer in arrival order.
fn whole_column_scan(
    sorted: &[Point],
    buffered: &[Point],
    deleted: &HashSet<u64>,
    q: Point,
) -> Option<Point> {
    sorted
        .iter()
        .chain(buffered)
        .find(|p| p.x == q.x && p.y == q.y && !deleted.contains(&p.id))
        .copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_nine_indices_match_the_oracle(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack);
        for idx in all_nine(&points) {
            check_all(idx.as_ref(), &points, q, stack);
        }
    }

    #[test]
    fn tombstones_and_buffered_inserts_match_the_oracle(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack);
        let (gone, mut live): (Vec<_>, Vec<_>) =
            points.iter().partition(|p| p.id as usize % delete_stride == 0);
        // Fresh points, half of them on top of the stack or a stored point.
        let fresh: Vec<Point> = inserts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| match i % 4 {
                0 => Point::new(10_000 + i as u64, stack.0, stack.1),
                1 => Point::new(10_000 + i as u64, points[i % points.len()].x, points[i % points.len()].y),
                _ => Point::new(10_000 + i as u64, x, y),
            })
            .collect();
        live.extend(&fresh);
        for mut idx in all_nine(&points) {
            for p in &gone {
                prop_assert!(idx.delete(*p), "{} lost {:?}", idx.name(), p);
                prop_assert!(!idx.delete(*p), "{} deleted {:?} twice", idx.name(), p);
            }
            for p in &fresh {
                idx.insert(*p);
            }
            prop_assert_eq!(idx.len(), live.len(), "{}", idx.name());
            check_all(idx.as_ref(), &live, q, stack);
            // A tombstoned point is gone even where its neighbours in the
            // equal-key run are not.
            for p in &gone {
                check_lookup(idx.as_ref(), &live, *p);
            }
        }
    }

    #[test]
    fn zm_and_ml_answer_what_a_whole_column_scan_answers(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..60),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 2usize..40),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0u32..=8, 0u32..=8), 0..20),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        // Stacked and lattice points with distinct ids: which of them a
        // lookup returns is decided by rank order, and must not have moved.
        let points = assemble(&clustered, &snapped, stack);
        let builder = PwlBuilder { epsilon: 4 };
        let mut zm = ZmIndex::build(points.clone(), &ZmConfig { fanout: 4 }, &builder);
        let ml_cfg = MlConfig { pivots: 4, ..MlConfig::default() };
        let mut ml = MlIndex::build(points.clone(), &ml_cfg, &builder);
        let (by_z, _) = sort_by_key(points.clone(), &MortonMapper);
        let (by_dist, _) = sort_by_key(points.clone(), ml.mapper());
        let mut deleted = HashSet::new();
        let mut buffered = Vec::new();
        let lookups = |zm: &ZmIndex, ml: &MlIndex, deleted: &HashSet<u64>, buffered: &[Point]| {
            for qp in points.iter().copied().chain(hard_queries(q, stack)) {
                assert_eq!(zm.point_query(qp), whole_column_scan(&by_z, buffered, deleted, qp), "ZM {qp:?}");
                assert_eq!(ml.point_query(qp), whole_column_scan(&by_dist, buffered, deleted, qp), "ML {qp:?}");
            }
        };
        lookups(&zm, &ml, &deleted, &buffered);
        for p in points.iter().filter(|p| p.id as usize % delete_stride == 0) {
            prop_assert!(zm.delete(*p) && ml.delete(*p));
            deleted.insert(p.id);
        }
        lookups(&zm, &ml, &deleted, &buffered);
        // Buffered inserts on lattice nodes, stored or not: stored copies
        // still win, in rank order.
        for (i, &(a, b)) in inserts.iter().enumerate() {
            let p = Point::new(20_000 + i as u64, f64::from(a) / 8.0, f64::from(b) / 8.0);
            zm.insert(p);
            ml.insert(p);
            buffered.push(p);
        }
        lookups(&zm, &ml, &deleted, &buffered);
    }

    #[test]
    fn dirty_overlay_over_zm_matches_the_oracle(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack);
        let builder = PwlBuilder { epsilon: 4 };
        let mut overlay =
            DeltaOverlay::new(ZmIndex::build(points.clone(), &ZmConfig { fanout: 4 }, &builder));
        // Tombstone base points that share their coordinates with no other
        // (the clustered ones): the overlay filters the base's one answer
        // per lookup, so which stacked copy survives a tombstone is the
        // base's choice, not the oracle's.
        let lone = |p: &Point| !points.iter().any(|o| o.id != p.id && o.x == p.x && o.y == p.y);
        let (gone, mut live): (Vec<Point>, Vec<Point>) = points
            .iter()
            .partition(|p| p.id as usize % delete_stride == 0 && lone(p));
        for p in &gone {
            // A foreign id at a stored location deletes nothing ...
            prop_assert!(!overlay.delete(Point::new(900_000 + p.id, p.x, p.y)));
            // ... the point itself goes, once.
            prop_assert!(overlay.delete(*p));
            prop_assert!(!overlay.delete(*p));
        }
        for (i, &(x, y)) in inserts.iter().enumerate() {
            let p = match i % 3 {
                0 => Point::new(10_000 + i as u64, stack.0, stack.1),
                _ => Point::new(10_000 + i as u64, x, y),
            };
            overlay.insert(p);
            live.push(p);
        }
        prop_assert_eq!(overlay.len(), live.len());
        // Tombstones are ids of the overlay's id column: the base's own
        // enumeration, which is the set it was built from.
        let column: Vec<u64> = overlay.base().live_points().iter().map(|p| p.id).collect();
        prop_assert_eq!(&column, &points.iter().map(|p| p.id).collect::<Vec<_>>());
        prop_assert!(overlay.deleted_ids().iter().all(|id| column.binary_search(id).is_ok()));
        check_all(&overlay, &live, q, stack);
        for p in &gone {
            check_lookup(&overlay, &live, *p);
        }
    }
}

#[test]
fn partitions_the_fanout_does_not_divide_lose_no_point() {
    // Uneven rank slices, pivot partitions, columns and child slices: the
    // ranks next to a cut are where an error bound or a run is clipped.
    for n in [1usize, 2, 3, 5, 10, 23, 38, 51, 89, 101] {
        let points = elsi_data::gen::skewed(n, 3, n as u64);
        for idx in all_nine(&points) {
            for p in &points {
                assert_eq!(
                    idx.point_query(*p).map(|f| f.id),
                    Some(p.id),
                    "{} n={n}",
                    idx.name()
                );
            }
        }
    }
}

#[test]
fn deleting_a_foreign_id_at_a_stored_location_deletes_nothing() {
    // The ghost delete: `delete` used to tombstone `p.id` whenever *any*
    // live point shared `p`'s coordinates.
    let points = elsi_data::gen::uniform(200, 7);
    for mut idx in all_nine(&points) {
        let name = idx.name();
        let at = points[10];
        // An id the index never held, and one it holds elsewhere.
        for ghost in [999_999, points[11].id] {
            assert!(
                !idx.delete(Point::new(ghost, at.x, at.y)),
                "{name} deleted id {ghost}"
            );
        }
        assert_eq!(idx.len(), 200, "{name}");
        assert_eq!(idx.point_query(at).map(|p| p.id), Some(at.id), "{name}");
        assert_eq!(
            idx.point_query(points[11]).map(|p| p.id),
            Some(points[11].id),
            "{name}"
        );
        // The real point still deletes, once.
        assert!(idx.delete(at), "{name}");
        assert!(!idx.delete(at), "{name}");
        assert_eq!(idx.len(), 199, "{name}");
        assert!(idx.point_query(at).is_none(), "{name}");
    }
}
