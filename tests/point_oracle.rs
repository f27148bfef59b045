//! Point lookups against the brute-force oracle, for every subject of the
//! conformance table. The model-backed indices answer a lookup by *predict
//! → bounded key search → equal-key run → coordinate scan* (`DESIGN.md`
//! §12): the table's stacks and lattices are long equal-key runs, and the
//! rows add partition sizes the fanout does not divide, tombstones inside a
//! run, inserts on stored points, and absent, outside and NaN queries.
//!
//! Where several live points share the query's coordinates any is correct;
//! ZM and ML-Index are also held to the *first live match of a whole-column
//! scan in rank order* — the reference the product no longer runs.

#[path = "support/mod.rs"]
mod support;

use elsi::Update;
use elsi_indices::*;
use elsi_spatial::{sort_by_key, MortonMapper, Point, Rect};
use proptest::prelude::*;
use std::collections::HashSet;
use support::*;

/// The lookup the model-backed indices used to run, kept as the reference:
/// the first live coordinate match of a scan over the *whole* sorted
/// column in rank order, then the insert buffer in arrival order.
fn whole_column_scan(
    sorted: &[Point],
    buffered: &[Point],
    deleted: &HashSet<u64>,
    q: Point,
) -> Option<Point> {
    let mut column = sorted.iter().chain(buffered);
    column
        .find(|p| p.x == q.x && p.y == q.y && !deleted.contains(&p.id))
        .copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_nine_indices_match_the_oracle(
        (clustered, snapped, stack) in cloud(0),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let qs = Queries::lookups(points.iter().copied().chain(hard_queries(q, stack)));
        let (zoo, oracle) = (Zoo::pwl(8, 4), Oracle::new(&points));
        for kind in Kind::ALL {
            check(&zoo.subject(kind, State::Built, &points, &[]), &oracle, &qs);
        }
    }

    #[test]
    fn tombstones_and_buffered_inserts_match_the_oracle(
        (clustered, snapped, stack) in cloud(1),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        // A tombstoned point is gone even where its neighbours in the
        // equal-key run are not: the deleted points are looked up too.
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let stream = churn(&points, stack, delete_stride, &inserts);
        let (zoo, oracle) = (Zoo::pwl(8, 4), Oracle::after(&points, &stream));
        let fresh = stream.iter().filter(|u| u.is_insert()).map(Update::point);
        let fresh = fresh.chain(hard_queries(q, stack));
        let qs = Queries::lookups(points.iter().copied().chain(fresh));
        for (kind, state) in table(Kind::Zm) {
            check(&zoo.subject(kind, state, &points, &stream), &oracle, &qs);
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
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let mut zm = Zoo::pwl(8, 4).zm(points.clone());
        let ml_cfg = MlConfig { pivots: 4, ..MlConfig::default() };
        let mut ml = MlIndex::build(points.clone(), &ml_cfg, &PwlBuilder { epsilon: 4 });
        let (by_z, _) = sort_by_key(&points, &MortonMapper);
        let (by_dist, _) = sort_by_key(&points, ml.mapper());
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
        (clustered, snapped, stack) in cloud(1),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        // Stacked copies are deleted too: where the base answers with a
        // tombstoned copy, the overlay must find a live twin. A foreign id
        // at a stored location deletes nothing; the point itself goes, once.
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let stream = churn(&points, stack, delete_stride, &inserts);
        let fresh = stream.iter().filter(|u| u.is_insert()).map(Update::point);
        let fresh = fresh.chain(hard_queries(q, stack));
        let qs = Queries::lookups(points.iter().copied().chain(fresh));
        let s = Zoo::pwl(8, 4).subject(Kind::Zm, State::Dirty, &points, &stream);
        check(&s, &Oracle::after(&points, &stream), &qs);
    }
}

#[test]
fn partitions_the_fanout_does_not_divide_lose_no_point() {
    // Uneven rank slices, pivot partitions, columns and child slices: the
    // ranks next to a cut are where an error bound or a run is clipped.
    for n in [1usize, 2, 3, 5, 10, 23, 38, 51, 89, 101] {
        let points = elsi_data::gen::skewed(n, 3, n as u64);
        let (zoo, oracle) = (Zoo::pwl(8, 4), Oracle::new(&points));
        for kind in Kind::ALL {
            let s = zoo.subject(kind, State::Built, &points, &[]);
            check(&s, &oracle, &Queries::lookups(points.clone()));
        }
    }
}

#[test]
fn deleting_a_foreign_id_at_a_stored_location_deletes_nothing() {
    // The ghost delete: `delete` used to tombstone `p.id` whenever *any*
    // live point shared `p`'s coordinates. An id the index never held, and
    // one it holds elsewhere, delete nothing; the real point goes, once.
    let points = elsi_data::gen::uniform(200, 7);
    let (at, other) = (points[10], points[11]);
    let ghosts = [999_999, other.id].map(|id| Point::new(id, at.x, at.y));
    let stream = [ghosts[0], ghosts[1], at, at].map(Update::Delete);
    let (zoo, oracle) = (Zoo::pwl(8, 4), Oracle::after(&points, &stream));
    assert_eq!(oracle.applied, [false, false, true, false]);
    for (kind, state) in table(Kind::Zm) {
        let s = zoo.subject(kind, state, &points, &stream);
        check(&s, &oracle, &Queries::lookups([at, other]));
    }
}

#[test]
fn a_tombstone_on_one_stacked_copy_hides_no_live_twin() {
    // Five ids on one coordinate, in every state of every kind: delete the
    // copy a lookup answers with until none is left. While one lives, a
    // lookup, the zero-area window and kNN there must find it.
    let q = Point::at(0.5, 0.5);
    let mut points = elsi_data::gen::uniform(200, 1);
    points.extend((0..5).map(|i| Point::new(1_000 + i, q.x, q.y)));
    let qs = Queries {
        points: vec![q],
        windows: vec![Rect::new(q.x, q.y, q.x, q.y)],
        ..Queries::knn([q], vec![5])
    };
    let zoo = Zoo::pwl(8, 4);
    for kind in Kind::ALL {
        for state in [State::Built].into_iter().chain(LIFECYCLE) {
            let (mut s, mut oracle) =
                (zoo.subject(kind, state, &points, &[]), Oracle::new(&points));
            while let Some(hit) = s.index.point_query(q) {
                check(&s, &oracle, &qs);
                s.apply(&[Update::Delete(hit)]);
                oracle.apply(Update::Delete(hit));
            }
            check(&s, &oracle, &qs);
        }
    }
}
