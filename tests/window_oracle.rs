//! Window queries against the brute-force oracle, for every subject of the
//! conformance table — clean, and after tombstones and buffered inserts.
//! The seven exact kinds return *exactly* the live points inside, each
//! once; RSMI and LISA (a leaf scans the rank range its probes span; shards
//! are predicted) no false positive, no duplicate and the recall floor.

#[path = "support/mod.rs"]
mod support;

use elsi_spatial::{Point, Rect};
use proptest::prelude::*;
use support::*;

/// What a rank-span scan can get wrong: the drawn window, zero-area ones
/// on the stack (one long equal-key run) and on a few `live` points, lines
/// along lattice coordinates (keys tie on one axis), edges on stored
/// coordinates, the whole space and more, and windows wholly or partly
/// outside the unit square (corner keys clamp).
fn windows(w: (f64, f64, f64, f64), stack: Stack, live: &[Point]) -> Vec<Rect> {
    let (sx, sy, _) = stack;
    let mut ws = vec![
        Rect::new(w.0, w.1, w.2, w.3),
        // Zero area: the stack itself, and lines along lattice coordinates.
        Rect::new(sx, sy, sx, sy),
        Rect::new(0.5, 0.0, 0.5, 1.0),
        Rect::new(0.0, 0.375, 1.0, 0.375),
        // Edges on lattice coordinates; a cluster patch.
        Rect::new(0.25, 0.125, 0.75, 0.5),
        Rect::new(0.54, 0.49, 0.6, 0.55),
        // The whole space, and more than the space.
        Rect::unit(),
        Rect::new(-1.0, -1.0, 2.0, 2.0),
        // Wholly outside the square, and straddling its edges.
        Rect::new(1.2, 1.2, 1.7, 1.9),
        Rect::new(-0.5, 0.2, -0.1, 0.8),
        Rect::new(-0.3, -0.3, 0.3, 0.3),
        Rect::new(0.9, 0.0, 1.4, 0.2),
    ];
    for p in live.iter().step_by(live.len() / 3 + 1) {
        ws.push(Rect::new(p.x, p.y, p.x, p.y));
        ws.push(Rect::window_around(*p, 0.003));
    }
    ws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clean_indices_match_the_oracle(
        (clustered, snapped, stack) in cloud(0),
        w in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let (zoo, oracle) = (Zoo::pwl(8, 4), Oracle::new(&points));
        let qs = Queries::windows(windows(w, stack, &points));
        for (kind, state) in table(Kind::Zm) {
            check(&zoo.subject(kind, state, &points, &[]), &oracle, &qs);
        }
    }

    #[test]
    fn tombstones_and_buffered_inserts_match_the_oracle(
        (clustered, snapped, stack) in cloud(1),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        w in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let stream = churn(&points, stack, delete_stride, &inserts);
        let (zoo, oracle) = (Zoo::pwl(8, 4), Oracle::after(&points, &stream));
        let qs = Queries::windows(windows(w, stack, oracle.live()));
        for kind in Kind::ALL {
            check(&zoo.subject(kind, State::Built, &points, &stream), &oracle, &qs);
        }
    }

    #[test]
    fn dirty_overlay_and_sharded_deployment_match_the_oracle(
        (clustered, snapped, stack) in cloud(1),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        w in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
        kind in 0usize..9,
    ) {
        // Every lifecycle state over a drawn kind; stacked points are
        // deleted too (a delete resolves by id).
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let stream = churn(&points, stack, delete_stride, &inserts);
        let (zoo, oracle) = (Zoo::pwl(8, 4), Oracle::after(&points, &stream));
        let qs = Queries::windows(windows(w, stack, oracle.live()));
        for state in LIFECYCLE {
            check(&zoo.subject(Kind::ALL[kind], state, &points, &stream), &oracle, &qs);
        }
    }
}
