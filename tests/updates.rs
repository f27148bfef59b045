//! Update-path integration: built-in index insertion procedures, the
//! default delta overlay, the update processor's drift tracking, and
//! rebuild triggering (paper §IV-B2 and §VII-H), checked against the
//! conformance table's brute-force oracle.

#[path = "support/mod.rs"]
mod support;

use elsi::{
    Elsi, ElsiConfig, RebuildFeatures, RebuildPolicy, RebuildPredictor, RebuildSample, Update,
    UpdateOutcome, UpdateProcessor,
};
use elsi_data::Dataset;
use elsi_indices::*;
use elsi_spatial::{Point, Rect};
use support::*;

/// ELSI-built indices with pages of `page` points.
fn elsi_zoo(page: usize) -> Zoo {
    Zoo::new(page, Elsi::new(ElsiConfig::fast_test()).builder())
}

#[test]
fn skewed_insertions_degrade_then_rebuild_recovers_structure() {
    // Mirrors Fig. 15's setup in miniature: a small base set, then skewed
    // insertions; a rebuild must restore the structure. RSMI leaves of 256
    // points, built by ELSI's RS method.
    let base = Dataset::Osm1.generate(1500, 1);
    let zoo = elsi_zoo(128);
    let rebuild = Box::new(move |pts| zoo.build(Kind::Rsmi, pts));
    let policy = RebuildPolicy::Threshold {
        max_drift: 0.15,
        max_ratio: 10.0,
    };
    let mut proc = UpdateProcessor::new(base.clone(), rebuild, policy, 64);

    let mut inserts = Dataset::Skewed.generate(1200, 2);
    let mut rebuilt = false;
    for (i, p) in inserts.iter_mut().enumerate() {
        p.id = 1_000_000 + i as u64;
        p.x *= 0.05; // squash into a corner: heavy CDF drift
        p.y *= 0.05;
        rebuilt |= proc.insert(*p) == UpdateOutcome::Rebuilt;
    }
    assert!(rebuilt, "drift threshold never triggered a rebuild");
    assert_eq!(proc.len(), 2700);
    // Every live point is still found, by its own id, after the rebuild.
    for p in base.iter().chain(&inserts) {
        assert_eq!(proc.point_query(*p).map(|f| f.id), Some(p.id), "lost {p}");
    }
}

#[test]
fn delta_overlay_equivalent_to_rebuilt_ground_truth() {
    // A mixed update stream over HRR; a base id at another stored point's
    // coordinates deletes nothing.
    let pts = Dataset::Uniform.generate(1000, 3);
    let inserts = (0..200u64).map(|i| {
        let (x, y) = ((i as f64 * 0.00437) % 1.0, (i as f64 * 0.00911) % 1.0);
        Update::Insert(Point::new(50_000 + i, x, y))
    });
    let deletes = (0..400).step_by(7).flat_map(|i| {
        let crossed = Point::new(pts[i].id, pts[i + 1].x, pts[i + 1].y);
        [crossed, pts[i]].map(Update::Delete)
    });
    let stream: Vec<Update> = inserts.chain(deletes).collect();
    let windows = vec![Rect::new(0.1, 0.1, 0.4, 0.4), Rect::new(0.0, 0.5, 1.0, 1.0)];
    let qs = Queries {
        windows,
        ..Queries::knn([Point::at(0.33, 0.66)], vec![5])
    };
    let s = Zoo::pwl(32, 8).subject(Kind::Hrr, State::Dirty, &pts, &stream);
    check(&s, &Oracle::after(&pts, &stream), &qs);
}

#[test]
fn built_in_insertions_stay_queryable_across_indices() {
    // Every index takes 300 inserts through its own insertion procedure,
    // then a deleted id re-inserted elsewhere, then the re-inserted copy
    // and (a no-op) the deleted one deleted.
    let (zoo, pts) = (elsi_zoo(25), Dataset::Uniform.generate(800, 5));
    let fresh = Dataset::Nyc.generate(300, 9).into_iter().enumerate();
    let fresh = fresh.map(|(i, p)| Point::new(70_000 + i as u64, p.x, p.y));
    let (gone, moved) = (pts[17], Point::new(pts[17].id, 0.123, 0.987));
    let mut stream: Vec<Update> = fresh.map(Update::Insert).collect();
    stream.extend([Update::Delete(gone), Update::Insert(moved)]);
    let then = [Update::Delete(moved), Update::Delete(gone)];
    for kind in Kind::ALL {
        let mut s = zoo.subject(kind, State::Built, &pts, &stream);
        let mut oracle = Oracle::after(&pts, &stream);
        let qs = Queries {
            points: stream.iter().map(Update::point).collect(),
            windows: vec![Rect::unit()],
            ..Queries::knn([gone], vec![oracle.len()])
        };
        check(&s, &oracle, &qs);
        s.apply(&then);
        oracle.drive(&then);
        check(&s, &oracle, &qs);
    }
}

#[test]
fn live_points_enumerate_the_model_after_churn_for_all_nine() {
    // `live_points()` is the live set itself, not a query: after inserts,
    // deletes of stored and of inserted points and re-inserted deleted ids
    // it equals the oracle's exactly — RSMI and LISA included, whose
    // *windows* only promise a recall floor.
    let pts = Dataset::Uniform.generate(900, 6);
    // Clustered inserts (RSMI leaves overflow and rebuild locally, LISA
    // pages split), then deletes of every seventh stored and every fifth
    // inserted point, then every third deleted stored id back elsewhere.
    let inserts = Dataset::Skewed.generate(400, 8).into_iter().enumerate();
    let inserts: Vec<Point> = inserts
        .map(|(i, p)| Point::new(80_000 + i as u64, p.x * 0.3, p.y * 0.3))
        .collect();
    let gone: Vec<Point> = pts.iter().step_by(7).copied().collect();
    let deletes = gone.iter().chain(inserts.iter().step_by(5));
    let churned: Vec<Update> = (inserts.iter().map(|&p| Update::Insert(p)))
        .chain(deletes.map(|&p| Update::Delete(p)))
        .collect();
    let moved: Vec<Update> = (gone.iter().step_by(3))
        .map(|p| Update::Insert(Point::new(p.id, 1.0 - p.x, 1.0 - p.y)))
        .collect();
    for kind in Kind::ALL {
        let mut s = Zoo::pwl(32, 8).subject(kind, State::Built, &pts, &churned);
        let mut oracle = Oracle::after(&pts, &churned);
        assert_eq!(s.applied, oracle.applied, "{kind:?}");
        assert_eq!(s.index.live_points(), oracle.live(), "{kind:?}");
        s.apply(&moved);
        oracle.drive(&moved);
        assert_eq!(s.index.len(), oracle.len(), "{kind:?}");
        assert_eq!(s.index.live_points(), oracle.live(), "{kind:?}");
    }
}

#[test]
fn moving_hotspot_stream_keeps_indices_consistent() {
    // Windows along the hotspot track stay exact.
    let base = Dataset::Uniform.generate(800, 2);
    let stream = elsi_data::stream::moving_hotspot_insertions(600, 0.05, 5);
    let windows = [0.2, 0.5, 0.8].map(|c| Rect::new(c - 0.05, c - 0.05, c + 0.05, c + 0.05));
    let s = elsi_zoo(25).subject(Kind::Flood, State::Built, &base, &stream);
    check(
        &s,
        &Oracle::after(&base, &stream),
        &Queries::windows(windows),
    );
}

#[test]
fn churn_stream_through_update_processor() {
    // A processor over Grid's own insertion procedure, rebuilding on drift.
    let base = Dataset::Osm1.generate(700, 9);
    let stream = elsi_data::stream::churn(&base, 700, 0.6, 3);
    let rebuild = Box::new(|pts| GridIndex::build(pts, &GridConfig::default()));
    let policy = RebuildPolicy::Threshold {
        max_drift: 0.2,
        max_ratio: 1.0,
    };
    let mut proc = UpdateProcessor::new(base.clone(), rebuild, policy, 64);
    for u in &stream {
        proc.apply_batch(std::slice::from_ref(u));
    }
    // Every live point findable; every deleted point gone (sampled).
    let oracle = Oracle::after(&base, &stream);
    let live = oracle.live().iter().step_by(13);
    let qs = Queries::lookups(live.chain(base.iter().step_by(17)).copied());
    check(
        &Subject::new(Kind::Grid, State::Processor, Box::new(proc)),
        &oracle,
        &qs,
    );
}

#[test]
fn learned_rebuild_policy_fires_on_drift() {
    // Train the predictor on a clean synthetic rule, then ensure the
    // update processor consults it.
    let mut samples = Vec::new();
    for i in 0..8 {
        for j in 0..8 {
            let sim = 0.6 + 0.05 * i as f64;
            let ratio = 0.1 * j as f64;
            samples.push(RebuildSample {
                features: RebuildFeatures {
                    n: 10_000,
                    dist_u: 0.2,
                    depth: 3,
                    update_ratio: ratio,
                    drift_sim: sim,
                },
                should_rebuild: sim < 0.85,
            });
        }
    }
    let predictor = RebuildPredictor::train(&samples, 7);
    let policy = RebuildPolicy::Learned(predictor);

    let base = Dataset::Uniform.generate(600, 1);
    let mut proc = UpdateProcessor::new(
        base,
        Box::new(|pts| GridIndex::build(pts, &GridConfig::default())),
        policy,
        32,
    );
    let mut rebuilt = false;
    for i in 0..1500u64 {
        // All inserts at one spot: drift_sim collapses.
        if proc.insert(Point::new(90_000 + i, 0.02, 0.02)) == UpdateOutcome::Rebuilt {
            rebuilt = true;
            break;
        }
    }
    assert!(rebuilt, "learned policy never fired under extreme drift");
}
