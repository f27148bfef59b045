//! Update-path integration: built-in index insertion procedures, the
//! default delta overlay, the update processor's drift tracking, and
//! rebuild triggering (paper §IV-B2 and §VII-H).

use elsi::{
    DeltaOverlay, Elsi, ElsiConfig, RebuildFeatures, RebuildPolicy, RebuildPredictor,
    RebuildSample, UpdateOutcome, UpdateProcessor,
};
use elsi_data::Dataset;
use elsi_indices::*;
use elsi_spatial::{Point, Rect};

#[test]
fn skewed_insertions_degrade_then_rebuild_recovers_structure() {
    // Mirrors Fig. 15's setup in miniature: a small base set, then skewed
    // insertions; a rebuild must restore the structure.
    let elsi = Elsi::new(ElsiConfig::fast_test());
    let base = Dataset::Osm1.generate(1500, 1);
    let mr = elsi.mr_pool();
    let cfg = elsi.config().clone();
    let rebuild = move |pts: Vec<Point>| {
        let builder = elsi::ElsiBuilder::fixed(elsi::Method::Rs, cfg.clone(), mr.clone());
        RsmiIndex::build(
            pts,
            &RsmiConfig {
                leaf_capacity: 256,
                fanout: 4,
                ..RsmiConfig::default()
            },
            &builder,
        )
    };
    let policy = RebuildPolicy::Threshold {
        max_drift: 0.15,
        max_ratio: 10.0,
    };
    let mut proc = UpdateProcessor::new(base, Box::new(rebuild), policy, 64);

    let inserts = Dataset::Skewed.generate(1200, 2);
    let mut rebuilt = false;
    for (i, mut p) in inserts.into_iter().enumerate() {
        p.id = 1_000_000 + i as u64;
        p.x *= 0.05; // squash into a corner: heavy CDF drift
        p.y *= 0.05;
        if proc.insert(p) == UpdateOutcome::Rebuilt {
            rebuilt = true;
        }
    }
    assert!(rebuilt, "drift threshold never triggered a rebuild");
    assert_eq!(proc.len(), 2700);
    // Everything still findable after the rebuild.
    assert!(
        proc.point_query(Point::new(1_000_000, 0.0, 0.0)).is_some() || proc.index().len() == 2700
    );
}

#[test]
fn delta_overlay_equivalent_to_rebuilt_ground_truth() {
    let pts = Dataset::Uniform.generate(1000, 3);
    let base = HrrIndex::build(pts.clone(), &HrrConfig::default());
    let mut overlay = DeltaOverlay::new(base);

    let mut live = pts.clone();
    // Apply a mixed update stream.
    for i in 0..200u64 {
        let p = Point::new(
            50_000 + i,
            (i as f64 * 0.00437) % 1.0,
            (i as f64 * 0.00911) % 1.0,
        );
        overlay.insert(p);
        live.push(p);
    }
    for i in (0..400).step_by(7) {
        // A base id at another stored point's coordinates deletes nothing.
        let crossed = Point::new(pts[i].id, pts[i + 1].x, pts[i + 1].y);
        assert!(
            !overlay.delete(crossed),
            "id {} at its neighbour's place",
            crossed.id
        );
        assert!(overlay.delete(pts[i]));
        live.retain(|p| p.id != pts[i].id);
    }
    assert_eq!(overlay.len(), live.len());

    for w in [Rect::new(0.1, 0.1, 0.4, 0.4), Rect::new(0.0, 0.5, 1.0, 1.0)] {
        let mut got: Vec<u64> = overlay.window_query(&w).iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = live
            .iter()
            .filter(|p| w.contains(p))
            .map(|p| p.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
    // kNN against brute force over the live set.
    let q = Point::at(0.33, 0.66);
    let got = overlay.knn_query(q, 5);
    let mut want = live.clone();
    want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
    for (g, w) in got.iter().zip(&want) {
        assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
    }
}

#[test]
fn built_in_insertions_stay_queryable_across_indices() {
    let elsi = Elsi::new(ElsiConfig::fast_test());
    let pts = Dataset::Uniform.generate(800, 5);
    let mut sweep: Vec<Box<dyn SpatialIndex>> = vec![
        Box::new(ZmIndex::build(
            pts.clone(),
            &ZmConfig { fanout: 2 },
            &elsi.builder(),
        )),
        Box::new(MlIndex::build(
            pts.clone(),
            &MlConfig {
                pivots: 4,
                ..MlConfig::default()
            },
            &elsi.builder(),
        )),
        Box::new(FloodIndex::build(
            pts.clone(),
            &FloodConfig { columns: 4 },
            &elsi.builder(),
        )),
        Box::new(LisaIndex::build(
            pts.clone(),
            &LisaConfig {
                grid: 8,
                shard_size: 100,
                block_size: 25,
            },
            &elsi.builder().for_lisa(),
        )),
        Box::new(GridIndex::build(pts.clone(), &GridConfig::default())),
        Box::new(RStarIndex::build(pts.clone(), &RStarConfig::default())),
    ];

    let stream = Dataset::Nyc.generate(300, 9);
    for (i, mut p) in stream.into_iter().enumerate() {
        p.id = 70_000 + i as u64;
        for idx in &mut sweep {
            idx.insert(p);
            assert!(
                idx.point_query(p).is_some(),
                "{} lost insert {i}",
                idx.name()
            );
        }
    }

    // Re-inserting a deleted id somewhere else must not resurrect the
    // stored copy. (RSMI, absent from this sweep, merges its overflow into
    // the stored page on a local rebuild; `SpatialIndex::insert` says so.)
    let gone = pts[17];
    let moved = Point::new(gone.id, 0.123, 0.987);
    for idx in &mut sweep {
        let (name, n) = (idx.name(), idx.len());
        let copies = |found: Vec<Point>| found.iter().filter(|p| p.id == gone.id).count();
        assert!(idx.delete(gone), "{name}");
        idx.insert(moved);
        assert_eq!(idx.len(), n, "{name}");
        assert_eq!(idx.point_query(gone), None, "{name}");
        assert_eq!(idx.point_query(moved), Some(moved), "{name}");
        assert_eq!(copies(idx.window_query(&Rect::unit())), 1, "{name}");
        assert_eq!(copies(idx.knn_query(gone, n)), 1, "{name}");
        assert!(idx.delete(moved) && !idx.delete(gone), "{name}");
        assert_eq!(idx.len(), n - 1, "{name}");
        assert_eq!(copies(idx.window_query(&Rect::unit())), 0, "{name}");
        assert_eq!(copies(idx.knn_query(gone, n)), 0, "{name}");
    }
}

#[test]
fn live_points_enumerate_the_model_after_churn_for_all_nine() {
    // `live_points()` is the live set itself, not a query: after inserts,
    // deletes of stored and of inserted points and re-inserted deleted ids
    // it equals the brute-force model exactly — RSMI and LISA included,
    // whose *windows* only promise a recall floor.
    let pts = Dataset::Uniform.generate(900, 6);
    let b = PwlBuilder { epsilon: 8 };
    let mut sweep: Vec<Box<dyn SpatialIndex>> = vec![
        Box::new(GridIndex::build(
            pts.clone(),
            &GridConfig { block_size: 32 },
        )),
        Box::new(KdbIndex::build(
            pts.clone(),
            &KdbConfig { leaf_capacity: 32 },
        )),
        Box::new(HrrIndex::build(pts.clone(), &HrrConfig::default())),
        Box::new(RStarIndex::build(pts.clone(), &RStarConfig::default())),
        Box::new(ZmIndex::build(pts.clone(), &ZmConfig { fanout: 4 }, &b)),
        Box::new(MlIndex::build(pts.clone(), &MlConfig::default(), &b)),
        Box::new(FloodIndex::build(
            pts.clone(),
            &FloodConfig { columns: 8 },
            &b,
        )),
        Box::new(RsmiIndex::build(
            pts.clone(),
            &RsmiConfig {
                leaf_capacity: 64,
                fanout: 4,
                ..RsmiConfig::default()
            },
            &b,
        )),
        Box::new(LisaIndex::build(
            pts.clone(),
            &LisaConfig {
                grid: 8,
                shard_size: 100,
                block_size: 25,
            },
            &b,
        )),
    ];
    assert_eq!(sweep.len(), 9);

    // Clustered inserts (RSMI leaves overflow and rebuild locally, LISA
    // pages split), then deletes of every seventh stored and every fifth
    // inserted point, then every third deleted stored id back elsewhere.
    let inserts: Vec<Point> = Dataset::Skewed
        .generate(400, 8)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Point::new(80_000 + i as u64, p.x * 0.3, p.y * 0.3))
        .collect();
    let gone: Vec<Point> = pts.iter().step_by(7).copied().collect();
    let dropped: Vec<Point> = inserts.iter().step_by(5).copied().collect();
    let moved: Vec<Point> = gone
        .iter()
        .step_by(3)
        .map(|p| Point::new(p.id, 1.0 - p.x, 1.0 - p.y))
        .collect();
    for idx in &mut sweep {
        let name = idx.name();
        let mut model: Vec<Point> = pts.clone();
        for &p in &inserts {
            idx.insert(p);
            model.push(p);
        }
        for p in gone.iter().chain(&dropped) {
            assert!(idx.delete(*p), "{name}: {p}");
            model.retain(|m| m != p);
        }
        assert_eq!(idx.live_points(), canonical(model.clone()), "{name}");
        for (i, &p) in moved.iter().enumerate() {
            idx.insert(p);
            model.push(p);
            // The documented exception (`SpatialIndex::insert`): RSMI
            // un-tombstones the stored copy of a re-inserted id.
            if name == "RSMI" {
                model.push(gone[3 * i]);
            }
        }
        assert_eq!(idx.len(), model.len(), "{name}");
        assert_eq!(idx.live_points(), canonical(model), "{name}");
    }
}

fn canonical(mut pts: Vec<Point>) -> Vec<Point> {
    pts.sort_by_key(elsi_spatial::canonical_point_key);
    pts
}

#[test]
fn moving_hotspot_stream_keeps_indices_consistent() {
    use elsi_data::stream::{moving_hotspot_insertions, Update};
    let base = Dataset::Uniform.generate(800, 2);
    let elsi = Elsi::new(ElsiConfig::fast_test());
    let mut idx = elsi_indices::FloodIndex::build(
        base.clone(),
        &elsi_indices::FloodConfig { columns: 8 },
        &elsi.builder(),
    );
    let mut live = base;
    for u in moving_hotspot_insertions(600, 0.05, 5) {
        if let Update::Insert(p) = u {
            idx.insert(p);
            live.push(p);
        }
    }
    assert_eq!(idx.len(), live.len());
    // Spot-check windows along the hotspot track stay exact.
    for c in [0.2, 0.5, 0.8] {
        let w = Rect::new(c - 0.05, c - 0.05, c + 0.05, c + 0.05);
        let mut got: Vec<u64> = idx.window_query(&w).iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = live
            .iter()
            .filter(|p| w.contains(p))
            .map(|p| p.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "window around {c}");
    }
}

#[test]
fn churn_stream_through_update_processor() {
    use elsi_data::stream::{churn, Update};
    let base = Dataset::Osm1.generate(700, 9);
    let stream = churn(&base, 700, 0.6, 3);
    let mut proc = UpdateProcessor::new(
        base.clone(),
        Box::new(|pts| GridIndex::build(pts, &GridConfig::default())),
        RebuildPolicy::Threshold {
            max_drift: 0.2,
            max_ratio: 1.0,
        },
        64,
    );
    let mut live: std::collections::HashMap<u64, Point> = base.iter().map(|p| (p.id, *p)).collect();
    for u in stream {
        match u {
            Update::Insert(p) => {
                proc.insert(p);
                live.insert(p.id, p);
            }
            Update::Delete(p) => {
                proc.delete(p);
                live.remove(&p.id);
            }
        }
    }
    assert_eq!(proc.len(), live.len());
    // Every live point findable; every deleted point gone (sampled).
    for (i, p) in live.values().enumerate() {
        if i % 13 == 0 {
            assert!(proc.point_query(*p).is_some(), "live point {p} lost");
        }
    }
    for p in base.iter().step_by(17) {
        let expect = live.contains_key(&p.id);
        assert_eq!(proc.point_query(*p).is_some(), expect, "point {p}");
    }
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
