//! End-to-end pipeline tests: the full ELSI system (method pool, scorer,
//! build processor) integrated into all four learned spatial indices.

use elsi::{Elsi, ElsiConfig, Method};
use elsi_data::Dataset;
use elsi_indices::{
    LisaConfig, LisaIndex, MlConfig, MlIndex, RsmiConfig, RsmiIndex, SpatialIndex, ZmConfig,
    ZmIndex,
};
use elsi_spatial::Rect;

fn fast_elsi() -> Elsi {
    let mut cfg = ElsiConfig::fast_test();
    cfg.train.epochs = 60;
    Elsi::new(cfg)
}

#[test]
fn all_four_f_variants_answer_point_queries_exactly() {
    let elsi = fast_elsi();
    let pts = Dataset::Osm1.generate(3000, 11);

    let zm = ZmIndex::build(pts.clone(), &ZmConfig { fanout: 4 }, &elsi.builder());
    let ml = MlIndex::build(
        pts.clone(),
        &MlConfig {
            pivots: 4,
            ..MlConfig::default()
        },
        &elsi.builder(),
    );
    let rsmi = RsmiIndex::build(
        pts.clone(),
        &RsmiConfig {
            leaf_capacity: 512,
            fanout: 4,
            ..RsmiConfig::default()
        },
        &elsi.builder(),
    );
    let lisa = LisaIndex::build(
        pts.clone(),
        &LisaConfig {
            grid: 8,
            shard_size: 200,
        },
        &elsi.builder().for_lisa(),
    );

    let indices: [&dyn SpatialIndex; 4] = [&zm, &ml, &rsmi, &lisa];
    for idx in indices {
        for p in pts.iter().step_by(23) {
            assert!(
                idx.point_query(*p).is_some(),
                "{}-F lost point {p} (exactness guarantee of Algorithm 1)",
                idx.name()
            );
        }
    }
}

#[test]
fn learned_selector_drives_the_build() {
    let mut elsi = fast_elsi();
    elsi.prepare_scorer(&[500], &[1, 6], 5);
    let pts = Dataset::Skewed.generate(2000, 3);
    let builder = elsi.builder();
    let idx = ZmIndex::build(pts, &ZmConfig { fanout: 2 }, &builder);
    assert_eq!(idx.len(), 2000);
    // The selector must have been consulted once per model (root + leaves).
    let counts = builder.chosen_counts();
    assert_eq!(counts.iter().map(|&(_, c)| c).sum::<usize>(), 3);
    assert!(counts
        .iter()
        .all(|&(m, c)| c == 0 || Method::pool().contains(&m)));
}

#[test]
fn elsi_builder_is_much_faster_than_og_on_reduced_methods() {
    let elsi = fast_elsi();
    let pts = Dataset::Uniform.generate(20_000, 7);

    let (_fast, sp_time) = elsi_indices::timed(|| {
        ZmIndex::build(
            pts.clone(),
            &ZmConfig { fanout: 2 },
            &elsi.fixed_builder(Method::Sp),
        )
    });

    let (_slow, og_time) = elsi_indices::timed(|| {
        ZmIndex::build(
            pts,
            &ZmConfig { fanout: 2 },
            &elsi.fixed_builder(Method::Og),
        )
    });

    assert!(
        sp_time.as_secs_f64() * 2.0 < og_time.as_secs_f64(),
        "SP {sp_time:?} must be well below OG {og_time:?}"
    );
}

#[test]
fn window_queries_work_through_the_full_stack() {
    let elsi = fast_elsi();
    let pts = Dataset::Nyc.generate(4000, 13);
    let idx = MlIndex::build(
        pts.clone(),
        &MlConfig {
            pivots: 4,
            ..MlConfig::default()
        },
        &elsi.builder(),
    );
    // ML-F stays exact (paper §VII-G2).
    for seed in 0..5u64 {
        let c = pts[(seed as usize * 619) % pts.len()];
        let w = Rect::window_around(c, 0.005);
        let mut got: Vec<u64> = idx.window_query(&w).iter().map(|p| p.id).collect();
        got.sort_unstable();
        got.dedup();
        let mut want: Vec<u64> = pts.iter().filter(|p| w.contains(p)).map(|p| p.id).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

#[test]
fn every_dataset_generator_feeds_the_pipeline() {
    let elsi = fast_elsi();
    for ds in Dataset::all() {
        let pts = ds.generate(800, 1);
        let idx = ZmIndex::build(pts.clone(), &ZmConfig { fanout: 2 }, &elsi.builder());
        assert_eq!(idx.len(), 800, "{ds}");
        assert!(idx.point_query(pts[400]).is_some(), "{ds}");
    }
}
