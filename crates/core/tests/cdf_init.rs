//! Rank models that start from their CDF fit the partitions the indices
//! hand them, and the indices stay exact where the keys are narrow.
//!
//! `elsi_ml::train_rank_model` normalises each training set's keys to
//! `[0, 1]`, starts the net at the interpolant of their empirical CDF and
//! folds the map back into layer 0. These tests hold that at index level,
//! in debug builds as in release.

use elsi::{Elsi, ElsiConfig, IndexKind, Method};
use elsi_data::gen::uniform;
use elsi_indices::{ModelBuilder, OgBuilder, ZmConfig, ZmIndex};
use elsi_spatial::{sort_by_key, MortonMapper, Point};

/// Points in the deployment's 4 × 4 shards of the unit square: 250k
/// uniform points, ≈ 15.6k a shard.
fn shards() -> Vec<Vec<Point>> {
    let mut shards = vec![Vec::new(); 16];
    for p in uniform(250_000, 37) {
        let cell = |v: f64| ((v * 4.0) as usize).min(3);
        shards[cell(p.x) + 4 * cell(p.y)].push(p);
    }
    shards
}

/// The widest ZM leaf error span over `shards`, as a share of the leaf's
/// own partition. Leaf `j` of `s` holds ranks `[j n / s, (j + 1) n / s)`.
fn worst_leaf_share(shards: &[Vec<Point>], builder: &dyn ModelBuilder) -> f64 {
    let mut worst: f64 = 0.0;
    for shard in shards {
        let n = shard.len();
        let zm = ZmIndex::build(shard.clone(), &ZmConfig::default(), builder);
        let leaves = zm.build_stats().get(1..).unwrap_or(&[]);
        let s = leaves.len();
        assert_eq!(s, ZmConfig::default().fanout);
        for (j, leaf) in leaves.iter().enumerate() {
            let partition = (j + 1) * n / s - j * n / s;
            worst = worst.max(leaf.err_span as f64 / partition as f64);
        }
    }
    worst
}

#[test]
fn zm_leaves_fit_their_partitions() {
    // Each leaf's keys span ≈ 1/128 of [0, 1]. From a random init on the
    // raw keys, 200 epochs left its span at 97–100 % of its ≈ 1 950 ranks.
    let shards = shards();
    let og = worst_leaf_share(&shards, &OgBuilder::with_epochs(50));
    assert!(og <= 0.10, "OG-built leaf spans {og:.3} of its partition");
    // RS trains each leaf on the medians of its quadtree cells, one rank
    // apiece whatever the cell's count, so the fit to the full partition
    // carries that bias too (≈ 0.14 at worst here, ≈ 0.13 from the
    // interpolant alone).
    let elsi = Elsi::new(ElsiConfig::scaled_for(250_000 / 16));
    let rs = worst_leaf_share(&shards, &elsi.fixed_builder(Method::Rs));
    assert!(rs <= 0.15, "RS-built leaf spans {rs:.3} of its partition");
}

#[test]
fn learned_kinds_stay_exact_over_keys_narrower_than_1e_9() {
    // 2 000 points in a square of side 1e-5: their Morton keys span under
    // 1e-9, so the fold divides by a tiny span and subtracts a large
    // `lo / span`.
    let points: Vec<Point> = uniform(2_000, 5)
        .into_iter()
        .map(|p| Point::new(p.id, 0.3 + p.x * 1e-5, 0.7 + p.y * 1e-5))
        .collect();
    let (_, keys) = sort_by_key(points.clone(), &MortonMapper);
    let span = keys[keys.len() - 1] - keys[0];
    assert!(span > 0.0 && span < 1e-9, "Morton keys span {span}");

    let elsi = Elsi::new(ElsiConfig::scaled_for(points.len()));
    for kind in IndexKind::LEARNED {
        let rs = kind.mask(elsi.fixed_builder(Method::Rs));
        let og = OgBuilder::with_epochs(50);
        let builders: [(&str, &dyn ModelBuilder); 2] = [("RS", &rs), ("OG", &og)];
        for (name, builder) in builders {
            let idx = kind.build(points.clone(), builder);
            for p in &points {
                assert_eq!(idx.point_query(*p), Some(*p), "{kind:?} by {name}");
            }
        }
    }
}
