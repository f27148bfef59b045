//! Rank models that start from their CDF fit the partitions the indices
//! hand them, and the indices stay exact where the keys are narrow.
//!
//! `elsi_ml::train_rank_model_in` normalises each training set's keys to
//! `[0, 1]`, sets the net to the interpolant of their CDF in the partition
//! they were drawn from, and folds the map back into layer 0; serving
//! builds train no epoch from there. These tests hold that at index level,
//! in debug builds as in release.

use elsi::methods::reduce;
use elsi::{lock_unpoisoned, Elsi, ElsiConfig, IndexKind, Method, Reduction};
use elsi_data::gen::uniform;
use elsi_indices::{
    build_on_training_set, Bracket, BuildInput, BuiltModel, ModelBuilder, OgBuilder, RankFn,
    SpatialIndex, ZmConfig, ZmIndex,
};
use elsi_ml::TrainConfig;
use elsi_spatial::{sort_by_key, MortonMapper, Point, Rect};
use std::sync::Mutex;

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
    // RS fits each leaf's interpolant through the medians of its quadtree
    // cells at their ranks in the leaf's partition (0.027 at worst here;
    // at one rank apiece in the reduced set, whatever a cell's count, it
    // was 0.13).
    let elsi = Elsi::new(ElsiConfig::scaled_for(250_000 / 16));
    let rs = worst_leaf_share(&shards, &elsi.fixed_builder(Method::Rs));
    assert!(rs <= 0.035, "RS-built leaf spans {rs:.3} of its partition");
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

/// What [`Recorder`] saw of one model: for a model with an interpolant,
/// the worst miss of a knot's true rank, in ranks; `None` for a fallback
/// model that is the constant net at its first key's rank. A model that is
/// neither reads infinite.
type Seen = Option<f64>;

/// Builds through an `ElsiBuilder` pinned to `method`, and checks each
/// model against the training set `reduce` gives for its partition.
struct Recorder {
    method: Method,
    cfg: ElsiConfig,
    elsi: Elsi,
    seen: Mutex<Vec<Seen>>,
}

impl Recorder {
    fn new(method: Method, n: usize) -> Self {
        let cfg = ElsiConfig::scaled_for(n);
        assert_eq!(cfg.train.epochs, 0, "serving builds train no epoch");
        Self {
            method,
            elsi: Elsi::new(cfg.clone()),
            cfg,
            seen: Mutex::new(Vec::new()),
        }
    }

    /// What the builds so far saw, one entry a model.
    fn seen(&self) -> Vec<Seen> {
        lock_unpoisoned(&self.seen).clone()
    }
}

impl ModelBuilder for Recorder {
    fn build_model(&self, input: &BuildInput<'_>) -> BuiltModel {
        let built = self.elsi.fixed_builder(self.method).build_model(input);
        let set = match reduce(self.method, input, &self.cfg, &self.elsi.mr_pool()).0 {
            Reduction::TrainingSet(set) => set,
            Reduction::Pretrained(_) => Vec::new(),
        };
        let seen = check_model(built.model.rank_fn(), &set, input.keys, self.cfg.hidden);
        lock_unpoisoned(&self.seen).push(seen);
        built
    }

    fn name(&self) -> &'static str {
        "recorder"
    }
}

/// Checks the model `f`, built from the sorted training `set` of the sorted
/// partition `full`, against its knots (see [`Seen`]).
fn check_model(f: &RankFn, set: &[f64], full: &[f64], hidden: usize) -> Seen {
    let (RankFn::Ffn(ffn), Some(&lo), Some(&hi)) = (f, set.first(), set.last()) else {
        return Some(f64::INFINITY);
    };
    let denom = (full.len().max(2) - 1) as f64;
    let rank = |k: f64| full.partition_point(|&f| f < k) as f64;
    let params = ffn.params();
    let reach = lo.abs().max(1.0) / (hi - lo);
    if !reach.is_finite() || reach <= 0.0 {
        let constant = params
            .split_last()
            .is_some_and(|(&b1, rest)| rest.iter().all(|&w| w == 0.0) && b1 == rank(lo) / denom);
        return if constant { None } else { Some(f64::INFINITY) };
    }
    if !params.iter().all(|w| w.is_finite()) {
        return Some(f64::INFINITY);
    }
    let last = set.len() - 1;
    let worst = (0..=hidden)
        .filter_map(|j| set.get(j * last / hidden))
        .map(|&k| (ffn.predict1(k) * denom - rank(k)).abs())
        .fold(0.0, f64::max);
    Some(worst)
}

#[test]
fn zero_epoch_models_hit_their_knots_true_ranks() {
    // One deployment shard, ≈ 15.6 k points under a root and eight leaves:
    // every model is its interpolant, and each knot lands on the rank its
    // key has in the partition the model serves, not in the training set.
    let n = 15_625;
    let points = uniform(n, 37);
    for method in [Method::Rs, Method::Og] {
        let recorder = Recorder::new(method, n);
        let zm = ZmIndex::build(points.clone(), &ZmConfig { fanout: 8 }, &recorder);
        let seen = recorder.seen();
        assert_eq!(seen.len(), 9, "{method}: a root and eight leaves");
        for worst in seen {
            assert!(
                worst.is_some_and(|w| w <= 1e-6),
                "{method}: a knot misses its rank by {worst:?}"
            );
        }
        for p in points.iter().step_by(7) {
            assert_eq!(zm.point_query(*p), Some(*p), "{method}");
        }
    }
}

#[test]
fn zero_epoch_fallback_models_are_constant_and_exact() {
    let cfg = TrainConfig {
        epochs: 0,
        ..TrainConfig::default()
    };
    // One key, equal keys, and a span of subnormals (`1 / span` overflows):
    // the model is the constant net at the first key's rank, and the error
    // bounds keep every key's rank inside its search range.
    let subnormal: Vec<f64> = (0..50).map(|i| f64::from(i) * 5e-324).collect();
    for keys in [vec![0.3], vec![0.5; 40], subnormal] {
        let built = build_on_training_set(&keys, &keys, 16, &cfg, 9, "OG");
        assert_eq!(check_model(built.model.rank_fn(), &keys, &keys, 16), None);
        for (i, &k) in keys.iter().enumerate() {
            let Bracket { lo, hi, .. } = built.model.search_range(k);
            assert!(lo <= i && i < hi, "rank {i} outside [{lo}, {hi})");
        }
    }
    // Whole indices over one point, and over 300 points at one location
    // (every key equal), built by RS and OG.
    let one = vec![Point::new(1, 0.25, 0.75)];
    let stack: Vec<Point> = (0..300).map(|i| Point::new(i, 0.4, 0.6)).collect();
    for points in [one, stack] {
        for method in [Method::Rs, Method::Og] {
            let recorder = Recorder::new(method, points.len());
            let zm = ZmIndex::build(points.clone(), &ZmConfig { fanout: 4 }, &recorder);
            assert!(
                recorder.seen().contains(&None),
                "{method}: no fallback model"
            );
            let at = |p: &Point, q: Point| (q.x, q.y) == (p.x, p.y);
            assert!(points
                .iter()
                .all(|p| zm.point_query(*p).is_some_and(|q| at(p, q))));
            let (x, y) = (points[0].x, points[0].y);
            let hits = zm.window_query(&Rect::new(x, y, x, y));
            assert_eq!(
                hits.len(),
                points.len(),
                "{method}: every point at one location"
            );
        }
    }
}
