//! The index building method scorer and selector (§IV-B1, Fig. 4).
//!
//! Two FFNs estimate, for a building method `P` and a data set `D`, the
//! index building cost `C_B(P, D)` and the query cost `C_Q(P, D)` relative
//! to OG. The combined score follows Eq. 2,
//! `C(P, D) = λ·C_B + (1−λ)·w_Q·C_Q`, and the method minimising the
//! combined (relative log-)cost is selected. Each FFN takes the method's
//! one-hot embedding plus the cardinality and distribution of `D`
//! (`dist(D_U, D)`, the KS distance of the mapped keys from uniform).
//!
//! The scorer is trained offline ("ELSI preparation", §VII-B2) on generated
//! data sets spanning cardinalities `10^l..10^u` and distances-from-uniform
//! 0.0–0.9, with measured per-method build and query times as ground truth.
//! This module also provides the decision-tree and random-forest selector
//! baselines of Fig. 6(b) (DTR/DTC/RFR/RFC) and the random selector of the
//! Table II ablation.

use crate::config::ElsiConfig;
use crate::methods::{reduce, Method, MrPool, Reduction};
use elsi_data::{dist_from_uniform, gen};
use elsi_indices::{
    build_on_training_set, equal_key_run, timed, timed_secs, BuildInput, BuiltModel,
};
use elsi_ml::{
    train_regression, DecisionTree, Ffn, ForestConfig, RandomForest, TrainConfig, TreeConfig,
};
use elsi_spatial::{sort_by_key, MortonMapper, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Number of scorer input features: 7 method slots + log-cardinality +
/// distance from uniform.
pub const SCORER_FEATURES: usize = 9;

/// Measured ground truth for one `(data set, method)` pair.
#[derive(Debug, Clone, Copy)]
pub struct MethodCosts {
    /// The building method measured.
    pub method: Method,
    /// Cardinality of the generated data set.
    pub n: usize,
    /// `dist(D_U, D)` of its mapped keys.
    pub dist_u: f64,
    /// Wall-clock model build time in seconds (reduce + train + bounds).
    pub build_secs: f64,
    /// Average point-query time in microseconds.
    pub query_micros: f64,
    /// Error span of the built model.
    pub err_span: u64,
}

/// One scorer training sample: features plus log-relative costs vs OG.
#[derive(Debug, Clone, Copy)]
pub struct ScorerSample {
    /// The method this sample describes.
    pub method: Method,
    /// Data set cardinality.
    pub n: usize,
    /// Distance from uniform.
    pub dist_u: f64,
    /// `log10(build_method / build_og)`.
    pub build_rel: f64,
    /// `log10(query_method / query_og)`.
    pub query_rel: f64,
}

/// Builds the scorer input feature vector.
pub fn features(method: Method, n: usize, dist_u: f64) -> [f64; SCORER_FEATURES] {
    let mut f = [0.0; SCORER_FEATURES];
    f[method.one_hot_index()] = 1.0;
    f[7] = (n.max(1) as f64).log10() / 8.0; // paper cardinalities reach 10^8
    f[8] = dist_u;
    f
}

/// The FFN method scorer (two cost-estimation networks).
pub struct MethodScorer {
    build_net: Ffn,
    query_net: Ffn,
}

impl MethodScorer {
    /// Trains the two cost FFNs on measured samples.
    pub fn train(samples: &[ScorerSample], seed: u64) -> Self {
        assert!(!samples.is_empty(), "scorer needs training data");
        let xs: Vec<f64> = samples
            .iter()
            .flat_map(|s| features(s.method, s.n, s.dist_u))
            .collect();
        let build_ys: Vec<f64> = samples.iter().map(|s| s.build_rel).collect();
        let query_ys: Vec<f64> = samples.iter().map(|s| s.query_rel).collect();
        let cfg = TrainConfig {
            epochs: 400,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let mut build_net = Ffn::new(&[SCORER_FEATURES, 24, 1], seed ^ 0xB);
        train_regression(&mut build_net, &xs, &build_ys, &cfg);
        let mut query_net = Ffn::new(&[SCORER_FEATURES, 24, 1], seed ^ 0x5EED);
        train_regression(&mut query_net, &xs, &query_ys, &cfg);
        Self {
            build_net,
            query_net,
        }
    }

    /// Predicted `(build_rel, query_rel)` log-costs of a method.
    pub fn predict(&self, method: Method, n: usize, dist_u: f64) -> (f64, f64) {
        let f = features(method, n, dist_u);
        // Allocation-free scalar path: `select` runs this once per allowed
        // method on every partition of every build.
        (
            self.build_net.predict_scalar(&f),
            self.query_net.predict_scalar(&f),
        )
    }

    /// Combined score of Eq. 2 (lower is better in log-relative costs).
    pub fn combined(&self, method: Method, n: usize, dist_u: f64, lambda: f64, w_q: f64) -> f64 {
        let (b, q) = self.predict(method, n, dist_u);
        lambda * b + (1.0 - lambda) * w_q * q
    }

    /// Selects the best allowed method for a data set.
    pub fn select(
        &self,
        n: usize,
        dist_u: f64,
        lambda: f64,
        w_q: f64,
        allowed: &[Method],
    ) -> Method {
        assert!(!allowed.is_empty(), "no methods allowed");
        *allowed
            .iter()
            .min_by(|a, b| {
                let ca = self.combined(**a, n, dist_u, lambda, w_q);
                let cb = self.combined(**b, n, dist_u, lambda, w_q);
                ca.total_cmp(&cb)
            })
            .expect("non-empty allowed set")
    }
}

/// Generates a 2-D data set whose mapped-key distance from uniform is
/// controlled by the skew exponent (`s = 1` is uniform; larger is more
/// skewed). The exact distance is measured afterwards, matching the paper's
/// use of measured `dist(D_U, D)` as the feature.
pub fn skewed_dataset(n: usize, s: i32, seed: u64) -> Vec<Point> {
    if s <= 1 {
        gen::uniform(n, seed)
    } else {
        gen::skewed(n, s, seed)
    }
}

/// The skew-exponent grid used to span distances 0.0–0.9 (paper: ten
/// distribution levels).
pub const SKEW_GRID: [i32; 10] = [1, 2, 3, 4, 6, 8, 12, 18, 26, 40];

/// Measures one `(skew, size)` grid cell: generates the data set from its
/// own deterministic seed (`seed ^ (di·131 + si)`, the PR-1 per-partition
/// scheme) and measures every method on it. Pure in everything except the
/// wall-clock readings, which go through the sanctioned `timed`/`timed_secs`
/// helpers — so cells can run on any thread, in any order.
fn measure_cell(
    cell: (usize, usize, i32, usize),
    methods: &[Method],
    cfg: &ElsiConfig,
    mr_pool: &MrPool,
    seed: u64,
) -> Vec<MethodCosts> {
    let (di, si, s, n) = cell;
    let pts = skewed_dataset(n, s, seed ^ ((di * 131 + si) as u64));
    let (points, keys) = sort_by_key(pts, &MortonMapper);
    let dist_u = dist_from_uniform(&keys);
    methods
        .iter()
        .map(|&m| {
            let (built, build_secs) = build_with_method(m, &points, &keys, cfg, mr_pool, seed);
            let query_micros = measure_query_micros(&built, &keys, 512);
            MethodCosts {
                method: m,
                n,
                dist_u,
                build_secs,
                query_micros,
                err_span: built.model.err_span(),
            }
        })
        .collect()
}

/// Measures ground-truth build and query costs of every method in
/// `methods` over generated data sets of the given sizes × skews
/// (the "ELSI preparation" measurement pass).
///
/// Grid cells are independent — each generates its own data set from a
/// per-cell seed — so they are fanned out on the rayon pool. The map is
/// order-preserving, so the output order (skews outer, sizes inner, methods
/// innermost) is identical to a serial loop over the same cells, and so are
/// all cost-feature fields (`method`, `n`, `dist_u`, `err_span`). Only the
/// `build_secs` / `query_micros` timing fields can differ: they are honest
/// wall-clock readings taken on whichever worker ran the cell, and on an
/// oversubscribed pool concurrent cells contend for cores. Scorer
/// *decisions* are unaffected in practice because method build-cost ratios
/// are orders of magnitude apart (pinned by the serial-vs-parallel
/// equivalence tests).
pub fn measure_method_costs(
    sizes: &[usize],
    skews: &[i32],
    methods: &[Method],
    cfg: &ElsiConfig,
    mr_pool: &MrPool,
    seed: u64,
) -> Vec<MethodCosts> {
    let cells: Vec<(usize, usize, i32, usize)> = skews
        .iter()
        .enumerate()
        .flat_map(|(di, &s)| sizes.iter().enumerate().map(move |(si, &n)| (di, si, s, n)))
        .collect();
    let per_cell: Vec<Vec<MethodCosts>> = cells
        .into_par_iter()
        .map(|cell| measure_cell(cell, methods, cfg, mr_pool, seed))
        .collect();
    per_cell.into_iter().flatten().collect()
}

/// Builds one rank model over key-sorted `points` with a fixed method;
/// returns it and the wall time.
pub fn build_with_method(
    method: Method,
    points: &[Point],
    keys: &[f64],
    cfg: &ElsiConfig,
    mr_pool: &MrPool,
    seed: u64,
) -> (BuiltModel, f64) {
    let input = BuildInput {
        points,
        keys,
        mapper: &MortonMapper,
        seed,
    };
    let (built, build_secs) = timed_secs(|| {
        let (reduction, reduce_time) = timed(|| reduce(method, &input, cfg, mr_pool));
        match reduction {
            Reduction::TrainingSet(set) => build_on_training_set(
                &set,
                keys,
                cfg.hidden,
                &cfg.train,
                seed,
                method.name(),
                reduce_time,
            ),
            Reduction::Pretrained(ffn) => {
                let model = elsi_indices::RankModel::from_ffn(ffn, keys);
                let err_span = model.err_span();
                BuiltModel {
                    model,
                    stats: elsi_indices::BuildStats {
                        method: method.name(),
                        training_set_size: 0,
                        reduce_time,
                        train_time: std::time::Duration::ZERO,
                        bound_time: std::time::Duration::ZERO,
                        err_span,
                    },
                }
            }
        }
    });
    (built, build_secs)
}

/// Average point-lookup time over sampled stored keys, in µs: predict,
/// then the bounded key search of the error-bounded range — the operation
/// the model-backed indices run before their leaf scan
/// ([`equal_key_run`]), so `C_Q`'s ground truth grows with the error span
/// exactly as the product's lookup does.
fn measure_query_micros(built: &BuiltModel, keys: &[f64], queries: usize) -> f64 {
    let n = keys.len();
    if n == 0 {
        return 0.0;
    }
    let step = (n / queries.max(1)).max(1);
    let (found, secs) = timed_secs(|| {
        let mut found = 0usize;
        for &key in keys.iter().step_by(step) {
            let (lo, hi) = equal_key_run(keys, built.model.search_range(key), key);
            if lo < hi {
                found += 1;
            }
        }
        found
    });
    let count = n.div_ceil(step);
    std::hint::black_box(found);
    secs * 1e6 / count as f64
}

/// Converts measured costs into scorer training samples (log-relative to
/// the OG row of the same data set).
pub fn samples_from_costs(costs: &[MethodCosts]) -> Vec<ScorerSample> {
    let mut out = Vec::new();
    // Group by (n, dist_u) via the OG rows.
    for og in costs.iter().filter(|c| c.method == Method::Og) {
        for c in costs
            .iter()
            .filter(|c| c.n == og.n && c.dist_u == og.dist_u)
        {
            out.push(ScorerSample {
                method: c.method,
                n: c.n,
                dist_u: c.dist_u,
                build_rel: (c.build_secs.max(1e-9) / og.build_secs.max(1e-9)).log10(),
                query_rel: (c.query_micros.max(1e-3) / og.query_micros.max(1e-3)).log10(),
            });
        }
    }
    out
}

/// Ground-truth best method for a data set at a given λ.
pub fn ground_truth_best(
    costs: &[MethodCosts],
    n: usize,
    dist_u: f64,
    lambda: f64,
    w_q: f64,
    allowed: &[Method],
) -> Method {
    let og = costs
        .iter()
        .find(|c| c.method == Method::Og && c.n == n && c.dist_u == dist_u)
        .expect("OG row present");
    *allowed
        .iter()
        .min_by(|a, b| {
            let score = |m: Method| {
                let c = costs
                    .iter()
                    .find(|c| c.method == m && c.n == n && c.dist_u == dist_u)
                    .expect("method row present");
                let b_rel = (c.build_secs.max(1e-9) / og.build_secs.max(1e-9)).log10();
                let q_rel = (c.query_micros.max(1e-3) / og.query_micros.max(1e-3)).log10();
                lambda * b_rel + (1.0 - lambda) * w_q * q_rel
            };
            score(**a).total_cmp(&score(**b))
        })
        .expect("non-empty allowed set")
}

/// The alternative selector models of Fig. 6(b).
pub enum AltSelector {
    /// Random-forest regression on (method, n, dist) → costs.
    Rfr {
        /// Build-cost regressor.
        build: RandomForest,
        /// Query-cost regressor.
        query: RandomForest,
    },
    /// Random-forest classification on (n, dist, λ) → best method.
    Rfc(RandomForest),
    /// Decision-tree regression.
    Dtr {
        /// Build-cost regressor.
        build: DecisionTree,
        /// Query-cost regressor.
        query: DecisionTree,
    },
    /// Decision-tree classification.
    Dtc(DecisionTree),
}

impl AltSelector {
    /// Display name matching Fig. 6(b).
    pub fn name(&self) -> &'static str {
        match self {
            AltSelector::Rfr { .. } => "RFR",
            AltSelector::Rfc(_) => "RFC",
            AltSelector::Dtr { .. } => "DTR",
            AltSelector::Dtc(_) => "DTC",
        }
    }

    /// Trains a regression variant on the same samples as the FFN scorer.
    pub fn train_regression_variant(samples: &[ScorerSample], forest: bool, seed: u64) -> Self {
        let xs: Vec<f64> = samples
            .iter()
            .flat_map(|s| features(s.method, s.n, s.dist_u))
            .collect();
        let build_ys: Vec<f64> = samples.iter().map(|s| s.build_rel).collect();
        let query_ys: Vec<f64> = samples.iter().map(|s| s.query_rel).collect();
        if forest {
            let cfg = ForestConfig {
                n_trees: 30,
                seed,
                ..ForestConfig::default()
            };
            AltSelector::Rfr {
                build: RandomForest::fit_regression(&xs, SCORER_FEATURES, &build_ys, &cfg),
                query: RandomForest::fit_regression(&xs, SCORER_FEATURES, &query_ys, &cfg),
            }
        } else {
            let cfg = TreeConfig::default();
            AltSelector::Dtr {
                build: DecisionTree::fit_regression(&xs, SCORER_FEATURES, &build_ys, &cfg),
                query: DecisionTree::fit_regression(&xs, SCORER_FEATURES, &query_ys, &cfg),
            }
        }
    }

    /// Trains a classification variant: `(log n, dist, λ)` → best method,
    /// labelled from measured ground truth over a λ grid.
    pub fn train_classification_variant(
        costs: &[MethodCosts],
        lambdas: &[f64],
        w_q: f64,
        allowed: &[Method],
        forest: bool,
        seed: u64,
    ) -> Self {
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for c in costs {
            if !seen.insert((c.n, c.dist_u.to_bits())) {
                continue;
            }
            for &l in lambdas {
                let best = ground_truth_best(costs, c.n, c.dist_u, l, w_q, allowed);
                xs.extend([(c.n as f64).log10() / 8.0, c.dist_u, l]);
                labels.push(best.one_hot_index());
            }
        }
        if forest {
            let cfg = ForestConfig {
                n_trees: 30,
                seed,
                ..ForestConfig::default()
            };
            AltSelector::Rfc(RandomForest::fit_classification(&xs, 3, &labels, 7, &cfg))
        } else {
            AltSelector::Dtc(DecisionTree::fit_classification(
                &xs,
                3,
                &labels,
                7,
                &TreeConfig::default(),
            ))
        }
    }

    /// Selects a method for a data set at a given λ.
    pub fn select(
        &self,
        n: usize,
        dist_u: f64,
        lambda: f64,
        w_q: f64,
        allowed: &[Method],
    ) -> Method {
        match self {
            AltSelector::Rfr { build, query } => *allowed
                .iter()
                .min_by(|a, b| {
                    let s = |m: Method| {
                        let f = features(m, n, dist_u);
                        lambda * build.predict(&f) + (1.0 - lambda) * w_q * query.predict(&f)
                    };
                    s(**a).total_cmp(&s(**b))
                })
                .expect("non-empty"),
            AltSelector::Dtr { build, query } => *allowed
                .iter()
                .min_by(|a, b| {
                    let s = |m: Method| {
                        let f = features(m, n, dist_u);
                        lambda * build.predict(&f) + (1.0 - lambda) * w_q * query.predict(&f)
                    };
                    s(**a).total_cmp(&s(**b))
                })
                .expect("non-empty"),
            AltSelector::Rfc(f) => {
                let x = [(n as f64).log10() / 8.0, dist_u, lambda];
                let c = f.predict_class(&x);
                method_from_index(c, allowed)
            }
            AltSelector::Dtc(t) => {
                let x = [(n as f64).log10() / 8.0, dist_u, lambda];
                let c = t.predict_class(&x);
                method_from_index(c, allowed)
            }
        }
    }
}

fn method_from_index(i: usize, allowed: &[Method]) -> Method {
    Method::all()
        .into_iter()
        .find(|m| m.one_hot_index() == i && allowed.contains(m))
        .unwrap_or(allowed[0])
}

/// A selector that picks uniformly at random (the "Rand" ablation of
/// Table II).
pub struct RandomSelector {
    rng: StdRng,
}

impl RandomSelector {
    /// Creates a seeded random selector.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Picks one of the allowed methods uniformly at random.
    pub fn select(&mut self, allowed: &[Method]) -> Method {
        allowed[self.rng.gen_range(0..allowed.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_costs() -> Vec<MethodCosts> {
        // Hand-crafted: SP builds 100× faster, queries 2× slower than OG.
        let mut out = Vec::new();
        for &(n, d) in &[(1000usize, 0.1f64), (1000, 0.5)] {
            out.push(MethodCosts {
                method: Method::Og,
                n,
                dist_u: d,
                build_secs: 10.0,
                query_micros: 1.0,
                err_span: 10,
            });
            out.push(MethodCosts {
                method: Method::Sp,
                n,
                dist_u: d,
                build_secs: 0.1,
                query_micros: 2.0,
                err_span: 20,
            });
        }
        out
    }

    #[test]
    fn features_shape() {
        let f = features(Method::Rs, 100_000, 0.4);
        assert_eq!(f.len(), SCORER_FEATURES);
        assert_eq!(f[Method::Rs.one_hot_index()], 1.0);
        assert_eq!(f.iter().take(7).sum::<f64>(), 1.0);
        assert!((f[7] - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(f[8], 0.4);
    }

    #[test]
    fn samples_are_log_relative() {
        let samples = samples_from_costs(&tiny_costs());
        let sp = samples.iter().find(|s| s.method == Method::Sp).unwrap();
        assert!((sp.build_rel - (-2.0)).abs() < 1e-9);
        assert!((sp.query_rel - 2.0f64.log10()).abs() < 1e-9);
        let og = samples.iter().find(|s| s.method == Method::Og).unwrap();
        assert!(og.build_rel.abs() < 1e-9);
    }

    #[test]
    fn scorer_learns_build_vs_query_tradeoff() {
        let samples = samples_from_costs(&tiny_costs());
        let scorer = MethodScorer::train(&samples, 1);
        let allowed = [Method::Sp, Method::Og];
        // λ = 1 (build time only): SP wins. λ = 0 (query only): OG wins.
        assert_eq!(scorer.select(1000, 0.1, 1.0, 1.0, &allowed), Method::Sp);
        assert_eq!(scorer.select(1000, 0.1, 0.0, 1.0, &allowed), Method::Og);
    }

    #[test]
    fn ground_truth_best_matches_hand_computation() {
        let costs = tiny_costs();
        let allowed = [Method::Sp, Method::Og];
        assert_eq!(
            ground_truth_best(&costs, 1000, 0.1, 1.0, 1.0, &allowed),
            Method::Sp
        );
        assert_eq!(
            ground_truth_best(&costs, 1000, 0.1, 0.0, 1.0, &allowed),
            Method::Og
        );
    }

    #[test]
    fn alt_selectors_train_and_select() {
        let costs = tiny_costs();
        let samples = samples_from_costs(&costs);
        let allowed = [Method::Sp, Method::Og];
        let lambdas = [0.0, 0.5, 1.0];
        for sel in [
            AltSelector::train_regression_variant(&samples, true, 1),
            AltSelector::train_regression_variant(&samples, false, 1),
            AltSelector::train_classification_variant(&costs, &lambdas, 1.0, &allowed, true, 1),
            AltSelector::train_classification_variant(&costs, &lambdas, 1.0, &allowed, false, 1),
        ] {
            let m = sel.select(1000, 0.1, 1.0, 1.0, &allowed);
            assert!(allowed.contains(&m), "{} picked {m}", sel.name());
        }
    }

    #[test]
    fn random_selector_stays_in_pool() {
        let mut r = RandomSelector::new(3);
        let allowed = [Method::Sp, Method::Mr, Method::Og];
        for _ in 0..30 {
            assert!(allowed.contains(&r.select(&allowed)));
        }
    }

    /// Serial reference for [`measure_method_costs`]: same cells, same
    /// seeds, same output order, one cell at a time on the calling thread.
    fn measure_method_costs_serial(
        sizes: &[usize],
        skews: &[i32],
        methods: &[Method],
        cfg: &ElsiConfig,
        mr_pool: &MrPool,
        seed: u64,
    ) -> Vec<MethodCosts> {
        let mut out = Vec::new();
        for (di, &s) in skews.iter().enumerate() {
            for (si, &n) in sizes.iter().enumerate() {
                out.extend(measure_cell((di, si, s, n), methods, cfg, mr_pool, seed));
            }
        }
        out
    }

    #[test]
    fn parallel_grid_matches_serial_reference() {
        let cfg = ElsiConfig {
            train: TrainConfig {
                epochs: 2000,
                ..Default::default()
            },
            ..ElsiConfig::fast_test()
        };
        let pool = MrPool::generate(&cfg, 1);
        let methods = [Method::Sp, Method::Og];
        let sizes = [300, 500];
        let skews = [1, 8];
        let par = measure_method_costs(&sizes, &skews, &methods, &cfg, &pool, 7);
        let ser = measure_method_costs_serial(&sizes, &skews, &methods, &cfg, &pool, 7);

        // Cost-feature fields must match bit-for-bit, in the same order;
        // only the wall-clock fields (build_secs, query_micros) may differ.
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.method, s.method);
            assert_eq!(p.n, s.n);
            assert_eq!(p.dist_u.to_bits(), s.dist_u.to_bits(), "{}", p.method);
            assert_eq!(p.err_span, s.err_span, "{}", p.method);
            assert!(p.build_secs > 0.0 && s.build_secs > 0.0);
        }

        // The scorers trained from either run must make the same picks at
        // build-dominated λ, where the SP-vs-OG build ratio dwarfs any
        // timing jitter between the runs. The epoch count makes training
        // the bulk of both builds, so SP, on a ρ = 5 % sample, builds about
        // 15× faster than OG; at 20 epochs the per-key work both do left a
        // 3× gap that one descheduled thread on a loaded machine could close.
        let scorer_par = MethodScorer::train(&samples_from_costs(&par), 1);
        let scorer_ser = MethodScorer::train(&samples_from_costs(&ser), 1);
        let allowed = [Method::Sp, Method::Og];
        for c in ser.iter().filter(|c| c.method == Method::Og) {
            for lambda in [0.8, 1.0] {
                assert_eq!(
                    scorer_par.select(c.n, c.dist_u, lambda, 1.0, &allowed),
                    scorer_ser.select(c.n, c.dist_u, lambda, 1.0, &allowed),
                    "picks diverge at n={} dist={} λ={lambda}",
                    c.n,
                    c.dist_u
                );
            }
        }
    }

    #[test]
    fn measure_costs_smoke() {
        let cfg = ElsiConfig {
            train: TrainConfig {
                epochs: 20,
                ..Default::default()
            },
            ..ElsiConfig::fast_test()
        };
        let pool = MrPool::generate(&cfg, 1);
        let costs =
            measure_method_costs(&[500], &[1, 8], &[Method::Sp, Method::Og], &cfg, &pool, 7);
        assert_eq!(costs.len(), 4);
        assert!(costs.iter().all(|c| c.build_secs > 0.0));
        // SP must build faster than OG on the same data.
        for chunk in costs.chunks(2) {
            assert!(
                chunk[0].build_secs < chunk[1].build_secs,
                "SP not faster: {chunk:?}"
            );
        }
    }
}
