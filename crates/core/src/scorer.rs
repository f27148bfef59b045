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
//! 0.0–0.9, with counted per-method build and query work as ground truth
//! (§VI's `cost_ex + T(|D_S|) + M(n)`, and the steps of the bounded key
//! search), so the preparation is a pure function of its inputs.
//! This module also provides the decision-tree and random-forest selector
//! baselines of Fig. 6(b) (DTR/DTC/RFR/RFC) and the random selector of the
//! Table II ablation.

use crate::build::ElsiBuilder;
use crate::config::ElsiConfig;
use crate::methods::{Method, MrPool};
use elsi_data::{dist_from_uniform, gen};
use elsi_indices::{BuildInput, BuildStats, ModelBuilder, RankModel};
use elsi_ml::{
    train_regression, DecisionTree, Ffn, ForestConfig, RandomForest, TrainConfig, TreeConfig,
};
use elsi_spatial::{sort_by_key, MortonMapper, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::Arc;

/// Number of scorer input features: 7 method slots + log-cardinality +
/// distance from uniform.
pub const SCORER_FEATURES: usize = 9;

/// Weight of one reduction step (a key drawn, a quadtree point visit, a
/// k-means distance evaluation, a KS merge step), in ns: CL's 1.09, the
/// term that dominates wherever it is large.
///
/// The three weights were fitted on one release build (`target-cpu =
/// native`, 2 vCPUs) to the `BuildStats` times (best of 3) of every method
/// built with `ElsiConfig::scaled_for(30 000)` over 1k–30k points × skews
/// 1–40, at 0 and 50 epochs. Their sum then predicted 73 % of those 224
/// builds within ±50 % (median |log10 error| 0.08); at the median it
/// underpredicts RL 3.9×, MR 2.6× and RS 2.1×, whose steps cost more.
pub const REDUCE_NS: f64 = 1.0;

/// Weight of one training sample-epoch, in ns (least squares 21.6,
/// median 17.2; see [`REDUCE_NS`]).
pub const TRAIN_NS: f64 = 18.0;

/// Weight of one key of the bounds pass `M(n)`, in ns (least squares 4.3,
/// median 4.6; see [`REDUCE_NS`]).
pub const BOUND_NS: f64 = 5.0;

/// Counted ground truth for one `(data set, method)` pair.
#[derive(Debug, Clone, Copy)]
pub struct MethodCosts {
    /// The building method measured.
    pub method: Method,
    /// Cardinality of the generated data set.
    pub n: usize,
    /// `dist(D_U, D)` of its mapped keys.
    pub dist_u: f64,
    /// Build work in predicted ns: the reduction's steps, the training
    /// sample-epochs and the `n` keys of the bounds pass, weighted by
    /// [`REDUCE_NS`], [`TRAIN_NS`] and [`BOUND_NS`].
    pub build_work: u64,
    /// Lookup work over sampled stored keys: per lookup, one model
    /// invocation plus the key comparisons of the bounded search.
    pub query_work: u64,
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

/// The feature matrix of `samples` (row-major) and its build and query
/// targets.
fn feature_matrix(samples: &[ScorerSample]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let xs = samples
        .iter()
        .flat_map(|s| features(s.method, s.n, s.dist_u))
        .collect();
    let build_ys = samples.iter().map(|s| s.build_rel).collect();
    let query_ys = samples.iter().map(|s| s.query_rel).collect();
    (xs, build_ys, query_ys)
}

/// The allowed method of least Eq. 2 score, `λ·build + (1−λ)·w_Q·query`
/// over the log-relative costs `rel(method)`; a method without costs
/// never wins. The first wins a tie; OG, the backup option, when
/// `allowed` is empty.
fn argmin(
    allowed: &[Method],
    lambda: f64,
    w_q: f64,
    rel: impl Fn(Method) -> Option<(f64, f64)>,
) -> Method {
    let score = |m: Method| {
        rel(m).map_or(f64::INFINITY, |(b, q)| {
            lambda * b + (1.0 - lambda) * w_q * q
        })
    };
    allowed
        .iter()
        .copied()
        .min_by(|&a, &b| score(a).total_cmp(&score(b)))
        .unwrap_or(Method::Og)
}

/// The FFN method scorer (two cost-estimation networks).
pub struct MethodScorer {
    build_net: Ffn,
    query_net: Ffn,
}

impl MethodScorer {
    /// Trains the two cost FFNs on counted samples.
    pub fn train(samples: &[ScorerSample], seed: u64) -> Self {
        assert!(!samples.is_empty(), "scorer needs training data");
        let (xs, build_ys, query_ys) = feature_matrix(samples);
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

    /// Selects the allowed method of least predicted Eq. 2 cost for a data
    /// set.
    pub fn select(
        &self,
        n: usize,
        dist_u: f64,
        lambda: f64,
        w_q: f64,
        allowed: &[Method],
    ) -> Method {
        // Allocation-free scalar path: this runs once per allowed method on
        // every partition of every build.
        argmin(allowed, lambda, w_q, |m| {
            let f = features(m, n, dist_u);
            let (b, q) = (&self.build_net, &self.query_net);
            Some((b.predict_scalar(&f), q.predict_scalar(&f)))
        })
    }
}

/// The skew-exponent grid used to span distances 0.0–0.9 (paper: ten
/// distribution levels).
pub const SKEW_GRID: [i32; 10] = [1, 2, 3, 4, 6, 8, 12, 18, 26, 40];

/// The key-sorted data set of the grid cell at skew index `di`, size index
/// `si`: `n` points at skew exponent `s` (`s = 1` is uniform; larger is
/// more skewed), generated from the cell's own seed `seed ^ (di·131 + si)`.
/// Its exact distance from uniform is measured afterwards, as the paper
/// uses the measured `dist(D_U, D)` as the feature.
pub fn grid_cell(di: usize, si: usize, s: i32, n: usize, seed: u64) -> (Vec<Point>, Vec<f64>) {
    let seed = seed ^ ((di * 131 + si) as u64);
    let pts = if s <= 1 {
        gen::uniform(n, seed)
    } else {
        gen::skewed(n, s, seed)
    };
    sort_by_key(&pts, &MortonMapper)
}

/// §VI's build cost of one model over `n` keys, counted and weighted: the
/// reduction's steps, `|D_S| × epochs` training sample-epochs and the `n`
/// predictions of the bounds pass.
fn build_work(stats: &BuildStats, epochs: usize, n: usize) -> u64 {
    let sample_epochs = (stats.training_set_size * epochs) as f64;
    let ns = REDUCE_NS * stats.reduce_work as f64 + TRAIN_NS * sample_epochs + BOUND_NS * n as f64;
    ns.round() as u64
}

/// Lookup work over every stored key at a stride giving about `queries`
/// lookups: per lookup one model invocation plus the comparisons of the
/// paper's bounded search — a lower-bound and an upper-bound binary search
/// over the whole error-bounded range (§VI's cost model), so the count
/// grows with the error span. The product's lookup gallops from the
/// prediction instead ([`elsi_indices::equal_key_run`]) and finds the same
/// run; the label keeps the paper's count, which the scorer's picks are
/// pinned to.
fn query_work(model: &RankModel, keys: &[f64], queries: usize) -> u64 {
    let n = keys.len();
    let step = (n / queries.max(1)).max(1);
    let mut steps = 0u64;
    for &key in keys.iter().step_by(step) {
        let range = model.search_range(key);
        let span = keys.get(range.lo.min(n)..range.hi.min(n)).unwrap_or(&[]);
        let mut compared = 0;
        let first = span.partition_point(|&k| {
            compared += 1;
            k < key
        });
        let _run = span.get(first..).unwrap_or(&[]).partition_point(|&k| {
            compared += 1;
            k <= key
        });
        steps += 1 + compared;
    }
    steps
}

/// Counts one `(skew, size)` grid cell: generates the data set from its
/// own seed ([`grid_cell`]) and builds every method on it through
/// [`ElsiBuilder::fixed`]. A pure function of its arguments, so cells can
/// run on any thread, in any order.
fn measure_cell(
    (di, si, s, n): (usize, usize, i32, usize),
    methods: &[Method],
    cfg: &ElsiConfig,
    mr_pool: &Arc<MrPool>,
    seed: u64,
) -> Vec<MethodCosts> {
    let (points, keys) = grid_cell(di, si, s, n, seed);
    let dist_u = dist_from_uniform(&keys);
    let input = BuildInput {
        points: &points,
        keys: &keys,
        mapper: &MortonMapper,
        seed,
    };
    methods
        .iter()
        .map(|&m| {
            let built = ElsiBuilder::fixed(m, cfg.clone(), Arc::clone(mr_pool)).build_model(&input);
            MethodCosts {
                method: m,
                n,
                dist_u,
                build_work: build_work(&built.stats, cfg.train.epochs, n),
                query_work: query_work(&built.model, &keys, 512),
                err_span: built.model.err_span(),
            }
        })
        .collect()
}

/// Counts the build and query work of every method in `methods` over
/// generated data sets of the given sizes × skews (the "ELSI preparation"
/// measurement pass).
///
/// Grid cells are independent — each generates its own data set from a
/// per-cell seed and every field is counted, not timed — so they are
/// fanned out on the rayon pool, and the result is the same at any thread
/// count. The map is order-preserving: skews outer, sizes inner, methods
/// innermost.
pub fn measure_method_costs(
    sizes: &[usize],
    skews: &[i32],
    methods: &[Method],
    cfg: &ElsiConfig,
    mr_pool: &Arc<MrPool>,
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

/// `(log10(build / build_og), log10(query / query_og))` of a cost row;
/// every count is at least 1.
fn relative(c: &MethodCosts, og: &MethodCosts) -> (f64, f64) {
    let log_ratio = |work: u64, og: u64| (work as f64 / og as f64).log10();
    (
        log_ratio(c.build_work, og.build_work),
        log_ratio(c.query_work, og.query_work),
    )
}

/// The cost row of `method` on the data set `(n, dist_u)`.
fn row(costs: &[MethodCosts], method: Method, n: usize, dist_u: f64) -> Option<&MethodCosts> {
    costs
        .iter()
        .find(|c| c.method == method && c.n == n && c.dist_u == dist_u)
}

/// Converts counted costs into scorer training samples (log-relative to
/// the OG row of the same data set).
pub fn samples_from_costs(costs: &[MethodCosts]) -> Vec<ScorerSample> {
    let mut out = Vec::new();
    for og in costs.iter().filter(|c| c.method == Method::Og) {
        for c in costs
            .iter()
            .filter(|c| c.n == og.n && c.dist_u == og.dist_u)
        {
            let (build_rel, query_rel) = relative(c, og);
            out.push(ScorerSample {
                method: c.method,
                n: c.n,
                dist_u: c.dist_u,
                build_rel,
                query_rel,
            });
        }
    }
    out
}

/// Ground-truth best method for a data set at a given λ: the allowed
/// method of least counted Eq. 2 cost.
pub fn ground_truth_best(
    costs: &[MethodCosts],
    n: usize,
    dist_u: f64,
    lambda: f64,
    w_q: f64,
    allowed: &[Method],
) -> Method {
    let og = row(costs, Method::Og, n, dist_u);
    argmin(allowed, lambda, w_q, |m| {
        Some(relative(row(costs, m, n, dist_u)?, og?))
    })
}

/// The alternative selector models of Fig. 6(b): RFR and DTR regress each
/// method's costs as the FFN scorer does; RFC and DTC classify
/// `(n, dist, λ)` into the best method.
pub struct AltSelector {
    name: &'static str,
    pick: Pick,
}

/// An alternative selector's pick for `(n, dist_u, λ, w_Q, allowed)`.
type Pick = Box<dyn Fn(usize, f64, f64, f64, &[Method]) -> Method>;

/// A fitted tree or forest: features to prediction.
type Fitted<T> = Box<dyn Fn(&[f64]) -> T>;

fn forest_config(seed: u64) -> ForestConfig {
    ForestConfig {
        n_trees: 30,
        seed,
        ..ForestConfig::default()
    }
}

impl AltSelector {
    /// Display name matching Fig. 6(b).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Trains a regression variant on the same samples as the FFN scorer.
    pub fn train_regression_variant(samples: &[ScorerSample], forest: bool, seed: u64) -> Self {
        let (xs, build_ys, query_ys) = feature_matrix(samples);
        let fit = |ys: &[f64]| -> Fitted<f64> {
            if forest {
                let f =
                    RandomForest::fit_regression(&xs, SCORER_FEATURES, ys, &forest_config(seed));
                Box::new(move |x| f.predict(x))
            } else {
                let cfg = TreeConfig::default();
                let t = DecisionTree::fit_regression(&xs, SCORER_FEATURES, ys, &cfg);
                Box::new(move |x| t.predict(x))
            }
        };
        let (build, query) = (fit(&build_ys), fit(&query_ys));
        AltSelector {
            name: if forest { "RFR" } else { "DTR" },
            pick: Box::new(move |n, dist_u, lambda, w_q, allowed: &[Method]| {
                argmin(allowed, lambda, w_q, |m| {
                    let f = features(m, n, dist_u);
                    Some((build(&f), query(&f)))
                })
            }),
        }
    }

    /// Trains a classification variant: `(log n, dist, λ)` → best method,
    /// labelled from the counted ground truth over a λ grid.
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
        let classify: Fitted<usize> = if forest {
            let f = RandomForest::fit_classification(&xs, 3, &labels, 7, &forest_config(seed));
            Box::new(move |x| f.predict_class(x))
        } else {
            let t = DecisionTree::fit_classification(&xs, 3, &labels, 7, &TreeConfig::default());
            Box::new(move |x| t.predict_class(x))
        };
        AltSelector {
            name: if forest { "RFC" } else { "DTC" },
            pick: Box::new(move |n, dist_u, lambda, _, allowed: &[Method]| {
                let c = classify(&[(n as f64).log10() / 8.0, dist_u, lambda]);
                method_from_index(c, allowed)
            }),
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
        (self.pick)(n, dist_u, lambda, w_q, allowed)
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
        // Hand-crafted: SP builds 100× cheaper, queries 2× dearer than OG.
        let mut out = Vec::new();
        for &(n, d) in &[(1000usize, 0.1f64), (1000, 0.5)] {
            out.push(MethodCosts {
                method: Method::Og,
                n,
                dist_u: d,
                build_work: 10_000,
                query_work: 100,
                err_span: 10,
            });
            out.push(MethodCosts {
                method: Method::Sp,
                n,
                dist_u: d,
                build_work: 100,
                query_work: 200,
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

    #[test]
    fn measure_costs_smoke() {
        let cfg = ElsiConfig::fast_test();
        let pool = Arc::new(MrPool::generate(&cfg, 1));
        let costs =
            measure_method_costs(&[500], &[1, 8], &[Method::Sp, Method::Og], &cfg, &pool, 7);
        assert_eq!(costs.len(), 4);
        assert!(costs.iter().all(|c| c.build_work > 0 && c.query_work > 0));
        // SP trains on a 5 % sample, so it counts less build work than OG
        // on the same data.
        for chunk in costs.chunks(2) {
            assert!(
                chunk[0].build_work < chunk[1].build_work,
                "SP not cheaper: {chunk:?}"
            );
        }
        // Every lookup invokes the model once and compares at least once.
        let lookups = 500u64;
        assert!(costs.iter().all(|c| c.query_work >= 2 * lookups));
    }

    #[test]
    fn query_work_counts_the_bounded_search() {
        let keys: Vec<f64> = (0..64).map(|i| f64::from(i) / 64.0).collect();
        let interpolant = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        let exact =
            elsi_indices::build_on_training_set(&keys, &keys, 16, &interpolant, 1, "OG").model;
        let loose = RankModel::from_ffn(Ffn::new(&[1, 4, 1], 3), &keys);
        assert!(loose.err_span() > exact.err_span());
        // One model invocation per lookup, and more comparisons over the
        // wider ranges.
        let (tight, wide) = (query_work(&exact, &keys, 64), query_work(&loose, &keys, 64));
        assert!(tight >= 64 && wide > tight, "{tight} vs {wide}");
    }
}
