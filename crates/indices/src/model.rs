//! The model-building contract between base indices and ELSI.
//!
//! Every learned index in this crate trains its internal rank models through
//! a [`ModelBuilder`]. The default [`OgBuilder`] trains on the full
//! partition ("OG" in the paper); the `elsi` crate supplies an `ElsiBuilder`
//! that runs Algorithm 1 — select a building method, shrink the training
//! set, train on the reduced set, and derive empirical error bounds over the
//! *full* partition. Swapping the builder turns `ZM` into `ZM-F`, `RSMI`
//! into `RSMI-F`, and so on, without touching index code.

use crate::timing::timed;
use elsi_ml::{train_rank_model_in, Ffn, PwlModel, TrainConfig};
use elsi_spatial::{KeyMapper, Point};
use std::time::Duration;

/// Input to a model build: one partition of the data, already mapped and
/// sorted (Algorithm 1, lines 1–2 happen in the base index).
#[derive(Clone, Copy)]
pub struct BuildInput<'a> {
    /// The partition's points, sorted by mapped key.
    pub points: &'a [Point],
    /// The mapped keys, sorted ascending; `keys[i]` belongs to `points[i]`.
    pub keys: &'a [f64],
    /// The base index's mapping function (needed by building methods such
    /// as CL that synthesise new points and must map them).
    pub mapper: &'a dyn KeyMapper,
    /// Seed for model initialisation and any stochastic building method.
    pub seed: u64,
}

/// A trained rank model with empirical error bounds: the predict-and-scan
/// unit of every learned index here.
///
/// The model predicts the normalised rank of a key; [`RankModel::search_range`]
/// widens the prediction by the empirical error bounds `err_lo ≤ 0 ≤ err_hi`
/// recorded over the full partition at build time, which guarantees that a
/// point query finds its point inside the returned range.
#[derive(Debug, Clone)]
pub struct RankModel {
    f: RankFn,
    n: usize,
    err_lo: i64,
    err_hi: i64,
}

/// The model family behind a [`RankModel`].
///
/// The paper uses FFNs for every prediction model (§VII-B1); the
/// piecewise-linear family realises its §IV-A future-work pointer — models
/// with *provable* per-key error bounds in the PGM-index style.
#[derive(Debug, Clone)]
pub enum RankFn {
    /// A feed-forward network (the paper's model family).
    Ffn(Ffn),
    /// An ε-bounded piecewise-linear model (PGM-style extension).
    Pwl(PwlModel),
}

/// The rank an FFN's normalised prediction `y` stands for in a partition
/// of `n > 0` keys, clamped to `[-n, 2n]`.
#[inline]
fn ffn_rank(y: f64, n: usize) -> i64 {
    let pos = y * (n - 1) as f64;
    pos.round().clamp(-(n as f64), 2.0 * n as f64) as i64
}

impl RankFn {
    #[inline]
    fn predict_fraction_or_rank(&self, key: f64, n: usize) -> i64 {
        match self {
            RankFn::Ffn(f) => {
                if n == 0 {
                    return 0;
                }
                ffn_rank(f.predict1(key), n)
            }
            RankFn::Pwl(m) => {
                // The PWL model predicts ranks over its own training set;
                // rescale to the full partition when it was fit on a
                // reduced set.
                let fitted = m.len().max(1) as f64;
                let raw = m.predict(key) as f64 / (fitted - 1.0).max(1.0);
                (raw * (n.saturating_sub(1)) as f64).round() as i64
            }
        }
    }
}

impl RankModel {
    /// Wraps a trained FFN, computing error bounds by predicting every key
    /// of the full partition (Algorithm 1, line 6).
    pub fn from_ffn(ffn: Ffn, full_keys: &[f64]) -> Self {
        Self::from_fn(RankFn::Ffn(ffn), full_keys)
    }

    /// Wraps a fitted piecewise-linear model, computing empirical error
    /// bounds over the full partition the same way. (When the PWL model
    /// was fitted on the full partition itself, the empirical bounds are
    /// additionally *guaranteed* to lie within ±ε.)
    pub fn from_pwl(pwl: PwlModel, full_keys: &[f64]) -> Self {
        Self::from_fn(RankFn::Pwl(pwl), full_keys)
    }

    fn from_fn(f: RankFn, full_keys: &[f64]) -> Self {
        let mut model = Self::from_parts(f, full_keys.len(), 0, 0);
        let (mut err_lo, mut err_hi) = (0i64, 0i64);
        model.predict_each(full_keys, |i, pred| {
            let err = i as i64 - pred;
            err_lo = err_lo.min(err);
            err_hi = err_hi.max(err);
        });
        model.err_lo = err_lo;
        model.err_hi = err_hi;
        model
    }

    /// Number of points in the partition this model indexes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the indexed partition is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Lower error bound (`actual − predicted`, minimum over the partition).
    #[inline]
    pub fn err_lo(&self) -> i64 {
        self.err_lo
    }

    /// Upper error bound (`actual − predicted`, maximum over the partition).
    #[inline]
    pub fn err_hi(&self) -> i64 {
        self.err_hi
    }

    /// Total error span `err_l + err_u` in the paper's notation.
    #[inline]
    pub fn err_span(&self) -> u64 {
        (self.err_hi - self.err_lo) as u64
    }

    /// Predicted position (rank) of `key`, which may fall outside `[0, n)`
    /// ([`RankModel::search_range`] clamps).
    ///
    /// This is the query hot path (model invocation `M(1)`), so it must
    /// stay allocation-free: for FFN models it bottoms out in
    /// `Ffn::predict1` / `predict_scalar`, whose stack-buffer evaluation is
    /// pinned by `crates/ml/tests/alloc_free.rs`. The build's `M(n)` pass,
    /// [`RankModel::predict_each`], gives the same ranks.
    #[inline]
    pub fn predict(&self, key: f64) -> i64 {
        self.f.predict_fraction_or_rank(key, self.n)
    }

    /// Calls `f(i, self.predict(keys[i]))` for every key, in ascending
    /// `i`: the full-partition prediction pass of a build (`M(n)`). FFN
    /// models predict through [`Ffn::predict_each`], eight keys at a time
    /// with `predict1`'s bits; PWL models predict per key.
    #[inline]
    pub fn predict_each(&self, keys: &[f64], mut f: impl FnMut(usize, i64)) {
        match &self.f {
            RankFn::Ffn(ffn) if self.n > 0 => {
                ffn.predict_each(keys, |i, y| f(i, ffn_rank(y, self.n)));
            }
            _ => {
                for (i, &k) in keys.iter().enumerate() {
                    f(i, self.predict(k));
                }
            }
        }
    }

    /// The predicted rank of `key` and the rank range `[lo, hi)`
    /// guaranteed to contain any stored point with this key.
    #[inline]
    pub fn search_range(&self, key: f64) -> Bracket {
        Bracket::around(self.predict(key), self.err_lo, self.err_hi, self.n)
    }

    /// The underlying model family (model invocation `M(1)`).
    #[inline]
    pub fn rank_fn(&self) -> &RankFn {
        &self.f
    }

    /// Rebuilds a model from persisted parts, skipping the `M(n)`
    /// bound-derivation pass — the persistence decode path. The caller
    /// owns the invariant that the bounds were derived over the same
    /// partition the model will serve; snapshot codecs store exactly the
    /// values a build recorded, so the rebuilt model answers queries
    /// bit-identically to the one that was saved.
    pub fn from_parts(f: RankFn, n: usize, err_lo: i64, err_hi: i64) -> Self {
        Self {
            f,
            n,
            err_lo,
            err_hi,
        }
    }

    /// A trivial model for an empty partition.
    pub fn empty(seed: u64) -> Self {
        Self {
            f: RankFn::Ffn(Ffn::new(&[1, 2, 1], seed)),
            n: 0,
            err_lo: 0,
            err_hi: 0,
        }
    }
}

/// A model's answer for one key: the predicted rank `pred` and the
/// error-bounded range `[lo, hi)` around it, all clamped into a column of
/// `n` keys ([`RankModel::search_range`]). The bounded searches
/// ([`equal_key_run`], [`locate_lower`]) start at `pred` and never leave
/// `[lo, hi)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bracket {
    /// The predicted rank, clamped into `[0, n]`.
    pub pred: usize,
    /// First rank of the guaranteed range.
    pub lo: usize,
    /// One past the last rank of the guaranteed range.
    pub hi: usize,
}

impl Bracket {
    /// The bracket of a raw prediction `pred` under the error bounds
    /// `err_lo ≤ 0 ≤ err_hi` (Algorithm 1, line 6) in a column of `n` keys:
    /// `[pred + err_lo, pred + err_hi]`, clamped.
    #[inline]
    pub(crate) fn around(pred: i64, err_lo: i64, err_hi: i64, n: usize) -> Self {
        let n = n as i64;
        Self {
            pred: pred.clamp(0, n) as usize,
            lo: (pred + err_lo).clamp(0, n) as usize,
            hi: (pred + err_hi + 1).clamp(0, n) as usize,
        }
    }

    /// The same bracket `offset` ranks further on: a partition's bracket in
    /// the rank space of the column the partition is a slice of.
    #[inline]
    pub(crate) fn shifted(self, offset: usize) -> Self {
        Self {
            pred: self.pred + offset,
            lo: self.lo + offset,
            hi: self.hi + offset,
        }
    }
}

/// The one bounded search of the learned indices: the first rank in
/// `[lo, hi]` at which `is_below` fails (`hi` when it never does), for a
/// `is_below` that holds on a prefix of the bracket. It gallops from `pred`
/// (clamped into the bracket) toward the answer with steps 1, 2, 4, …, then
/// binary-searches the last step, so an answer `d` ranks from `pred` costs
/// at most `2⌈log2(d + 1)⌉ + 2` calls of `is_below` whatever the bracket's
/// width. A bracket past the column's end is clipped, an inverted one
/// yields `lo`.
#[inline]
pub(crate) fn gallop(b: Bracket, n: usize, mut is_below: impl FnMut(usize) -> bool) -> usize {
    let (lo, hi) = (b.lo.min(n), b.hi.min(n));
    if lo >= hi {
        return lo;
    }
    let p = b.pred.clamp(lo, hi);
    // Every rank before `left` is below; `right` is not, or is `hi`.
    let (mut left, mut right) = (lo, p);
    let mut step = 1;
    if p < hi && is_below(p) {
        (left, right) = (p + 1, hi);
        while p + step < hi {
            if !is_below(p + step) {
                right = p + step;
                break;
            }
            left = p + step + 1;
            step *= 2;
        }
    } else {
        while p >= lo + step {
            if is_below(p - step) {
                left = p - step + 1;
                break;
            }
            right = p - step;
            step *= 2;
        }
    }
    while left < right {
        let mid = left + (right - left) / 2;
        if is_below(mid) {
            left = mid + 1;
        } else {
            right = mid;
        }
    }
    left
}

/// The lower bound of `key` inside `hint`: `lo + keys[lo..hi]
/// .partition_point(|&k| k < key)`, found by [`gallop`]ing from `pred`.
#[inline]
fn lower_bound(keys: &[f64], hint: Bracket, key: f64) -> usize {
    gallop(hint, keys.len(), |i| keys.get(i).is_some_and(|&k| k < key))
}

/// Exact lower-bound rank of `key` in `keys`: the lower bound inside the
/// model's bracket `hint` as the fast path, a full binary search as the
/// correctness fallback.
///
/// FFN predictions are not monotone, so a model's error-bounded range only
/// provably brackets *stored* keys; for arbitrary keys (window-query
/// endpoints) the candidate must be validated: the element before it must
/// be `< key` and the element at it `≥ key`.
pub fn locate_lower(keys: &[f64], hint: Bracket, key: f64) -> usize {
    let n = keys.len();
    if hint.lo.min(n) < hint.hi.min(n) {
        let cand = lower_bound(keys, hint, key);
        let before = cand.checked_sub(1).and_then(|i| keys.get(i));
        let ok_left = before.is_none_or(|&k| k < key);
        let ok_right = keys.get(cand).is_none_or(|&k| k >= key);
        if ok_left && ok_right {
            return cand;
        }
    }
    keys.partition_point(|&k| k < key)
}

/// The rank run `[lo, hi)` of stored keys *equal* to `key` inside the
/// model's guaranteed range `hint`: the point-lookup counterpart of
/// [`locate_lower`], and the only way the model-backed indices reach their
/// leaf scan.
///
/// The lower bound galloped from the prediction, then a forward walk over
/// the equal keys, stopping at `hint.hi`: `O(log |rank − pred|)` key
/// comparisons plus the run, where handing the whole span to the
/// coordinate scan costs `O(span)`. Stored points with the query's
/// coordinates have the query's key, equal keys are contiguous in the
/// sorted column, and the error bounds cover the rank of every one of them,
/// so the run holds exactly the span's candidates, in the same order
/// (`DESIGN.md` §12).
///
/// Unlike [`locate_lower`] there is no global fallback: the hint brackets
/// every *stored* key by construction, so a key found only outside it
/// belongs to no stored point the model vouches for, and the run is empty.
/// A hint past the column's end is clipped, an inverted one is empty, and a
/// NaN key compares equal to nothing.
// lint:hot_path
#[inline]
pub fn equal_key_run(keys: &[f64], hint: Bracket, key: f64) -> (usize, usize) {
    let first = lower_bound(keys, hint, key);
    let tail = keys.get(first..hint.hi.min(keys.len())).unwrap_or(&[]);
    let run = tail.iter().position(|&k| k != key).unwrap_or(tail.len());
    (first, first + run)
}

/// Build-cost decomposition of one model build (Table I's columns).
#[derive(Debug, Clone)]
pub struct BuildStats {
    /// Name of the building method used ("OG", "SP", "RS", …).
    pub method: &'static str,
    /// Size of the (possibly reduced) training set.
    pub training_set_size: usize,
    /// Extra time spent constructing the reduced training set
    /// (`cost_ex` in §VI-B; zero for OG).
    pub reduce_time: Duration,
    /// `cost_ex` counted: the elementary steps the reduction ran (points
    /// drawn, quadtree point visits, k-means distance evaluations, KS merge
    /// steps; zero when no reduction ran).
    pub reduce_work: u64,
    /// Time spent in `train(·)` (`T(|D_S|)`).
    pub train_time: Duration,
    /// Time spent deriving error bounds over the full partition (`M(n)`).
    pub bound_time: Duration,
    /// Resulting error span `err_l + err_u`.
    pub err_span: u64,
}

/// Result of one model build.
#[derive(Debug, Clone)]
pub struct BuiltModel {
    /// The trained model with its error bounds.
    pub model: RankModel,
    /// Cost decomposition for reporting.
    pub stats: BuildStats,
}

impl BuiltModel {
    /// Line 6 of Algorithm 1: `f` with its error bounds over `full_keys`
    /// (a constant model over none), and the statistics of a build by
    /// `method` that fitted `f` to `training_set_size` keys in
    /// `train_time`. The reduction's cost reads zero.
    pub fn bound(
        f: RankFn,
        full_keys: &[f64],
        seed: u64,
        method: &'static str,
        training_set_size: usize,
        train_time: Duration,
    ) -> Self {
        let (model, bound_time) = timed(|| {
            if full_keys.is_empty() {
                RankModel::empty(seed)
            } else {
                RankModel::from_fn(f, full_keys)
            }
        });
        let err_span = model.err_span();
        BuiltModel {
            model,
            stats: BuildStats {
                method,
                training_set_size,
                reduce_time: Duration::ZERO,
                reduce_work: 0,
                train_time,
                bound_time,
                err_span,
            },
        }
    }
}

/// Pluggable model construction (the seam where ELSI integrates).
///
/// Builders are `Send + Sync` by contract: base indices train their
/// per-partition models in parallel (rayon), sharing one builder across
/// worker threads. `build_model` takes `&self`, so any internal builder
/// state must be synchronised (the `ElsiBuilder` counts its chosen methods
/// in atomics).
pub trait ModelBuilder: Send + Sync {
    /// Builds a rank model for one sorted partition.
    fn build_model(&self, input: &BuildInput<'_>) -> BuiltModel;

    /// Short display name of this builder.
    fn name(&self) -> &'static str;
}

/// The original building method: train on the full partition (the paper's
/// "OG" baseline and the default of every base index).
#[derive(Debug, Clone)]
pub struct OgBuilder {
    /// Hidden width of the rank FFNs.
    pub hidden: usize,
    /// Training hyperparameters.
    pub train: TrainConfig,
}

impl Default for OgBuilder {
    fn default() -> Self {
        Self {
            hidden: 16,
            train: TrainConfig::default(),
        }
    }
}

impl OgBuilder {
    /// A builder with the given epoch budget (other parameters default).
    pub fn with_epochs(epochs: usize) -> Self {
        Self {
            train: TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
            ..Self::default()
        }
    }
}

impl ModelBuilder for OgBuilder {
    fn build_model(&self, input: &BuildInput<'_>) -> BuiltModel {
        build_on_training_set(
            input.keys,
            input.keys,
            self.hidden,
            &self.train,
            input.seed,
            "OG",
        )
    }

    fn name(&self) -> &'static str {
        "OG"
    }
}

/// A [`ModelBuilder`] using ε-bounded piecewise-linear models instead of
/// FFNs — the §IV-A future-work extension, usable with every base index.
///
/// PWL fitting is a single `O(n)` pass, so unlike FFN training it does not
/// need ELSI's training-set reduction to be fast; handing this builder to a
/// base index gives near-instant builds *and* provable per-key bounds. The
/// `model_families` criterion bench quantifies the trade-off against the
/// paper's FFN family.
#[derive(Debug, Clone)]
pub struct PwlBuilder {
    /// The per-key error bound ε (≥ 1).
    pub epsilon: usize,
}

impl Default for PwlBuilder {
    fn default() -> Self {
        Self { epsilon: 32 }
    }
}

impl ModelBuilder for PwlBuilder {
    fn build_model(&self, input: &BuildInput<'_>) -> BuiltModel {
        let (pwl, train_time) = timed(|| PwlModel::fit(input.keys, self.epsilon));
        let fitted = RankFn::Pwl(pwl);
        BuiltModel::bound(
            fitted,
            input.keys,
            input.seed,
            "PWL",
            input.keys.len(),
            train_time,
        )
    }

    fn name(&self) -> &'static str {
        "PWL"
    }
}

/// Lines 5–6 of Algorithm 1, shared by OG and ELSI's methods: fit an FFN
/// on `training_keys` at their ranks in `full_keys` (both sorted), then
/// [`BuiltModel::bound`] it over `full_keys`.
pub fn build_on_training_set(
    training_keys: &[f64],
    full_keys: &[f64],
    hidden: usize,
    train: &TrainConfig,
    seed: u64,
    method: &'static str,
) -> BuiltModel {
    let (ffn, train_time) =
        timed(|| train_rank_model_in(training_keys, full_keys, hidden, train, seed));
    let size = training_keys.len();
    BuiltModel::bound(RankFn::Ffn(ffn), full_keys, seed, method, size, train_time)
}

/// `n` OSM1-like points for the bound tests; with `grid` set, the
/// coordinates snap to a `grid × grid` lattice, so keys repeat.
#[cfg(test)]
pub(crate) fn osm1_points(n: usize, grid: Option<f64>, seed: u64) -> Vec<Point> {
    let mut pts = elsi_data::gen::osm1_like(n, seed);
    if let Some(g) = grid {
        for p in &mut pts {
            *p = Point::new(p.id, (p.x * g).floor() / g, (p.y * g).floor() / g);
        }
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_spatial::{sort_by_key, MortonMapper};
    use proptest::prelude::*;

    /// The `M(n)` pass as a per-key loop over [`RankModel::predict`]: the
    /// reference [`RankModel::from_fn`]'s lane-batched pass must equal.
    fn bounds_reference(model: &RankModel, full_keys: &[f64]) -> (i64, i64) {
        let (mut err_lo, mut err_hi) = (0i64, 0i64);
        for (i, &k) in full_keys.iter().enumerate() {
            let err = i as i64 - model.predict(k);
            err_lo = err_lo.min(err);
            err_hi = err_hi.max(err);
        }
        (err_lo, err_hi)
    }

    fn osm1_keys(n: usize, grid: Option<f64>, seed: u64) -> Vec<f64> {
        sort_by_key(osm1_points(n, grid, seed), &MortonMapper).1
    }

    #[test]
    fn rank_model_bounds_match_the_per_key_loop() {
        for (n, grid) in [
            (1, None),
            (7, None),
            (5000, None),
            (5000, Some(16.0)),
            (40, Some(2.0)),
        ] {
            let keys = osm1_keys(n, grid, n as u64);
            let sample: Vec<f64> = keys.iter().copied().step_by(9).collect();
            for (epochs, training) in [(0, &keys), (0, &sample), (30, &sample)] {
                let train = TrainConfig {
                    epochs,
                    ..TrainConfig::default()
                };
                let built = build_on_training_set(training, &keys, 16, &train, 3, "T");
                let m = &built.model;
                assert_eq!(
                    (m.err_lo(), m.err_hi()),
                    bounds_reference(m, &keys),
                    "n {n}, grid {grid:?}, epochs {epochs}"
                );
            }
            let pwl = RankModel::from_pwl(PwlModel::fit(&sample, 4), &keys);
            assert_eq!((pwl.err_lo(), pwl.err_hi()), bounds_reference(&pwl, &keys));
            let deep = RankModel::from_ffn(Ffn::new(&[1, 4, 4, 1], 2), &keys);
            assert_eq!(
                (deep.err_lo(), deep.err_hi()),
                bounds_reference(&deep, &keys)
            );
        }
    }

    #[test]
    fn predict_each_is_predict_per_key() {
        let keys = osm1_keys(300, None, 4);
        let mut probes = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e300,
            -3.0,
            7.5,
        ];
        probes.extend(keys.iter().step_by(7));
        let cfg = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        let models = [
            build_on_training_set(&keys, &keys, 16, &cfg, 1, "T").model,
            RankModel::from_ffn(Ffn::new(&[1, 16, 1], 5), &keys),
            RankModel::from_ffn(Ffn::new(&[1, 4, 4, 1], 5), &keys),
            RankModel::from_pwl(PwlModel::fit(&keys, 8), &keys),
            RankModel::empty(0),
        ];
        for model in &models {
            for len in (0..=17).chain([probes.len()]) {
                let xs = &probes[..len];
                let mut seen = Vec::new();
                model.predict_each(xs, |i, pred| seen.push((i, pred)));
                let want: Vec<(usize, i64)> =
                    xs.iter().map(|&k| model.predict(k)).enumerate().collect();
                assert_eq!(seen, want, "len {len}");
            }
        }
    }

    fn sorted_keys(n: usize, skew: i32) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 / (n - 1) as f64).powi(skew))
            .collect()
    }

    fn points_for(keys: &[f64]) -> Vec<Point> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Point::new(i as u64, k, k))
            .collect()
    }

    #[test]
    fn og_builder_point_query_correctness() {
        let keys = sorted_keys(500, 2);
        let pts = points_for(&keys);
        let input = BuildInput {
            points: &pts,
            keys: &keys,
            mapper: &MortonMapper,
            seed: 1,
        };
        let built = OgBuilder::with_epochs(150).build_model(&input);
        // Every key must fall inside its own search range.
        for (i, &k) in keys.iter().enumerate() {
            let Bracket { lo, hi, .. } = built.model.search_range(k);
            assert!(lo <= i && i < hi, "rank {i} outside [{lo},{hi})");
        }
        assert_eq!(built.stats.method, "OG");
        assert_eq!(built.stats.training_set_size, 500);
    }

    #[test]
    fn error_bounds_bracket_zero() {
        let keys = sorted_keys(200, 1);
        let built = build_on_training_set(
            &keys,
            &keys,
            8,
            &TrainConfig {
                epochs: 100,
                ..TrainConfig::default()
            },
            0,
            "OG",
        );
        assert!(built.model.err_lo() <= 0);
        assert!(built.model.err_hi() >= 0);
        assert_eq!(
            built.model.err_span(),
            (built.model.err_hi() - built.model.err_lo()) as u64
        );
    }

    #[test]
    fn reduced_training_set_still_correct() {
        // Train on every 10th key, bounds over all keys: still exact.
        let keys = sorted_keys(1000, 3);
        let sample: Vec<f64> = keys.iter().copied().step_by(10).collect();
        let built = build_on_training_set(
            &sample,
            &keys,
            16,
            &TrainConfig {
                epochs: 150,
                ..TrainConfig::default()
            },
            2,
            "SP",
        );
        for (i, &k) in keys.iter().enumerate() {
            let Bracket { lo, hi, .. } = built.model.search_range(k);
            assert!(lo <= i && i < hi, "rank {i} outside [{lo},{hi})");
        }
        assert_eq!(built.stats.training_set_size, 100);
    }

    #[test]
    fn empty_partition() {
        let input = BuildInput {
            points: &[],
            keys: &[],
            mapper: &MortonMapper,
            seed: 0,
        };
        let built = OgBuilder::default().build_model(&input);
        assert!(built.model.is_empty());
        assert_eq!(built.model.search_range(0.5), Bracket::default());
    }

    #[test]
    fn single_point_partition() {
        let keys = vec![0.5];
        let pts = points_for(&keys);
        let input = BuildInput {
            points: &pts,
            keys: &keys,
            mapper: &MortonMapper,
            seed: 0,
        };
        let built = OgBuilder::with_epochs(50).build_model(&input);
        let Bracket { lo, hi, .. } = built.model.search_range(0.5);
        assert!(lo == 0 && hi >= 1);
    }

    #[test]
    fn pwl_builder_point_query_correctness_and_tight_bounds() {
        let keys = sorted_keys(2000, 3);
        let pts = points_for(&keys);
        let input = BuildInput {
            points: &pts,
            keys: &keys,
            mapper: &MortonMapper,
            seed: 1,
        };
        let built = PwlBuilder { epsilon: 16 }.build_model(&input);
        assert_eq!(built.stats.method, "PWL");
        // Fitted on the full partition: the empirical span must respect the
        // provable ±ε guarantee.
        assert!(built.stats.err_span <= 32, "span {}", built.stats.err_span);
        for (i, &k) in keys.iter().enumerate().step_by(37) {
            let Bracket { lo, hi, .. } = built.model.search_range(k);
            assert!(lo <= i && i < hi, "rank {i} outside [{lo},{hi})");
        }
    }

    #[test]
    fn pwl_rank_model_rescales_from_reduced_set() {
        // Fit PWL on every 10th key, bound over all: still exact via the
        // empirical bounds, like any other reduced training set.
        let keys = sorted_keys(1000, 2);
        let sample: Vec<f64> = keys.iter().copied().step_by(10).collect();
        let pwl = elsi_ml::PwlModel::fit(&sample, 4);
        let model = RankModel::from_pwl(pwl, &keys);
        for (i, &k) in keys.iter().enumerate().step_by(23) {
            let Bracket { lo, hi, .. } = model.search_range(k);
            assert!(lo <= i && i < hi, "rank {i} outside [{lo},{hi})");
        }
    }

    /// The lower-bound search [`locate_lower`] made before it galloped:
    /// a binary search over the whole hint.
    fn locate_lower_reference(keys: &[f64], hint: (usize, usize), key: f64) -> usize {
        let n = keys.len();
        let (lo, hi) = (hint.0.min(n), hint.1.min(n));
        if lo < hi {
            let cand = lo + keys[lo..hi].partition_point(|&k| k < key);
            let ok_left = cand == 0 || keys[cand - 1] < key;
            let ok_right = cand == n || keys[cand] >= key;
            if ok_left && ok_right {
                return cand;
            }
        }
        keys.partition_point(|&k| k < key)
    }

    /// [`equal_key_run`] before it galloped: two binary searches over the
    /// whole hint.
    fn equal_key_run_reference(keys: &[f64], hint: (usize, usize), key: f64) -> (usize, usize) {
        let n = keys.len();
        let (lo, hi) = (hint.0.min(n), hint.1.min(n));
        let span = keys.get(lo..hi).unwrap_or(&[]);
        let first = span.partition_point(|&k| k < key);
        let run = span
            .get(first..)
            .unwrap_or(&[])
            .partition_point(|&k| k <= key);
        (lo + first, lo + first + run)
    }

    /// `f` of the bracket `[lo, hi)`, which must answer the same under
    /// every prediction, inside the bracket or outside it.
    fn every_pred<T: PartialEq + std::fmt::Debug>(
        lo: usize,
        hi: usize,
        f: impl Fn(Bracket) -> T,
    ) -> T {
        let first = f(Bracket { pred: lo, lo, hi });
        for pred in 0..lo.max(hi) + 3 {
            assert_eq!(
                f(Bracket { pred, lo, hi }),
                first,
                "pred {pred} in [{lo}, {hi})"
            );
        }
        first
    }

    #[test]
    fn locate_lower_with_adversarial_hints() {
        let keys: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let at = |lo, hi, key| every_pred(lo, hi, |b| locate_lower(&keys, b, key));
        // Correct hint.
        assert_eq!(at(40, 60, 0.5), 50);
        // Hint entirely left of the answer.
        assert_eq!(at(0, 10, 0.5), 50);
        // Hint entirely right of the answer.
        assert_eq!(at(90, 100, 0.5), 50);
        // Empty hint.
        assert_eq!(at(50, 50, 0.5), 50);
        // Out-of-bounds hint is clamped.
        assert_eq!(at(90, 10_000, 0.999), 99);
        // Keys below/above every element.
        assert_eq!(at(0, 100, -1.0), 0);
        assert_eq!(at(0, 100, 2.0), 100);
    }

    #[test]
    fn locate_lower_with_duplicates() {
        let keys = vec![0.1, 0.5, 0.5, 0.5, 0.9];
        assert_eq!(every_pred(0, 5, |b| locate_lower(&keys, b, 0.5)), 1);
        assert_eq!(
            every_pred(2, 4, |b| locate_lower(&keys, b, 0.5)),
            1,
            "must escape a bad hint"
        );
    }

    #[test]
    fn equal_key_run_finds_the_run_inside_the_hint() {
        let keys = vec![0.1, 0.2, 0.5, 0.5, 0.5, 0.7, 0.9];
        let run = |lo, hi, key| every_pred(lo, hi, |b| equal_key_run(&keys, b, key));
        // The whole run, from a hint that brackets it loosely or exactly.
        assert_eq!(run(0, 7, 0.5), (2, 5));
        assert_eq!(run(2, 5, 0.5), (2, 5));
        assert_eq!(run(1, 6, 0.2), (1, 2));
        // A hint that cuts the run returns the part inside it.
        assert_eq!(run(3, 7, 0.5), (3, 5));
        assert_eq!(run(0, 4, 0.5), (2, 4));
        // Absent key between stored ones: empty run at its lower bound.
        assert_eq!(run(0, 7, 0.6), (5, 5));
    }

    #[test]
    fn equal_key_run_edge_hints_and_keys() {
        let keys = vec![0.1, 0.2, 0.5, 0.5, 0.5, 0.7, 0.9];
        let run = |lo, hi, key| every_pred(lo, hi, |b| equal_key_run(&keys, b, key));
        // Empty and inverted hints.
        assert_eq!(run(3, 3, 0.5), (3, 3));
        assert_eq!(run(5, 2, 0.5), (5, 5));
        // Key below / above every key in the span.
        assert_eq!(run(2, 6, 0.0), (2, 2));
        assert_eq!(run(2, 6, 1.0), (6, 6));
        // Hint clipped at the column's end, or wholly past it.
        assert_eq!(run(5, 10_000, 0.9), (6, 7));
        assert_eq!(run(9, 12, 0.9), (7, 7));
        // Key stored, but only outside the hint: an empty run, never a
        // global search.
        assert_eq!(run(0, 2, 0.5), (2, 2));
        assert_eq!(run(5, 7, 0.5), (5, 5));
        // NaN equals nothing; an empty column has no runs.
        let (lo, hi) = run(0, 7, f64::NAN);
        assert_eq!(lo, hi);
        assert_eq!(every_pred(0, 4, |b| equal_key_run(&[], b, 0.5)), (0, 0));
        // All-equal keys: the run is the hint.
        let same = vec![0.25; 9];
        let run = |lo, hi, key| every_pred(lo, hi, |b| equal_key_run(&same, b, key));
        assert_eq!(run(0, 9, 0.25), (0, 9));
        assert_eq!(run(3, 6, 0.25), (3, 6));
        assert_eq!(run(0, 9, 0.3), (9, 9));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The galloping searches answer what the binary searches over the
        /// whole hint answered: sorted keys over a small alphabet (long
        /// equal runs) or a wide one, hints empty, inverted or past the
        /// end, predictions anywhere, and keys stored, below, above,
        /// between or NaN.
        #[test]
        fn gallop_answers_what_the_whole_hint_search_answered(
            raw in prop::collection::vec(0u32..1000, 0..120),
            alphabet in 1u32..1000,
            (pred, lo, hi) in (0usize..130, 0usize..130, 0usize..130),
            (kind, at) in (0usize..5, 0usize..120),
        ) {
            let mut keys: Vec<f64> = raw.iter().map(|&r| f64::from(r % alphabet)).collect();
            keys.sort_by(f64::total_cmp);
            let stored = keys.get(at % keys.len().max(1)).copied().unwrap_or(0.0);
            let key = match kind {
                0 => stored,
                1 => -1.0,
                2 => f64::from(alphabet),
                3 => stored + 0.5,
                _ => f64::NAN,
            };
            let b = Bracket { pred, lo, hi };
            prop_assert_eq!(
                equal_key_run(&keys, b, key),
                equal_key_run_reference(&keys, (lo, hi), key)
            );
            prop_assert_eq!(
                locate_lower(&keys, b, key),
                locate_lower_reference(&keys, (lo, hi), key)
            );
        }
    }

    #[test]
    fn a_stored_key_d_ranks_from_the_prediction_costs_log_d_comparisons() {
        let unique: Vec<f64> = (0..300).map(f64::from).collect();
        let runs: Vec<f64> = (0..300).map(|i| f64::from(i / 7)).collect();
        for keys in [unique, runs] {
            let n = keys.len();
            for (lo, hi) in [(0, n), (40, 260), (150, 151)] {
                for &key in keys.get(lo..hi).unwrap_or(&[]) {
                    let want = lo.max(keys.partition_point(|&k| k < key));
                    for pred in lo..=hi {
                        let mut compared = 0;
                        let got = gallop(Bracket { pred, lo, hi }, n, |i| {
                            compared += 1;
                            keys[i] < key
                        });
                        assert_eq!(got, want, "key {key}, pred {pred} in [{lo}, {hi})");
                        let d = want.abs_diff(pred);
                        let bound = 2 * (d + 1).next_power_of_two().trailing_zeros() + 2;
                        assert!(
                            compared <= bound,
                            "{compared} comparisons at distance {d}, bound {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn equal_key_run_brackets_every_stored_key_of_a_built_model() {
        // Duplicated keys under a trained model: every rank lies inside the
        // run its own search range yields.
        let keys: Vec<f64> = (0..600).map(|i| (i / 7) as f64 / 100.0).collect();
        let pts = points_for(&keys);
        let built = OgBuilder::with_epochs(60).build_model(&BuildInput {
            points: &pts,
            keys: &keys,
            mapper: &MortonMapper,
            seed: 5,
        });
        for (i, &k) in keys.iter().enumerate() {
            let (lo, hi) = equal_key_run(&keys, built.model.search_range(k), k);
            assert!(lo <= i && i < hi, "rank {i} outside [{lo},{hi})");
            assert!(keys[lo..hi].iter().all(|&s| s == k));
        }
    }

    #[test]
    fn search_range_clamped_for_outlier_keys() {
        let keys = sorted_keys(100, 1);
        let built = build_on_training_set(
            &keys,
            &keys,
            8,
            &TrainConfig {
                epochs: 50,
                ..TrainConfig::default()
            },
            0,
            "OG",
        );
        let Bracket { lo, hi, .. } = built.model.search_range(-5.0);
        assert!(lo <= hi && hi <= 100);
        let Bracket { lo, hi, .. } = built.model.search_range(7.0);
        assert!(lo <= hi && hi <= 100);
    }
}
