//! Mini-batch FFN training with Adam and L2 loss.
//!
//! This is the `train(·)` primitive of Algorithm 1, supplied once here and
//! reused by every base index and by the ELSI scorer/predictor models. Its
//! wall-clock cost is `Θ(epochs · n)`, the `T(n)` of the paper's cost
//! analysis — which is what makes shrinking `n` to `|D_S|` pay off. The
//! `[1, h, 1]` rank models take a fused per-sample kernel; every other
//! shape takes [`Ffn::backprop`], and both give the same bytes.

use crate::adam::Adam;
use crate::ffn::{dot4, Batch, Ffn};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Most samples one [`Ffn::backprop`] pass holds. A larger (or full)
/// mini-batch runs as several passes into the same gradient sum, in sample
/// order, so the scratch stays small whatever the batch size.
const MAX_PASS_ROWS: usize = 256;

/// Widest hidden layer of a `[1, h, 1]` network that trains through the
/// fused per-sample kernel ([`rank_grads`]), whose activations and gradient
/// sums live in stack arrays at most this wide. Wider networks, and every
/// other shape, take [`Ffn::backprop`].
const RANK_MAX_HIDDEN: usize = 64;

/// Hidden width of every rank model the workspace trains (`ElsiConfig`'s
/// and `OgBuilder`'s `hidden`). [`rank_grads`] compiles the kernel at this
/// fixed width, where the network and its gradient sums stay in registers;
/// at a run-time width the same loops run several times slower.
const RANK_HIDDEN: usize = 16;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Adam learning rate (paper: 0.01).
    pub lr: f64,
    /// Number of passes over the training set (paper: 500).
    pub epochs: usize,
    /// Mini-batch size; `0` means full batch.
    pub batch_size: usize,
    /// Seed for shuffling (and nothing else).
    pub seed: u64,
    /// Stop early when the epoch MSE falls below this threshold.
    pub tol: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.01,
            epochs: 200,
            batch_size: 64,
            seed: 0,
            tol: 0.0,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainReport {
    /// Mean squared error over the last epoch.
    pub final_mse: f64,
    /// Epochs actually run (may be fewer than configured if `tol` was hit).
    pub epochs_run: usize,
    /// Number of training samples.
    pub samples: usize,
}

/// Trains `ffn` to regress `ys` from `xs` under mean-squared-error loss.
///
/// `xs` is row-major with `ffn.input_dim()` features per sample; `ys` is
/// row-major with `ffn.output_dim()` targets per sample.
///
/// # Panics
/// Panics if the slice lengths are inconsistent with the network dims or if
/// the training set is empty.
pub fn train_regression(ffn: &mut Ffn, xs: &[f64], ys: &[f64], cfg: &TrainConfig) -> TrainReport {
    let in_dim = ffn.input_dim();
    let out_dim = ffn.output_dim();
    assert!(
        xs.len() % in_dim == 0,
        "xs length not a multiple of input dim"
    );
    let n = xs.len() / in_dim;
    assert!(n > 0, "empty training set");
    assert_eq!(ys.len(), n * out_dim, "ys length mismatch");

    let batch = if cfg.batch_size == 0 {
        n
    } else {
        cfg.batch_size.min(n)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut opt = Adam::new(ffn.num_params(), cfg.lr);
    // All loop scratch is hoisted: the epoch/batch/sample loops below
    // allocate nothing (pinned by crates/ml/tests/alloc_free.rs).
    let mut scratch = match ffn.sizes() {
        &[1, h, 1] if h <= RANK_MAX_HIDDEN => Scratch::Rank(vec![0.0; ffn.num_params()]),
        _ => Scratch::General(Batch::new(ffn, batch.min(MAX_PASS_ROWS))),
    };

    let mut final_mse = f64::INFINITY;
    let mut epochs_run = 0;
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_se = 0.0;
        for chunk in order.chunks(batch) {
            let grads: &[f64] = match &mut scratch {
                Scratch::Rank(sums) => {
                    rank_grads(ffn.params(), xs, ys, chunk, sums, &mut epoch_se);
                    sums
                }
                Scratch::General(slabs) => {
                    slabs.zero_grads();
                    for pass in chunk.chunks(MAX_PASS_ROWS) {
                        let input = move |s: usize| &xs[pass[s] * in_dim..][..in_dim];
                        ffn.backprop(slabs, pass.len(), input, |s, pred, d_out| {
                            let y = &ys[pass[s] * out_dim..][..out_dim];
                            let mut se = 0.0;
                            for ((d, &p), &t) in d_out.iter_mut().zip(pred).zip(y) {
                                let diff = p - t;
                                se += diff * diff;
                                // d(MSE)/d(pred): normalised by batch size so
                                // the learning rate is batch-size independent.
                                *d = 2.0 * diff / chunk.len() as f64;
                            }
                            epoch_se += se;
                        });
                    }
                    slabs.grads()
                }
            };
            opt.step_params(grads, ffn.params_mut());
        }
        epochs_run += 1;
        final_mse = epoch_se / (n as f64 * out_dim as f64);
        if final_mse <= cfg.tol {
            break;
        }
    }
    TrainReport {
        final_mse,
        epochs_run,
        samples: n,
    }
}

/// The gradient scratch of one training run, chosen by the network's shape.
enum Scratch {
    /// `[1, h, 1]` with `h ≤ RANK_MAX_HIDDEN`: [`rank_grads`] sums each
    /// mini-batch on the stack and leaves the gradient here.
    Rank(Vec<f64>),
    /// Every other shape: [`Ffn::backprop`]'s batch-major slabs.
    General(Batch),
}

/// The mean-squared-error gradient of the `[1, h, 1]` network `params`
/// over the samples `chunk`, written into `grads` in the [`Ffn::params`]
/// layout (`w0`, `b0`, `w1`, `b1`). Each sample's squared error is added to
/// `epoch_se` in order.
fn rank_grads(
    params: &[f64],
    xs: &[f64],
    ys: &[f64],
    chunk: &[usize],
    grads: &mut [f64],
    epoch_se: &mut f64,
) {
    match params.len() / 3 {
        RANK_HIDDEN => {
            rank_grads_at::<RANK_HIDDEN>(params, RANK_HIDDEN, xs, ys, chunk, grads, epoch_se)
        }
        h => rank_grads_at::<RANK_MAX_HIDDEN>(params, h, xs, ys, chunk, grads, epoch_se),
    }
}

/// [`rank_grads`] for `h ≤ H` hidden units, its sums in `[f64; H]`.
///
/// One pass per sample runs the forward pass, the loss, the hidden deltas
/// and the gradient adds. Each value goes through the IEEE operations
/// [`Ffn::backprop`] gives it, in its order: `b + w·x` and `relu` for the
/// hidden layer, `b1 + dot4(w1, a)` for the output, the hidden delta as
/// the `0.0`-seeded `Wᵀ·δ` (skipped for a zero output delta) under the
/// ReLU mask, and each gradient summed from `0.0` in sample order
/// (`dW1 += δ·a` skipped for a zero delta). The weights are fixed within a
/// mini-batch, so the order of the samples' passes is all that differs and
/// the bytes are the same (held by `tests/pins.rs` and `tests/proptests.rs`).
///
/// Total: parameters that are not `[1, h, 1]` with `h ≤ H` leave `grads`
/// untouched, and a sample index past `xs` or `ys` is skipped.
#[inline(always)]
fn rank_grads_at<const H: usize>(
    params: &[f64],
    h: usize,
    xs: &[f64],
    ys: &[f64],
    chunk: &[usize],
    grads: &mut [f64],
    epoch_se: &mut f64,
) {
    let (mut gw0, mut gb0, mut gw1, mut gb1) = ([0.0; H], [0.0; H], [0.0; H], 0.0);
    let (mut pre, mut act) = ([0.0; H], [0.0; H]);
    let (Some(w0), Some(b0), Some(w1), Some(&b1)) = (
        params.get(..h),
        params.get(h..2 * h),
        params.get(2 * h..3 * h),
        params.get(3 * h),
    ) else {
        return;
    };
    let (Some(gw0), Some(gb0), Some(gw1), Some(pre), Some(act)) = (
        gw0.get_mut(..h),
        gb0.get_mut(..h),
        gw1.get_mut(..h),
        pre.get_mut(..h),
        act.get_mut(..h),
    ) else {
        return;
    };
    let rows = chunk.len() as f64;
    for &s in chunk {
        let (Some(&x), Some(&y)) = (xs.get(s), ys.get(s)) else {
            continue;
        };
        for (((p, a), &w), &b) in pre.iter_mut().zip(&mut *act).zip(w0).zip(b0) {
            *p = b + w * x;
            *a = p.max(0.0);
        }
        let diff = (b1 + dot4(w1, act)) - y;
        *epoch_se += diff * diff;
        let d = 2.0 * diff / rows;
        let live = d != 0.0;
        for (((gw, gb), &p), &w) in gw0.iter_mut().zip(&mut *gb0).zip(&*pre).zip(w1) {
            let back = if live { 0.0 + d * w } else { 0.0 };
            let delta = if p <= 0.0 { 0.0 } else { back };
            *gw += delta * x;
            *gb += delta;
        }
        if live {
            for (gw, &a) in gw1.iter_mut().zip(&*act) {
                *gw += d * a;
            }
        }
        gb1 += d;
    }
    for (dst, src) in grads.chunks_mut(h).zip([&*gw0, &*gb0, &*gw1, &[gb1]]) {
        dst.copy_from_slice(src);
    }
}

/// Trains a fresh `[1, hidden, 1]` rank model on a sorted key array that is
/// its own partition: [`train_rank_model_in`] with `full = keys`, so key
/// `i` targets the normalised rank `i / (n − 1)`.
pub fn train_rank_model(keys: &[f64], hidden: usize, cfg: &TrainConfig, seed: u64) -> Ffn {
    train_rank_model_in(keys, keys, hidden, cfg, seed)
}

/// Builds a `[1, hidden, 1]` rank model from the sorted training keys of
/// the sorted partition `full`: the workhorse call of every learned spatial
/// index in this repo.
///
/// A training key's target is its normalised rank in `full`: the number of
/// keys of `full` below it, plus its place among the equal training keys
/// before it, over `|full| − 1`. A training set that is `full` itself
/// targets `i / (n − 1)`; a reduced set targets where its keys sit in the
/// partition, not where they sit among themselves.
///
/// The model is the interpolant of that CDF: the keys are mapped to
/// `[0, 1]` by their first and last key, the net is set to the
/// piecewise-linear interpolant through `hidden + 1` knots of the training
/// keys (`init_cdf_hinges`, one binary search over `full` a knot), and the
/// map is folded back into layer 0 (`fold_input_map`), so the returned net
/// takes raw keys. At `cfg.epochs == 0` that is the model. Otherwise it is
/// trained there by [`train_regression`] before the fold.
///
/// A set of no key, one key, or whose span is not positive or too narrow
/// to invert has no interpolant: at 0 epochs it gets the constant net at
/// its first key's rank, otherwise it trains from the random init on the
/// raw keys.
pub fn train_rank_model_in(
    keys: &[f64],
    full: &[f64],
    hidden: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> Ffn {
    let mut ffn = Ffn::new(&[1, hidden, 1], seed);
    let denom = full.len().saturating_sub(1).max(1) as f64;
    let rank = |k: f64| full.partition_point(|&f| f < k) as f64 / denom;
    let lo = keys.first().copied().unwrap_or(f64::NAN);
    let span = keys.last().copied().unwrap_or(f64::NAN) - lo;
    // Bounds both factors the fold brings into layer 0, `1 / span` and
    // `lo / span`; not finite and positive for no key, one key, equal
    // keys, a subnormal or non-finite span.
    let reach = lo.abs().max(1.0) / span;
    if !reach.is_finite() || reach <= 0.0 {
        if cfg.epochs > 0 && !keys.is_empty() {
            train_regression(&mut ffn, keys, &true_ranks(keys, full, denom), cfg);
        } else {
            // The constant net: every weight and hidden bias 0, the output
            // bias the first key's rank (no key leaves `lo` NaN: rank 0).
            let y = rank(lo);
            let params = ffn.params_mut();
            params.fill(0.0);
            if let Some(b1) = params.last_mut() {
                *b1 = y;
            }
        }
        return ffn;
    }
    init_cdf_hinges(ffn.params_mut(), keys, lo, span, rank);
    if cfg.epochs > 0 {
        let us: Vec<f64> = keys.iter().map(|&k| (k - lo) / span).collect();
        train_regression(&mut ffn, &us, &true_ranks(keys, full, denom), cfg);
    }
    fold_input_map(ffn.params_mut(), lo, span);
    ffn
}

/// The target of each sorted training key in the sorted partition `full`:
/// the keys of `full` below it plus its place in its run of equal training
/// keys, over `denom`. One merge pass over both, so a set that is `full`
/// itself pays `O(n)`, not a binary search a key.
fn true_ranks(keys: &[f64], full: &[f64], denom: f64) -> Vec<f64> {
    let (mut prev, mut run_start, mut below) = (None, 0, 0);
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            if prev != Some(k) {
                run_start = i;
                while full.get(below).is_some_and(|&f| f < k) {
                    below += 1;
                }
            }
            prev = Some(k);
            (below + i - run_start) as f64 / denom
        })
        .collect()
}

/// Sets the `[1, h, 1]` network `params` to the `h`-knot piecewise-linear
/// interpolant through the sorted `keys`, over the normalised keys
/// `u = (k − lo) / span`.
///
/// Knot `j < h` sits at the key of rank `⌊j (n − 1) / h⌋` and the last key
/// closes segment `h − 1`. A knot's target is `rank` of its key, the
/// normalised rank of the first partition key equal to it, so a run of
/// equal keys gives its knots one target. Hidden unit `j` is the hinge
/// `relu(u − q_j)` (`w0_j = 1`, `b0_j = −q_j`) weighted by the change of
/// slope there (`w1_j = s_j − s_{j−1}`), over `b1` = the first knot's
/// target. A zero-width segment (equal keys, or fewer keys than hinges)
/// has slope 0.
fn init_cdf_hinges(
    params: &mut [f64],
    keys: &[f64],
    lo: f64,
    span: f64,
    rank: impl Fn(f64) -> f64,
) {
    let h = params.len() / 3;
    let last = keys.len().saturating_sub(1);
    let knot = |j: usize| {
        let k = keys.get(j * last / h.max(1)).copied().unwrap_or(lo + span);
        ((k - lo) / span, rank(k))
    };
    let (w0, rest) = params.split_at_mut(h);
    let (b0, rest) = rest.split_at_mut(h);
    let (w1, b1) = rest.split_at_mut(h);
    let (mut q, mut y) = knot(0);
    if let Some(b1) = b1.first_mut() {
        *b1 = y;
    }
    let mut slope = 0.0;
    for (j, ((w0, b0), w1)) in w0.iter_mut().zip(b0).zip(w1).enumerate() {
        let (q_next, y_next) = knot(j + 1);
        let s = if q_next > q {
            (y_next - y) / (q_next - q)
        } else {
            0.0
        };
        (*w0, *b0, *w1) = (1.0, -q, s - slope);
        (q, y, slope) = (q_next, y_next, s);
    }
}

/// Folds the input map `u = (k − lo) / span` into layer 0 of the
/// `[1, h, 1]` network `params`: afterwards the net takes raw keys `k`.
fn fold_input_map(params: &mut [f64], lo: f64, span: f64) {
    let h = params.len() / 3;
    let (w0, rest) = params.split_at_mut(h);
    for (w, b) in w0.iter_mut().zip(rest) {
        *w /= span;
        *b -= *w * lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_identity_on_uniform_keys() {
        // The CDF of uniform keys is the identity; a tiny FFN must fit it.
        let keys: Vec<f64> = (0..200).map(|i| i as f64 / 199.0).collect();
        let cfg = TrainConfig {
            epochs: 300,
            ..TrainConfig::default()
        };
        let ffn = train_rank_model(&keys, 8, &cfg, 7);
        let mut worst: f64 = 0.0;
        for (i, &k) in keys.iter().enumerate() {
            let pred = ffn.predict1(k);
            let truth = i as f64 / 199.0;
            worst = worst.max((pred - truth).abs());
        }
        assert!(worst < 0.05, "worst rank error {worst}");
    }

    #[test]
    fn learns_skewed_cdf() {
        // keys = (i/n)^3 — a skewed CDF; the model must still track it.
        let keys: Vec<f64> = (0..300).map(|i| (i as f64 / 299.0).powi(3)).collect();
        let cfg = TrainConfig {
            epochs: 600,
            ..TrainConfig::default()
        };
        let ffn = train_rank_model(&keys, 16, &cfg, 3);
        let mut worst: f64 = 0.0;
        for (i, &k) in keys.iter().enumerate() {
            worst = worst.max((ffn.predict1(k) - i as f64 / 299.0).abs());
        }
        assert!(worst < 0.15, "worst rank error {worst}");
    }

    #[test]
    fn true_ranks_place_training_keys_in_their_partition() {
        let full = [0.1, 0.2, 0.2, 0.2, 0.5, 0.7, 0.9];
        // A set that is its own partition targets i / (n − 1), runs too.
        let own: Vec<f64> = (0..7).map(|i| f64::from(i) / 6.0).collect();
        assert_eq!(true_ranks(&full, &full, 6.0), own);
        // A reduced set: the partition's keys below each key, plus its
        // place among equal training keys; an absent key sits after the
        // keys below it.
        let reduced = true_ranks(&[0.2, 0.2, 0.6, 0.9, 1.0], &full, 6.0);
        assert_eq!(reduced, [1.0, 2.0, 5.0, 6.0, 7.0].map(|r| r / 6.0));
    }

    #[test]
    fn training_is_deterministic() {
        let keys: Vec<f64> = (0..100).map(|i| (i as f64 / 99.0).sqrt()).collect();
        let cfg = TrainConfig {
            epochs: 50,
            ..TrainConfig::default()
        };
        let a = train_rank_model(&keys, 8, &cfg, 5);
        let b = train_rank_model(&keys, 8, &cfg, 5);
        assert_eq!(a.params_flat(), b.params_flat());
    }

    #[test]
    fn early_stop_on_tol() {
        let keys: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let ys: Vec<f64> = keys.clone();
        let mut ffn = Ffn::new(&[1, 8, 1], 1);
        let cfg = TrainConfig {
            epochs: 10_000,
            tol: 1e-3,
            ..TrainConfig::default()
        };
        let report = train_regression(&mut ffn, &keys, &ys, &cfg);
        assert!(report.epochs_run < 10_000, "tol must trigger early stop");
        assert!(report.final_mse <= 1e-3);
    }

    #[test]
    fn multi_output_regression() {
        // Learn y = (x, 1 - x) jointly.
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let ys: Vec<f64> = xs.iter().flat_map(|&x| [x, 1.0 - x]).collect();
        let mut ffn = Ffn::new(&[1, 12, 2], 2);
        let cfg = TrainConfig {
            epochs: 500,
            ..TrainConfig::default()
        };
        let report = train_regression(&mut ffn, &xs, &ys, &cfg);
        assert!(report.final_mse < 0.01, "mse {}", report.final_mse);
        let out = ffn.forward(&[0.5]);
        assert!((out[0] - 0.5).abs() < 0.15);
        assert!((out[1] - 0.5).abs() < 0.15);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let mut ffn = Ffn::new(&[1, 4, 1], 0);
        train_regression(&mut ffn, &[], &[], &TrainConfig::default());
    }

    #[test]
    fn single_sample_trains() {
        let mut ffn = Ffn::new(&[1, 4, 1], 0);
        let cfg = TrainConfig {
            epochs: 200,
            ..TrainConfig::default()
        };
        let report = train_regression(&mut ffn, &[0.5], &[0.25], &cfg);
        assert!(report.final_mse < 1e-3);
        assert!((ffn.predict1(0.5) - 0.25).abs() < 0.05);
    }
}
