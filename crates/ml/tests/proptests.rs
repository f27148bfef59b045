//! Property tests over the ML substrate.

use elsi_ml::{
    kmeans, train_rank_model, train_rank_model_in, train_regression, Adam, Batch, DecisionTree,
    Ffn, PwlModel, TrainConfig, TreeConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `train_regression` written out over the public general path: the same
/// shuffle, one [`Ffn::backprop`] per mini-batch and the same Adam step.
/// Returns the last epoch's MSE and the epochs run.
fn reference_training(ffn: &mut Ffn, xs: &[f64], ys: &[f64], cfg: &TrainConfig) -> (f64, usize) {
    let n = xs.len();
    let batch = if cfg.batch_size == 0 {
        n
    } else {
        cfg.batch_size.min(n)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut opt = Adam::new(ffn.num_params(), cfg.lr);
    let mut slabs = Batch::new(ffn, batch);
    let (mut final_mse, mut epochs_run) = (f64::INFINITY, 0);
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_se = 0.0;
        for chunk in order.chunks(batch) {
            slabs.zero_grads();
            let input = |s: usize| std::slice::from_ref(&xs[chunk[s]]);
            ffn.backprop(&mut slabs, chunk.len(), input, |s, pred, d_out| {
                let diff = pred[0] - ys[chunk[s]];
                epoch_se += diff * diff;
                d_out[0] = 2.0 * diff / chunk.len() as f64;
            });
            opt.step_params(slabs.grads(), ffn.params_mut());
        }
        epochs_run += 1;
        final_mse = epoch_se / n as f64;
        if final_mse <= cfg.tol {
            break;
        }
    }
    (final_mse, epochs_run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PWL guarantee: lower-bound rank error ≤ ε for every fitted key.
    #[test]
    fn pwl_guarantee(mut keys in prop::collection::vec(0.0f64..1.0, 1..300), eps in 1usize..32) {
        keys.sort_by(|a, b| a.total_cmp(b));
        let m = PwlModel::fit(&keys, eps);
        for &k in &keys {
            let lb = keys.partition_point(|&x| x < k) as i64;
            let err = (m.predict(k) - lb).unsigned_abs() as usize;
            prop_assert!(err <= eps, "lower-bound error {} > eps {}", err, eps);
        }
    }

    /// The fused `[1, h, 1]` kernel of `train_regression` gives the bytes of
    /// the general batch-major path: every parameter, the final MSE and
    /// the epoch count. Keys repeat and include exact zeros and negatives,
    /// targets include exact zeros, so dead ReLUs and zero output deltas
    /// occur (a zero key meets zero biases); `h` crosses the four-wide
    /// kernels' tails and hits the width of the workspace's rank models
    /// (16) in a quarter of the cases.
    #[test]
    fn fused_rank_training_equals_the_general_path_bitwise(
        h_code in 0usize..44,
        samples in prop::collection::vec((0usize..24, 0.0f64..1.0, 0usize..5), 1..=300),
        batch_code in 0usize..5,
        stop in 0usize..3,
        epochs in 1usize..40,
        seeds in (any::<u64>(), any::<u64>()),
    ) {
        let h = if h_code >= 33 { 16 } else { h_code + 1 };
        let n = samples.len();
        let xs: Vec<f64> = samples
            .iter()
            .map(|&(code, u, _)| if code < 17 { (code as f64 - 8.0) / 4.0 } else { u * 4.0 - 2.0 })
            .collect();
        let ys: Vec<f64> = samples.iter().map(|&(_, _, y)| y as f64 / 4.0).collect();
        let cfg = TrainConfig {
            epochs,
            batch_size: [0, 1, 7, 64, n + 5][batch_code],
            seed: seeds.0,
            tol: [0.0, 0.02, 0.2][stop],
            ..TrainConfig::default()
        };
        let mut fused = Ffn::new(&[1, h, 1], seeds.1);
        let mut general = fused.clone();
        let report = train_regression(&mut fused, &xs, &ys, &cfg);
        let (mse, epochs_run) = reference_training(&mut general, &xs, &ys, &cfg);
        let bits = |f: &Ffn| f.params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&fused), bits(&general));
        prop_assert_eq!(report.final_mse.to_bits(), mse.to_bits());
        prop_assert_eq!(report.epochs_run, epochs_run);
    }

    /// Parameter flattening round-trips for arbitrary layer shapes.
    #[test]
    fn ffn_params_roundtrip(h1 in 1usize..12, h2 in 1usize..12, seed in 0u64..1000) {
        let f = Ffn::new(&[2, h1, h2, 1], seed);
        let mut g = Ffn::new(&[2, h1, h2, 1], seed ^ 0xFFFF);
        g.set_params_flat(&f.params_flat());
        prop_assert_eq!(f.params_flat(), g.params_flat());
        let x = [0.25, -0.5];
        prop_assert!((f.forward(&x)[0] - g.forward(&x)[0]).abs() < 1e-12);
    }

    /// k-means: every point is assigned to its nearest centroid on exit.
    #[test]
    fn kmeans_assignment_is_nearest(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4..120),
        k in 1usize..6
    ) {
        let r = kmeans(&pts, k, 30, 7);
        for (p, &a) in pts.iter().zip(&r.assignment) {
            let d_assigned =
                (p.0 - r.centroids[a].0).powi(2) + (p.1 - r.centroids[a].1).powi(2);
            for c in &r.centroids {
                let d = (p.0 - c.0).powi(2) + (p.1 - c.1).powi(2);
                prop_assert!(d_assigned <= d + 1e-9);
            }
        }
    }

    /// A regression tree predicts exactly the training target when grown
    /// to purity on distinct inputs.
    #[test]
    fn tree_memorises_distinct_inputs(ys in prop::collection::vec(-10.0f64..10.0, 2..60)) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let cfg = TreeConfig { max_depth: 64, min_leaf: 1, ..TreeConfig::default() };
        let t = DecisionTree::fit_regression(&xs, 1, &ys, &cfg);
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert!((t.predict(&[*x]) - y).abs() < 1e-9);
        }
    }
}

/// `n` sorted keys in `[lo, lo + span]` drawn from `seed`; with `levels`
/// set, each draw is rounded down to one of that many values, so keys
/// repeat in runs.
fn sorted_keys(n: usize, lo: f64, span: f64, levels: Option<u32>, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<f64> = (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            let r = levels.map_or(r, |l| (r * f64::from(l)).floor() / f64::from(l));
            lo + span * r
        })
        .collect();
    keys.sort_by(f64::total_cmp);
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `train_rank_model` before any epoch is the CDF interpolant, folded.
    ///
    /// Knot `j ≤ h` is the key of rank `⌊j (n − 1) / h⌋`; its target is the
    /// normalised rank of the first key equal to it. The net over the
    /// normalised keys `(k − lo) / span` (which maps them to themselves, so
    /// it is the unfolded net) hits every target within 1e-9. The folded
    /// net on the raw keys agrees with it within 1e-9 plus the rounding the
    /// fold adds: layer 0 then computes `k / span − lo / span`, terms of
    /// size `max |k| / span` (5e11 at span 1e-12), whose rounding the
    /// output weights scale. One key, or keys all equal, give the constant
    /// net at rank 0.
    ///
    /// A reduced set (every `stride`-th key, and the last) fitted in the
    /// full normalised set hits each of its knots' ranks in the full set.
    #[test]
    fn zero_epoch_rank_model_is_the_folded_cdf_interpolant(
        small in 0usize..2,
        n in 1usize..=5000,
        h in 1usize..=20,
        lo in -2.0f64..2.0,
        span_exp in 0u32..=12,
        levels_code in 0u32..6,
        seed in 0u64..1_000_000,
        stride in 2usize..40,
    ) {
        let n = if small == 1 { 1 + n % 40 } else { n };
        let levels = [None, Some(1), Some(3), Some(10), Some(100), Some(1000)][levels_code as usize];
        let keys = sorted_keys(n, lo, 10f64.powi(-(span_exp as i32)), levels, seed);
        let cfg = TrainConfig { epochs: 0, ..TrainConfig::default() };
        let folded = train_rank_model(&keys, h, &cfg, seed);

        let (first, last) = (keys[0], keys[n - 1]);
        let span = last - first;
        if n == 1 || span == 0.0 {
            prop_assert_eq!(folded.params(), &vec![0.0; 3 * h + 1][..]);
        } else {
            let us: Vec<f64> = keys.iter().map(|&k| (k - first) / span).collect();
            let unfolded = train_rank_model(&us, h, &cfg, seed);
            let l1: f64 = unfolded.params()[2 * h..3 * h].iter().map(|w| w.abs()).sum();
            let scale = first.abs().max(last.abs()) / span;
            let fold_tol = 1e-9 + 16.0 * f64::EPSILON * (1.0 + scale) * l1;
            let denom = (n - 1) as f64;
            for j in 0..=h {
                let r = j * (n - 1) / h;
                let target = us.partition_point(|&u| u < us[r]) as f64 / denom;
                let (at_u, at_k) = (unfolded.predict1(us[r]), folded.predict1(keys[r]));
                prop_assert!((at_u - target).abs() <= 1e-9, "knot {j}: {at_u} vs {target}");
                prop_assert!((at_k - at_u).abs() <= fold_tol, "knot {j}: folded {at_k} vs {at_u}");
            }
            let mut sub: Vec<f64> = us.iter().copied().step_by(stride).collect();
            if sub.last() != us.last() {
                sub.extend(us.last());
            }
            let reduced = train_rank_model_in(&sub, &us, h, &cfg, seed);
            for j in 0..=h {
                let q = sub[j * (sub.len() - 1) / h];
                let target = us.partition_point(|&u| u < q) as f64 / denom;
                let at = reduced.predict1(q);
                prop_assert!((at - target).abs() <= 1e-9, "reduced knot {j}: {at} vs {target}");
            }
        }
    }
}

/// `predict1` of a `[1, h, 1]` net written out over its flat parameters
/// (hidden weights, hidden biases, output weights, output bias): the
/// operations, and their order, that the hinge body must reproduce.
fn hinge_reference(ffn: &Ffn, x: f64) -> f64 {
    let h = ffn.sizes()[1];
    let p = ffn.params();
    let mut acc = p[3 * h];
    for j in 0..h {
        let a = (p[j] * x + p[h + j]).max(0.0);
        acc += p[2 * h + j] * a;
    }
    acc
}

/// `xs.len()` keys cycling through `specials` interleaved with draws from
/// `[lo, lo + span)` and from ten times that range around it.
fn probe_keys(len: usize, specials: &[f64], lo: f64, span: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| match i % 3 {
            0 => specials[(i / 3) % specials.len()],
            1 => lo + span * rng.gen::<f64>(),
            _ => lo + span * (10.0 * rng.gen::<f64>() - 4.5),
        })
        .collect()
}

#[test]
fn predict_each_is_predict1_bit_for_bit() {
    let keys = sorted_keys(2000, 0.25, 0.5, None, 11);
    let zero = TrainConfig {
        epochs: 0,
        ..TrainConfig::default()
    };
    let trained = TrainConfig {
        epochs: 40,
        ..TrainConfig::default()
    };
    let nets = [
        ("interpolant", train_rank_model(&keys, 16, &zero, 1)),
        ("constant", train_rank_model(&[0.5; 9], 16, &zero, 2)),
        ("trained", train_rank_model(&keys, 16, &trained, 3)),
        ("random init", Ffn::new(&[1, 16, 1], 4)),
        ("random init, h = 3", Ffn::new(&[1, 3, 1], 5)),
        ("deep", Ffn::new(&[1, 8, 8, 1], 6)),
    ];
    let specials = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1e300,
        -1e300,
        -3.0,
        7.0,
        0.25,
        0.75,
    ];
    for (name, net) in &nets {
        for len in (0..=17).chain([1000]) {
            let xs = probe_keys(len, &specials, 0.25, 0.5, len as u64);
            let mut next = 0;
            net.predict_each(&xs, |i, y| {
                assert_eq!(i, next, "{name}: keys out of order");
                next += 1;
                let x = xs[i];
                let want = net.predict1(x);
                assert_eq!(y.to_bits(), want.to_bits(), "{name}, len {len}, key {x}");
                if net.sizes().len() == 3 {
                    let r = hinge_reference(net, x);
                    assert_eq!(want.to_bits(), r.to_bits(), "{name}: predict1 at {x}");
                }
            });
            assert_eq!(next, len, "{name}: every key once");
        }
    }
}
