//! Pins the exact bytes the trainer produces for every network shape the
//! workspace trains.
//!
//! The checksums were recorded from the per-sample trainer that preceded
//! the batch-major one, so they hold the current kernel to the old weights
//! bit for bit, not merely to itself across thread counts (which is all
//! `tests/determinism.rs` can tell). A change to the floating-point order
//! of the forward pass, the deltas, the gradient accumulation or the Adam
//! step moves at least one of them.
//!
//! The `[1, h, 1]` kernel pins train from `Ffn::new`'s random init on raw
//! keys ([`kernel_rank_model`]), so they hold the fused kernel alone;
//! `train_rank_model`, which starts from the CDF, has pins of its own.

use elsi_ml::{train_rank_model, train_regression, Dqn, DqnConfig, Ffn, TrainConfig, Transition};

/// FNV-1a over the little-endian bit patterns of `params`.
fn checksum(params: &[f64]) -> u64 {
    params
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn assert_pinned(what: &str, ffn: &Ffn, want: u64) {
    let got = checksum(ffn.params());
    assert_eq!(got, want, "{what}: trained parameters hash to {got:#018x}");
}

/// `n` sorted, skewed keys in `(0, 1)`. Inputs use only `+ - * /`: a
/// vectorised `powi` or `sin` may round differently from the scalar call,
/// and the pins must hold in every build profile.
fn keys(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            u * u * u
        })
        .collect()
}

/// A `[1, hidden, 1]` net from `Ffn::new`'s random init, trained on the
/// raw `keys` towards the normalised ranks `i / (n − 1)`: the fused rank
/// kernel alone, with no input map and no initialisation of its own.
fn kernel_rank_model(keys: &[f64], hidden: usize, cfg: &TrainConfig, seed: u64) -> Ffn {
    let mut ffn = Ffn::new(&[1, hidden, 1], seed);
    let denom = (keys.len() - 1).max(1) as f64;
    let ys: Vec<f64> = (0..keys.len()).map(|i| i as f64 / denom).collect();
    train_regression(&mut ffn, keys, &ys, cfg);
    ffn
}

/// `n` rows of `dim` scrambled features in `[-1, 1)` with a mixed-sign
/// linear target.
fn features(n: usize, dim: usize) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..n * dim)
        .map(|i| (i * 2_654_435_761 % 1000) as f64 / 500.0 - 1.0)
        .collect();
    let ys = xs
        .chunks_exact(dim)
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(j, v)| v * (j as f64 - 2.0))
                .sum::<f64>()
                * 0.1
        })
        .collect();
    (xs, ys)
}

#[test]
fn rank_model_pins_across_batch_boundaries() {
    // One sample, a partial batch, one short of, exactly and one over a
    // 64-sample batch, and many batches with a ragged last one.
    let pins = [
        (1, 0x34e1_0a47_75fa_e906),
        (2, 0x5f3a_c70b_d904_3807),
        (63, 0xa68c_df06_7ca7_bef6),
        (64, 0xc5ca_8943_884c_c9da),
        (65, 0x463d_3b84_c9f1_ffa8),
        (600, 0x3e0f_7b17_afa4_7a49),
    ];
    for (n, want) in pins {
        let ffn = kernel_rank_model(&keys(n), 16, &TrainConfig::default(), 11);
        assert_pinned(&format!("[1,16,1] at n = {n}"), &ffn, want);
    }
}

#[test]
fn narrow_rank_model_pins_the_kernel_tails() {
    // Five hidden units: every four-wide kernel over the hidden layer has a
    // one-element tail.
    let ffn = kernel_rank_model(&keys(200), 5, &TrainConfig::default(), 3);
    assert_pinned("[1,5,1]", &ffn, 0xccb9_06dd_bd9b_ea74);
}

#[test]
fn full_batch_training_pins() {
    let cfg = TrainConfig {
        batch_size: 0,
        ..TrainConfig::default()
    };
    let ffn = kernel_rank_model(&keys(150), 16, &cfg, 5);
    assert_pinned("[1,16,1] full batch", &ffn, 0xabe7_8cf6_ff56_0354);
}

/// The trained regime of the figure runner (`bench_config`'s default
/// 50 epochs); serving ships the 0-epoch interpolant.
fn shipped() -> TrainConfig {
    TrainConfig {
        epochs: 50,
        ..TrainConfig::default()
    }
}

#[test]
fn cdf_initialised_rank_model_pins() {
    // The same batch boundaries as the kernel pins; n = 1 keeps the random
    // init on the raw key.
    let pins = [
        (1, 0xd4d2_3d0a_0b86_543c),
        (2, 0xddf9_9555_97ca_9c98),
        (63, 0xedeb_989d_f8af_dbfb),
        (64, 0xcb07_79e8_7980_a973),
        (65, 0x2551_4a81_22ad_0d44),
        (600, 0x8264_f11b_2e42_c5fd),
    ];
    for (n, want) in pins {
        let ffn = train_rank_model(&keys(n), 16, &shipped(), 11);
        assert_pinned(&format!("CDF-initialised [1,16,1] at n = {n}"), &ffn, want);
    }
}

#[test]
fn cdf_initialised_narrow_and_duplicate_key_pins() {
    // Keys spanning under 1e-9 away from zero: the fold's `lo / span` is
    // large.
    let narrow: Vec<f64> = keys(300).iter().map(|k| 0.625 + k * 5e-10).collect();
    let ffn = train_rank_model(&narrow, 16, &shipped(), 13);
    assert_pinned("span < 1e-9", &ffn, 0x79dc_29d9_c6fc_0abd);
    // Runs of equal keys: zero-width segments get slope 0.
    let runs: Vec<f64> = keys(400)
        .iter()
        .map(|k| (k * 24.0).floor() / 24.0)
        .collect();
    let ffn = train_rank_model(&runs, 16, &shipped(), 17);
    assert_pinned("runs of equal keys", &ffn, 0x91af_4d8d_5a3b_9253);
    // Five hinges: the kernel's one-element tail under the new init.
    let ffn = train_rank_model(&keys(200), 5, &shipped(), 3);
    assert_pinned("CDF-initialised [1,5,1]", &ffn, 0x1bbe_8933_2145_0897);
}

#[test]
fn early_stop_pins_the_epoch_and_the_weights() {
    let xs = keys(50);
    let ys: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
    let mut ffn = Ffn::new(&[1, 8, 1], 1);
    let cfg = TrainConfig {
        epochs: 10_000,
        tol: 1e-3,
        ..TrainConfig::default()
    };
    let report = train_regression(&mut ffn, &xs, &ys, &cfg);
    assert_eq!(report.epochs_run, 3086, "tol stop epoch");
    assert_pinned("[1,8,1] early stop", &ffn, 0xb497_7842_5e91_670a);
}

#[test]
fn scorer_and_predictor_shapes_pin() {
    // The method scorer's cost nets and the rebuild predictor, at their own
    // batch sizes.
    for (sizes, batch_size, want) in [
        (vec![9, 24, 1], 32, 0xa23e_aa66_756b_2a0d),
        (vec![5, 16, 1], 16, 0xfa76_2565_1e26_7441),
    ] {
        let (xs, ys) = features(120, sizes[0]);
        let mut ffn = Ffn::new(&sizes, 0xB);
        let cfg = TrainConfig {
            epochs: 60,
            batch_size,
            ..TrainConfig::default()
        };
        train_regression(&mut ffn, &xs, &ys, &cfg);
        assert_pinned(&format!("{sizes:?}"), &ffn, want);
    }
}

#[test]
fn deep_multi_output_regression_pins() {
    // Two hidden layers: deltas propagate through a layer whose input is
    // itself a hidden layer.
    let (xs, ys) = features(90, 2);
    let ys: Vec<f64> = ys.iter().flat_map(|&y| [y, 1.0 - y]).collect();
    let mut ffn = Ffn::new(&[2, 8, 6, 2], 4);
    let cfg = TrainConfig {
        epochs: 40,
        batch_size: 16,
        ..TrainConfig::default()
    };
    train_regression(&mut ffn, &xs, &ys, &cfg);
    assert_pinned("[2,8,6,2]", &ffn, 0xf2ce_7351_9089_588c);
}

#[test]
fn dqn_weights_pin_after_fifty_steps() {
    let mut agent = Dqn::new(9, 9, DqnConfig::default(), 21);
    for i in 0..100 {
        let state: Vec<f64> = (0..9)
            .map(|j| ((i * 9 + j) % 7 == 0) as u8 as f64)
            .collect();
        let next_state: Vec<f64> = (0..9)
            .map(|j| ((i * 9 + j) % 5 == 0) as u8 as f64)
            .collect();
        agent.remember(Transition {
            state,
            action: i % 9,
            reward: ((i % 11) as f64 - 5.0) * 0.1,
            next_state,
        });
    }
    for _ in 0..50 {
        agent.train_step();
    }
    assert_pinned("DQN [9,32,9]", agent.q_network(), 0x04de_1170_2eaa_95c7);
}
