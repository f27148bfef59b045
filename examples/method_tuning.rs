//! Method tuning: sweep the per-method parameters of the ELSI pool (ρ for
//! SP, C for CL, ε for MR, β for RS, η for RL — the axes of the paper's
//! Fig. 7 Pareto study) on one data set and print the build-time /
//! error-span trade-off, then show how λ steers the learned selector.
//!
//! Run with: `cargo run --release --example method_tuning`

use elsi::{Elsi, ElsiConfig, Method, MrPool};
use elsi_data::Dataset;
use elsi_indices::{timed_secs, BuildInput, ModelBuilder};
use elsi_spatial::{sort_by_key, MortonMapper};
use std::sync::Arc;

fn main() {
    let n = 60_000;
    let (points, keys) = sort_by_key(&Dataset::Osm1.generate(n, 5), &MortonMapper);
    println!("Sweeping build-method parameters over {n} OSM-like points\n");
    println!(
        "{:6} {:>14} {:>12} {:>12} {:>12}",
        "method", "param", "|D_S|", "build (ms)", "err span"
    );

    // Fig. 7's trade-off lives in the trained regime (50 epochs here);
    // `ElsiConfig`'s default of 0 epochs builds no model by training.
    let mut trained = ElsiConfig::default();
    trained.train.epochs = 50;
    // The builder trains at `cfg.seed ^ input.seed`: seed 3 for every
    // model, and for the seeded reductions (RSP, CL, RL).
    let input = BuildInput {
        points: &points,
        keys: &keys,
        mapper: &MortonMapper,
        seed: 3,
    };
    let sweep = |m: Method, label: String, tweak: &dyn Fn(&mut ElsiConfig)| {
        let mut cfg = trained.clone();
        tweak(&mut cfg);
        let pool = Arc::new(MrPool::generate(&cfg, 1));
        let builder = Elsi::with_pool(cfg, pool).fixed_builder(m);
        let (built, secs) = timed_secs(|| builder.build_model(&input));
        println!(
            "{:6} {:>14} {:>12} {:>12.1} {:>12}",
            m.name(),
            label,
            built.stats.training_set_size,
            secs * 1e3,
            built.stats.err_span
        );
    };

    for rho in [0.0005, 0.002, 0.01] {
        sweep(Method::Sp, format!("rho={rho}"), &|c| c.rho = rho);
    }
    for clusters in [50, 200, 800] {
        sweep(Method::Cl, format!("C={clusters}"), &|c| {
            c.clusters = clusters
        });
    }
    for eps in [0.5, 0.25, 0.1] {
        sweep(Method::Mr, format!("eps={eps}"), &|c| c.epsilon = eps);
    }
    for beta in [8_000, 2_000, 500] {
        sweep(Method::Rs, format!("beta={beta}"), &|c| c.beta = beta);
    }
    for eta in [8, 16] {
        sweep(Method::Rl, format!("eta={eta}"), &|c| c.eta = eta);
    }
    sweep(Method::Og, "-".to_string(), &|_| {});

    // The learned selector: λ steers build-time vs query-time priority.
    println!("\nTraining the method scorer (small preparation pass)…");
    let mut cfg = ElsiConfig::default();
    cfg.train.epochs = 60;
    let mut elsi = Elsi::new(cfg);
    elsi.prepare_scorer(&[2_000, 10_000], &[1, 4, 12], 9);
    let scorer = elsi.scorer().expect("prepared");

    println!("\nSelected method vs lambda (n = {n}, OSM-like skew):");
    let dist_u = elsi_data::dist_from_uniform(&keys);
    for lambda in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let m = scorer.select(n, dist_u, lambda, 1.0, &Method::pool());
        println!("  lambda = {lambda:.1} -> {m}");
    }
    println!("\nEq. 2 weighs the predicted costs: larger lambda prioritises build");
    println!("time, smaller lambda prioritises query time (paper Figs. 9 and 11).");
}
