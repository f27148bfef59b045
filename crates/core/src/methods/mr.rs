//! MR: model reuse over pre-trained synthetic CDFs (§V-A3, after Liu et
//! al. [16]).
//!
//! MR is prepared offline: it generates a family of CDFs that heuristically
//! covers the CDF space with granularity ε — any input CDF is within ≈ε of
//! some family member — synthesises a data set for each, and pre-trains a
//! rank model on it. Online, MR runs *no training at all*: it measures the
//! KS distance between the input keys and each synthetic set and reuses the
//! closest set's model. Its query efficiency suffers when no synthetic set
//! is sufficiently similar (large ε), which is exactly the trade-off Fig. 7
//! sweeps.

use crate::config::ElsiConfig;
use elsi_data::ks_distance;
use elsi_ml::{train_rank_model, Ffn};

/// One pre-trained entry: a synthetic sorted key set and its model.
struct MrEntry {
    keys: Vec<f64>,
    model: Ffn,
}

/// The pre-trained model pool of the MR method.
pub struct MrPool {
    entries: Vec<MrEntry>,
    epsilon: f64,
}

impl MrPool {
    /// Generates the pool: power-law CDF families `F(x) = x^g` and its
    /// mirror `F(x) = 1 − (1−x)^g`, with exponents spaced so that adjacent
    /// CDFs are ≈ε apart in KS distance, plus the uniform CDF.
    pub fn generate(cfg: &ElsiConfig, seed: u64) -> Self {
        let eps = cfg.epsilon.clamp(0.02, 1.0);
        let m = cfg.mr_set_size.max(16);
        let mut exponents = vec![1.0f64];
        let mut g = 1.0f64;
        while g < 64.0 {
            // Find the next exponent at KS distance ≈ eps from g.
            let mut next = g * 1.05;
            while next < 64.0 && power_cdf_distance(g, next) < eps {
                next *= 1.1;
            }
            g = next;
            exponents.push(g.min(64.0));
            if g >= 64.0 {
                break;
            }
        }

        let mut entries = Vec::new();
        let mut idx = 0u64;
        for &g in &exponents {
            for mirrored in [false, true] {
                if g == 1.0 && mirrored {
                    continue; // uniform is its own mirror
                }
                let keys = synthetic_keys(g, mirrored, m);
                let model = train_rank_model(&keys, cfg.hidden, &cfg.train, seed ^ (0xA11 + idx));
                entries.push(MrEntry { keys, model });
                idx += 1;
            }
        }
        Self {
            entries,
            epsilon: eps,
        }
    }

    /// Number of pre-trained models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The coverage threshold ε the pool was generated for.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The pre-trained model of the synthetic set closest (by KS distance)
    /// to the sorted input keys, and the KS merge steps of the search (the
    /// input's size plus the set's, once per set).
    pub fn best_model(&self, input_keys: &[f64]) -> (&Ffn, u64) {
        let (entry, _) = self.best_entry(input_keys);
        let sizes = self.entries.iter().map(|e| e.keys.len() + input_keys.len());
        (&entry.model, sizes.sum::<usize>() as u64)
    }

    /// Closest entry and its KS distance to the input.
    fn best_entry(&self, input_keys: &[f64]) -> (&MrEntry, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, e) in self.entries.iter().enumerate() {
            let d = ks_distance(&e.keys, input_keys);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        (&self.entries[best], best_d)
    }

    /// KS distance of the best matching synthetic set (diagnostics).
    pub fn best_distance(&self, input_keys: &[f64]) -> f64 {
        self.best_entry(input_keys).1
    }
}

/// `sup_x |x^a − x^b|`, evaluated numerically.
fn power_cdf_distance(a: f64, b: f64) -> f64 {
    let mut worst = 0.0f64;
    for i in 1..256 {
        let x = i as f64 / 256.0;
        worst = worst.max((x.powf(a) - x.powf(b)).abs());
    }
    worst
}

/// `m` sorted keys whose empirical CDF follows `x^g` (or its mirror).
fn synthetic_keys(g: f64, mirrored: bool, m: usize) -> Vec<f64> {
    let mut keys: Vec<f64> = (0..m)
        .map(|j| {
            let u = (j as f64 + 0.5) / m as f64;
            if mirrored {
                1.0 - (1.0 - u).powf(1.0 / g)
            } else {
                u.powf(1.0 / g)
            }
        })
        .collect();
    keys.sort_unstable_by(|a, b| a.total_cmp(b));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(eps: f64) -> ElsiConfig {
        ElsiConfig {
            epsilon: eps,
            mr_set_size: 64,
            train: elsi_ml::TrainConfig {
                epochs: 30,
                ..Default::default()
            },
            ..ElsiConfig::fast_test()
        }
    }

    #[test]
    fn smaller_epsilon_means_more_models() {
        let coarse = MrPool::generate(&small_cfg(0.5), 1);
        let fine = MrPool::generate(&small_cfg(0.1), 1);
        assert!(
            fine.len() > coarse.len(),
            "{} vs {}",
            fine.len(),
            coarse.len()
        );
        assert!(!coarse.is_empty());
    }

    #[test]
    fn coverage_within_epsilon_for_power_law_inputs() {
        let eps = 0.2;
        let pool = MrPool::generate(&small_cfg(eps), 1);
        // Any power-law-ish input should be within ~eps of some entry.
        for g in [1.0, 2.5, 7.0, 20.0] {
            let input = synthetic_keys(g, false, 500);
            let d = pool.best_distance(&input);
            assert!(d <= eps + 0.05, "g = {g}: best distance {d}");
        }
    }

    #[test]
    fn uniform_input_matches_uniform_entry() {
        let pool = MrPool::generate(&small_cfg(0.3), 1);
        let input: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.5) / 1000.0).collect();
        assert!(pool.best_distance(&input) < 0.02);
    }

    #[test]
    fn best_model_predicts_ranks_for_matching_distribution() {
        let pool = MrPool::generate(&small_cfg(0.3), 1);
        let input = synthetic_keys(3.0, false, 400);
        let (model, work) = pool.best_model(&input);
        assert_eq!(work, (pool.len() * (400 + 64)) as u64);
        // The reused model should track the input's rank function coarsely.
        let mut worst = 0.0f64;
        for (i, &k) in input.iter().enumerate() {
            let pred = model.predict1(k);
            worst = worst.max((pred - i as f64 / 399.0).abs());
        }
        assert!(worst < 0.45, "worst rank error {worst}");
    }

    #[test]
    fn power_distance_monotone_in_gap() {
        assert!(power_cdf_distance(1.0, 2.0) < power_cdf_distance(1.0, 8.0));
        assert!(power_cdf_distance(3.0, 3.0) < 1e-12);
    }
}
