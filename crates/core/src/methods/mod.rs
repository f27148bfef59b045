//! The ELSI method pool (§V): seven index building methods that construct
//! (or fetch) a small training set `D_S` resembling the input `D`.
//!
//! * [`Method::Sp`] — systematic sampling (adapted, §V-A1)
//! * [`Method::Rsp`] — random sampling (Fig. 7's extra baseline)
//! * [`Method::Cl`] — k-means cluster centroids (adapted, §V-A2)
//! * [`Method::Mr`] — model reuse over pre-trained synthetic CDFs (§V-A3)
//! * [`Method::Rs`] — representative set via quadtree partitioning (§V-B1)
//! * [`Method::Rl`] — reinforcement-learning search over a grid (§V-B2)
//! * [`Method::Og`] — the original full-data method (backup option)

mod cl;
mod mr;
mod rl;
mod rs;
mod sp;

pub use mr::MrPool;

use crate::config::ElsiConfig;
use elsi_indices::BuildInput;
use elsi_ml::Ffn;

/// An index building method from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Systematic sampling at rate ρ.
    Sp,
    /// Random sampling at rate ρ.
    Rsp,
    /// k-means clustering, `C` centroids.
    Cl,
    /// Model reuse from pre-trained synthetic CDFs.
    Mr,
    /// Representative set via quadtree partitioning to ≤ β points per cell.
    Rs,
    /// Reinforcement-learning search over an η×η grid.
    Rl,
    /// Original: train on the full data.
    Og,
}

impl Method {
    /// The six-method pool of the ELSI system (§I; RSP is only a Fig. 7
    /// baseline and not part of the pool).
    pub fn pool() -> [Method; 6] {
        [
            Method::Sp,
            Method::Cl,
            Method::Mr,
            Method::Rs,
            Method::Rl,
            Method::Og,
        ]
    }

    /// All methods including the RSP baseline.
    pub fn all() -> [Method; 7] {
        [
            Method::Sp,
            Method::Rsp,
            Method::Cl,
            Method::Mr,
            Method::Rs,
            Method::Rl,
            Method::Og,
        ]
    }

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Sp => "SP",
            Method::Rsp => "RSP",
            Method::Cl => "CL",
            Method::Mr => "MR",
            Method::Rs => "RS",
            Method::Rl => "RL",
            Method::Og => "OG",
        }
    }

    /// Position in the one-hot method embedding of the scorer.
    pub fn one_hot_index(&self) -> usize {
        match self {
            Method::Sp => 0,
            Method::Rsp => 1,
            Method::Cl => 2,
            Method::Mr => 3,
            Method::Rs => 4,
            Method::Rl => 5,
            Method::Og => 6,
        }
    }

    /// Whether the method synthesises points that are not in `D` (CL
    /// centroids, RL grid centres). Such methods are inapplicable to base
    /// indices whose mapping is constructed from `D` itself, such as LISA
    /// (paper §VII-A).
    pub fn synthesises_points(&self) -> bool {
        matches!(self, Method::Cl | Method::Rl)
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The output of a building method: either a reduced training set (sorted
/// keys) or, for MR, an already trained model.
pub enum Reduction {
    /// Sorted training keys to run `train(·)` on.
    TrainingSet(Vec<f64>),
    /// A pre-trained model to reuse directly (MR).
    Pretrained(Ffn),
}

/// Runs a building method over one sorted partition, producing its
/// reduction. `mr_pool` supplies the pre-trained models for [`Method::Mr`].
pub fn reduce(
    method: Method,
    input: &BuildInput<'_>,
    cfg: &ElsiConfig,
    mr_pool: &MrPool,
) -> Reduction {
    match method {
        Method::Sp => Reduction::TrainingSet(sp::systematic(input.keys, cfg.rho)),
        Method::Rsp => {
            Reduction::TrainingSet(sp::random(input.keys, cfg.rho, cfg.seed ^ input.seed))
        }
        Method::Cl => Reduction::TrainingSet(cl::centroids(input, cfg)),
        Method::Mr => Reduction::Pretrained(mr_pool.best_model(input.keys).clone()),
        Method::Rs => Reduction::TrainingSet(rs::representative_set(input, cfg)),
        Method::Rl => Reduction::TrainingSet(rl::rl_set(input, cfg)),
        Method::Og => Reduction::TrainingSet(input.keys.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::skewed;
    use elsi_data::ks_distance;
    use elsi_spatial::{sort_by_key, MortonMapper};

    fn input_data(n: usize) -> (Vec<elsi_spatial::Point>, Vec<f64>) {
        sort_by_key(skewed(n, 4, 7), &MortonMapper)
    }

    #[test]
    fn pool_and_names() {
        assert_eq!(Method::pool().len(), 6);
        assert_eq!(Method::all().len(), 7);
        let names: Vec<&str> = Method::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["SP", "RSP", "CL", "MR", "RS", "RL", "OG"]);
        // One-hot indices are distinct and in range.
        let mut idx: Vec<usize> = Method::all().iter().map(|m| m.one_hot_index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn lisa_mask() {
        assert!(Method::Cl.synthesises_points());
        assert!(Method::Rl.synthesises_points());
        assert!(!Method::Sp.synthesises_points());
        assert!(!Method::Mr.synthesises_points());
        assert!(!Method::Rs.synthesises_points());
        assert!(!Method::Og.synthesises_points());
    }

    /// Every reduction (except MR) must yield sorted keys in [0,1] that
    /// approximate the input distribution reasonably.
    #[test]
    fn every_method_produces_distribution_preserving_sets() {
        let (sorted, sorted_keys) = input_data(4000);
        let cfg = ElsiConfig::fast_test();
        let mr_pool = MrPool::generate(&cfg, 1);
        let input = elsi_indices::BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 3,
        };
        for m in Method::all() {
            let red = reduce(m, &input, &cfg, &mr_pool);
            match red {
                Reduction::TrainingSet(keys) => {
                    assert!(!keys.is_empty(), "{m}: empty training set");
                    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{m}: unsorted");
                    assert!(
                        keys.iter().all(|k| (0.0..=1.0).contains(k)),
                        "{m}: key out of range"
                    );
                    if m != Method::Og {
                        assert!(keys.len() < sorted.len(), "{m}: not reduced");
                    }
                    let d = ks_distance(&keys, &sorted_keys);
                    // Even the crudest reduction should stay well below the
                    // maximal distance; the good ones are far tighter.
                    assert!(d < 0.5, "{m}: KS distance {d}");
                }
                Reduction::Pretrained(_) => assert_eq!(m, Method::Mr),
            }
        }
    }

    #[test]
    fn proposed_methods_beat_random_sampling_on_skew() {
        let (sorted, sorted_keys) = input_data(6000);
        let cfg = ElsiConfig::fast_test();
        let mr_pool = MrPool::generate(&cfg, 1);
        let input = elsi_indices::BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 5,
        };
        let dist_of = |m: Method| -> f64 {
            match reduce(m, &input, &cfg, &mr_pool) {
                Reduction::TrainingSet(keys) => ks_distance(&keys, &sorted_keys),
                Reduction::Pretrained(_) => unreachable!(),
            }
        };
        let d_rs = dist_of(Method::Rs);
        let d_sp = dist_of(Method::Sp);
        let d_rsp = dist_of(Method::Rsp);
        // §V-A1: systematic sampling bounds the rank gap optimally, so SP
        // should not be (much) worse than RSP; RS is designed to be tight.
        assert!(d_sp <= d_rsp + 0.02, "SP {d_sp} vs RSP {d_rsp}");
        assert!(d_rs < 0.2, "RS distance {d_rs}");
    }
}
