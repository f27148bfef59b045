//! The ELSI build processor (§IV-B1): Algorithm 1 as a [`ModelBuilder`].
//!
//! [`ElsiBuilder`] is the integration point with the base indices: each
//! time a base index would train a model on a partition `D`, the builder
//! (1) asks the method selector for the best building method given
//! `|D|` and `dist(D_U, D)` (lines 3), (2) computes the reduced training
//! set `D_S` (line 4), (3) trains the model on `D_S` (line 5), and
//! (4) derives the empirical error bounds over the full `D` (line 6).
//!
//! Handing an `ElsiBuilder` to `ZmIndex::build` (etc.) instead of the
//! default `OgBuilder` produces the paper's `-F` index variants.

use crate::config::ElsiConfig;
use crate::methods::{reduce, Method, MrPool, Reduction};
use crate::scorer::{MethodScorer, RandomSelector};
use elsi_data::dist_from_uniform;
use elsi_indices::{build_on_training_set, timed, BuildInput, BuiltModel, ModelBuilder, RankFn};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How the builder picks a method for each model build.
pub enum MethodChoice {
    /// A fixed method for every model (the per-method rows of Table II and
    /// the Fig. 7 Pareto sweeps).
    Fixed(Method),
    /// The learned FFN method selector (the ELSI row).
    Learned(Arc<MethodScorer>),
    /// Uniformly random choice (the "Rand" ablation of Table II). Each
    /// model build draws from a fresh [`RandomSelector`] seeded by this
    /// root seed mixed with the build's partition seed, so the choice for
    /// a partition does not depend on which thread trains it first.
    Random(u64),
}

/// The ELSI build processor.
///
/// `Send + Sync`: base indices train their per-partition models in
/// parallel, sharing one builder across rayon worker threads. The only
/// mutable state is the chosen-method count, one atomic per method.
pub struct ElsiBuilder {
    cfg: ElsiConfig,
    choice: MethodChoice,
    mr_pool: Arc<MrPool>,
    /// Methods this builder may use (LISA masks out CL and RL).
    allowed: Vec<Method>,
    /// How many model builds chose each method, indexed by
    /// [`Method::one_hot_index`] (diagnostics). A count does not depend on
    /// the thread schedule, and it never grows past one word per method
    /// however long a deployment runs.
    chosen: [AtomicUsize; 7],
}

impl ElsiBuilder {
    /// A builder that always uses `method` (including the RSP baseline,
    /// which is outside the selector's pool).
    pub fn fixed(method: Method, cfg: ElsiConfig, mr_pool: Arc<MrPool>) -> Self {
        Self {
            cfg,
            choice: MethodChoice::Fixed(method),
            mr_pool,
            allowed: Method::all().to_vec(),
            chosen: Default::default(),
        }
    }

    /// A builder driven by a trained method scorer (the full ELSI system).
    pub fn learned(scorer: Arc<MethodScorer>, cfg: ElsiConfig, mr_pool: Arc<MrPool>) -> Self {
        Self {
            cfg,
            choice: MethodChoice::Learned(scorer),
            mr_pool,
            allowed: Method::pool().to_vec(),
            chosen: Default::default(),
        }
    }

    /// A builder that picks methods uniformly at random (Table II's Rand).
    pub fn random(seed: u64, cfg: ElsiConfig, mr_pool: Arc<MrPool>) -> Self {
        Self {
            cfg,
            choice: MethodChoice::Random(seed),
            mr_pool,
            allowed: Method::pool().to_vec(),
            chosen: Default::default(),
        }
    }

    /// Masks out the methods that synthesise points not in `D`
    /// (for LISA-style base indices); a fixed method that does not keeps
    /// working.
    pub fn for_lisa(mut self) -> Self {
        self.allowed.retain(|m| !m.synthesises_points());
        self
    }

    /// How many model builds so far chose each method, in
    /// [`Method::all`] order.
    pub fn chosen_counts(&self) -> [(Method, usize); 7] {
        Method::all().map(|m| (m, self.chosen[m.one_hot_index()].load(Ordering::Relaxed)))
    }

    /// The system configuration.
    pub fn config(&self) -> &ElsiConfig {
        &self.cfg
    }

    /// Line 3 for the sorted partition `keys`. Only the learned selector
    /// reads `dist(D_U, D)`, so only it pays for the O(n) pass.
    fn pick_method(&self, keys: &[f64], input_seed: u64) -> Method {
        match &self.choice {
            MethodChoice::Fixed(m) => {
                if self.allowed.contains(m) {
                    *m
                } else {
                    Method::Og
                }
            }
            MethodChoice::Learned(scorer) => {
                let dist_u = dist_from_uniform(keys);
                scorer.select(
                    keys.len(),
                    dist_u,
                    self.cfg.lambda,
                    self.cfg.w_q,
                    &self.allowed,
                )
            }
            MethodChoice::Random(root) => {
                // A per-build selector seeded from (root, partition seed)
                // keeps the choice a pure function of the partition.
                let mixed = root ^ input_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                RandomSelector::new(mixed).select(&self.allowed)
            }
        }
    }
}

impl ModelBuilder for ElsiBuilder {
    fn build_model(&self, input: &BuildInput<'_>) -> BuiltModel {
        // Line 3: select the method. The learned scorer's invocation costs
        // M(1) + O(n) — the O(n) is dist(D_U, D) over the sorted keys.
        let (method, select_time) = timed(|| self.pick_method(input.keys, input.seed));
        if let Some(count) = self.chosen.get(method.one_hot_index()) {
            count.fetch_add(1, Ordering::Relaxed);
        }

        // Line 4: compute D_S.
        let ((reduction, reduce_work), reduce_elapsed) =
            timed(|| reduce(method, input, &self.cfg, &self.mr_pool));

        // Lines 5–6: train on D_S, bound over D.
        let mut built = match reduction {
            Reduction::TrainingSet(keys) => build_on_training_set(
                &keys,
                input.keys,
                self.cfg.hidden,
                &self.cfg.train,
                self.cfg.seed ^ input.seed,
                method.name(),
            ),
            Reduction::Pretrained(ffn) => {
                let (name, f) = (method.name(), RankFn::Ffn(ffn));
                BuiltModel::bound(f, input.keys, input.seed, name, 0, Duration::ZERO)
            }
        };
        built.stats.reduce_time = select_time + reduce_elapsed;
        built.stats.reduce_work = reduce_work;
        built
    }

    fn name(&self) -> &'static str {
        match &self.choice {
            MethodChoice::Fixed(m) => m.name(),
            MethodChoice::Learned(_) => "ELSI",
            MethodChoice::Random(_) => "Rand",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::skewed;
    use elsi_indices::Bracket;
    use elsi_spatial::{sort_by_key, MortonMapper, Point};

    type Sorted = (Vec<Point>, Vec<f64>);

    fn setup() -> (Sorted, ElsiConfig, Arc<MrPool>) {
        let cfg = ElsiConfig::fast_test();
        let pool = Arc::new(MrPool::generate(&cfg, 1));
        let data = sort_by_key(&skewed(3000, 4, 5), &MortonMapper);
        (data, cfg, pool)
    }

    fn input_of((sorted, sorted_keys): &Sorted) -> BuildInput<'_> {
        BuildInput {
            points: sorted,
            keys: sorted_keys,
            mapper: &MortonMapper,
            seed: 9,
        }
    }

    #[test]
    fn every_fixed_method_yields_correct_point_lookup() {
        let (data, cfg, pool) = setup();
        for m in Method::pool() {
            let builder = ElsiBuilder::fixed(m, cfg.clone(), Arc::clone(&pool));
            let built = builder.build_model(&input_of(&data));
            assert_eq!(built.stats.method, m.name());
            // Algorithm 1's error bounds guarantee point-query correctness
            // regardless of the reduction method.
            for (i, &k) in data.1.iter().enumerate().step_by(97) {
                let Bracket { lo, hi, .. } = built.model.search_range(k);
                assert!(lo <= i && i < hi, "{m}: rank {i} outside [{lo},{hi})");
            }
        }
    }

    #[test]
    fn reduced_methods_train_on_fewer_points() {
        let (data, cfg, pool) = setup();
        for m in [Method::Sp, Method::Cl, Method::Rs, Method::Rl] {
            let builder = ElsiBuilder::fixed(m, cfg.clone(), Arc::clone(&pool));
            let built = builder.build_model(&input_of(&data));
            assert!(
                built.stats.training_set_size < data.0.len(),
                "{m}: trained on {} of {}",
                built.stats.training_set_size,
                data.0.len()
            );
        }
        // MR reuses a model: no online training at all.
        let builder = ElsiBuilder::fixed(Method::Mr, cfg.clone(), Arc::clone(&pool));
        let built = builder.build_model(&input_of(&data));
        assert_eq!(built.stats.training_set_size, 0);
        assert_eq!(built.stats.train_time, Duration::ZERO);
    }

    #[test]
    fn lisa_mask_removes_synthesising_methods() {
        let (data, cfg, pool) = setup();
        let builder = ElsiBuilder::fixed(Method::Cl, cfg.clone(), Arc::clone(&pool)).for_lisa();
        let built = builder.build_model(&input_of(&data));
        // CL is not allowed for LISA; the builder falls back to OG.
        assert_eq!(built.stats.method, "OG");
        let chosen: Vec<_> = builder
            .chosen_counts()
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .collect();
        assert_eq!(chosen, vec![(Method::Og, 1)]);
    }

    #[test]
    fn random_builder_records_choices() {
        let (data, cfg, pool) = setup();
        let builder = ElsiBuilder::random(5, cfg, pool);
        for _ in 0..4 {
            builder.build_model(&input_of(&data));
        }
        let counts = builder.chosen_counts();
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<usize>(), 4);
        assert!(counts
            .iter()
            .all(|&(m, c)| c == 0 || Method::pool().contains(&m)));
    }

    #[test]
    fn builder_names() {
        let (_, cfg, pool) = setup();
        assert_eq!(
            ElsiBuilder::fixed(Method::Rs, cfg.clone(), Arc::clone(&pool)).name(),
            "RS"
        );
        assert_eq!(ElsiBuilder::random(1, cfg, pool).name(), "Rand");
    }
}
