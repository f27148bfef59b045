//! # ELSI — Efficiently Learning Spatial Indices
//!
//! A from-scratch Rust reproduction of *“Efficiently Learning Spatial
//! Indices”* (Liu, Qi, Jensen, Bailey, Kulik — ICDE 2023).
//!
//! ELSI accelerates the building and rebuilding of learned spatial indices
//! that follow the **map-and-sort** index paradigm and the
//! **predict-and-scan** query paradigm. Instead of training an index model
//! on the full data set `D`, ELSI engineers a much smaller,
//! distribution-preserving training set `D_S`, trains on it, and derives
//! empirical error bounds over `D` — cutting build times by one to two
//! orders of magnitude at essentially unchanged query efficiency.
//!
//! ```no_run
//! use elsi::{Elsi, ElsiConfig};
//! use elsi_indices::{SpatialIndex, ZmConfig, ZmIndex};
//!
//! let points = elsi_data::gen::osm1_like(100_000, 42);
//! let elsi = Elsi::new(ElsiConfig::default());
//! // ZM-F: the ZM index built through the ELSI build processor.
//! let index = ZmIndex::build(points, &ZmConfig::default(), &elsi.builder());
//! assert!(index.len() > 0);
//! ```
//!
//! The crate mirrors the paper's architecture (Fig. 3), one module per
//! component:
//!
//! * [`build`] — [`build::ElsiBuilder`], the build processor
//!   (Algorithm 1: select method → shrink training set → train → derive
//!   empirical error bounds over the full partition).
//! * [`methods`] — the index building method pool (§V: SP/RSP/CL/MR/RS/RL
//!   plus OG), each producing a training set similar to `D` in the
//!   Def. 2 sense (KS distance between mapped-key CDFs).
//! * [`scorer`] — the method scorer and selector (§IV-B1, Fig. 4): two
//!   cost FFNs over (method, cardinality, `dist(D_U, D)`), combined by
//!   Eq. 2; `measure_method_costs` counts its training data.
//! * [`update`] — the update processor (§IV-B2): the
//!   [`update::DeltaOverlay`] delta layer and the
//!   [`update::UpdateProcessor`] lifecycle around a base index.
//! * [`rebuild`] — the rebuild predictor (§IV-B2): FFN (or threshold)
//!   policies over drift/ratio/depth features.
//! * [`cost`] — the build-cost decomposition of §VI (Table I).
//! * [`zoo`] — the nine index kinds of the evaluation and how each is
//!   configured at size n ([`IndexKind::build`]).
//! * [`persist`] — durable snapshots of the update lifecycle and the
//!   journal's record payload (`DESIGN.md` §14): crash recovery restores a
//!   processor from its last snapshot, and the deployment that owns it
//!   replays its journaled calls through `apply_batch`.
//! * [`config`] / [`sync`] — tuning knobs and the workspace's sanctioned
//!   lock helper (`lock_unpoisoned`; see `DESIGN.md` §7).
//!
//! Sharded serving over many `UpdateProcessor`s lives one layer up, in
//! `elsi-serve` (`DESIGN.md` §9).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod build;
pub mod config;
pub mod cost;
mod drift;
pub mod methods;
mod overlay;
pub mod persist;
pub mod rebuild;
pub mod scorer;
pub mod sync;
pub mod update;
pub mod zoo;

pub use build::{ElsiBuilder, MethodChoice};
pub use config::ElsiConfig;
pub use cost::CostDecomposition;
pub use methods::{Method, MrPool, Reduction};
pub use persist::{decode_updates, encode_updates, OverlayCodec};
pub use rebuild::{RebuildFeatures, RebuildPolicy, RebuildPredictor, RebuildSample};
pub use scorer::{AltSelector, MethodCosts, MethodScorer, RandomSelector, ScorerSample};
pub use sync::lock_unpoisoned;
pub use update::{
    BatchOutcome, DeltaOverlay, DriftTracker, RebuildFn, Update, UpdateOutcome, UpdateProcessor,
};
pub use zoo::IndexKind;

use std::sync::Arc;

/// The ELSI system facade: owns the (offline-prepared) MR model pool and
/// the trained method scorer, and hands out build processors.
pub struct Elsi {
    cfg: ElsiConfig,
    mr_pool: Arc<MrPool>,
    scorer: Option<Arc<MethodScorer>>,
}

impl Elsi {
    /// Creates the system, running the MR pre-training (part of "ELSI
    /// preparation", an offline one-off task — §VII-B2).
    pub fn new(cfg: ElsiConfig) -> Self {
        let mr_pool = Arc::new(MrPool::generate(&cfg, cfg.seed));
        Self {
            cfg,
            mr_pool,
            scorer: None,
        }
    }

    /// Creates the system around an already generated MR pool — cheap, for
    /// rebuild paths that must not re-run the offline preparation.
    pub fn with_pool(cfg: ElsiConfig, mr_pool: Arc<MrPool>) -> Self {
        Self {
            cfg,
            mr_pool,
            scorer: None,
        }
    }

    /// A copy of this system with a different cost-balance λ, sharing the
    /// prepared MR pool and scorer (λ only affects method selection).
    pub fn with_lambda(&self, lambda: f64) -> Elsi {
        let mut cfg = self.cfg.clone();
        cfg.lambda = lambda;
        Elsi {
            cfg,
            mr_pool: Arc::clone(&self.mr_pool),
            scorer: self.scorer.clone(),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &ElsiConfig {
        &self.cfg
    }

    /// The MR pre-trained model pool.
    pub fn mr_pool(&self) -> Arc<MrPool> {
        Arc::clone(&self.mr_pool)
    }

    /// Runs the remaining ELSI preparation: counts per-method build and
    /// query work over generated data sets (`sizes` × `skews`) and trains
    /// the method scorer on them. Grid cells run in parallel on the rayon
    /// pool ([`scorer::measure_method_costs`]); every cost is counted from
    /// a per-cell seed, so the costs, the trained scorer and its
    /// selections are the same on every run and at any thread count.
    pub fn prepare_scorer(
        &mut self,
        sizes: &[usize],
        skews: &[i32],
        seed: u64,
    ) -> Vec<MethodCosts> {
        let costs = scorer::measure_method_costs(
            sizes,
            skews,
            &Method::pool(),
            &self.cfg,
            &self.mr_pool,
            seed,
        );
        let samples = scorer::samples_from_costs(&costs);
        self.scorer = Some(Arc::new(MethodScorer::train(&samples, seed)));
        costs
    }

    /// The trained scorer, if preparation has run.
    pub fn scorer(&self) -> Option<Arc<MethodScorer>> {
        self.scorer.clone()
    }

    /// The build processor: learned selection when the scorer is prepared,
    /// otherwise the RS method (the paper's strongest fixed default).
    pub fn builder(&self) -> ElsiBuilder {
        match &self.scorer {
            Some(s) => ElsiBuilder::learned(Arc::clone(s), self.cfg.clone(), self.mr_pool()),
            None => ElsiBuilder::fixed(Method::Rs, self.cfg.clone(), self.mr_pool()),
        }
    }

    /// A build processor pinned to one method (Fig. 7 / Table II rows).
    pub fn fixed_builder(&self, method: Method) -> ElsiBuilder {
        ElsiBuilder::fixed(method, self.cfg.clone(), self.mr_pool())
    }

    /// The random-selector ablation (Table II's "Rand").
    pub fn random_builder(&self, seed: u64) -> ElsiBuilder {
        ElsiBuilder::random(seed, self.cfg.clone(), self.mr_pool())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_indices::{ModelBuilder, SpatialIndex, ZmConfig, ZmIndex};

    #[test]
    fn facade_builds_a_working_index() {
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let pts = elsi_data::gen::uniform(2000, 1);
        let idx = ZmIndex::build(pts.clone(), &ZmConfig { fanout: 2 }, &elsi.builder());
        assert_eq!(idx.len(), 2000);
        for p in pts.iter().step_by(41) {
            assert!(idx.point_query(*p).is_some());
        }
    }

    #[test]
    fn prepare_scorer_enables_learned_selection() {
        let mut cfg = ElsiConfig::fast_test();
        cfg.train.epochs = 20;
        let mut elsi = Elsi::new(cfg);
        assert!(elsi.scorer().is_none());
        let costs = elsi.prepare_scorer(&[400], &[1, 8], 3);
        assert!(!costs.is_empty());
        assert!(elsi.scorer().is_some());
        assert_eq!(elsi.builder().name(), "ELSI");
    }

    #[test]
    fn fixed_and_random_builders() {
        let elsi = Elsi::new(ElsiConfig::fast_test());
        assert_eq!(elsi.fixed_builder(Method::Sp).name(), "SP");
        assert_eq!(elsi.random_builder(1).name(), "Rand");
    }
}
