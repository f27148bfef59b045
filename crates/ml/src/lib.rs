//! # elsi-ml
//!
//! The machine-learning substrate of the ELSI reproduction. The paper runs
//! all of its models — per-index rank predictors, the method scorer, the
//! rebuild predictor and the RL method's DQN — as small FFNs on PyTorch;
//! this crate replaces that stack with a deterministic, CPU-only
//! implementation (see `DESIGN.md` §3 for the substitution argument), and
//! adds the CART/random-forest baselines of Figure 6(b) plus the k-means
//! used by the CL building method.
//!
//! Module → paper concept:
//!
//! * [`ffn`] / [`adam`] / [`train`] — the FFN `M` and its training loop
//!   `T(n_S)` of the cost model (§VI): rank models inside every learned
//!   index, the method scorer's two cost nets, the rebuild predictor.
//!   Allocation-free kernels; see `DESIGN.md` §8.
//! * [`dqn`] — the RL building method's Q-network (§V-B2: η×η grid
//!   state, reward = reduction of the Def. 2 distance to the target CDF).
//! * [`mod@kmeans`] — the CL building method's centroid construction (§V-A2).
//! * [`tree`] / [`forest`] — the CART / random-forest baselines the
//!   method selector is compared against in Fig. 6(b).
//! * [`pwl`] — the ε-bounded piecewise-linear model family (an extra
//!   `ModelBuilder`, beyond the paper's FFN-only stack).
//!
//! Everything is seeded: identical inputs and seeds produce identical
//! models, which the test suite relies on.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adam;
pub mod dqn;
pub mod ffn;
pub mod forest;
pub mod kmeans;
pub mod pwl;
pub mod train;
pub mod tree;

pub use adam::Adam;
pub use dqn::{Dqn, DqnConfig, ReplayBuffer, Transition};
pub use ffn::{Batch, Ffn};
pub use forest::{ForestConfig, RandomForest};
pub use kmeans::{kmeans, KMeansResult};
pub use pwl::PwlModel;
pub use train::{
    train_rank_model, train_rank_model_in, train_regression, TrainConfig, TrainReport,
};
pub use tree::{DecisionTree, TreeConfig};
