//! # elsi-indices
//!
//! The eight spatial indices of the ELSI evaluation, all built from scratch:
//!
//! * **Learned** (map-and-sort / predict-and-scan, ELSI-compatible):
//!   [`zm::ZmIndex`], [`mlindex::MlIndex`], [`rsmi::RsmiIndex`],
//!   [`lisa::LisaIndex`]. Each trains every internal model through a
//!   pluggable [`model::ModelBuilder`] — handing an `ElsiBuilder` from the
//!   `elsi` crate yields the paper's `-F` variants.
//! * **Traditional** competitors: [`grid::GridIndex`], [`kdb::KdbIndex`],
//!   [`hrr::HrrIndex`], [`rstar::RStarIndex`].
//!
//! All implement [`traits::SpatialIndex`] (point / window / kNN queries,
//! inserts, deletes) so the benchmark harness sweeps them uniformly.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod flood;
pub mod grid;
pub mod hrr;
pub mod kdb;
pub(crate) mod leaf;
pub mod lisa;
pub mod mlindex;
pub mod model;
pub mod persist;
pub mod rsmi;
pub mod rstar;
pub(crate) mod rtree;
pub mod timing;
pub mod traits;
pub mod zm;

pub use flood::{FloodConfig, FloodIndex};
pub use grid::{GridConfig, GridIndex};
pub use hrr::{HrrConfig, HrrIndex};
pub use kdb::{KdbConfig, KdbIndex};
pub use lisa::{LisaConfig, LisaIndex};
pub use mlindex::{MlConfig, MlIndex};
pub use model::{
    build_on_training_set, equal_key_run, locate_lower, Bracket, BuildInput, BuildStats,
    BuiltModel, ModelBuilder, OgBuilder, PwlBuilder, RankFn, RankModel,
};
pub use rsmi::{RsmiConfig, RsmiIndex};
pub use rstar::{RStarConfig, RStarIndex};
pub use timing::{timed, timed_secs};
pub use traits::SpatialIndex;
pub use zm::{ZmConfig, ZmIndex, ZmStateCodec};
