//! # elsi-data
//!
//! Workload substrate of the ELSI reproduction: seeded generators for the
//! six evaluation data sets (with simulated stand-ins for the four real
//! sets — see `DESIGN.md` §3), data-distributed query workloads, empirical
//! CDFs, the Kolmogorov-Smirnov similarity of Definition 2 with the paper's
//! `O(n_S log n)` algorithm, and systematic/random sampling.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod catalog;
pub mod cdf;
pub mod gen;
pub mod io;
pub mod sample;
pub mod stream;

pub use catalog::Dataset;
pub use cdf::{dist_from_uniform, ks_distance, similarity, DEFAULT_SKETCH_BINS};
pub use gen::{
    gaussian_mixture, knn_queries, nyc_like, osm1_like, osm2_like, skewed, tpch_like, uniform,
    window_queries, ClusterSpec,
};
pub use sample::{gather, random_indices, systematic_indices};
pub use stream::{churn, moving_hotspot_insertions, skewed_insertions, Update, INSERT_ID_BASE};
