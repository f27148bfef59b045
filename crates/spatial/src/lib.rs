//! # elsi-spatial
//!
//! Spatial substrate for the ELSI reproduction (*Efficiently Learning
//! Spatial Indices*, ICDE 2023): geometry primitives, space-filling curves,
//! the key mappers of the four base indices, space partitioning, the
//! mapped-and-sorted storage layout, and block (data page) storage.
//!
//! Module → paper concept:
//!
//! * [`point`] — points and rectangles of the unit-square data space,
//!   with the MINDIST lower bound kNN pruning relies on.
//! * [`curve`] — Z-order and Hilbert encodings behind the *map* step of
//!   the map-and-sort paradigm (§III); all float→grid conversion goes
//!   through the checked helpers in `curve::convert`.
//! * [`mapping`] — the per-index [`KeyMapper`]s (ZM's Morton key, LISA's
//!   Lebesgue measure, ML-Index's iDistance, …): point → 1-D key in
//!   `[0, 1]`, the domain on which Def. 2 similarity of two data sets is
//!   computed (as KS distance between mapped-key CDFs, see `elsi-data`).
//! * [`partition`] — the uniform grid of the RL method's state.
//! * [`sorted`] / [`block`] — the *sort* step ([`sort_by_key`]), the sorted
//!   columns it is stored in and the block (data page) layout the
//!   predict-and-scan queries hit.
//! * [`order`] — total orderings for float keys: NaN-safe sort comparators
//!   and the canonical `(dist², id)` kNN order every producer shares.
//! * [`scan`] — branchless 4-wide SoA scan kernels (window, exact lookup,
//!   kNN candidates gathered into a bounded pool) behind every
//!   predict-and-scan query hot path.
//!
//! This crate is dependency-free and deterministic; everything above it
//! (`elsi-indices`, `elsi` itself) builds on these types.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod block;
pub mod curve;
pub mod mapping;
pub mod order;
pub mod partition;
pub mod point;
pub mod scan;
pub mod sorted;

pub use block::{Block, DEFAULT_BLOCK_SIZE};
pub use mapping::{HilbertMapper, IDistanceMapper, KeyMapper, LisaMapper, MortonMapper};
pub use order::{
    by_f64_key, canonical_knn_cmp, canonical_point_key, last_per_id, sort_canonical, z_order,
};
pub use partition::UniformGrid;
pub use point::{Point, Rect};
pub use scan::{contains_scan, knn_scan, range_scan_into, KnnEntry, KnnHeap, ScanScratch};
pub use sorted::{sort_by_key, MappedData};
