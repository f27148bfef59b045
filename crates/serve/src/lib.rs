//! # elsi-serve — sharded serving on top of ELSI
//!
//! The paper's pitch (§I, Fig. 1) is that cheap (re)builds let a learned
//! spatial index keep up with heavy update traffic — "check-ins from
//! millions of users". This crate supplies the serving topology that pitch
//! implies: the unit square is partitioned into an R×C grid of **shards**,
//! each shard is a full, independent ELSI update lifecycle
//! (`UpdateProcessor<DeltaOverlay<_>>` — delta layer, drift tracking,
//! rebuild policy, §IV-B2), and a [`Router`] sends every query and update
//! to exactly the shards that can be involved.
//!
//! Mapping to paper concepts:
//!
//! * [`router`] — query routing. The paper's indices answer a query by
//!   *predict-and-scan* inside one model; the router is the layer above,
//!   choosing which shard's model predicts (two binary searches for
//!   points, an overlap set for windows, a MINDIST-pruned frontier for
//!   kNN). One [`Router`] routes through per-axis cuts, and two
//!   constructors place them: [`Router::new`] uniformly — at the exact
//!   boundaries of the grid arithmetic `(v * n) as usize` — and
//!   [`Router::fit`] at equi-mass quantiles read off per-axis empirical
//!   CDF models (`elsi_ml::PwlModel`), keeping shard occupancy balanced
//!   under skew (`DESIGN.md` §13).
//! * [`persist`] — durable serving directories (`DESIGN.md` §14): one
//!   manifest, per-shard snapshots and one deployment journal, written
//!   generationally so a crash at any byte leaves a recoverable directory.
//!   Each write call is one journal record, appended before any shard
//!   mutates; [`sharded::ShardedIndex::save`] starts a fresh journal;
//!   `open` restores the router *without refitting* and every shard in
//!   parallel from its snapshot plus its share of the journaled calls.
//! * [`sharded`] — [`sharded::ShardedIndex`] owns the per-shard update
//!   processors, builds them in parallel on the rayon pool with per-shard
//!   deterministic seeds (the same seeding discipline as the method
//!   scorer's `measure_method_costs`), and merges cross-shard kNN results
//!   exactly (proof sketch in `DESIGN.md` §9). Each shard reuses the
//!   existing rebuild predictor / policy machinery unchanged — sharding
//!   multiplies the paper's build-time savings by the shard count, because
//!   a hotspot rebuilds one shard, not the world.
//!
//! `elsi-serve` sits *above* `elsi` (it consumes `UpdateProcessor` and
//! `DeltaOverlay`), so `elsi` cannot re-export it: depend on it directly.
//!
//! ```no_run
//! use elsi::{Elsi, ElsiConfig};
//! use elsi_indices::SpatialIndex;
//! use elsi_serve::{Router, ShardedConfig, ShardedIndex};
//!
//! let points = elsi_data::gen::osm1_like(100_000, 42);
//! let elsi = Elsi::new(ElsiConfig::default());
//! let sharded =
//!     ShardedIndex::zm(points, Router::new(2, 2), &ShardedConfig::default(), &elsi);
//! let hits = sharded.knn_query(elsi_spatial::Point::at(0.5, 0.5), 10);
//! assert_eq!(hits.len(), 10);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod persist;
pub mod router;
pub mod sharded;

pub use persist::{
    decode_router, encode_router, read_manifest, zm_codec, Manifest, MANIFEST_FORMAT,
    MANIFEST_NAME, SEC_ROUTER,
};
pub use router::{shard_occupancy, Router};
#[doc(hidden)]
pub use router::{GridRouter, LearnedRouter};
pub use sharded::{
    canonical_knn_cmp, canonical_point_key, ShardContext, ShardStats, ShardedConfig, ShardedIndex,
};
