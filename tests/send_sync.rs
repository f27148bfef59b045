//! Compile-time thread-safety guarantees.
//!
//! Parallel index builds share one `ElsiBuilder` (and its MR pool and
//! scorer) across rayon worker threads, and parallel batch queries share
//! the built indices. These assertions fail to *compile* if any of those
//! types loses `Send + Sync`, so a regression cannot reach the test run.

use elsi::{DeltaOverlay, Elsi, ElsiBuilder, MethodChoice, MethodScorer, MrPool, UpdateProcessor};
use elsi_indices::{
    FloodIndex, GridIndex, HrrIndex, KdbIndex, LisaIndex, MlIndex, ModelBuilder, RStarIndex,
    RsmiIndex, SpatialIndex, ZmIndex,
};

fn assert_send_sync<T: Send + Sync + ?Sized>() {}

#[test]
fn elsi_core_types_are_send_sync() {
    assert_send_sync::<Elsi>();
    assert_send_sync::<ElsiBuilder>();
    assert_send_sync::<MethodChoice>();
    assert_send_sync::<MrPool>();
    assert_send_sync::<MethodScorer>();
}

#[test]
fn model_builders_are_shareable_across_threads() {
    // `ModelBuilder: Send + Sync` is a supertrait contract, so the trait
    // object itself is shareable — this is what lets a `&dyn ModelBuilder`
    // cross into rayon workers during a parallel build.
    assert_send_sync::<dyn ModelBuilder>();
    assert_send_sync::<Box<dyn ModelBuilder>>();
    assert_send_sync::<elsi_indices::OgBuilder>();
    assert_send_sync::<elsi_indices::PwlBuilder>();
}

#[test]
fn all_indices_are_send_sync() {
    assert_send_sync::<ZmIndex>();
    assert_send_sync::<MlIndex>();
    assert_send_sync::<RsmiIndex>();
    assert_send_sync::<LisaIndex>();
    assert_send_sync::<GridIndex>();
    assert_send_sync::<KdbIndex>();
    assert_send_sync::<HrrIndex>();
    assert_send_sync::<RStarIndex>();
    assert_send_sync::<FloodIndex>();
}

#[test]
fn update_wrappers_are_send_sync() {
    assert_send_sync::<DeltaOverlay<GridIndex>>();
    assert_send_sync::<DeltaOverlay<ZmIndex>>();
    assert_send_sync::<UpdateProcessor<GridIndex>>();
    // Boxed dynamic indices as used by the CLI and harness.
    assert_send_sync::<Box<dyn SpatialIndex>>();
}

#[test]
fn ml_primitives_are_send_sync() {
    assert_send_sync::<elsi_ml::Ffn>();
    assert_send_sync::<elsi_ml::TrainConfig>();
}
