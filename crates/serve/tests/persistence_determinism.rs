//! Durability under sharding: a saved serving directory must be
//! **byte-identical** at any rayon thread count, and recovery must return
//! the same deployment no matter how many threads perform it — under both
//! router constructors. This is the persistence extension of the
//! determinism-under-sharding rules (`DESIGN.md` §9 and §14).
//!
//! Lives in its own integration-test binary (one process) because it
//! reconfigures the global rayon pool; sharing a process with other
//! thread-sweeping tests would race on the pool configuration.

use elsi::{Elsi, ElsiConfig};
use elsi_data::stream::churn;
use elsi_indices::{SpatialIndex, ZmIndex};
use elsi_serve::{zm_codec, Router, ShardStats, ShardedConfig, ShardedIndex};
use elsi_spatial::{Point, Rect};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const THREADS: [usize; 3] = [1, 2, 8];

fn set_threads(n: usize) {
    // The vendored rayon pool is re-callable (last call wins).
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global();
}

fn dir_for(tag: &str, threads: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "elsi_persist_det_{}_{tag}_t{threads}",
        std::process::id()
    ))
}

/// Every file in a serving directory, name → raw bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

type Fingerprint = (usize, Vec<ShardStats>, Vec<Vec<Point>>, Vec<Vec<Point>>);

fn fingerprint(idx: &ShardedIndex<ZmIndex>) -> Fingerprint {
    let windows = [
        Rect::new(0.1, 0.1, 0.6, 0.6),
        Rect::new(0.45, 0.0, 0.55, 1.0), // straddles shard boundaries
    ];
    let probes: Vec<Point> = elsi_data::gen::uniform(16, 77);
    (
        idx.len(),
        idx.shard_stats(),
        idx.par_window_queries(&windows),
        idx.par_knn_queries(&probes, 7),
    )
}

/// Builds a deployment behind the router `fit` returns, saves it, journals
/// a churn wave through the saved generation's journal, crashes and recovers
/// it. Returns the directory image plus the live (dirty) and recovered
/// fingerprints.
fn lifecycle(
    fit: fn(&[Point]) -> Router,
    tag: &str,
    threads: usize,
) -> (BTreeMap<String, Vec<u8>>, Fingerprint, Fingerprint) {
    let dir = dir_for(tag, threads);
    std::fs::remove_dir_all(&dir).ok();
    let elsi = Elsi::new(ElsiConfig::fast_test());
    let points = elsi_data::gen::osm1_like(2_000, 33);
    let updates = churn(&points, 400, 0.7, 7);
    let router = fit(&points);
    let mut deployed = ShardedIndex::zm(points, router, &ShardedConfig::default(), &elsi);
    deployed.save(&dir, &zm_codec()).unwrap();
    deployed.par_apply_updates(&updates);
    let live = fingerprint(&deployed);
    drop(deployed); // crash: the checkpoint is never rewritten
    let image = dir_bytes(&dir);
    let recovered = ShardedIndex::open_zm(&dir, &elsi).unwrap();
    let opened = fingerprint(&recovered);
    std::fs::remove_dir_all(&dir).ok();
    (image, live, opened)
}

fn assert_thread_count_invariant(fit: fn(&[Point]) -> Router, tag: &str) {
    set_threads(1);
    let (ref_image, ref_live, ref_opened) = lifecycle(fit, tag, 1);
    assert_eq!(ref_opened, ref_live, "recovery lost the journaled churn");
    for threads in &THREADS[1..] {
        set_threads(*threads);
        let (image, live, opened) = lifecycle(fit, tag, *threads);
        for (name, bytes) in &ref_image {
            assert_eq!(
                Some(bytes),
                image.get(name),
                "{name} differs at {threads} threads"
            );
        }
        assert_eq!(image.len(), ref_image.len(), "file set differs");
        assert_eq!(live, ref_live, "live state diverged at {threads} threads");
        assert_eq!(opened, ref_opened, "recovery diverged at {threads} threads");
    }
    set_threads(0);
}

#[test]
fn grid_router_save_and_recovery_are_thread_count_invariant() {
    assert_thread_count_invariant(|_| Router::new(2, 2), "grid");
}

#[test]
fn learned_router_save_and_recovery_are_thread_count_invariant() {
    assert_thread_count_invariant(|pts| Router::fit_sampled(pts, 2, 2), "learned");
}
