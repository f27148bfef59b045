//! The single-pass cross-shard kNN merge on the deployment the benchmark
//! runs: a 4×4 `ShardedIndex<ZmIndex, LearnedRouter>` over skewed data,
//! where quantile-cut shards are thin slivers in the dense regions and a
//! query's ball reaches into several of them. Results must be
//! *bit-identical* to a monolithic ZM over the same points and to the
//! brute-force oracle — built, dirty after a journaled ingest, and
//! recovered from the journal.

use elsi::{DeltaOverlay, Elsi, ElsiConfig};
use elsi_data::stream::{churn, Update};
use elsi_indices::{SpatialIndex, ZmConfig, ZmIndex};
use elsi_serve::{canonical_knn_cmp, zm_codec, LearnedRouter, ShardedConfig, ShardedIndex};
use elsi_spatial::Point;
use elsi_store::StoreError;

fn oracle_knn(live: &[Point], q: Point, k: usize) -> Vec<Point> {
    let mut out = live.to_vec();
    out.sort_by(|a, b| canonical_knn_cmp(q, a, b));
    out.truncate(k);
    out
}

/// Queries in the dense band, in the sparse bulk, on the corners and
/// outside the unit square; `k` from one shard's worth to more than all —
/// at 1 000, the benchmark's read-wide `k`, a third of the points and
/// several shards' worth, each later shard asked within the running k-th
/// distance.
fn assert_matches(
    sharded: &impl SpatialIndex,
    monolith: &impl SpatialIndex,
    live: &[Point],
    stage: &str,
) {
    let mut queries = elsi_data::gen::knn_queries(live, 24, 5);
    queries.extend([
        Point::at(0.5, 0.001),
        Point::at(0.0, 0.0),
        Point::at(1.0, 1.0),
        Point::at(0.31, 0.97),
        Point::at(-0.2, 0.4),
        Point::at(1.3, 1.1),
    ]);
    for q in queries {
        for k in [1, 25, 400, 1_000, live.len(), live.len() + 5] {
            let want = oracle_knn(live, q, k);
            assert_eq!(
                sharded.knn_query(q, k),
                want,
                "{stage}: sharded q={q:?} k={k}"
            );
            assert_eq!(
                monolith.knn_query(q, k),
                want,
                "{stage}: monolith q={q:?} k={k}"
            );
        }
    }
}

#[test]
fn learned_4x4_zm_matches_monolith_and_oracle_through_a_journaled_ingest() -> Result<(), StoreError>
{
    let dir = std::env::temp_dir().join(format!("elsi_knn_skewed_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let elsi = Elsi::new(ElsiConfig::fast_test());
    // y = u⁴: three quarters of the mass below y = 0.32.
    let points = elsi_data::gen::skewed(3_000, 4, 21);
    let cfg = ShardedConfig::grid(4, 4);
    let router = LearnedRouter::fit_sampled(&points, 4, 4);
    let mut sharded = ShardedIndex::zm(points.clone(), router, &cfg, &elsi);
    let mut monolith = DeltaOverlay::new(ZmIndex::build(
        points.clone(),
        &ZmConfig::default(),
        &elsi.builder(),
    ));
    assert_matches(&sharded, &monolith, &points, "built");

    // Journal a churn wave through the saved generation's WALs.
    sharded.save(&dir, &zm_codec())?;
    let updates = churn(&points, 900, 0.6, 8);
    sharded.par_apply_updates(&updates);
    monolith.ingest_batch(&updates);
    let mut live = points;
    for u in &updates {
        match u {
            Update::Insert(p) => live.push(*p),
            Update::Delete(p) => live.retain(|l| l.id != p.id),
        }
    }
    assert_eq!(sharded.len(), live.len());
    assert_matches(&sharded, &monolith, &live, "dirty");

    // Crash, replay the journal, ask again.
    drop(sharded);
    let recovered = ShardedIndex::<ZmIndex, LearnedRouter>::open_zm(&dir, &elsi)?;
    assert_matches(&recovered, &monolith, &live, "recovered");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
