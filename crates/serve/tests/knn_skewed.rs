//! The single-pass cross-shard kNN merge on the deployment the benchmark
//! runs: a 4×4 `ShardedIndex<ZmIndex>` behind `Router::fit_sampled`, over skewed data,
//! where quantile-cut shards are thin slivers in the dense regions and a
//! query's ball reaches into several of them. Results must be
//! *bit-identical* to a monolithic ZM over the same points and to the
//! brute-force oracle — built, dirty after a journaled ingest, and
//! recovered from the journal.

#[path = "../../../tests/support/mod.rs"]
mod support;

use elsi::{Elsi, ElsiConfig};
use elsi_data::gen;
use elsi_indices::{SpatialIndex, ZmIndex};
use elsi_serve::{zm_codec, Router, ShardedConfig, ShardedIndex};
use elsi_spatial::Point;
use elsi_store::StoreError;
use support::*;

/// Queries in the dense band, in the sparse bulk, on the corners and
/// outside the unit square; `k` from one shard's worth to more than all —
/// at 1 000, the benchmark's read-wide `k`, a third of the points and
/// several shards' worth, each later shard asked within the running k-th
/// distance. Lookups of every tenth live point and ten windows besides.
fn queries(live: &[Point]) -> Queries {
    let fixed = [
        0.5, 0.001, 0.0, 0.0, 1.0, 1.0, 0.31, 0.97, -0.2, 0.4, 1.3, 1.1,
    ];
    let fixed = fixed.chunks(2).map(|c| Point::at(c[0], c[1]));
    let knn = gen::knn_queries(live, 24, 5).into_iter().chain(fixed);
    let ks = vec![1, 25, 400, 1_000, live.len(), live.len() + 5];
    Queries {
        points: live.iter().step_by(10).copied().collect(),
        windows: gen::window_queries(live, 10, 0.004, 5),
        ..Queries::knn(knn, ks)
    }
}

#[test]
fn learned_4x4_zm_matches_monolith_and_oracle_through_a_journaled_ingest() -> Result<(), StoreError>
{
    let dir = std::env::temp_dir().join(format!("elsi_knn_skewed_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let elsi = Elsi::new(ElsiConfig::fast_test());
    // y = u⁴: three quarters of the mass below y = 0.32.
    let points = gen::skewed(3_000, 4, 21);
    let deploy = || {
        let router = Router::fit_sampled(&points, 4, 4);
        ShardedIndex::zm(points.clone(), router, &ShardedConfig::default(), &elsi)
    };
    let updates = elsi_data::stream::churn(&points, 900, 0.6, 8);
    let (built, dirty) = (Oracle::new(&points), Oracle::after(&points, &updates));
    let monolith =
        |stream| Zoo::new(8, elsi.builder()).subject(Kind::Zm, State::Dirty, &points, stream);
    let stage = |sharded: Box<dyn SpatialIndex>, monolith: &Subject, oracle: &Oracle| {
        let qs = queries(oracle.live());
        check(
            &Subject::new(Kind::Zm, State::Sharded(Cuts::Fitted, 4, 4), sharded),
            oracle,
            &qs,
        );
        check(monolith, oracle, &qs);
    };
    stage(Box::new(deploy()), &monolith(&[]), &built);

    // Journal a churn wave through the saved generation's WALs.
    let (mut sharded, monolith) = (deploy(), monolith(&updates));
    sharded.save(&dir, &zm_codec())?;
    sharded.par_apply_updates(&updates);
    stage(Box::new(sharded), &monolith, &dirty);

    // Crash, replay the journal, ask again.
    let recovered = ShardedIndex::<ZmIndex>::open_zm(&dir, &elsi)?;
    stage(Box::new(recovered), &monolith, &dirty);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
