//! Sharded serving end to end: build a 2×2 ZM-F deployment, run batched
//! queries, pour an update hotspot onto one shard and watch only that
//! shard rebuild. (The README "Serving" section walks through this file.)
//!
//! Run with: `cargo run --release -p elsi-serve --example sharded_serving`

use elsi::{Elsi, ElsiConfig};
use elsi_data::stream::Update;
use elsi_indices::SpatialIndex;
use elsi_serve::{Router, ShardedConfig, ShardedIndex};
use elsi_spatial::Point;

fn main() {
    // One ELSI system, shared by every shard's (re)build.
    let elsi = Elsi::new(ElsiConfig::fast_test());
    let points = elsi_data::gen::osm1_like(20_000, 42);

    // 2×2 grid: four independent UpdateProcessor<DeltaOverlay<ZmIndex>>
    // shards, built in parallel with per-shard deterministic seeds.
    let mut sharded = ShardedIndex::zm(points, Router::new(2, 2), &ShardedConfig::default(), &elsi);
    println!(
        "built {} shards, {} points total",
        sharded.num_shards(),
        sharded.len()
    );

    // Batched queries fan out on the rayon pool; the cross-shard kNN
    // merge is exact (DESIGN.md §9).
    let queries: Vec<Point> = elsi_data::gen::uniform(1_000, 7);
    let answers = sharded.par_knn_queries(&queries, 10);
    println!("batched kNN: {} queries answered", answers.len());
    let nearest = &answers[0][0];
    println!(
        "nearest to ({:.3}, {:.3}): id {} at ({:.3}, {:.3})",
        queries[0].x, queries[0].y, nearest.id, nearest.x, nearest.y
    );

    // A check-in hotspot lands on shard 0 only (all points near the
    // origin). The router sends every update there; the other three
    // shards never rebuild — that is the point of sharding ELSI.
    let hotspot: Vec<Update> = (0..15_000)
        .map(|i| {
            let t = i as f64 / 15_000.0;
            Update::Insert(Point::new(
                1_000_000 + i as u64,
                0.05 + 0.1 * t,
                0.05 + 0.1 * t,
            ))
        })
        .collect();
    let rebuilds = sharded.par_apply_updates(&hotspot);
    println!("hotspot applied: {rebuilds} shard rebuild(s)");
    for s in sharded.shard_stats() {
        println!(
            "  shard {}: {} live, {} pending, {} in delta, {} rebuilds",
            s.shard, s.live_len, s.pending_updates, s.delta_len, s.rebuilds
        );
    }
}
