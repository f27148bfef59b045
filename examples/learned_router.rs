//! Learned CDF routing for the sharded serving layer.
//!
//! Routes the same skewed workload through a 4×4 router twice — once
//! with uniform cuts (`Router::new`), once with equi-mass quantile cuts
//! fitted to the data's CDFs (`Router::fit_sampled`) — and prints the
//! per-shard occupancy each produces. Under skew the uniform grid
//! concentrates most points in a few shards while the learned cuts keep
//! every shard near `n / S` points; queries answer identically either way
//! because one router routes both cut sets.
//!
//! Run with: `cargo run --release --example learned_router`

use elsi::{Elsi, ElsiConfig};
use elsi_data::{gen, Dataset};
use elsi_indices::{timed, SpatialIndex};
use elsi_serve::{shard_occupancy, Router, ShardedConfig, ShardedIndex};

const ROWS: usize = 4;
const COLS: usize = 4;

/// Prints a shard-occupancy histogram as a ROWS×COLS table plus its
/// max/mean balance figure (1.0 = perfectly even).
fn report(label: &str, counts: &[usize]) {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    println!("\n{label} — occupancy max/mean {:.2}", max / mean.max(1.0));
    for row in counts.chunks(COLS) {
        let cells: Vec<String> = row.iter().map(|c| format!("{c:>7}")).collect();
        println!("  {}", cells.join(" "));
    }
}

fn main() {
    let n = 50_000;
    println!("Routing {n} skewed points through a {ROWS}x{COLS} shard grid…");
    let pts = Dataset::Skewed.generate(n, 42);

    // Routers are coordinate-pure, so occupancy is a property of the
    // router alone — no shards needed to compare the two cut sets.
    let grid = Router::new(ROWS, COLS);
    let learned = Router::fit_sampled(&pts, ROWS, COLS);
    report("uniform cuts", &shard_occupancy(&grid, &pts));
    report("fitted cuts", &shard_occupancy(&learned, &pts));

    // Serve through the fitted cuts: per-shard ZM indices behind the
    // CDF-fitted router, with the usual exact cross-shard queries.
    let elsi = Elsi::new(ElsiConfig::scaled_for(n));
    let (sharded, build) =
        timed(|| ShardedIndex::zm(pts.clone(), learned, &ShardedConfig::default(), &elsi));
    println!(
        "\nBuilt learned-routed deployment in {build:?} ({} shards)",
        sharded.router().num_shards()
    );

    let windows = gen::window_queries(&pts, 200, 1e-4, 7);
    let (hits, secs) = timed(|| {
        sharded
            .par_window_queries(&windows)
            .iter()
            .map(Vec::len)
            .sum::<usize>()
    });
    println!(
        "Window queries: {hits} hits over {} windows ({:.1} µs/query)",
        windows.len(),
        secs.as_secs_f64() * 1e6 / windows.len() as f64
    );

    let users = gen::knn_queries(&pts, 200, 11);
    let (neighbours, secs) = timed(|| {
        sharded
            .par_knn_queries(&users, 10)
            .iter()
            .map(Vec::len)
            .sum::<usize>()
    });
    println!(
        "kNN queries: {neighbours} neighbours over {} queries ({:.1} µs/query)",
        users.len(),
        secs.as_secs_f64() * 1e6 / users.len() as f64
    );
}
