//! Sharded serving experiments (`elsi-serve`).
//!
//! Two experiments share this module:
//!
//! * [`run`] — sharded vs monolith: builds one monolithic ZM index and one
//!   `ShardedIndex` per requested grid over the same OSM1-style data, then
//!   drives identical *batched* query workloads (`par_point_queries` /
//!   `par_window_queries` / `par_knn_queries`) through each. Reported
//!   `query_micros` is the batched point-query latency per query — divide
//!   the monolith's value by a sharded row's to get the speedup (see
//!   `EXPERIMENTS.md`).
//! * [`run_routing`] — grid vs learned routing under skew: same sharded
//!   machinery at a fixed grid, swept over uniform / skewed / clustered
//!   data with both routing policies, reporting per-shard occupancy
//!   histograms, the max/mean balance figure, and an exactness check
//!   against the monolith oracle.
//!
//! Sharded results are exact either way: the kNN merge and window gather
//! are pinned bit-identical to a single-index oracle by
//! `crates/serve/tests/`, and the routing experiment re-checks exactness
//! inline per dataset × router.

use crate::harness::*;
use crate::json::{usize_array, JsonRecord};
use elsi_data::{gen, Dataset};
use elsi_indices::{SpatialIndex, ZmConfig, ZmIndex};
use elsi_serve::{
    canonical_point_key, shard_occupancy, GridRouter, LearnedRouter, Router, ShardedConfig,
    ShardedIndex,
};
use elsi_spatial::{Point, Rect};

/// kNN k of the batched workload (paper's kNN experiments use 25).
const K: usize = 25;

/// The default grid sweep: the acceptance point (4 shards) plus a larger
/// grid to show the trend.
pub fn default_grids() -> Vec<(usize, usize)> {
    vec![(2, 2), (4, 4)]
}

struct Measured {
    label: String,
    build_secs: f64,
    point_micros: f64,
    window_micros: f64,
    knn_micros: f64,
}

fn drive(
    label: String,
    build_secs: f64,
    idx: &impl SpatialIndex,
    wl: &Workload,
    point_batch: &[Point],
) -> Measured {
    let (_, secs) = timed(|| idx.par_point_queries(point_batch));
    let point_micros = secs * 1e6 / point_batch.len().max(1) as f64;
    let (_, secs) = timed(|| idx.par_window_queries(&wl.windows));
    let window_micros = secs * 1e6 / wl.windows.len().max(1) as f64;
    let (_, secs) = timed(|| idx.par_knn_queries(&wl.knn, K));
    let knn_micros = secs * 1e6 / wl.knn.len().max(1) as f64;
    Measured {
        label,
        build_secs,
        point_micros,
        window_micros,
        knn_micros,
    }
}

/// Runs the experiment for the given shard grids and returns one
/// [`JsonRecord`] per configuration (experiment id `"sharded"`, labels
/// `"monolith/ZM"` and `"sharded-RxC/ZM"`).
pub fn run(grids: &[(usize, usize)]) -> Vec<JsonRecord> {
    let n = base_n();
    let ctx = BenchCtx::new(n);
    let wl = Workload::new(Dataset::Osm1, n, 1e-4);
    // Batched point lookups over stored points, capped like the matrix's
    // point workload.
    let point_batch: Vec<Point> = wl.pts.iter().copied().take(2000).collect();

    let mut measured = Vec::new();

    let zm_cfg = ZmConfig {
        fanout: (n / 12_500).clamp(4, 16),
    };
    let (mono, build_secs) = timed(|| ZmIndex::build(wl.pts.clone(), &zm_cfg, &ctx.elsi.builder()));
    measured.push(drive(
        "monolith/ZM".to_string(),
        build_secs,
        &mono,
        &wl,
        &point_batch,
    ));

    for &(rows, cols) in grids {
        let cfg = ShardedConfig::grid(rows, cols);
        let router = GridRouter::new(rows, cols);
        let (sharded, build_secs) =
            timed(|| ShardedIndex::zm(wl.pts.clone(), router, &cfg, &ctx.elsi));
        measured.push(drive(
            format!("sharded-{rows}x{cols}/ZM"),
            build_secs,
            &sharded,
            &wl,
            &point_batch,
        ));
    }

    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|m| {
            vec![
                m.label.clone(),
                fmt_secs(m.build_secs),
                format!("{:.2}", m.point_micros),
                format!("{:.0}", m.window_micros),
                format!("{:.0}", m.knn_micros),
            ]
        })
        .collect();
    print_table(
        "Sharded serving — batched query latency vs monolith (µs/query)",
        &["config", "build", "point", "window", "kNN"],
        &rows,
    );

    measured
        .into_iter()
        .map(|m| JsonRecord::new("sharded", m.label, m.build_secs, m.point_micros))
        .collect()
}

/// The routing experiment's fixed shard grid: 8×8 = 64 shards, enough
/// cells for skew to concentrate mass visibly under uniform cuts.
pub const ROUTING_GRID: (usize, usize) = (8, 8);

struct RoutingMeasured {
    label: String,
    build_secs: f64,
    point_micros: f64,
    occupancy: Vec<usize>,
    max_mean: f64,
    matches: bool,
}

/// `max(counts) / mean(counts)` — 1.0 is a perfectly balanced partition;
/// `S` means one shard owns everything.
fn occupancy_max_mean(counts: &[usize]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        f64::NAN
    }
}

#[allow(clippy::too_many_arguments)]
fn drive_routing<R: Router>(
    label: String,
    build_secs: f64,
    sharded: &ShardedIndex<ZmIndex, R>,
    pts: &[Point],
    mono: &ZmIndex,
    point_batch: &[Point],
    windows: &[Rect],
    knn: &[Point],
) -> RoutingMeasured {
    let occupancy = shard_occupancy(sharded.router(), pts);
    let max_mean = occupancy_max_mean(&occupancy);

    // Exactness against the monolith oracle: bit-identical kNN answers
    // (canonical order breaks coordinate ties by id) and identical window
    // sets under the canonical order (the sharded gather sorts
    // canonically; a monolithic ZM returns key order, so sort its answers
    // the same way). Point answers are compared by coordinate bits: on
    // duplicate-coordinate data (NYC's snapped street grid) *which* of
    // several coordinate-equal points a predict-and-scan lookup surfaces
    // first depends on the model layout — it differs even between two
    // monoliths of different fanout — so ids are only pinned where
    // coordinates are unique (uniform, skewed), where this check is full
    // bit-identity.
    let mono_points = mono.par_point_queries(point_batch);
    let mono_knn = mono.par_knn_queries(knn, K);
    let mut mono_windows = mono.par_window_queries(windows);
    for w in &mut mono_windows {
        w.sort_by_key(canonical_point_key);
    }
    let same_coords = |a: &Option<Point>, b: &Option<Point>| match (a, b) {
        (Some(a), Some(b)) => a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
        (None, None) => true,
        _ => false,
    };
    let sharded_points = sharded.par_point_queries(point_batch);
    let matches = sharded_points.len() == mono_points.len()
        && sharded_points
            .iter()
            .zip(&mono_points)
            .all(|(a, b)| same_coords(a, b))
        && sharded.par_knn_queries(knn, K) == mono_knn
        && sharded.par_window_queries(windows) == mono_windows;

    let (_, secs) = timed(|| sharded.par_point_queries(point_batch));
    let point_micros = secs * 1e6 / point_batch.len().max(1) as f64;
    RoutingMeasured {
        label,
        build_secs,
        point_micros,
        occupancy,
        max_mean,
        matches,
    }
}

/// Runs the grid-vs-learned routing experiment at [`ROUTING_GRID`] over
/// uniform, skewed (Zipf-style `y = u⁴` mass pile-up) and NYC-like
/// clustered data. Returns one [`JsonRecord`] per dataset × router
/// (experiment id `"routing"`, labels `"<dataset>/<router>-RxC/ZM"`) with
/// extras `shard_occupancy` (per-shard point counts, row-major),
/// `occupancy_max_mean` and `matches_monolith`.
pub fn run_routing() -> Vec<JsonRecord> {
    let n = base_n();
    let ctx = BenchCtx::new(n);
    let (rows, cols) = ROUTING_GRID;
    let cfg = ShardedConfig::grid(rows, cols);
    let zm_cfg = ZmConfig {
        fanout: (n / 12_500).clamp(4, 16),
    };

    let mut measured = Vec::new();
    for ds in [Dataset::Uniform, Dataset::Skewed, Dataset::Nyc] {
        eprintln!("[routing] {ds} …");
        let pts = ds.generate(n, 42);
        let point_batch: Vec<Point> = pts
            .iter()
            .step_by((pts.len() / 2000).max(1))
            .copied()
            .collect();
        let windows = gen::window_queries(&pts, 64, 1e-4, 7);
        let knn = gen::knn_queries(&pts, 64, 8);
        let mono = ZmIndex::build(pts.clone(), &zm_cfg, &ctx.elsi.builder());

        let router = GridRouter::new(rows, cols);
        let (grid, build_secs) = timed(|| ShardedIndex::zm(pts.clone(), router, &cfg, &ctx.elsi));
        measured.push(drive_routing(
            format!("{}/grid-{rows}x{cols}/ZM", ds.name()),
            build_secs,
            &grid,
            &pts,
            &mono,
            &point_batch,
            &windows,
            &knn,
        ));

        let (learned, build_secs) = timed(|| {
            let router = LearnedRouter::fit_sampled(&pts, rows, cols);
            ShardedIndex::zm(pts.clone(), router, &cfg, &ctx.elsi)
        });
        measured.push(drive_routing(
            format!("{}/learned-{rows}x{cols}/ZM", ds.name()),
            build_secs,
            &learned,
            &pts,
            &mono,
            &point_batch,
            &windows,
            &knn,
        ));
    }

    let table: Vec<Vec<String>> = measured
        .iter()
        .map(|m| {
            vec![
                m.label.clone(),
                fmt_secs(m.build_secs),
                format!("{:.2}", m.point_micros),
                format!("{:.2}", m.max_mean),
                if m.matches { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Routing — grid vs learned shard balance under skew",
        &["config", "build", "point µs", "occ max/mean", "exact"],
        &table,
    );

    measured
        .into_iter()
        .map(|m| {
            JsonRecord::new("routing", m.label, m.build_secs, m.point_micros)
                .with_extra("shard_occupancy", usize_array(&m.occupancy))
                .with_extra(
                    "occupancy_max_mean",
                    if m.max_mean.is_finite() {
                        format!("{:.6}", m.max_mean)
                    } else {
                        "null".to_string()
                    },
                )
                .with_extra(
                    "matches_monolith",
                    if m.matches { "true" } else { "false" }.to_string(),
                )
        })
        .collect()
}
