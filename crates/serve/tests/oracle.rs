//! Sharded queries pinned against a single brute-force oracle.
//!
//! The point sets deliberately stress the router's edge cases: coordinates
//! snapped onto the shard-grid boundaries (so points sit exactly on shared
//! shard edges) and ids duplicated across the set (so the same id can live
//! in several shards at different coordinates). Results must be
//! *bit-identical* to the oracle under the canonical orders exported by
//! `elsi-serve`.

use elsi::RebuildPolicy;
use elsi_indices::{GridConfig, GridIndex, SpatialIndex};
use elsi_serve::{
    canonical_knn_cmp, canonical_point_key, GridRouter, LearnedRouter, Router, ShardedConfig,
    ShardedIndex,
};
use elsi_spatial::{Point, Rect};
use proptest::prelude::*;

/// Mixed workload points: continuous coordinates plus grid-snapped ones
/// (multiples of 1/8 land exactly on every boundary of 2×2, 2×4 and 4×4
/// shard grids), with ids folded so they repeat across shards.
fn assemble(continuous: &[(f64, f64)], snapped: &[(u32, u32)], id_modulus: u64) -> Vec<Point> {
    let raw = continuous
        .iter()
        .copied()
        .chain(
            snapped
                .iter()
                .map(|&(i, j)| (f64::from(i) / 8.0, f64::from(j) / 8.0)),
        )
        .enumerate()
        .map(|(i, (x, y))| Point::new(i as u64 % id_modulus, x, y));
    raw.collect()
}

fn sharded_of(points: Vec<Point>, rows: usize, cols: usize) -> ShardedIndex<GridIndex> {
    sharded_behind(points, GridRouter::new(rows, cols))
}

fn sharded_behind<R: Router>(points: Vec<Point>, router: R) -> ShardedIndex<GridIndex, R> {
    ShardedIndex::build(
        points,
        router,
        &ShardedConfig::default(),
        |_ctx, pts| GridIndex::build(pts, &GridConfig { block_size: 8 }),
        |_s| RebuildPolicy::Never,
    )
}

fn oracle_window(points: &[Point], w: &Rect) -> Vec<Point> {
    let mut out: Vec<Point> = points.iter().filter(|p| w.contains(p)).copied().collect();
    out.sort_by_key(canonical_point_key);
    out
}

fn oracle_knn(points: &[Point], q: Point, k: usize) -> Vec<Point> {
    let mut out = points.to_vec();
    out.sort_by(|a, b| canonical_knn_cmp(q, a, b));
    out.truncate(k);
    out
}

/// Windows wide enough that the gather orders them by radix passes rather
/// than by comparison (hundreds to thousands of hits), over every id shape
/// that changes which digits vary — and ids folded so that equal ids with
/// different coordinates meet across shards.
#[test]
fn wide_windows_come_back_in_canonical_order_under_both_routers() {
    type IdMix = (&'static str, fn(u64) -> u64);
    let id_mixes: [IdMix; 5] = [
        ("dense", |i| i),
        ("folded", |i| i % 97),
        ("above 2^32", |i| (i << 32) | (i % 5)),
        ("from the top", |i| u64::MAX - i),
        ("all 64 bits", |i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    ];
    let windows = [
        Rect::unit(),
        Rect::new(0.25, 0.125, 0.75, 0.5),
        Rect::new(0.4, 0.0, 0.6, 1.0),
        Rect::new(0.05, 0.55, 0.45, 0.95),
    ];
    for (name, id) in id_mixes {
        let mut points = elsi_data::gen::uniform(10_000, 17);
        for (i, p) in points.iter_mut().enumerate() {
            p.id = id(i as u64);
        }
        let grid = sharded_behind(points.clone(), GridRouter::new(2, 2));
        let learned = sharded_behind(points.clone(), LearnedRouter::fit(&points, 2, 3));
        for w in &windows {
            let want = oracle_window(&points, w);
            assert!(want.len() > 1000, "{w:?} is not wide: {} hits", want.len());
            assert_eq!(grid.window_query(w), want, "{name} ids, grid router, {w:?}");
            assert_eq!(
                learned.window_query(w),
                want,
                "{name} ids, learned router, {w:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_queries_match_the_oracle_bit_for_bit(
        continuous in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..120),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        id_modulus in 1u64..60,
        rows in 1usize..5,
        cols in 1usize..5,
        window in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&continuous, &snapped, id_modulus);
        let sharded = sharded_of(points.clone(), rows, cols);
        let (x0, y0, x1, y1) = window;
        let windows = [
            Rect::new(x0, y0, x1, y1),
            // A window whose edges sit exactly on shard boundaries.
            Rect::new(0.25, 0.125, 0.75, 0.5),
            Rect::unit(),
        ];
        for w in &windows {
            prop_assert_eq!(sharded.window_query(w), oracle_window(&points, w), "{:?}", w);
        }
    }

    #[test]
    fn knn_queries_match_the_oracle_bit_for_bit(
        continuous in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..120),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        id_modulus in 1u64..60,
        rows in 1usize..5,
        cols in 1usize..5,
        q in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 0usize..25,
    ) {
        let points = assemble(&continuous, &snapped, id_modulus);
        let sharded = sharded_of(points.clone(), rows, cols);
        let queries = [
            Point::at(q.0, q.1),
            // Query points exactly on shard corners/edges.
            Point::at(0.5, 0.5),
            Point::at(0.25, 1.0),
            Point::at(0.0, 0.0),
        ];
        for &qp in &queries {
            prop_assert_eq!(
                sharded.knn_query(qp, k),
                oracle_knn(&points, qp, k),
                "q={:?} k={}", qp, k
            );
        }
    }

    #[test]
    fn point_queries_find_every_stored_coordinate(
        continuous in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 1..80),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..30),
        rows in 1usize..5,
        cols in 1usize..5,
    ) {
        // Unique ids here: point_query semantics with colliding ids are
        // the inner index's business, not the router's.
        let points = assemble(&continuous, &snapped, u64::MAX);
        let sharded = sharded_of(points.clone(), rows, cols);
        for p in &points {
            let got = sharded.point_query(*p);
            prop_assert!(got.is_some(), "lost {:?}", p);
            let got = got.unwrap();
            prop_assert_eq!((got.x, got.y), (p.x, p.y));
        }
        // A coordinate nothing was stored at misses.
        prop_assert!(sharded.point_query(Point::at(0.123456789, 0.987654321)).is_none());
    }

    #[test]
    fn batched_entry_points_agree_with_single_queries(
        continuous in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..80),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..20),
        id_modulus in 1u64..40,
        queries in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..20),
        k in 1usize..10,
    ) {
        let points = assemble(&continuous, &snapped, id_modulus);
        let sharded = sharded_of(points, 2, 4);
        let qs: Vec<Point> = queries.iter().map(|&(x, y)| Point::at(x, y)).collect();
        let ws: Vec<Rect> = qs.iter().map(|q| Rect::window_around(*q, 0.02)).collect();
        let point_seq: Vec<_> = qs.iter().map(|&q| sharded.point_query(q)).collect();
        let window_seq: Vec<_> = ws.iter().map(|w| sharded.window_query(w)).collect();
        let knn_seq: Vec<_> = qs.iter().map(|&q| sharded.knn_query(q, k)).collect();
        prop_assert_eq!(sharded.par_point_queries(&qs), point_seq);
        prop_assert_eq!(sharded.par_window_queries(&ws), window_seq);
        prop_assert_eq!(sharded.par_knn_queries(&qs, k), knn_seq);
    }
}
