//! Sharded queries pinned against the conformance table's brute-force
//! oracle.
//!
//! The point sets deliberately stress the router's edge cases: coordinates
//! snapped onto the shard-grid boundaries (so points sit exactly on shared
//! shard edges) and ids repeated across the set at different coordinates,
//! often routed to different shards. `ShardedIndex::build` serves the last
//! copy of each id only, and so does the oracle. Results must be
//! *bit-identical* to the oracle under the canonical orders exported by
//! `elsi-serve`.

#[path = "../../../tests/support/mod.rs"]
mod support;

use elsi_spatial::{Point, Rect};
use proptest::prelude::*;
use support::*;

/// Windows wide enough that the gather orders them by radix passes rather
/// than by comparison (hundreds to thousands of hits), over every id shape
/// that changes which digits vary — and ids folded so that a tenth of them
/// repeat at different coordinates, of which the build keeps the last.
#[test]
fn wide_windows_come_back_in_canonical_order_under_both_routers() {
    type IdMix = (&'static str, fn(u64) -> u64);
    let id_mixes: [IdMix; 5] = [
        ("dense", |i| i),
        ("folded", |i| i % 9_000),
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
        points
            .iter_mut()
            .enumerate()
            .for_each(|(i, p)| p.id = id(i as u64));
        let oracle = Oracle::new(&points);
        for w in &windows {
            let hits = oracle.window(w).len();
            assert!(hits > 1000, "{name}: {w:?} is not wide: {hits} hits");
        }
        for state in [
            State::Sharded(Cuts::Uniform, 2, 2),
            State::Sharded(Cuts::Fitted, 2, 3),
        ] {
            let s = Zoo::pwl(8, 4).subject(Kind::Grid, state, &points, &[]);
            check(&s, &oracle, &Queries::windows(windows));
        }
    }
}

/// The sharded deployment of Grid shards a row asks.
fn sharded(points: &[Point], rows: usize, cols: usize) -> Subject {
    let state = State::Sharded(Cuts::Uniform, rows, cols);
    Zoo::pwl(8, 4).subject(Kind::Grid, state, points, &[])
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
        let points = assemble(&continuous, &snapped, (0.0, 0.0, 0), id_modulus);
        // The drawn window, one whose edges sit exactly on shard boundaries,
        // and the unit square.
        let (x0, y0, x1, y1) = window;
        let windows = [Rect::new(x0, y0, x1, y1), Rect::new(0.25, 0.125, 0.75, 0.5), Rect::unit()];
        check(&sharded(&points, rows, cols), &Oracle::new(&points), &Queries::windows(windows));
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
        let points = assemble(&continuous, &snapped, (0.0, 0.0, 0), id_modulus);
        // The drawn point, and points exactly on shard corners and edges.
        let knn = [(q.0, q.1), (0.5, 0.5), (0.25, 1.0), (0.0, 0.0)].map(|(x, y)| Point::at(x, y));
        check(&sharded(&points, rows, cols), &Oracle::new(&points), &Queries::knn(knn, vec![k]));
    }

    #[test]
    fn point_queries_find_every_stored_coordinate(
        continuous in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 1..80),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..30),
        rows in 1usize..5,
        cols in 1usize..5,
    ) {
        // Unique ids here: point_query semantics with colliding ids are
        // the inner index's business, not the router's. A coordinate
        // nothing was stored at misses.
        let points = assemble(&continuous, &snapped, (0.0, 0.0, 0), u64::MAX);
        let lookups = Queries::lookups(points.iter().copied().chain([Point::at(0.123456789, 0.987654321)]));
        check(&sharded(&points, rows, cols), &Oracle::new(&points), &lookups);
    }

    #[test]
    fn batched_entry_points_agree_with_single_queries(
        continuous in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..80),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..20),
        id_modulus in 1u64..40,
        queries in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..20),
        k in 1usize..10,
    ) {
        let points = assemble(&continuous, &snapped, (0.0, 0.0, 0), id_modulus);
        let sharded = sharded(&points, 2, 4).index;
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
