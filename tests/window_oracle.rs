//! Window queries against the brute-force oracle, for all nine indices, a
//! dirty [`DeltaOverlay`] over ZM and a 2×2 [`ShardedIndex`] — clean, and
//! after tombstones and buffered inserts.
//!
//! The seven exact kinds (Grid, KDB, HRR, RR*, ZM, ML-Index, Flood), the
//! overlay and the sharded deployment must return *exactly* the live points
//! inside the window, each once. RSMI and LISA are approximate by design
//! (a leaf scans the rank range its probes span; shards are predicted), so
//! they are held to no false positive, no duplicate and a pinned recall
//! floor over the whole window set of a case.
//!
//! The window set aims at what a rank-span scan can get wrong: zero-area
//! windows on a stack of equal coordinates (one long equal-key run),
//! zero-width lines along lattice coordinates (keys tie on one axis),
//! windows with edges on stored coordinates, the whole space and more,
//! windows wholly or partly outside the unit square (corner keys clamp),
//! and a tombstone or a buffered insert inside each of them.

use elsi::{DeltaOverlay, RebuildPolicy};
use elsi_indices::*;
use elsi_serve::{GridRouter, ShardedConfig, ShardedIndex};
use elsi_spatial::{canonical_point_key, Point, Rect};
use proptest::prelude::*;

/// Clustered + lattice-snapped + stacked points with unique ids.
fn assemble(
    clustered: &[(f64, f64)],
    snapped: &[(u32, u32)],
    stack: (f64, f64, usize),
) -> Vec<Point> {
    const CENTRES: [(f64, f64); 3] = [(0.2, 0.7), (0.55, 0.5), (0.93, 0.08)];
    let clustered = clustered.iter().enumerate().map(|(i, &(dx, dy))| {
        let (cx, cy) = CENTRES[i % CENTRES.len()];
        (cx + dx * 0.04, cy + dy * 0.04)
    });
    let snapped = snapped
        .iter()
        .map(|&(i, j)| (f64::from(i) / 8.0, f64::from(j) / 8.0));
    let stacked = std::iter::repeat_n((stack.0, stack.1), stack.2);
    clustered
        .chain(snapped)
        .chain(stacked)
        .enumerate()
        .map(|(i, (x, y))| Point::new(i as u64, x, y))
        .collect()
}

/// All nine indices over `points`, with pages small enough that even a
/// hundred points spread over several leaves, cells, columns and shards.
fn all_nine(points: &[Point]) -> Vec<Box<dyn SpatialIndex>> {
    let pts = || points.to_vec();
    let b = PwlBuilder { epsilon: 4 };
    vec![
        Box::new(GridIndex::build(pts(), &GridConfig { block_size: 8 })),
        Box::new(KdbIndex::build(pts(), &KdbConfig { leaf_capacity: 8 })),
        Box::new(HrrIndex::build(
            pts(),
            &HrrConfig {
                leaf_capacity: 8,
                fanout: 4,
            },
        )),
        Box::new(RStarIndex::build(
            pts(),
            &RStarConfig {
                leaf_capacity: 8,
                fanout: 4,
                min_fill: 0.4,
            },
        )),
        Box::new(ZmIndex::build(pts(), &ZmConfig { fanout: 4 }, &b)),
        Box::new(MlIndex::build(
            pts(),
            &MlConfig {
                pivots: 4,
                ..MlConfig::default()
            },
            &b,
        )),
        Box::new(FloodIndex::build(pts(), &FloodConfig { columns: 4 }, &b)),
        Box::new(RsmiIndex::build(
            pts(),
            &RsmiConfig {
                leaf_capacity: 16,
                fanout: 4,
                ..RsmiConfig::default()
            },
            &b,
        )),
        Box::new(LisaIndex::build(
            pts(),
            &LisaConfig {
                grid: 4,
                shard_size: 32,
                block_size: 8,
            },
            &b,
        )),
    ]
}

/// The drawn window plus the fixed hard ones.
fn windows(w: (f64, f64, f64, f64), stack: (f64, f64, usize), live: &[Point]) -> Vec<Rect> {
    let (sx, sy, _) = stack;
    let mut ws = vec![
        Rect::new(w.0, w.1, w.2, w.3),
        // Zero area: the stack itself, and a line along a lattice column.
        Rect::new(sx, sy, sx, sy),
        Rect::new(0.5, 0.0, 0.5, 1.0),
        Rect::new(0.0, 0.375, 1.0, 0.375),
        // Edges on lattice coordinates; a cluster patch.
        Rect::new(0.25, 0.125, 0.75, 0.5),
        Rect::new(0.54, 0.49, 0.6, 0.55),
        // The whole space, and more than the space.
        Rect::unit(),
        Rect::new(-1.0, -1.0, 2.0, 2.0),
        // Wholly outside the square, and straddling its edges.
        Rect::new(1.2, 1.2, 1.7, 1.9),
        Rect::new(-0.5, 0.2, -0.1, 0.8),
        Rect::new(-0.3, -0.3, 0.3, 0.3),
        Rect::new(0.9, 0.0, 1.4, 0.2),
    ];
    // Zero-area and small windows on live points, wherever they lie.
    for p in live.iter().step_by(live.len() / 3 + 1) {
        ws.push(Rect::new(p.x, p.y, p.x, p.y));
        ws.push(Rect::window_around(*p, 0.003));
    }
    ws
}

fn canonical(mut pts: Vec<Point>) -> Vec<Point> {
    pts.sort_by_key(canonical_point_key);
    pts
}

fn oracle(live: &[Point], w: &Rect) -> Vec<Point> {
    canonical(live.iter().filter(|p| w.contains(p)).copied().collect())
}

/// RSMI's and LISA's recall over a case's whole window set may not fall
/// below this. Measured minimum over the cases drawn here (the stand-in
/// proptest is seeded per case, so they repeat): RSMI 0.9946 — one point
/// of 184 outside its leaf's probed rank span — and LISA 1.0.
const RECALL_FLOOR: f64 = 0.99;

/// Every window of the case against the oracle over `live`.
fn check(idx: &dyn SpatialIndex, live: &[Point], ws: &[Rect]) {
    let approximate = matches!(idx.name(), "RSMI" | "LISA");
    let (mut got_total, mut want_total) = (0usize, 0usize);
    for w in ws {
        // The sharded gather promises canonical order and is held to it;
        // a monolith's order is its own business.
        let got = match idx.name() {
            "Sharded" => idx.window_query(w),
            _ => canonical(idx.window_query(w)),
        };
        let want = oracle(live, w);
        if !approximate {
            assert_eq!(got, want, "{} {w:?} n={}", idx.name(), live.len());
            continue;
        }
        // A sorted subsequence of the oracle: live, inside, each once.
        let mut rest = want.iter();
        for p in &got {
            assert!(
                rest.any(|o| o == p),
                "{} returned {p:?} for {w:?}: dead, outside or twice",
                idx.name()
            );
        }
        got_total += got.len();
        want_total += want.len();
    }
    if approximate && want_total > 0 {
        let recall = got_total as f64 / want_total as f64;
        assert!(
            recall >= RECALL_FLOOR,
            "{} recall {recall} ({got_total}/{want_total}) n={}",
            idx.name(),
            live.len()
        );
    }
}

/// Every stride-th point deleted, `inserts` added — half of them on top of
/// the stack or inside a cluster: `(gone, fresh, live)`.
fn churn(
    points: &[Point],
    stack: (f64, f64, usize),
    delete_stride: usize,
    inserts: &[(f64, f64)],
    deletable: impl Fn(&Point) -> bool,
) -> (Vec<Point>, Vec<Point>, Vec<Point>) {
    let (gone, mut live): (Vec<Point>, Vec<Point>) = points
        .iter()
        .partition(|p| p.id as usize % delete_stride == 0 && deletable(p));
    let fresh: Vec<Point> = inserts
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| match i % 4 {
            0 => Point::new(10_000 + i as u64, stack.0, stack.1),
            1 => Point::new(10_000 + i as u64, 0.55 + x * 0.04, 0.5 + y * 0.04),
            _ => Point::new(10_000 + i as u64, x, y),
        })
        .collect();
    live.extend(&fresh);
    (gone, fresh, live)
}

fn zm_overlay(points: &[Point]) -> DeltaOverlay<ZmIndex> {
    let b = PwlBuilder { epsilon: 4 };
    DeltaOverlay::new(ZmIndex::build(points.to_vec(), &ZmConfig { fanout: 4 }, &b))
}

fn sharded_2x2(points: &[Point]) -> ShardedIndex<ZmIndex> {
    ShardedIndex::build(
        points.to_vec(),
        GridRouter::new(2, 2),
        &ShardedConfig::grid(2, 2),
        |_ctx, pts| ZmIndex::build(pts, &ZmConfig { fanout: 4 }, &PwlBuilder { epsilon: 4 }),
        |_s| RebuildPolicy::Never,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clean_indices_match_the_oracle(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        w in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack);
        let ws = windows(w, stack, &points);
        for idx in all_nine(&points) {
            check(idx.as_ref(), &points, &ws);
        }
        check(&zm_overlay(&points), &points, &ws);
        check(&sharded_2x2(&points), &points, &ws);
    }

    #[test]
    fn tombstones_and_buffered_inserts_match_the_oracle(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        w in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack);
        let (gone, fresh, live) = churn(&points, stack, delete_stride, &inserts, |_| true);
        let ws = windows(w, stack, &live);
        for mut idx in all_nine(&points) {
            for p in &gone {
                prop_assert!(idx.delete(*p), "{} lost {:?}", idx.name(), p);
            }
            for p in &fresh {
                idx.insert(*p);
            }
            prop_assert_eq!(idx.len(), live.len(), "{}", idx.name());
            check(idx.as_ref(), &live, &ws);
        }
    }

    #[test]
    fn dirty_overlay_and_sharded_deployment_match_the_oracle(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        w in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let points = assemble(&clustered, &snapped, stack);
        // The overlay's delete probes its base by coordinates, so only
        // points that share theirs with no other are deleted here (the
        // stacked case is `tests/point_oracle.rs`'s).
        let lone = |p: &Point| !points.iter().any(|o| o.id != p.id && o.x == p.x && o.y == p.y);
        let (gone, fresh, live) = churn(&points, stack, delete_stride, &inserts, lone);
        let ws = windows(w, stack, &live);
        let mut overlay = zm_overlay(&points);
        let mut sharded = sharded_2x2(&points);
        for p in &gone {
            prop_assert!(overlay.delete(*p) && sharded.delete(*p), "lost {:?}", p);
        }
        for p in &fresh {
            overlay.insert(*p);
            sharded.insert(*p);
        }
        prop_assert_eq!(overlay.len(), live.len());
        prop_assert_eq!(sharded.len(), live.len());
        check(&overlay, &live, &ws);
        check(&sharded, &live, &ws);
    }
}
