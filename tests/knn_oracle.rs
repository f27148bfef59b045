//! kNN equals the brute-force oracle **bit for bit** — vector equality
//! under the canonical `(dist², id, coordinate-bits)` order — for all nine
//! indices, a dirty [`DeltaOverlay`], an [`UpdateProcessor`] and a
//! [`ShardedIndex`], with and without a radius (`knn_within_into`).
//!
//! The point sets aim at what a seed-then-sweep kNN can get wrong:
//! clusters (a poor seed gives a wide ball box), coordinates snapped onto
//! a coarse lattice (distances tie exactly), more than `k` points stacked
//! on one coordinate (the whole seed run is ties), ids folded so distinct
//! points share one, tombstones and buffered inserts, tombstones over the
//! whole neighbourhood of a query (the overlay over-fetches), `k` around
//! the live count (fewer than `k` points seeded: the `r² = ∞` sweep), a
//! fixed 20k-point case at `k` in the thousands (the candidate pool selects
//! many times over), and queries on corners and outside the unit square.
//! Every `k` is also asked under radii of zero, exactly a tied distance and
//! between two distances.
//!
//! RSMI and LISA are held to equality as well: their kNN prunes on the
//! MBRs of the data pages, not on the rank ranges their (approximate)
//! window queries predict, so it is exact where the windows are not.

use elsi::{DeltaOverlay, RebuildPolicy, UpdateProcessor};
use elsi_indices::*;
use elsi_serve::{GridRouter, ShardedConfig, ShardedIndex};
use elsi_spatial::{canonical_knn_cmp, Point, ScanScratch};
use proptest::prelude::*;

/// Clustered + lattice-snapped + stacked points, ids folded by
/// `id_modulus` (`u64::MAX` keeps them unique).
fn assemble(
    clustered: &[(f64, f64)],
    snapped: &[(u32, u32)],
    stack: (f64, f64, usize),
    id_modulus: u64,
) -> Vec<Point> {
    // Three tight clusters: offsets in [0, 1) shrink to a 0.04-wide patch.
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
        .map(|(i, (x, y))| Point::new(i as u64 % id_modulus, x, y))
        .collect()
}

/// Three radii for `q`, given `live` in canonical order around it: zero,
/// exactly a distance two points share (the first such from a third of the
/// way out; a point's distance if none is shared), and between two
/// distinct distances (their midpoint, from halfway out).
fn radii(sorted: &[Point], q: Point) -> [f64; 3] {
    let d: Vec<f64> = sorted.iter().map(|p| q.dist2(p)).collect();
    let pairs = || d.windows(2).map(|w| (w[0], w[1]));
    let from = |n: usize| pairs().skip(n).chain(pairs());
    let tied = from(d.len() / 3).find(|(a, b)| a == b).map(|(a, _)| a);
    let between = from(d.len() / 2)
        .find(|(a, b)| a < b)
        .map(|(a, b)| (a + b) / 2.0);
    let at = d.get(d.len() / 3).copied().unwrap_or(0.5);
    [0.0, tied.unwrap_or(at), between.unwrap_or(at)]
}

/// The drawn query plus the fixed hard ones: corners, the stack itself,
/// a lattice node, and points outside the unit square.
fn queries(q: (f64, f64), stack: (f64, f64, usize)) -> [Point; 8] {
    [
        Point::at(q.0, q.1),
        Point::at(stack.0, stack.1),
        Point::at(0.0, 0.0),
        Point::at(1.0, 1.0),
        Point::at(0.0, 1.0),
        Point::at(0.5, 0.375),
        Point::at(-0.3, 0.5),
        Point::at(1.7, 1.2),
    ]
}

/// `k` below, at and past the live count, plus the drawn one.
fn ks(k: usize, n: usize) -> [usize; 6] {
    [0, 1, k, n.saturating_sub(1), n, n + 5]
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

/// A 2×2 grid deployment of ZM shards over `points`.
fn sharded_2x2(points: &[Point]) -> ShardedIndex<ZmIndex> {
    ShardedIndex::build(
        points.to_vec(),
        GridRouter::new(2, 2),
        &ShardedConfig::grid(2, 2),
        |_ctx, pts| ZmIndex::build(pts, &ZmConfig { fanout: 4 }, &PwlBuilder { epsilon: 4 }),
        |_s| RebuildPolicy::Never,
    )
}

/// Every query × every `k` × every radius of one index against the oracle
/// over `live`: the canonical best `k` among the points with `dist² ≤ r²`.
fn check(idx: &dyn SpatialIndex, live: &[Point], queries: &[Point], ks: &[usize]) {
    let (mut scratch, mut got) = (ScanScratch::new(), Vec::new());
    for &q in queries {
        let mut sorted = live.to_vec();
        sorted.sort_by(|a, b| canonical_knn_cmp(q, a, b));
        let radii = radii(&sorted, q);
        for &k in ks {
            let at = format!("{} q={q:?} k={k} n={}", idx.name(), live.len());
            assert_eq!(idx.knn_query(q, k), sorted[..k.min(live.len())], "{at}");
            for r2 in radii {
                idx.knn_within_into(q, k, r2, &mut scratch, &mut got);
                let inside = sorted.iter().take_while(|p| q.dist2(p) <= r2).take(k);
                assert_eq!(got, inside.copied().collect::<Vec<_>>(), "{at} r2={r2:e}");
            }
        }
    }
}

/// A `DeltaOverlay` over ZM and an `UpdateProcessor` over Grid overlays
/// (never rebuilding), both over `points`.
fn overlay_and_processor(
    points: &[Point],
) -> (
    DeltaOverlay<ZmIndex>,
    UpdateProcessor<DeltaOverlay<GridIndex>>,
) {
    let builder = PwlBuilder { epsilon: 4 };
    let overlay = DeltaOverlay::new(ZmIndex::build(
        points.to_vec(),
        &ZmConfig { fanout: 4 },
        &builder,
    ));
    let processor = UpdateProcessor::new(
        points.to_vec(),
        Box::new(|pts| DeltaOverlay::new(GridIndex::build(pts, &GridConfig { block_size: 8 }))),
        RebuildPolicy::Never,
        16,
    );
    (overlay, processor)
}

/// Deletes, from `overlay` and `processor`, the live base copies nearest
/// `q` until `n` are gone: tombstones over the whole neighbourhood.
fn bury_neighbourhood(
    overlay: &mut impl SpatialIndex,
    processor: &mut impl SpatialIndex,
    base_live: &mut Vec<Point>,
    q: Point,
    n: usize,
) {
    let mut near = base_live.clone();
    near.sort_by(|a, b| canonical_knn_cmp(q, a, b));
    for p in near.into_iter().take(n) {
        // A folded id is tombstoned whole, so a namesake may be gone.
        if base_live.iter().any(|b| b.id == p.id) {
            assert!(overlay.delete(p) && processor.delete(p), "lost {p:?}");
            base_live.retain(|b| b.id != p.id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_nine_indices_match_the_oracle(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        id_modulus in 1u64..50,
        q in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1usize..30,
    ) {
        let points = assemble(&clustered, &snapped, stack, id_modulus);
        let (qs, ks) = (queries(q, stack), ks(k, points.len()));
        for idx in all_nine(&points) {
            check(idx.as_ref(), &points, &qs, &ks);
        }
        check(&sharded_2x2(&points), &points, &qs, &ks);
    }

    #[test]
    fn tombstones_and_buffered_inserts_match_the_oracle(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1usize..30,
    ) {
        // Unique ids: the learned indices tombstone by id, so a folded id
        // would hide its namesakes too — the overlay test below covers
        // folded ids where that semantics is defined.
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let (gone, mut live): (Vec<_>, Vec<_>) =
            points.iter().partition(|p| p.id as usize % delete_stride == 0);
        // Fresh points, half of them on top of the stack or a cluster.
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
        let (qs, ks) = (queries(q, stack), ks(k, live.len()));
        let sharded: Box<dyn SpatialIndex> = Box::new(sharded_2x2(&points));
        for mut idx in all_nine(&points).into_iter().chain([sharded]) {
            for p in &gone {
                prop_assert!(idx.delete(*p), "{} lost {:?}", idx.name(), p);
            }
            for p in &fresh {
                idx.insert(*p);
            }
            prop_assert_eq!(idx.len(), live.len(), "{}", idx.name());
            check(idx.as_ref(), &live, &qs, &ks);
        }
    }

    #[test]
    fn dirty_overlay_and_processor_match_the_oracle_under_folded_ids(
        clustered in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..90),
        snapped in prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        stack in (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
        id_modulus in 1u64..50,
        ops in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0, 0u64..100, 0usize..4), 0..60),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1usize..30,
    ) {
        // Folded ids: distinct live base points share an id, and two of
        // them can be equidistant from a query (the lattice, the stack) —
        // the merge must keep both. The id is the overlay's identity: an
        // insert replaces every live copy of its id, a delete of a base
        // copy tombstones the id.
        let points = assemble(&clustered, &snapped, stack, id_modulus);
        let (mut overlay, mut processor) = overlay_and_processor(&points);
        let (mut base_live, mut delta): (Vec<Point>, Vec<Point>) = (points, Vec::new());
        for &(x, y, id, op) in &ops {
            let victim = match op {
                // Delete a live delta copy, else a live base copy.
                0 => delta.get(id as usize % delta.len().max(1)).copied(),
                1 => base_live.get(id as usize % base_live.len().max(1)).copied(),
                _ => None,
            };
            if op < 2 {
                let Some(p) = victim else { continue };
                prop_assert!(overlay.delete(p) && SpatialIndex::delete(&mut processor, p));
                if op == 0 {
                    delta.retain(|d| d.id != p.id);
                } else {
                    base_live.retain(|b| b.id != p.id);
                }
            } else {
                // Ids 0..100 collide with the folded base ids half the time.
                let p = Point::new(id, x, y);
                overlay.insert(p);
                SpatialIndex::insert(&mut processor, p);
                base_live.retain(|b| b.id != id);
                delta.retain(|d| d.id != id);
                delta.push(p);
            }
        }
        bury_neighbourhood(&mut overlay, &mut processor, &mut base_live, Point::at(q.0, q.1), k);
        let live: Vec<Point> = base_live.iter().chain(&delta).copied().collect();
        let (qs, ks) = (queries(q, stack), ks(k, live.len()));
        check(&overlay, &live, &qs, &ks);
        check(&processor, &live, &qs, &ks);
    }
}

/// The fixed deep case: 20 000 points — three tight clusters, plus a tenth
/// snapped onto the 9×9 lattice, some twenty-five to a node (ties by the
/// hundred) — at `k` of 500, 1 000 and `n − 1`, where the candidate pool
/// fills and selects many times per query and a shard's running k-th
/// distance bounds its neighbours. Then a dirty overlay and processor
/// whose tombstones cover the nearest 1 500 points of a cluster query.
#[test]
fn deep_k_matches_the_oracle_on_20k_points() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let clustered: Vec<(f64, f64)> = (0..18_000).map(|_| (unit(), unit())).collect();
    let lattice = |u: f64| (u * 9.0) as u32 % 9;
    let snapped: Vec<(u32, u32)> = (0..2_000)
        .map(|_| (lattice(unit()), lattice(unit())))
        .collect();
    let points = assemble(&clustered, &snapped, (0.0, 0.0, 0), u64::MAX);
    let n = points.len();
    let qs = [
        Point::at(0.5, 0.375),
        Point::at(0.55, 0.5),
        Point::at(0.0, 0.0),
        Point::at(1.7, 1.2),
    ];
    let ks = [500, 1_000, n - 1];
    for idx in all_nine(&points) {
        check(idx.as_ref(), &points, &qs, &ks);
    }
    check(&sharded_2x2(&points), &points, &qs, &ks);

    let (mut overlay, mut processor) = overlay_and_processor(&points);
    let mut live = points;
    bury_neighbourhood(&mut overlay, &mut processor, &mut live, qs[1], 1_500);
    check(&overlay, &live, &qs, &ks);
    check(&processor, &live, &qs, &ks);
}
