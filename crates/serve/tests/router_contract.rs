//! `Router` contract invariants pinned by proptest.
//!
//! The serving layer's correctness proof (`DESIGN.md` §9, §13) rests only
//! on the `Router` contract — ownership is a pure function of coordinates
//! and closed rectangles cover it — so these tests pin exactly that, under
//! both constructors, on adversarial samples: coordinates at every `j / n`
//! ± 1 ulp for n ≤ 16, duplicate-heavy runs (degenerate axes fall back to
//! uniform cuts) and every shape up to 16×16. A second suite pins that
//! fitted cuts change *nothing* about query answers.

use elsi::RebuildPolicy;
use elsi_indices::{GridConfig, GridIndex, SpatialIndex};
use elsi_serve::{Router, ShardedConfig, ShardedIndex};
use elsi_spatial::{Point, Rect};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every `j / n` for n ≤ 16 and its neighbours one ulp either side,
/// inside the unit square: where uniform cuts sit, and where a rectangle
/// ending at `j / n` can miss a point routed into it.
fn boundaries() -> Vec<f64> {
    let mut out: Vec<f64> = (1..=16u32)
        .flat_map(|n| (0..=n).map(move |j| f64::from(j) / f64::from(n)))
        .flat_map(|v| [v.next_down(), v, v.next_up()])
        .filter(|v| (0.0..=1.0).contains(v))
        .collect();
    out.sort_by(f64::total_cmp);
    out.dedup();
    out
}

/// Mixed workload points: continuous coordinates plus snapped ones (pairs
/// of indices into [`boundaries`]), with ids folded so they repeat.
fn assemble(continuous: &[(f64, f64)], snapped: &[(usize, usize)], id_modulus: u64) -> Vec<Point> {
    let b = boundaries();
    let at = |i: usize| b.get(i).copied().unwrap_or(0.5);
    continuous
        .iter()
        .copied()
        .chain(snapped.iter().map(|&(i, j)| (at(i), at(j))))
        .enumerate()
        .map(|(i, (x, y))| Point::new(i as u64 % id_modulus, x, y))
        .collect()
}

/// A 17×17 probe lattice over the closed unit square (includes 0.0 and
/// 1.0), plus every [`boundaries`] value crossed with the lattice's
/// coordinates on the other axis.
fn lattice() -> Vec<Point> {
    let (grid, b) = ((0..=16).map(|i| f64::from(i) / 16.0), boundaries());
    let mut out = Vec::new();
    for u in grid.clone() {
        out.extend(grid.clone().map(|v| Point::at(u, v)));
        out.extend(b.iter().flat_map(|&v| [Point::at(u, v), Point::at(v, u)]));
    }
    out
}

fn grid_index_builder() -> impl Fn(&elsi_serve::ShardContext, Vec<Point>) -> GridIndex {
    |_ctx, pts| GridIndex::build(pts, &GridConfig { block_size: 8 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn learned_router_upholds_the_router_contract(
        continuous in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..200),
        snapped in prop::collection::vec((0..boundaries().len(), 0..boundaries().len()), 0..60),
        dup_run in 0usize..48,
        rows in 1usize..=16,
        cols in 1usize..=16,
    ) {
        let mut points = assemble(&continuous, &snapped, u64::MAX);
        // A duplicate-heavy atom: pushes one column's (or the whole
        // sample's) mass onto a single coordinate so quantile cuts
        // collapse and the uniform-cut fallback must kick in.
        points.extend((0..dup_run).map(|i| Point::new(900_000 + i as u64, 0.375, 0.625)));
        let probes = lattice();
        for r in [Router::fit(&points, rows, cols), Router::new(rows, cols)] {
            // Well-formed cuts: `from_cuts` accepts only strictly
            // increasing cuts anchored at 0 and 1, sized to the shape — no
            // empty or inverted cells even on fully degenerate samples.
            let y_cuts = (0..cols).map(|c| r.y_cuts(c).unwrap_or(&[]).to_vec()).collect();
            let rebuilt = Router::from_cuts(rows, cols, r.x_cuts().to_vec(), y_cuts);
            prop_assert_eq!(rebuilt.as_ref(), Some(&r));

            // Contract 1 + 2: ownership is total and the owner's closed rect
            // contains the point — for every training point and for a lattice
            // covering [0,1]² (which also shows the rects cover the square).
            for p in points.iter().chain(&probes) {
                let s = r.shard_of(*p);
                prop_assert!(s < r.num_shards());
                prop_assert!(r.shard_rect(s).contains(p), "rect must cover owner of {:?}", p);
            }

            // Tie rule: a coordinate exactly on an interior cut belongs to
            // the *higher* cell. Column c starts at x_cuts[c]; row rr of
            // column c starts at y_cuts(c)[rr].
            for c in 1..cols {
                let cut = r.x_cuts().get(c).copied().unwrap_or(0.0);
                prop_assert_eq!(r.shard_of(Point::at(cut, 0.0)) % cols, c, "x cut {}", c);
            }
            for c in 0..cols {
                let lo = r.x_cuts().get(c).copied().unwrap_or(0.0);
                let hi = r.x_cuts().get(c + 1).copied().unwrap_or(1.0);
                let x = (lo + hi) / 2.0;
                let cuts = r.y_cuts(c).unwrap_or(&[]);
                for rr in 1..rows {
                    let cut = cuts.get(rr).copied().unwrap_or(0.0);
                    let s = r.shard_of(Point::at(x, cut));
                    prop_assert_eq!(s / cols, rr, "col {} y cut {}", c, rr);
                }
            }

            // Window routing covers ownership: any point of the window routes
            // to a listed shard, and the listing is ascending.
            let w = Rect::new(0.1, 0.05, 0.8, 0.7);
            let shards = r.shards_for_window(&w);
            prop_assert!(shards.iter().zip(shards.iter().skip(1)).all(|(a, b)| a < b));
            for i in 0..=10 {
                for j in 0..=10 {
                    let p = Point::at(
                        w.lo_x + (w.hi_x - w.lo_x) * i as f64 / 10.0,
                        w.lo_y + (w.hi_y - w.lo_y) * j as f64 / 10.0,
                    );
                    prop_assert!(shards.contains(&r.shard_of(p)), "window point {:?}", p);
                }
            }
            prop_assert!(r.shards_for_window(&Rect::empty()).is_empty());
        }
    }

    #[test]
    fn grid_and_learned_answers_are_bit_identical(
        continuous in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..150),
        snapped in prop::collection::vec((0..boundaries().len(), 0..boundaries().len()), 0..40),
        id_modulus in 1u64..60,
        rows in 1usize..=16,
        cols in 1usize..=16,
        q in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 0usize..20,
    ) {
        let points = assemble(&continuous, &snapped, id_modulus);
        let cfg = ShardedConfig::default();
        let grid = ShardedIndex::build(
            points.clone(), Router::new(rows, cols), &cfg, grid_index_builder(),
            |_s| RebuildPolicy::Never);
        let learned = ShardedIndex::build(
            points.clone(), Router::fit_sampled(&points, rows, cols), &cfg,
            grid_index_builder(), |_s| RebuildPolicy::Never);

        // Repeated ids: both builds serve the last copy of each id alone,
        // wherever its other copies would have been routed.
        let last: BTreeMap<u64, Point> = points.iter().map(|p| (p.id, *p)).collect();
        let live: Vec<Point> = last.into_values().collect();
        for built in [&grid, &learned] {
            prop_assert_eq!(built.len(), live.len());
            prop_assert_eq!(built.window_query(&Rect::unit()), live.clone());
        }

        // Windows and kNN are canonically ordered, so equal sets are
        // bit-identical regardless of how points were sharded.
        let qp = Point::at(q.0, q.1);
        let windows = [
            Rect::window_around(qp, 0.1),
            Rect::new(0.25, 0.125, 0.75, 0.5),
            Rect::unit(),
        ];
        for w in &windows {
            prop_assert_eq!(grid.window_query(w), learned.window_query(w), "{:?}", w);
        }
        prop_assert_eq!(grid.knn_query(qp, k), learned.knn_query(qp, k));
        let qs: Vec<Point> = points.iter().take(16).copied().chain([qp]).collect();
        prop_assert_eq!(grid.par_knn_queries(&qs, k), learned.par_knn_queries(&qs, k));

        // Point lookups return *a* stored point at the queried
        // coordinates; with coordinate duplicates which copy surfaces
        // first is the inner index's layout choice, so compare by
        // coordinate bits.
        let coords = |o: Option<Point>| o.map(|p| (p.x.to_bits(), p.y.to_bits()));
        for p in points.iter().take(40) {
            prop_assert_eq!(
                coords(grid.point_query(*p)),
                coords(learned.point_query(*p)),
                "{:?}", p
            );
        }
        prop_assert_eq!(
            grid.point_query(Point::at(0.123456789, 0.987654321)),
            learned.point_query(Point::at(0.123456789, 0.987654321))
        );
    }
}
