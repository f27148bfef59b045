//! Property tests over the spatial substrate.

use elsi_spatial::{
    scan, HilbertMapper, IDistanceMapper, KeyMapper, LisaMapper, MortonMapper, Point, Rect,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every mapper emits keys in [0, 1] for unit-square points.
    #[test]
    fn mappers_emit_unit_keys(pts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 1..100)) {
        let points: Vec<Point> =
            pts.iter().enumerate().map(|(i, &(x, y))| Point::new(i as u64, x, y)).collect();
        let lisa = LisaMapper::fit(&points, 4);
        let idist = IDistanceMapper::new(vec![Point::at(0.2, 0.2), Point::at(0.8, 0.8)]);
        for &p in &points {
            for key in [MortonMapper.key(p), HilbertMapper.key(p), lisa.key(p), idist.key(p)] {
                prop_assert!((0.0..=1.0).contains(&key), "key {} for {}", key, p);
            }
        }
    }

    /// The LISA key of a point lies inside the key range of its cell, and
    /// within a cell the key is monotone in y.
    #[test]
    fn lisa_key_cell_consistency(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 16..200),
        (qx, qy1, qy2) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0)
    ) {
        let points: Vec<Point> =
            pts.iter().enumerate().map(|(i, &(x, y))| Point::new(i as u64, x, y)).collect();
        let m = LisaMapper::fit(&points, 4);
        let q1 = Point::at(qx, qy1.min(qy2));
        let q2 = Point::at(qx, qy1.max(qy2));
        let (c1, r1) = m.cell_of(q1);
        let (lo, hi) = m.cell_key_range(c1, r1);
        let k1 = m.key(q1);
        prop_assert!(k1 >= lo && k1 < hi);
        // Same cell => monotone in y.
        if m.cell_of(q2) == (c1, r1) {
            prop_assert!(m.key(q2) >= k1 - 1e-12);
        }
    }

    /// The branchless SoA kernels are bit-equivalent to the scalar
    /// reference scans on arbitrary inputs, windows and k; the kNN kernel
    /// also under a drawn dead-lane mask, against the reference over the
    /// live lanes alone.
    #[test]
    fn scan_kernels_match_scalar_reference(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..220),
        (wx, wy, ww, wh) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.6, 0.0f64..0.6),
        (qx, qy) in (0.0f64..1.0, 0.0f64..1.0),
        k in 0usize..24,
        dead in prop::collection::vec(any::<bool>(), 220..221)
    ) {
        let xs: Vec<f64> = pts.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = pts.iter().map(|&(_, y)| y).collect();
        let ids: Vec<u64> = (0..pts.len() as u64).collect();
        let w = Rect::new(wx, wy, wx + ww, wy + wh);

        let mut slot = vec![Point::at(0.0, 0.0); xs.len()];
        let m = scan::range_scan_into(&xs, &ys, &ids, &w, &mut slot);
        let mut want = Vec::new();
        scan::range_scan_scalar(&xs, &ys, &ids, &w, &mut want);
        prop_assert_eq!(&slot[..m], &want[..]);

        prop_assert_eq!(
            scan::contains_scan(&xs, &ys, qx, qy),
            scan::contains_scan_scalar(&xs, &ys, qx, qy)
        );
        if let Some(&(sx, sy)) = pts.first() {
            prop_assert_eq!(
                scan::contains_scan(&xs, &ys, sx, sy),
                scan::contains_scan_scalar(&xs, &ys, sx, sy)
            );
        }

        let mut heap = scan::KnnHeap::with_bound(k);
        scan::knn_scan(qx, qy, &xs, &ys, &ids, &mut heap);
        let mut knn_want = Vec::new();
        scan::knn_scan_scalar(qx, qy, &xs, &ys, &ids, k, &mut knn_want);
        prop_assert_eq!(heap.finish(), &knn_want[..]);

        let live = |id: u64| !dead[id as usize];
        let mut heap = scan::KnnHeap::with_bound(k);
        scan::knn_scan_live(qx, qy, &xs, &ys, &ids, &mut heap, live);
        let alive: Vec<u64> = ids.iter().copied().filter(|&id| live(id)).collect();
        let pick = |c: &[f64]| alive.iter().map(|&id| c[id as usize]).collect::<Vec<f64>>();
        knn_want.clear();
        scan::knn_scan_scalar(qx, qy, &pick(&xs), &pick(&ys), &alive, k, &mut knn_want);
        prop_assert_eq!(heap.finish(), &knn_want[..]);
    }

    /// Removing any point leaves the maintained MBR equal to a from-scratch
    /// recompute — the interior fast path takes no shortcuts it shouldn't.
    #[test]
    fn block_remove_preserves_exact_mbr(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..60),
        victim in 0usize..60
    ) {
        let points: Vec<Point> =
            pts.iter().enumerate().map(|(i, &(x, y))| Point::new(i as u64, x, y)).collect();
        let mut b = elsi_spatial::Block::from_points(points.clone());
        let victim = victim % points.len();
        prop_assert!(b.remove_exact(&points[victim]));
        let survivors: Vec<Point> =
            points.iter().filter(|p| p.id != victim as u64).copied().collect();
        prop_assert_eq!(b.mbr(), Rect::mbr_of(&survivors));
    }

    /// iDistance keys of points assigned to pivot i sort before keys of
    /// pivot j > i (non-overlapping pivot ranges).
    #[test]
    fn idistance_ranges_do_not_overlap(pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..100)) {
        let m = IDistanceMapper::new(vec![Point::at(0.25, 0.25), Point::at(0.75, 0.75)]);
        for &(x, y) in &pts {
            let p = Point::at(x, y);
            let (i, d) = m.nearest_pivot(p);
            let key = m.key_of(i, d);
            if i == 0 {
                prop_assert!(key < 0.5, "pivot 0 key {} out of range", key);
            } else {
                prop_assert!(key >= 0.5, "pivot 1 key {} out of range", key);
            }
        }
    }

    /// Window/MBR algebra: union contains both, intersection area is
    /// symmetric and bounded by each area.
    #[test]
    fn rect_algebra(
        (ax, ay, aw, ah) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5),
        (bx, by, bw, bh) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5)
    ) {
        let a = Rect::new(ax, ay, ax + aw, ay + ah);
        let b = Rect::new(bx, by, bx + bw, by + bh);
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a) && u.contains_rect(&b));
        let ia = a.intersection_area(&b);
        prop_assert!((ia - b.intersection_area(&a)).abs() < 1e-12);
        prop_assert!(ia <= a.area() + 1e-12 && ia <= b.area() + 1e-12);
        prop_assert_eq!(ia > 0.0, a.intersects(&b) && ia > 0.0);
    }
}
