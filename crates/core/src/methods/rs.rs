//! RS: the representative-set building method (§V-B1, Algorithm 2).
//!
//! Recursively partitions the partition's bounding space into quadrants
//! until every cell holds at most β points, then adds the *median point in
//! the mapped order* of each non-empty cell to `D_S`. RS samples with
//! respect to both spaces at once — partitions of the original space, ranks
//! of the mapped space — which is why it approximates the distribution
//! patterns of `D` so well (and why it tops the Pareto front of Fig. 7).

use crate::config::ElsiConfig;
use elsi_indices::BuildInput;
use elsi_spatial::{Point, Rect};

/// Maximum recursion depth; at depth 48 a unit-square cell has side
/// `2^-48 ≈ 3.6e-15`, below `f64` resolution for unit-scale data, so deeper
/// splits cannot separate points and would loop forever on duplicates.
const MAX_DEPTH: u32 = 48;

/// Sorted mapped keys of the representative set of the partition, and the
/// point visits of the quadtree splits that built it (each split visits
/// its cell's points once).
///
/// The quadtree is never materialised: the recursion runs over one buffer
/// of point indices and one scratch buffer of the same length, and each
/// split is a stable counting partition of a cell's range into its four
/// quadrants. A cell's range therefore holds its indices in ascending
/// order — and `input.points` is sorted by key, so the middle index is the
/// cell's median point in the mapped space.
pub fn representative_set(input: &BuildInput<'_>, cfg: &ElsiConfig) -> (Vec<f64>, u64) {
    let mut cell: Vec<usize> = (0..input.points.len()).collect();
    let mut scratch = vec![0; cell.len()];
    let quadtree = Quadtree {
        points: input.points,
        keys: input.keys,
        beta: cfg.beta.max(1),
    };
    let mut keys = Vec::new();
    let bounds = Rect::mbr_of(input.points);
    let visits = quadtree.split(&mut cell, &mut scratch, bounds, 0, &mut keys);
    keys.sort_unstable_by(f64::total_cmp);
    (keys, visits)
}

/// Algorithm 2's partitioning loop for d = 2 over one partition.
struct Quadtree<'a> {
    points: &'a [Point],
    keys: &'a [f64],
    beta: usize,
}

impl Quadtree<'_> {
    /// Splits the cell `bounds`, whose points are `cell` (ascending
    /// indices), into 4 equal quadrants until every cell holds at most β
    /// points or the depth cap is reached, and pushes the key of each
    /// non-empty leaf's median to `out`; returns the point visits of the
    /// splits it made. `scratch` is as long as `cell`; both come back in an
    /// unspecified state.
    fn split(
        &self,
        cell: &mut [usize],
        scratch: &mut [usize],
        bounds: Rect,
        depth: u32,
        out: &mut Vec<f64>,
    ) -> u64 {
        if cell.len() <= self.beta || depth >= MAX_DEPTH {
            // An empty cell has no median and is dropped, matching the
            // paper ("a point from each *non-empty* cell is selected").
            out.extend(cell.get(cell.len() / 2).and_then(|&i| self.keys.get(i)));
            return 0;
        }
        let mut visits = cell.len() as u64;
        let mx = (bounds.lo_x + bounds.hi_x) / 2.0;
        let my = (bounds.lo_y + bounds.hi_y) / 2.0;
        // Quadrants in Z order: (lo,lo), (hi,lo), (lo,hi), (hi,hi).
        let quadrant = |i: usize| {
            self.points
                .get(i)
                .map_or(0, |p| 2 * usize::from(p.y >= my) + usize::from(p.x >= mx))
        };
        let mut lens = [0usize; 4];
        for &i in cell.iter() {
            if let Some(len) = lens.get_mut(quadrant(i)) {
                *len += 1;
            }
        }
        let mut next = [0usize; 4];
        let mut start = 0;
        for (at, len) in next.iter_mut().zip(lens) {
            *at = start;
            start += len;
        }
        for &i in cell.iter() {
            if let Some(at) = next.get_mut(quadrant(i)) {
                if let Some(slot) = scratch.get_mut(*at) {
                    *slot = i;
                }
                *at += 1;
            }
        }
        let child_bounds = [
            Rect::new(bounds.lo_x, bounds.lo_y, mx, my),
            Rect::new(mx, bounds.lo_y, bounds.hi_x, my),
            Rect::new(bounds.lo_x, my, mx, bounds.hi_y),
            Rect::new(mx, my, bounds.hi_x, bounds.hi_y),
        ];
        // The children's indices now sit in `scratch`; `cell` is their
        // scratch.
        let (mut children, mut spare) = (scratch, cell);
        for (len, b) in lens.into_iter().zip(child_bounds) {
            let (child, rest) = std::mem::take(&mut children).split_at_mut(len);
            let (child_scratch, spare_rest) = std::mem::take(&mut spare).split_at_mut(len);
            visits += self.split(child, child_scratch, b, depth + 1, out);
            (children, spare) = (rest, spare_rest);
        }
        visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::ks_distance;
    use elsi_spatial::{sort_by_key, KeyMapper, MortonMapper};
    use proptest::prelude::*;

    /// A leaf of the reference quadtree.
    struct QuadLeaf {
        /// Indices (into the input slice) of the points inside the cell.
        indices: Vec<usize>,
        /// The cell's bounds.
        bounds: Rect,
        /// Depth of the cell in the partition tree (root = 0).
        depth: u32,
    }

    /// The quadtree [`representative_set`] must agree with, built one
    /// `Vec` per node: `bounds` split into 4 equal quadrants until every
    /// cell holds at most `beta` points or the depth cap is reached, empty
    /// cells dropped, each leaf's indices in input order.
    fn quadtree_partition(points: &[Point], beta: usize, bounds: Rect) -> Vec<QuadLeaf> {
        let mut leaves = Vec::new();
        let all = (0..points.len()).collect();
        split_into(points, all, beta, bounds, 0, &mut leaves);
        leaves
    }

    fn split_into(
        points: &[Point],
        indices: Vec<usize>,
        beta: usize,
        bounds: Rect,
        depth: u32,
        out: &mut Vec<QuadLeaf>,
    ) {
        if indices.is_empty() {
            return;
        }
        if indices.len() <= beta || depth >= MAX_DEPTH {
            out.push(QuadLeaf {
                indices,
                bounds,
                depth,
            });
            return;
        }
        let mx = (bounds.lo_x + bounds.hi_x) / 2.0;
        let my = (bounds.lo_y + bounds.hi_y) / 2.0;
        let mut quads: [Vec<usize>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for i in indices {
            let p = &points[i];
            let qx = usize::from(p.x >= mx);
            let qy = usize::from(p.y >= my);
            quads[qy * 2 + qx].push(i);
        }
        let child_bounds = [
            Rect::new(bounds.lo_x, bounds.lo_y, mx, my),
            Rect::new(mx, bounds.lo_y, bounds.hi_x, my),
            Rect::new(bounds.lo_x, my, mx, bounds.hi_y),
            Rect::new(mx, my, bounds.hi_x, bounds.hi_y),
        ];
        for (q, b) in quads.into_iter().zip(child_bounds) {
            split_into(points, q, beta, b, depth + 1, out);
        }
    }

    /// Checks that `leaves` partition `points`: every leaf non-empty, at
    /// most `beta` points unless at the depth cap, every point in exactly
    /// one leaf and inside that leaf's bounds (a point on a split line
    /// belongs to the upper quadrant, so the closed rectangle holds it).
    fn assert_partition(points: &[Point], leaves: &[QuadLeaf], beta: usize) {
        let mut seen = vec![false; points.len()];
        for leaf in leaves {
            assert!(!leaf.indices.is_empty(), "empty leaves must be dropped");
            assert!(leaf.indices.len() <= beta || leaf.depth == MAX_DEPTH);
            for &i in &leaf.indices {
                assert!(!seen[i], "point {i} in two leaves");
                seen[i] = true;
                assert!(
                    leaf.bounds.contains(&points[i]),
                    "point {i} outside its leaf"
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "some point dropped");
    }

    /// Key-sorted `points` and their representative set at `beta`, with
    /// the reference's leaves and the sorted keys of their medians. The
    /// leaves are checked with [`assert_partition`].
    fn rs_and_reference(points: Vec<Point>, beta: usize) -> (Vec<f64>, Vec<QuadLeaf>, Vec<f64>) {
        let (points, keys) = sort_by_key(&points, &MortonMapper);
        let input = BuildInput {
            points: &points,
            keys: &keys,
            mapper: &MortonMapper,
            seed: 0,
        };
        let cfg = ElsiConfig {
            beta,
            ..ElsiConfig::fast_test()
        };
        let leaves = quadtree_partition(&points, beta, Rect::mbr_of(&points));
        assert_partition(&points, &leaves, beta);
        let mut medians: Vec<f64> = leaves
            .iter()
            .map(|leaf| keys[leaf.indices[leaf.indices.len() / 2]])
            .collect();
        medians.sort_unstable_by(f64::total_cmp);
        let (rs, visits) = representative_set(&input, &cfg);
        let depths: u64 = leaves
            .iter()
            .map(|leaf| leaf.indices.len() as u64 * u64::from(leaf.depth))
            .sum();
        assert_eq!(visits, depths);
        (rs, leaves, medians)
    }

    fn key_bits(keys: &[f64]) -> Vec<u64> {
        keys.iter().map(|k| k.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-buffer recursion selects exactly the reference's leaf
        /// medians. A third of the points sit on one of two stacks, which
        /// at small β reach the depth cap. In coarse cases the others sit
        /// on a 1/16 grid, so points fall on split lines.
        #[test]
        fn representative_set_equals_the_reference_medians(
            raw in prop::collection::vec((0usize..6, 0.0f64..1.0, 0.0f64..1.0), 0..300),
            beta in 1usize..=50,
            coarse in any::<bool>()
        ) {
            let on_grid = |v: f64| if coarse { (v * 16.0).floor() / 16.0 } else { v };
            let points: Vec<Point> = raw
                .iter()
                .zip(0..)
                .map(|(&(draw, x, y), id)| match draw {
                    0 | 1 => Point::new(id, 0.3 + 0.1 * draw as f64, 0.6),
                    _ => Point::new(id, on_grid(x), on_grid(y)),
                })
                .collect();
            let (rs, _, medians) = rs_and_reference(points, beta);
            prop_assert_eq!(key_bits(&rs), key_bits(&medians));
        }

        /// The reference partitions the unit square completely and
        /// disjointly for any point set and β.
        #[test]
        fn quadtree_partition_is_complete_and_disjoint(
            raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..300),
            beta in 1usize..50
        ) {
            let points: Vec<Point> =
                raw.iter().zip(0..).map(|(&(x, y), id)| Point::new(id, x, y)).collect();
            let leaves = quadtree_partition(&points, beta, Rect::unit());
            assert_partition(&points, &leaves, beta);
        }
    }

    /// 12 points in the lower-left corner, 4 spread elsewhere.
    fn cluster_points() -> Vec<Point> {
        let mut pts: Vec<Point> = (0..12)
            .map(|i| {
                Point::new(
                    i,
                    0.01 + 0.01 * (i % 4) as f64,
                    0.01 + 0.01 * (i / 4) as f64,
                )
            })
            .collect();
        pts.push(Point::new(12, 0.9, 0.1));
        pts.push(Point::new(13, 0.1, 0.9));
        pts.push(Point::new(14, 0.9, 0.9));
        pts.push(Point::new(15, 0.6, 0.6));
        pts
    }

    #[test]
    fn quadtree_leaves_cover_all_points_exactly_once() {
        // The corner cluster splits below the root; the spread points do not.
        let (rs, leaves, medians) = rs_and_reference(cluster_points(), 4);
        assert!(leaves.len() > 4 && leaves.iter().all(|l| l.indices.len() <= 4));
        assert_eq!(key_bits(&rs), key_bits(&medians));
    }

    #[test]
    fn quadtree_empty_input() {
        let (rs, leaves, _) = rs_and_reference(Vec::new(), 4);
        assert!(rs.is_empty() && leaves.is_empty());
    }

    #[test]
    fn stacks_of_identical_points_stop_at_the_depth_cap() {
        // Ten identical points cannot be separated; the recursion must stop.
        let mut pts: Vec<Point> = (0..10).map(|i| Point::new(i, 0.5, 0.5)).collect();
        pts.push(Point::new(10, 0.1, 0.9));
        let (rs, leaves, medians) = rs_and_reference(pts, 2);
        assert_eq!(key_bits(&rs), key_bits(&medians));
        assert_eq!(rs.len(), 2);
        assert!(leaves
            .iter()
            .any(|l| l.depth == MAX_DEPTH && l.indices.len() == 10));
    }

    #[test]
    fn a_cell_within_beta_is_one_leaf() {
        let one = Point::new(3, 0.25, 0.75);
        let (rs, leaves, _) = rs_and_reference(vec![one], 1);
        assert_eq!(rs, vec![MortonMapper.key(one)]);
        assert_eq!(leaves.len(), 1);
        // Under β nothing splits: the root is the one leaf, and its median
        // is the middle of the key order.
        let pts = elsi_data::gen::uniform(16, 4);
        let (sorted, keys) = sort_by_key(&pts, &MortonMapper);
        let (rs, leaves, medians) = rs_and_reference(pts, 100);
        assert_eq!((leaves.len(), leaves[0].depth), (1, 0));
        assert_eq!(leaves[0].indices.len(), sorted.len());
        assert_eq!(rs, vec![keys[8]]);
        assert_eq!(key_bits(&rs), key_bits(&medians));
    }

    #[test]
    fn rs_tracks_distribution_closely() {
        let pts = elsi_data::gen::nyc_like(5000, 11);
        let (sorted, sorted_keys) = sort_by_key(&pts, &MortonMapper);
        let cfg = ElsiConfig {
            beta: 64,
            ..ElsiConfig::fast_test()
        };
        let input = BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 0,
        };
        let (keys, _) = representative_set(&input, &cfg);
        assert!(keys.len() < sorted.len() / 4, "must reduce: {}", keys.len());
        let d = ks_distance(&keys, &sorted_keys);
        assert!(d < 0.15, "KS distance {d}");
    }

    #[test]
    fn beta_controls_set_size() {
        let pts = elsi_data::gen::uniform(4000, 2);
        let (sorted, sorted_keys) = sort_by_key(&pts, &MortonMapper);
        let input = BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 0,
        };
        let (small_beta, _) = representative_set(
            &input,
            &ElsiConfig {
                beta: 32,
                ..ElsiConfig::fast_test()
            },
        );
        let (large_beta, _) = representative_set(
            &input,
            &ElsiConfig {
                beta: 512,
                ..ElsiConfig::fast_test()
            },
        );
        assert!(small_beta.len() > large_beta.len());
    }

    #[test]
    fn every_key_is_a_member_of_d() {
        let pts = elsi_data::gen::skewed(1000, 4, 5);
        let (sorted, sorted_keys) = sort_by_key(&pts, &MortonMapper);
        let cfg = ElsiConfig {
            beta: 50,
            ..ElsiConfig::fast_test()
        };
        let input = BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 0,
        };
        for k in representative_set(&input, &cfg).0 {
            assert!(sorted_keys.contains(&k), "RS must select points of D");
        }
    }
}
