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
use elsi_spatial::{quadtree_partition, Rect};

/// Sorted mapped keys of the representative set of the partition.
pub fn representative_set(input: &BuildInput<'_>, cfg: &ElsiConfig) -> Vec<f64> {
    if input.points.is_empty() {
        return Vec::new();
    }
    let bounds = Rect::mbr_of(input.points);
    let leaves = quadtree_partition(input.points, cfg.beta.max(1), bounds);
    let mut keys: Vec<f64> = leaves
        .iter()
        .map(|leaf| {
            // `input.points` is sorted by key, and the partitioner
            // preserves index order within a cell — so the middle index is
            // the cell's median point in the mapped space.
            let mid = leaf.indices[leaf.indices.len() / 2];
            input.keys[mid]
        })
        .collect();
    keys.sort_unstable_by(|a, b| a.total_cmp(b));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::ks_distance;
    use elsi_spatial::{sort_by_key, MortonMapper};

    #[test]
    fn rs_tracks_distribution_closely() {
        let pts = elsi_data::gen::nyc_like(5000, 11);
        let (sorted, sorted_keys) = sort_by_key(pts, &MortonMapper);
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
        let keys = representative_set(&input, &cfg);
        assert!(keys.len() < sorted.len() / 4, "must reduce: {}", keys.len());
        let d = ks_distance(&keys, &sorted_keys);
        assert!(d < 0.15, "KS distance {d}");
    }

    #[test]
    fn beta_controls_set_size() {
        let pts = elsi_data::gen::uniform(4000, 2);
        let (sorted, sorted_keys) = sort_by_key(pts, &MortonMapper);
        let input = BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 0,
        };
        let small_beta = representative_set(
            &input,
            &ElsiConfig {
                beta: 32,
                ..ElsiConfig::fast_test()
            },
        );
        let large_beta = representative_set(
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
        let (sorted, sorted_keys) = sort_by_key(pts, &MortonMapper);
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
        for k in representative_set(&input, &cfg) {
            assert!(sorted_keys.contains(&k), "RS must select points of D");
        }
    }
}
