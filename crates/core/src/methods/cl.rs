//! CL: clustering-based training-set reduction (§V-A2).
//!
//! Clusters the partition in the *original* space with k-means and uses the
//! `C` cluster centroids as `D_S`. Centroids are generally not members of
//! `D`, which is fine for mappings that are independent of the data (ZM's
//! Z-curve) or computed from `D` once (ML-Index pivots) — but rules CL out
//! for LISA (§VII-A). The straightforward `O(C·n·d·i)` cost is what makes
//! CL the slowest method in Table II, and we keep it straightforward on
//! purpose.

use crate::config::ElsiConfig;
use elsi_indices::BuildInput;
use elsi_ml::kmeans;
use elsi_spatial::Point;

/// Mapped keys of the `C` k-means centroids of the partition, sorted.
pub fn centroids(input: &BuildInput<'_>, cfg: &ElsiConfig) -> Vec<f64> {
    if input.points.is_empty() {
        return Vec::new();
    }
    let pts: Vec<(f64, f64)> = input.points.iter().map(|p| (p.x, p.y)).collect();
    let result = kmeans(&pts, cfg.clusters, cfg.kmeans_iters, cfg.seed ^ input.seed);
    let mut keys: Vec<f64> = result
        .centroids
        .iter()
        .map(|&(x, y)| input.mapper.key(Point::at(x, y)))
        .collect();
    keys.sort_unstable_by(|a, b| a.total_cmp(b));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_spatial::{sort_by_key, MortonMapper};

    #[test]
    fn centroid_keys_sorted_and_bounded() {
        let pts = elsi_data::gen::uniform(2000, 3);
        let (sorted, sorted_keys) = sort_by_key(pts, &MortonMapper);
        let cfg = ElsiConfig {
            clusters: 32,
            ..ElsiConfig::fast_test()
        };
        let input = BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 0,
        };
        let keys = centroids(&input, &cfg);
        assert_eq!(keys.len(), 32);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(keys.iter().all(|k| (0.0..=1.0).contains(k)));
    }

    #[test]
    fn empty_partition() {
        let cfg = ElsiConfig::fast_test();
        let input = BuildInput {
            points: &[],
            keys: &[],
            mapper: &MortonMapper,
            seed: 0,
        };
        assert!(centroids(&input, &cfg).is_empty());
    }
}
