//! Learned cuts: equi-mass shard boundaries from piecewise-linear rank
//! models.
//!
//! Uniform cuts ([`Router::new`]) pile a skewed workload's points into a
//! few shards while the rest idle. [`Router::fit`] instead *learns* the
//! data distribution: it fits an ε-bounded piecewise-linear model of each
//! axis's empirical CDF (`elsi_ml::PwlModel`, the same shrinking-cone
//! machinery the PWL index method uses) and places the cuts at equi-mass
//! quantiles — inverted-CDF positions where each cut sheds `1/parts` of
//! the sample mass — so every shard owns roughly `n / S` points
//! regardless of skew.
//!
//! The x axis is cut into `cols` columns from the x-marginal CDF, then
//! each column's y axis is cut into `rows` cells from that column's
//! *conditional* y-CDF. Conditional per-column cuts matter for clustered
//! data, where the y distribution varies with x and a single global
//! y-marginal would rebalance nothing.

use elsi_ml::PwlModel;
use elsi_spatial::Point;

use super::{cut_cell, uniform_cuts, Router};

/// Cap on the number of sample points [`Router::fit_sampled`]
/// feeds into the CDF fit: quantile cuts need a sketch of the
/// distribution, not every point.
const MAX_FIT_SAMPLE: usize = 100_000;

impl Router {
    /// Fits a `rows × cols` router (each clamped up to at least 1) to
    /// `sample`.
    ///
    /// Degenerate samples (empty, too small, or with fewer distinct
    /// coordinate values than cuts) make equi-mass cuts impossible; the
    /// affected axis falls back to [`Router::new`]'s uniform cuts, so the
    /// fit always produces `rows × cols` non-empty, strictly increasing
    /// cells. A fully degenerate sample fits the uniform grid.
    ///
    /// Deterministic: same sample and shape, same router — coordinates
    /// are ordered with `total_cmp` and the fit is a fixed one-pass
    /// algorithm, so deployments seeded from the same data route
    /// identically (see "determinism under sharding", `DESIGN.md` §9).
    pub fn fit(sample: &[Point], rows: usize, cols: usize) -> Self {
        let rows = rows.max(1);
        let cols = cols.max(1);

        let mut xs: Vec<f64> = sample.iter().map(|p| p.x).collect();
        xs.sort_unstable_by(|a, b| a.total_cmp(b));
        let x_cuts = axis_cuts(&xs, cols).unwrap_or_else(|| uniform_cuts(cols));

        // Route the sample through the learned x cuts, then fit each
        // column's conditional y-CDF on exactly the points it will own.
        let mut col_ys: Vec<Vec<f64>> = vec![Vec::new(); cols];
        for p in sample {
            if let Some(ys) = col_ys.get_mut(cut_cell(p.x, &x_cuts)) {
                ys.push(p.y);
            }
        }
        let y_cuts = col_ys
            .into_iter()
            .map(|mut ys| {
                ys.sort_unstable_by(|a, b| a.total_cmp(b));
                axis_cuts(&ys, rows).unwrap_or_else(|| uniform_cuts(rows))
            })
            .collect();

        Self {
            rows,
            cols,
            x_cuts,
            y_cuts,
        }
    }

    /// [`Router::fit`] over a deterministic stride subsample capped
    /// at 100k points — large builds pay a bounded fitting cost while the
    /// stride preserves the empirical distribution.
    pub fn fit_sampled(points: &[Point], rows: usize, cols: usize) -> Self {
        let step = points.len().div_ceil(MAX_FIT_SAMPLE).max(1);
        if step <= 1 {
            return Self::fit(points, rows, cols);
        }
        let sample: Vec<Point> = points.iter().step_by(step).copied().collect();
        Self::fit(&sample, rows, cols)
    }
}

/// ε for the PWL CDF fit of one axis: a small fraction of the per-part
/// mass, so the ≤ 2ε rank slack at each cut cannot disturb the balance
/// the cuts exist to create; clamped so tiny samples still fit (ε ≥ 1 is
/// required) and huge ones stay cheap.
fn cdf_epsilon(n: usize, parts: usize) -> usize {
    (n / parts.max(1) / 16).clamp(4, 256)
}

/// Equi-mass cuts for one axis: `parts + 1` strictly increasing values
/// from `0.0` to `1.0`, with cut `j` at the fitted CDF's `j·n/parts`
/// quantile. `sorted` must be ascending (callers sort with `total_cmp`).
///
/// Returns `None` — fall back to uniform cuts — when no equi-mass cut
/// set exists: empty or too-small samples, fewer distinct values than
/// parts, or quantiles that collapse onto each other / the axis ends
/// (heavy duplicate mass, e.g. TPC-H's 50 distinct x values). The
/// strict-monotonicity check is the robustness guarantee: a returned cut
/// set can never produce empty or inverted cells.
fn axis_cuts(sorted: &[f64], parts: usize) -> Option<Vec<f64>> {
    if parts <= 1 {
        return Some(vec![0.0, 1.0]);
    }
    let n = sorted.len();
    if n < 2 * parts {
        return None;
    }
    let distinct = 1 + sorted
        .iter()
        .zip(sorted.iter().skip(1))
        .filter(|(a, b)| a < b)
        .count();
    if distinct < parts {
        return None;
    }
    let model = PwlModel::fit(sorted, cdf_epsilon(n, parts));
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0.0);
    for j in 1..parts {
        let target = (j as f64 / parts as f64) * n as f64;
        let cut = model.quantile_key(target);
        let prev = cuts.last().copied().unwrap_or(0.0);
        if !(cut > prev && cut < 1.0) {
            return None;
        }
        cuts.push(cut);
    }
    cuts.push(1.0);
    Some(cuts)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use elsi_spatial::Rect;

    /// Points shaped `y = u⁴` (heavy mass near y = 0) on a uniform x —
    /// the skewed acceptance workload, deterministic without RNG.
    pub(crate) fn skewed_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                // Low-discrepancy uniform x via the golden-ratio sequence.
                let x = (i as f64 * 0.618_033_988_749_894_9).fract();
                let u = (i as f64 + 0.5) / n as f64;
                Point::new(i as u64, x, u.powi(4))
            })
            .collect()
    }

    fn max_over_mean(counts: &[usize]) -> f64 {
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
        max / mean.max(1e-12)
    }

    #[test]
    fn cuts_are_strictly_increasing_and_anchored() {
        let r = Router::fit(&skewed_points(20_000), 8, 8);
        let check = |cuts: &[f64], parts: usize| {
            assert_eq!(cuts.len(), parts + 1);
            assert_eq!(cuts.first().copied(), Some(0.0));
            assert_eq!(cuts.last().copied(), Some(1.0));
            assert!(cuts.iter().zip(cuts.iter().skip(1)).all(|(a, b)| a < b));
        };
        check(r.x_cuts(), 8);
        for c in 0..8 {
            check(r.y_cuts(c).map_or(&[][..], |v| v), 8);
        }
    }

    #[test]
    fn learned_cuts_balance_skew_where_grid_does_not() {
        let pts = skewed_points(50_000);
        let learned = Router::fit(&pts, 8, 8);
        let grid = Router::new(8, 8);
        let lm = max_over_mean(&super::super::shard_occupancy(&learned, &pts));
        let gm = max_over_mean(&super::super::shard_occupancy(&grid, &pts));
        assert!(lm <= 1.5, "learned max/mean {lm:.2} > 1.5");
        assert!(
            gm > 3.0,
            "grid max/mean {gm:.2} ≤ 3.0 — workload not skewed enough"
        );
    }

    #[test]
    fn empty_sample_falls_back_to_grid_cuts() {
        // A fully degenerate fit is the uniform grid.
        assert_eq!(Router::fit(&[], 4, 4), Router::new(4, 4));
        assert_eq!(Router::fit(&[], 3, 6), Router::new(3, 6));
    }

    #[test]
    fn all_duplicate_sample_falls_back_to_grid_cuts() {
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i, 0.5, 0.5)).collect();
        assert_eq!(Router::fit(&pts, 4, 4), Router::new(4, 4));
    }

    #[test]
    fn too_few_distinct_values_fall_back_per_axis() {
        // Three distinct x values cannot support 8 columns, but y is
        // continuous: the x axis falls back to uniform, y cuts stay
        // learned (fallback is per-axis, not all-or-nothing).
        let pts: Vec<Point> = (0..4000)
            .map(|i| {
                let u = (i as f64 + 0.5) / 4000.0;
                Point::new(i as u64, [0.2, 0.5, 0.8][i % 3], u * u)
            })
            .collect();
        let r = Router::fit(&pts, 4, 8);
        assert_eq!(r.x_cuts(), &uniform_cuts(8)[..]);
        // Columns that own the duplicate atoms have continuous y: learned
        // cuts differ from uniform.
        let owning = cut_cell(0.5, r.x_cuts());
        let cuts = r.y_cuts(owning).map_or(&[][..], |v| v);
        assert_ne!(cuts, &uniform_cuts(4)[..]);
        assert!(cuts.iter().zip(cuts.iter().skip(1)).all(|(a, b)| a < b));
    }

    #[test]
    fn tiny_sample_falls_back_to_grid_cuts() {
        let pts: Vec<Point> = (0..5)
            .map(|i| Point::new(i, i as f64 / 5.0, i as f64 / 5.0))
            .collect();
        assert_eq!(Router::fit(&pts, 8, 8), Router::new(8, 8));
    }

    #[test]
    fn boundary_coordinates_go_to_the_higher_cell() {
        let r = Router::fit(&skewed_points(10_000), 2, 2);
        let bx = r.x_cuts().get(1).copied().unwrap_or(0.5);
        let by0 = r.y_cuts(0).and_then(|c| c.get(1)).copied().unwrap_or(0.5);
        // Exactly on the interior x cut → right column.
        assert_eq!(r.shard_of(Point::at(bx, 0.0)) % 2, 1);
        // Exactly on column 0's interior y cut → upper row of column 0.
        assert_eq!(r.shard_of(Point::at(0.0, by0)), 2);
        // 1.0 folds into the last cell; out-of-range clamps to the edge.
        assert_eq!(r.shard_of(Point::at(1.0, 1.0)), 3);
        assert_eq!(r.shard_of(Point::at(-0.3, 2.0)), 2);
        assert_eq!(r.shard_of(Point::at(f64::NAN, 0.0)), 0);
    }

    #[test]
    fn ownership_is_covered_by_rects_and_windows_route_owners() {
        let r = Router::fit(&skewed_points(10_000), 3, 5);
        for i in 0..=40 {
            for j in 0..=40 {
                let p = Point::at(i as f64 / 40.0, j as f64 / 40.0);
                let s = r.shard_of(p);
                assert!(s < r.num_shards());
                assert!(r.shard_rect(s).contains(&p), "rect must cover owner");
            }
        }
        let w = Rect::new(0.05, 0.0, 0.3, 0.12);
        let fast = r.shards_for_window(&w);
        assert!(fast.iter().zip(fast.iter().skip(1)).all(|(a, b)| a < b));
        for i in 0..=10 {
            for j in 0..=10 {
                let p = Point::at(
                    w.lo_x + (w.hi_x - w.lo_x) * i as f64 / 10.0,
                    w.lo_y + (w.hi_y - w.lo_y) * j as f64 / 10.0,
                );
                assert!(fast.contains(&r.shard_of(p)), "window point {p:?}");
            }
        }
        assert!(r.shards_for_window(&Rect::empty()).is_empty());
    }

    #[test]
    fn from_cuts_accepts_fitted_cuts_and_rejects_broken_ones() {
        let r = Router::fit(&skewed_points(5_000), 3, 2);
        let rebuilt = Router::from_cuts(
            r.rows(),
            r.cols(),
            r.x_cuts().to_vec(),
            (0..r.cols())
                .map(|c| r.y_cuts(c).unwrap().to_vec())
                .collect(),
        )
        .unwrap();
        assert_eq!(rebuilt, r);

        let uc = uniform_cuts;
        // Zero-sized partitions.
        assert!(Router::from_cuts(0, 2, uc(2), vec![uc(0); 2]).is_none());
        // Wrong x cut count for the column count.
        assert!(Router::from_cuts(2, 2, uc(3), vec![uc(2); 2]).is_none());
        // Cuts not anchored at 0.0 / 1.0.
        assert!(Router::from_cuts(2, 2, vec![0.1, 0.5, 1.0], vec![uc(2); 2]).is_none());
        assert!(Router::from_cuts(2, 2, vec![0.0, 0.5, 0.9], vec![uc(2); 2]).is_none());
        // Not strictly increasing (and NaN, which orders as nothing).
        assert!(Router::from_cuts(2, 2, vec![0.0, 0.0, 1.0], vec![uc(2); 2]).is_none());
        assert!(Router::from_cuts(2, 2, vec![0.0, f64::NAN, 1.0], vec![uc(2); 2]).is_none());
        // One y cut set per column, each sized rows + 1.
        assert!(Router::from_cuts(2, 2, uc(2), vec![uc(2); 1]).is_none());
        assert!(Router::from_cuts(2, 2, uc(2), vec![uc(2), uc(3)]).is_none());
    }

    #[test]
    fn fit_sampled_matches_fit_under_the_cap_and_is_deterministic() {
        let pts = skewed_points(30_000);
        assert_eq!(Router::fit_sampled(&pts, 4, 4), Router::fit(&pts, 4, 4));
        assert_eq!(
            Router::fit_sampled(&pts, 4, 4),
            Router::fit_sampled(&pts, 4, 4)
        );
    }
}
