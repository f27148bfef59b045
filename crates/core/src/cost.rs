//! Build-cost decomposition and reporting (§VI, Table I).

use elsi_indices::BuildStats;
use std::time::Duration;

/// Aggregated build-cost decomposition of one index build, following the
/// paper's decomposition `cost_b = cost_dp + cost_tr + cost_ex`.
#[derive(Debug, Clone)]
pub struct CostDecomposition {
    /// Building method (or "ELSI"/"Rand" for selector-driven builds).
    pub method: String,
    /// Data preparation: map + sort (`O(nd + n log n)`), measured by the
    /// caller around the index build.
    pub data_prep: Duration,
    /// Extra method costs (`cost_ex`): training-set construction, method
    /// selection.
    pub reduce: Duration,
    /// Model training on the (reduced) sets (`T(|D_S|)`).
    pub train: Duration,
    /// Error-bound derivation over the full data (`M(n)`).
    pub bound: Duration,
    /// Total training-set size across all models.
    pub training_set_size: usize,
    /// Total error span `Σ(err_l + err_u)` across all models.
    pub err_span: u64,
    /// Number of models built.
    pub models: usize,
}

impl CostDecomposition {
    /// Aggregates per-model statistics into one decomposition row.
    pub fn aggregate(method: &str, data_prep: Duration, stats: &[BuildStats]) -> Self {
        let mut out = Self {
            method: method.to_string(),
            data_prep,
            reduce: Duration::ZERO,
            train: Duration::ZERO,
            bound: Duration::ZERO,
            training_set_size: 0,
            err_span: 0,
            models: stats.len(),
        };
        for s in stats {
            out.reduce += s.reduce_time;
            out.train += s.train_time;
            out.bound += s.bound_time;
            out.training_set_size += s.training_set_size;
            out.err_span += s.err_span;
        }
        out
    }

    /// Total build cost `cost_b`.
    pub fn total(&self) -> Duration {
        self.data_prep + self.reduce + self.train + self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_components() {
        let stats = vec![
            BuildStats {
                method: "SP",
                training_set_size: 100,
                reduce_time: Duration::from_millis(5),
                reduce_work: 100,
                train_time: Duration::from_millis(50),
                bound_time: Duration::from_millis(10),
                err_span: 42,
            },
            BuildStats {
                method: "SP",
                training_set_size: 200,
                reduce_time: Duration::from_millis(3),
                reduce_work: 200,
                train_time: Duration::from_millis(30),
                bound_time: Duration::from_millis(6),
                err_span: 8,
            },
        ];
        let agg = CostDecomposition::aggregate("SP", Duration::from_millis(100), &stats);
        assert_eq!(agg.models, 2);
        assert_eq!(agg.training_set_size, 300);
        assert_eq!(agg.err_span, 50);
        assert_eq!(agg.reduce, Duration::from_millis(8));
        assert_eq!(agg.train, Duration::from_millis(80));
        assert_eq!(agg.bound, Duration::from_millis(16));
        assert_eq!(agg.total(), Duration::from_millis(204));
    }
}
