//! ELSI system configuration: every knob of §IV, §V and §VII in one place.

use elsi_ml::TrainConfig;

/// Configuration of the ELSI system and its method pool.
///
/// The defaults follow the paper's defaults where stated (§VII-D: the
/// build-time-optimal parameter settings, marked '⊙' in Fig. 7), scaled
/// where the paper's value is tied to its 100M+ point data sets. Parameters
/// that the paper sets proportionally to `n` (ρ, β) remain proportional.
#[derive(Debug, Clone)]
pub struct ElsiConfig {
    /// Cost-balance parameter λ ∈ `[0,1]` of Eq. 2 (paper default: 0.8,
    /// prioritising build times).
    pub lambda: f64,
    /// Query frequency weight `w_Q ∈ [1, ∞)` of Eq. 2 (paper: 1.0).
    pub w_q: f64,
    /// SP/RSP sampling rate ρ (paper default: 1e-4 at n = 1e8; we keep a
    /// larger default because reduced sets below ~100 points destabilise
    /// training at bench scale).
    pub rho: f64,
    /// CL cluster count `C` (paper default: 100).
    pub clusters: usize,
    /// CL k-means iterations `i`.
    pub kmeans_iters: usize,
    /// MR CDF-space coverage threshold ε (paper default: 0.5).
    pub epsilon: f64,
    /// MR synthetic data set size.
    pub mr_set_size: usize,
    /// RS partition capacity β (paper default: 10,000).
    pub beta: usize,
    /// RL grid resolution η (paper default: 8).
    pub eta: usize,
    /// RL step budget `e` (paper: 50,000; scaled default).
    pub rl_steps: usize,
    /// RL replay capacity α (paper: 10,000).
    pub rl_buffer: usize,
    /// RL toggle-acceptance probability ζ (paper: 0.8).
    pub zeta: f64,
    /// RL discount factor γ (paper: 0.9).
    pub gamma: f64,
    /// RL early-stop patience: stop when the KS distance has not improved
    /// for this many steps.
    pub rl_patience: usize,
    /// Hidden width of all rank-model FFNs.
    pub hidden: usize,
    /// Training hyperparameters for rank models built on *reduced* sets.
    ///
    /// Default: 50 epochs (the paper trains 500). Every rank model starts
    /// from the piecewise-linear interpolant of its training CDF
    /// (`elsi_ml::train_rank_model`), and 50 epochs from there fit tighter
    /// than 200 from a random init:
    ///
    /// | 250k OSM1-like points, RS, 2 vCPUs | 200 from random | 50 from the CDF |
    /// |---|---|---|
    /// | `build-learned` `build_s`, median of 10 pairs | 0.477 s | 0.331 s |
    /// | summed error span, ZM | 102 853 | 30 958 |
    /// | ML-Index | 141 328 | 16 180 |
    /// | RSMI | 220 319 | 104 871 |
    /// | LISA | 6 284 | 7 340 |
    pub train: TrainConfig,
    /// Seed for all stochastic building methods.
    pub seed: u64,
}

impl Default for ElsiConfig {
    fn default() -> Self {
        Self {
            lambda: 0.8,
            w_q: 1.0,
            rho: 0.001,
            clusters: 100,
            kmeans_iters: 10,
            epsilon: 0.5,
            mr_set_size: 512,
            beta: 10_000,
            eta: 8,
            rl_steps: 600,
            rl_buffer: 10_000,
            zeta: 0.8,
            gamma: 0.9,
            rl_patience: 150,
            hidden: 16,
            train: TrainConfig {
                epochs: 50,
                ..TrainConfig::default()
            },
            seed: 0,
        }
    }
}

impl ElsiConfig {
    /// Scales the size-coupled parameters for a data set of `n` points.
    ///
    /// The paper's defaults (ρ = 1e-4, β = 10,000) are tuned to its
    /// 100M+-point data sets, where they yield reduced training sets of
    /// ~10^4 points. This helper preserves those *ratios* at bench scale:
    /// reduced sets of roughly `max(256, n/100)` points, as DESIGN.md §3
    /// documents.
    pub fn scaled_for(n: usize) -> Self {
        let target = (n / 100).clamp(256, 10_000) as f64;
        let n = n.max(1) as f64;
        Self {
            rho: (target / n).clamp(1e-6, 1.0),
            beta: ((n / target) as usize).max(1),
            ..Self::default()
        }
    }

    /// A configuration scaled for quick tests: tiny reduced sets and few
    /// RL steps.
    pub fn fast_test() -> Self {
        Self {
            rho: 0.05,
            clusters: 16,
            beta: 64,
            eta: 4,
            rl_steps: 120,
            rl_patience: 60,
            mr_set_size: 128,
            train: TrainConfig {
                epochs: 80,
                ..TrainConfig::default()
            },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = ElsiConfig::default();
        assert_eq!(c.lambda, 0.8);
        assert_eq!(c.w_q, 1.0);
        assert_eq!(c.epsilon, 0.5);
        assert_eq!(c.clusters, 100);
        assert_eq!(c.beta, 10_000);
        assert_eq!(c.eta, 8);
        assert_eq!(c.zeta, 0.8);
        assert_eq!(c.gamma, 0.9);
    }
}
