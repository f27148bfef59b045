//! RL: reinforcement-learning search for a training set (§V-B2).
//!
//! The partition's bounding space is covered by an η×η grid; the candidate
//! `D_S` is the set of centres of *active* cells. Searching over the
//! `2^(η²)` activation patterns is formulated as an MDP — state = the
//! occupancy bit-vector (cells ordered by their rank in the mapped space of
//! the base index), action = toggle one cell, reward = the reduction in
//! `dist(D_S, D)` — and explored with a DQN (γ = 0.9), accepting each
//! proposed toggle with probability ζ = 0.8. The search keeps the best
//! state seen and stops when the distance stops improving.

use crate::config::ElsiConfig;
use elsi_data::ks_distance;
use elsi_indices::BuildInput;
use elsi_ml::{Dqn, DqnConfig, Transition};
use elsi_spatial::{Rect, UniformGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the RL search and returns the sorted keys of the best `D_S` and
/// the KS merge steps of the distances it evaluated (`n` plus the
/// candidate set's size, once per evaluation).
pub fn rl_set(input: &BuildInput<'_>, cfg: &ElsiConfig) -> (Vec<f64>, u64) {
    if input.points.is_empty() {
        return (Vec::new(), 0);
    }
    let eta = cfg.eta.max(2);
    let grid = UniformGrid::square(eta);
    let bounds = Rect::mbr_of(input.points);

    // Cell centres mapped into the base index's key space, then ordered by
    // key (the paper orders state cells by their mapped-space ranks).
    let mut cells: Vec<f64> = (0..grid.len())
        .map(|i| {
            let (ix, iy) = grid.coords_of(i);
            let c = grid.cell_center(ix, iy);
            // Centre in the partition's own bounding space.
            let p = elsi_spatial::Point::at(
                bounds.lo_x + c.x * (bounds.hi_x - bounds.lo_x),
                bounds.lo_y + c.y * (bounds.hi_y - bounds.lo_y),
            );
            input.mapper.key(p)
        })
        .collect();
    cells.sort_unstable_by(|a, b| a.total_cmp(b));

    let n_cells = cells.len();
    let mut state = vec![1.0f64; n_cells]; // s_0: every cell active
    let keys_of = |state: &[f64]| -> Vec<f64> {
        state
            .iter()
            .zip(&cells)
            .filter_map(|(&s, &k)| (s > 0.5).then_some(k))
            .collect()
    };

    let dqn_cfg = DqnConfig {
        gamma: cfg.gamma,
        epsilon: 0.2,
        hidden: 32,
        lr: 0.01,
        buffer_capacity: cfg.rl_buffer.max(1),
        batch_size: 32,
        target_sync: 25,
    };
    let mut agent = Dqn::new(n_cells, n_cells, dqn_cfg, cfg.seed ^ input.seed ^ 0x51);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ input.seed ^ 0xF1E1D);

    let mut work = 0u64;
    let mut distance = |set: Vec<f64>| {
        work += (set.len() + input.keys.len()) as u64;
        ks_distance(&set, input.keys)
    };
    let mut dist = distance(keys_of(&state));
    let mut best_dist = dist;
    let mut best_state = state.clone();
    let mut since_improve = 0usize;

    for step in 0..cfg.rl_steps {
        let action = agent.select_action(&state);
        let prev_state = state.clone();
        // Accept the toggle with probability ζ.
        if rng.gen::<f64>() < cfg.zeta {
            state[action] = 1.0 - state[action];
        }
        // Never allow the empty set.
        if state.iter().all(|&s| s < 0.5) {
            state[action] = 1.0;
        }
        let new_dist = distance(keys_of(&state));
        let reward = dist - new_dist;
        agent.remember(Transition {
            state: prev_state,
            action,
            reward,
            next_state: state.clone(),
        });
        if step % 5 == 4 {
            agent.train_step();
        }
        dist = new_dist;
        if dist < best_dist - 1e-9 {
            best_dist = dist;
            best_state = state.clone();
            since_improve = 0;
        } else {
            since_improve += 1;
            if since_improve >= cfg.rl_patience {
                break;
            }
        }
    }
    (keys_of(&best_state), work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_spatial::{sort_by_key, KeyMapper, MortonMapper};

    fn run_on(pts: Vec<elsi_spatial::Point>, cfg: &ElsiConfig) -> Vec<f64> {
        let (sorted, sorted_keys) = sort_by_key(&pts, &MortonMapper);
        let input = BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 1,
        };
        rl_set(&input, cfg).0
    }

    #[test]
    fn rl_produces_bounded_sorted_set() {
        let cfg = ElsiConfig {
            eta: 4,
            rl_steps: 150,
            ..ElsiConfig::fast_test()
        };
        let keys = run_on(elsi_data::gen::uniform(2000, 1), &cfg);
        assert!(!keys.is_empty());
        assert!(keys.len() <= 16, "at most η² points, got {}", keys.len());
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rl_improves_over_initial_state_on_skewed_data() {
        // On skewed data the all-active (uniform) start is a poor D_S;
        // the search must improve on it.
        let cfg = ElsiConfig {
            eta: 6,
            rl_steps: 400,
            rl_patience: 400,
            ..ElsiConfig::fast_test()
        };
        let pts = elsi_data::gen::skewed(4000, 4, 9);
        let (sorted, sorted_keys) = sort_by_key(&pts, &MortonMapper);
        let input = BuildInput {
            points: &sorted,
            keys: &sorted_keys,
            mapper: &MortonMapper,
            seed: 2,
        };
        // Initial distance: every cell active.
        let grid = UniformGrid::square(6);
        let bounds = Rect::mbr_of(&sorted);
        let mut all_cells: Vec<f64> = (0..grid.len())
            .map(|i| {
                let (ix, iy) = grid.coords_of(i);
                let c = grid.cell_center(ix, iy);
                let p = elsi_spatial::Point::at(
                    bounds.lo_x + c.x * (bounds.hi_x - bounds.lo_x),
                    bounds.lo_y + c.y * (bounds.hi_y - bounds.lo_y),
                );
                MortonMapper.key(p)
            })
            .collect();
        all_cells.sort_unstable_by(|a, b| a.total_cmp(b));
        let initial = ks_distance(&all_cells, &sorted_keys);

        let (keys, work) = rl_set(&input, &cfg);
        // At least the initial distance and one step's.
        assert!(work >= 2 * sorted_keys.len() as u64, "{work}");
        let final_d = ks_distance(&keys, &sorted_keys);
        assert!(final_d < initial, "final {final_d} vs initial {initial}");
    }

    #[test]
    fn rl_is_deterministic_under_seed() {
        let cfg = ElsiConfig {
            eta: 4,
            rl_steps: 100,
            ..ElsiConfig::fast_test()
        };
        let a = run_on(elsi_data::gen::uniform(1000, 3), &cfg);
        let b = run_on(elsi_data::gen::uniform(1000, 3), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn rl_empty_partition() {
        let cfg = ElsiConfig::fast_test();
        let input = BuildInput {
            points: &[],
            keys: &[],
            mapper: &MortonMapper,
            seed: 0,
        };
        assert_eq!(rl_set(&input, &cfg), (Vec::new(), 0));
    }
}
