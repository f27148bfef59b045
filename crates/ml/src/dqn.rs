//! Deep Q-network (Mnih et al., 2013) for the RL building method.
//!
//! The RL method (paper §V-B2) formulates training-set search as an MDP:
//! the state is the occupancy bit-vector of an η×η grid, an action toggles a
//! cell, and the reward is the reduction in KS distance to the full data
//! set. The DQN is trained on recent transitions every five steps; the
//! discount factor is γ = 0.9 and the toggle-acceptance probability ζ = 0.8.

use crate::adam::Adam;
use crate::ffn::{Batch, Ffn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One experience tuple `(s, a, r, s')`.
#[derive(Debug, Clone)]
pub struct Transition {
    /// State before the action.
    pub state: Vec<f64>,
    /// Action index taken.
    pub action: usize,
    /// Reward received.
    pub reward: f64,
    /// State after the action.
    pub next_state: Vec<f64>,
}

/// Fixed-capacity FIFO replay buffer.
#[derive(Debug)]
pub struct ReplayBuffer {
    items: Vec<Transition>,
    capacity: usize,
    next: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        Self {
            items: Vec::with_capacity(capacity.min(4096)),
            capacity,
            next: 0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Adds a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else {
            self.items[self.next] = t;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Samples `k` transitions uniformly at random (with replacement).
    pub fn sample<'a>(&'a self, k: usize, rng: &mut StdRng) -> Vec<&'a Transition> {
        (0..k)
            .map(|_| &self.items[rng.gen_range(0..self.items.len())])
            .collect()
    }

    /// The transition at buffer slot `i` (`i < len()`), for index-based
    /// iteration that avoids cloning sampled transitions.
    #[inline]
    pub fn get(&self, i: usize) -> &Transition {
        &self.items[i]
    }
}

/// DQN hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DqnConfig {
    /// Discount factor γ (paper: 0.9).
    pub gamma: f64,
    /// Exploration probability ε for ε-greedy action selection.
    pub epsilon: f64,
    /// Hidden width of the Q-network.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Replay buffer capacity (paper: α records are replayed).
    pub buffer_capacity: usize,
    /// Mini-batch size per training step.
    pub batch_size: usize,
    /// Copy online → target network every this many training steps.
    pub target_sync: usize,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            gamma: 0.9,
            epsilon: 0.1,
            hidden: 32,
            lr: 0.01,
            buffer_capacity: 10_000,
            batch_size: 32,
            target_sync: 20,
        }
    }
}

/// A deep Q-network agent over a discrete action space.
///
/// All training scratch (the batch scratch of both networks, the
/// sampled-index buffer) lives on the agent, so [`Dqn::train_step`]
/// performs zero allocations in steady state.
#[derive(Debug)]
pub struct Dqn {
    online: Ffn,
    target: Ffn,
    buffer: ReplayBuffer,
    cfg: DqnConfig,
    opt: Adam,
    rng: StdRng,
    train_steps: usize,
    /// Backpropagation scratch of the online network.
    batch: Batch,
    /// Forward scratch of the target network.
    target_batch: Batch,
    idx_buf: Vec<usize>,
}

impl Dqn {
    /// Creates an agent for `state_dim` inputs and `n_actions` outputs.
    pub fn new(state_dim: usize, n_actions: usize, cfg: DqnConfig, seed: u64) -> Self {
        let online = Ffn::new(&[state_dim, cfg.hidden, n_actions], seed);
        let target = online.clone();
        let opt = Adam::new(online.num_params(), cfg.lr);
        let batch = Batch::new(&online, cfg.batch_size);
        let target_batch = Batch::new(&target, cfg.batch_size);
        Self {
            online,
            target,
            buffer: ReplayBuffer::new(cfg.buffer_capacity),
            cfg,
            opt,
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            train_steps: 0,
            batch,
            target_batch,
            idx_buf: Vec::with_capacity(cfg.batch_size),
        }
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.online.output_dim()
    }

    /// ε-greedy action selection: explores with probability ε, otherwise
    /// picks the argmax-Q action.
    pub fn select_action(&mut self, state: &[f64]) -> usize {
        if self.rng.gen::<f64>() < self.cfg.epsilon {
            return self.rng.gen_range(0..self.n_actions());
        }
        self.greedy_action(state)
    }

    /// The argmax-Q action for `state` (no exploration).
    pub fn greedy_action(&self, state: &[f64]) -> usize {
        let q = self.online.forward(state);
        argmax(&q)
    }

    /// Records a transition in the replay buffer.
    pub fn remember(&mut self, t: Transition) {
        self.buffer.push(t);
    }

    /// Runs one mini-batch TD-learning step; returns the batch TD loss, or
    /// `None` if the buffer is still empty.
    ///
    /// One batch-major pass per network: the target network's forward pass
    /// over the sampled next states, then [`Ffn::backprop`] of the online
    /// network under the TD loss. Allocation-free in steady state:
    /// transitions are visited by sampled index (no cloning), both passes
    /// reuse the agent's scratch, and the optimiser step is fused into the
    /// parameter vector.
    pub fn train_step(&mut self) -> Option<f64> {
        if self.buffer.is_empty() {
            return None;
        }
        let k = self.cfg.batch_size.min(self.buffer.len());
        // Same RNG draw order as the old clone-out sampling: k uniform
        // indices with replacement.
        self.idx_buf.clear();
        for _ in 0..k {
            let i = self.rng.gen_range(0..self.buffer.len());
            self.idx_buf.push(i);
        }

        let (buffer, sampled, gamma) = (&self.buffer, &self.idx_buf, self.cfg.gamma);
        let transition = move |s: usize| buffer.get(sampled[s]);
        self.target
            .forward_batch(&mut self.target_batch, k, |s| &transition(s).next_state);
        let next_q = &self.target_batch;
        let mut loss = 0.0;
        self.batch.zero_grads();
        self.online.backprop(
            &mut self.batch,
            k,
            |s| &transition(s).state,
            |s, q, d_out| {
                let t = transition(s);
                // TD target: r + γ · max_a' Q_target(s', a').
                let target = t.reward + gamma * max_of(next_q.output(s));
                let diff = q[t.action] - target;
                loss += diff * diff;
                d_out.fill(0.0);
                d_out[t.action] = 2.0 * diff / k as f64;
            },
        );
        self.opt
            .step_params(self.batch.grads(), self.online.params_mut());

        self.train_steps += 1;
        if self.train_steps % self.cfg.target_sync == 0 {
            self.target.clone_params_from(&self.online);
        }
        Some(loss / k as f64)
    }

    /// The online Q-network, the one [`Dqn::train_step`] updates.
    pub fn q_network(&self) -> &Ffn {
        &self.online
    }

    /// Number of completed training steps.
    pub fn train_steps(&self) -> usize {
        self.train_steps
    }
}

#[inline]
fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[inline]
fn max_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_buffer_evicts_fifo() {
        let mut buf = ReplayBuffer::new(2);
        for i in 0..3 {
            buf.push(Transition {
                state: vec![i as f64],
                action: i,
                reward: 0.0,
                next_state: vec![],
            });
        }
        assert_eq!(buf.len(), 2);
        // Oldest (action 0) was evicted.
        let actions: Vec<usize> = buf.items.iter().map(|t| t.action).collect();
        assert!(actions.contains(&1) && actions.contains(&2));
    }

    #[test]
    fn select_action_in_range() {
        let mut agent = Dqn::new(
            4,
            6,
            DqnConfig {
                epsilon: 0.5,
                ..DqnConfig::default()
            },
            1,
        );
        for _ in 0..50 {
            let a = agent.select_action(&[0.1, 0.2, 0.3, 0.4]);
            assert!(a < 6);
        }
    }

    #[test]
    fn train_step_requires_experience() {
        let mut agent = Dqn::new(2, 2, DqnConfig::default(), 0);
        assert!(agent.train_step().is_none());
        agent.remember(Transition {
            state: vec![0.0, 1.0],
            action: 0,
            reward: 1.0,
            next_state: vec![1.0, 0.0],
        });
        assert!(agent.train_step().is_some());
        assert_eq!(agent.train_steps(), 1);
    }

    /// A two-state bandit: action 0 always yields reward 1, action 1 yields
    /// 0. After training, the greedy policy must prefer action 0.
    #[test]
    fn learns_simple_bandit() {
        let cfg = DqnConfig {
            epsilon: 0.3,
            gamma: 0.0,
            lr: 0.05,
            ..DqnConfig::default()
        };
        let mut agent = Dqn::new(1, 2, cfg, 3);
        let s = vec![1.0];
        for _ in 0..200 {
            let a = agent.select_action(&s);
            let r = if a == 0 { 1.0 } else { 0.0 };
            agent.remember(Transition {
                state: s.clone(),
                action: a,
                reward: r,
                next_state: s.clone(),
            });
            agent.train_step();
        }
        assert_eq!(agent.greedy_action(&s), 0);
    }

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }
}
