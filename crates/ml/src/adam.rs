//! Adam optimiser (Kingma & Ba, 2015).
//!
//! The paper trains every FFN with Adam at learning rate 0.01 (§VII-B1).

/// Adam state over a flat parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimiser for `n` parameters with the given learning rate
    /// and the standard moment decay rates (β₁ = 0.9, β₂ = 0.999).
    pub fn new(n: usize, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Advances the moment estimates for `grads` and returns the bias
    /// correction factors `(1 - β₁ᵗ, 1 - β₂ᵗ)` for this step.
    #[inline]
    fn advance(&mut self, grads: &[f64]) -> (f64, f64) {
        assert_eq!(grads.len(), self.m.len());
        self.t += 1;
        for ((m, v), &g) in self.m.iter_mut().zip(&mut self.v).zip(grads) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
        }
        (
            1.0 - self.beta1.powi(self.t as i32),
            1.0 - self.beta2.powi(self.t as i32),
        )
    }

    /// Computes the parameter step for `grads` and writes it into `step`
    /// (`step[i]` is *added* to parameter `i`).
    ///
    /// # Panics
    /// Panics if the lengths disagree with the optimiser size.
    pub fn step_into(&mut self, grads: &[f64], step: &mut [f64]) {
        assert_eq!(step.len(), self.m.len());
        let (b1t, b2t) = self.advance(grads);
        for ((s, &m), &v) in step.iter_mut().zip(&self.m).zip(&self.v) {
            *s = -self.lr * (m / b1t) / ((v / b2t).sqrt() + self.eps);
        }
    }

    /// Fused step: updates the moments for `grads` and applies the update to
    /// `params` in place, in one pass over the flat vector — no intermediate
    /// step buffer. Equivalent to `step_into` followed by
    /// [`crate::ffn::Ffn::apply_step`].
    ///
    /// # Panics
    /// Panics if the lengths disagree with the optimiser size.
    pub fn step_params(&mut self, grads: &[f64], params: &mut [f64]) {
        assert_eq!(params.len(), self.m.len());
        let (b1t, b2t) = self.advance(grads);
        for ((p, &m), &v) in params.iter_mut().zip(&self.m).zip(&self.v) {
            *p -= self.lr * (m / b1t) / ((v / b2t).sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_moves_against_gradient_at_lr() {
        let mut opt = Adam::new(2, 0.01);
        let mut step = vec![0.0; 2];
        opt.step_into(&[1.0, -2.0], &mut step);
        // On the first step, m_hat/v_hat.sqrt() = sign(g), so |step| ≈ lr.
        assert!((step[0] + 0.01).abs() < 1e-6);
        assert!((step[1] - 0.01).abs() < 1e-6);
    }

    #[test]
    fn zero_gradient_gives_zero_step() {
        let mut opt = Adam::new(3, 0.01);
        let mut step = vec![1.0; 3];
        opt.step_into(&[0.0; 3], &mut step);
        assert!(step.iter().all(|&s| s.abs() < 1e-12));
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimise f(p) = (p - 3)^2 from p = 0.
        let mut p = 0.0;
        let mut opt = Adam::new(1, 0.1);
        let mut step = vec![0.0];
        for _ in 0..2000 {
            let g = 2.0 * (p - 3.0);
            opt.step_into(&[g], &mut step);
            p += step[0];
        }
        assert!((p - 3.0).abs() < 1e-3, "p = {p}");
    }

    #[test]
    fn fused_step_matches_step_into_bitwise() {
        let mut a = Adam::new(4, 0.05);
        let mut b = Adam::new(4, 0.05);
        let mut params_a = vec![0.1, -0.2, 0.3, -0.4];
        let mut params_b = params_a.clone();
        let mut step = vec![0.0; 4];
        for i in 0..20 {
            let g: Vec<f64> = params_a
                .iter()
                .map(|p| 2.0 * (p - 1.0) + i as f64 * 0.01)
                .collect();
            a.step_into(&g, &mut step);
            for (p, s) in params_a.iter_mut().zip(&step) {
                *p += s;
            }
            b.step_params(&g, &mut params_b);
            // The fused path must be bit-identical, not just close: trainer
            // determinism tests pin exact parameter bytes.
            assert_eq!(params_a, params_b, "diverged at iteration {i}");
        }
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn mismatched_lengths_panic() {
        let mut opt = Adam::new(2, 0.01);
        let mut step = vec![0.0; 2];
        opt.step_into(&[1.0], &mut step);
    }
}
