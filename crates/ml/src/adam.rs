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
    beta1_pow: Powers,
    beta2_pow: Powers,
}

/// `β^t` as `f64::powi(β, t)` computes it for `t < 2^31`: a product from
/// `1.0` of `β^(2^i)` over the set bits `i` of `t`, lowest first, each
/// square the rounded square of the one before. `powi` squares afresh on
/// every call; the squares here are computed once.
#[derive(Debug, Clone)]
struct Powers([f64; 31]);

impl Powers {
    fn of(beta: f64) -> Self {
        let mut squares = [0.0; 31];
        let mut a = beta;
        for s in &mut squares {
            *s = a;
            a *= a;
        }
        Self(squares)
    }

    #[inline]
    fn pow(&self, t: u64) -> f64 {
        let bits = (u64::BITS - t.leading_zeros()) as usize;
        let squares = self.0.iter().take(bits).enumerate();
        squares.fold(1.0, |r, (i, &s)| if t >> i & 1 == 1 { r * s } else { r })
    }
}

impl Adam {
    /// Creates an optimiser for `n` parameters with the given learning rate
    /// and the standard moment decay rates (β₁ = 0.9, β₂ = 0.999).
    pub fn new(n: usize, lr: f64) -> Self {
        let (beta1, beta2) = (0.9, 0.999);
        Self {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            beta1_pow: Powers::of(beta1),
            beta2_pow: Powers::of(beta2),
        }
    }

    /// One pass over the parameters: advances both moment estimates for
    /// `grads[i]` and hands the step length for parameter `i` to
    /// `apply(&mut out[i], ·)` before moving to `i + 1`.
    #[inline]
    fn update(&mut self, grads: &[f64], out: &mut [f64], apply: impl Fn(&mut f64, f64)) {
        assert_eq!(grads.len(), self.m.len());
        assert_eq!(out.len(), self.m.len());
        self.t += 1;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let b1t = 1.0 - self.beta1_pow.pow(self.t);
        let b2t = 1.0 - self.beta2_pow.pow(self.t);
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((o, (m, v)), &g) in out.iter_mut().zip(moments).zip(grads) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            apply(o, lr * (*m / b1t) / ((*v / b2t).sqrt() + eps));
        }
    }

    /// Computes the parameter step for `grads` and writes it into `step`
    /// (`step[i]` is *added* to parameter `i`).
    ///
    /// # Panics
    /// Panics if the lengths disagree with the optimiser size.
    pub fn step_into(&mut self, grads: &[f64], step: &mut [f64]) {
        self.update(grads, step, |s, len| *s = -len);
    }

    /// Fused step: updates the moments for `grads` and applies the update to
    /// `params` in place, in one pass over the flat vector — no intermediate
    /// step buffer. Equivalent to `step_into` followed by
    /// [`crate::ffn::Ffn::apply_step`].
    ///
    /// # Panics
    /// Panics if the lengths disagree with the optimiser size.
    pub fn step_params(&mut self, grads: &[f64], params: &mut [f64]) {
        self.update(grads, params, |p, len| *p -= len);
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

    /// Adam as written in two passes: both moments over every parameter,
    /// then the step of every parameter.
    fn two_pass_step(m: &mut [f64], v: &mut [f64], t: i32, g: &[f64], params: &mut [f64]) {
        let (lr, beta1, beta2, eps) = (0.05, 0.9, 0.999, 1e-8);
        for ((m, v), &g) in m.iter_mut().zip(v.iter_mut()).zip(g) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
        }
        let (b1t, b2t) = (1.0 - f64::powi(beta1, t), 1.0 - f64::powi(beta2, t));
        for ((p, &m), &v) in params.iter_mut().zip(&*m).zip(&*v) {
            *p -= lr * (m / b1t) / ((v / b2t).sqrt() + eps);
        }
    }

    #[test]
    fn fused_step_matches_step_into_bitwise() {
        let mut a = Adam::new(4, 0.05);
        let mut b = Adam::new(4, 0.05);
        let mut params_a = vec![0.1, -0.2, 0.3, -0.4];
        let mut params_b = params_a.clone();
        let mut params_c = params_a.clone();
        let (mut m, mut v) = (vec![0.0; 4], vec![0.0; 4]);
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
            two_pass_step(&mut m, &mut v, i + 1, &g, &mut params_c);
            // The fused path must be bit-identical, not just close: trainer
            // determinism tests pin exact parameter bytes.
            assert_eq!(params_a, params_b, "diverged at iteration {i}");
            assert_eq!(params_b, params_c, "one pass left two at iteration {i}");
        }
    }

    #[test]
    fn cached_squares_give_powi_bit_for_bit() {
        let steps = (0..=70_000).chain([1 << 20, (1 << 30) + 12_345, i32::MAX as u64]);
        for beta in [0.9, 0.999, 0.5, 1.0 - 1e-9, 1.7] {
            let powers = Powers::of(beta);
            for t in steps.clone() {
                assert_eq!(powers.pow(t), beta.powi(t as i32), "{beta}^{t}");
            }
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
