//! Feed-forward networks (FFNs) with ReLU hidden layers and linear output.
//!
//! The paper uses FFNs for *all* prediction models (§VII-B1): the per-index
//! rank models, the method scorer's build/query cost estimators, the rebuild
//! predictor, and the DQN of the RL building method. This module replaces
//! the paper's PyTorch substrate with a compact, deterministic, CPU-only
//! implementation whose training cost is linear in the training-set size —
//! exactly the `T(|D_S|)` vs `T(n)` asymmetry that ELSI exploits.
//!
//! ## Kernel layout
//!
//! Parameters live in **one flat `Vec<f64>`**, layer-major (weights then
//! biases per layer), with per-layer offsets precomputed at construction.
//! Gradients share the same layout, so backpropagation writes straight into
//! [`Batch::grads`] with no per-call offset bookkeeping, and the Adam
//! optimiser can fuse its moment update with the parameter step in a single
//! pass over the flat vector ([`crate::adam::Adam::step_params`]).
//!
//! Training is **batch-major**: a [`Batch`] holds per-layer activation,
//! pre-activation and delta slabs laid out `[sample][unit]`, plus the
//! gradient accumulator, shaped once per training run. [`Ffn::backprop`]
//! makes two passes over a mini-batch — (A) each sample's forward pass,
//! output error and deltas, with no dependency from one sample to the
//! next; (B) the gradients, summed layer by layer in sample order — so a
//! training loop performs **zero allocations per sample** in steady state
//! (pinned by `crates/ml/tests/alloc_free.rs`). The inner dot-product /
//! axpy kernels are unrolled four wide with independent accumulators; the
//! summation order is fixed, so results stay bit-identical across runs and
//! thread counts. The `[1, h, 1]` rank models are the exception: they
//! train through a fused per-sample kernel in [`crate::train`] that
//! performs the same operations in the same order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Widest layer the stack-allocated scalar fast path supports; wider
/// networks fall back to the heap-allocating [`Ffn::forward`].
const SCALAR_PATH_MAX_WIDTH: usize = 128;

/// Four-wide unrolled dot product with independent accumulators.
///
/// The fixed `(s0 + s1) + (s2 + s3) + tail` combination order keeps the
/// result deterministic while letting the CPU run four FMA chains in
/// parallel.
#[inline]
pub(crate) fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (ca, cb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a
        .chunks_exact(4)
        .remainder()
        .iter()
        .zip(b.chunks_exact(4).remainder())
    {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Four-wide unrolled `y += a · x` (the rank-1 update of backpropagation).
#[inline]
fn axpy4(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let n = y.len();
    for (cy, cx) in y.chunks_exact_mut(4).zip(x.chunks_exact(4)) {
        cy[0] += a * cx[0];
        cy[1] += a * cx[1];
        cy[2] += a * cx[2];
        cy[3] += a * cx[3];
    }
    for (py, px) in y[n - n % 4..].iter_mut().zip(&x[n - n % 4..]) {
        *py += a * px;
    }
}

/// Keys per lane block of [`Ffn::predict_each`].
const PREDICT_LANES: usize = 8;

/// The parameters of a `[1, h, 1]` net: hidden weights and biases, output
/// weights and bias.
#[derive(Clone, Copy)]
struct HingeParams<'p> {
    w0: &'p [f64],
    b0: &'p [f64],
    w1: &'p [f64],
    b1: f64,
}

/// The one hinge body of every `[1, h, 1]` prediction, over `L` keys:
/// lane `l` starts at `b1` and adds `w1[j] · relu(w0[j] · x[l] + b0[j])`
/// for `j` in ascending order. Each lane performs the same IEEE operations
/// in the same order whatever `L` is, and Rust never contracts a
/// multiply-add, so the vectorised lanes of `L = 8` give the bits of
/// `L = 1` ([`Ffn::predict1`]).
#[inline(always)]
fn hinge_lanes<const L: usize>(p: HingeParams<'_>, x: [f64; L]) -> [f64; L] {
    let mut acc = [p.b1; L];
    for ((&w0, &b0), &w1) in p.w0.iter().zip(p.b0).zip(p.w1) {
        for (a, &xl) in acc.iter_mut().zip(&x) {
            *a += w1 * (w0 * xl + b0).max(0.0);
        }
    }
    acc
}

/// Shape metadata of one dense layer inside the flat parameter vector:
/// `y = W·x + b` with `W` row-major at `w_off` and `b` at `b_off`.
#[derive(Debug, Clone, Copy)]
struct Layer {
    fan_in: usize,
    fan_out: usize,
    w_off: usize,
    b_off: usize,
}

impl Layer {
    #[inline]
    fn w<'p>(&self, params: &'p [f64]) -> &'p [f64] {
        &params[self.w_off..self.w_off + self.fan_in * self.fan_out]
    }

    #[inline]
    fn b<'p>(&self, params: &'p [f64]) -> &'p [f64] {
        &params[self.b_off..self.b_off + self.fan_out]
    }

    /// `out = W·x + b` via the unrolled dot kernel. Scalar inputs
    /// (`fan_in == 1`, the first layer of every rank model) take a fused
    /// single loop instead of per-row kernel calls. Always inlined: as a
    /// call once per sample and layer it cost ≈ 15 % of a training epoch.
    #[inline(always)]
    fn affine_into(&self, params: &[f64], x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.fan_in);
        debug_assert_eq!(out.len(), self.fan_out);
        let w = self.w(params);
        let b = self.b(params);
        if self.fan_in == 1 {
            let x0 = x[0];
            for ((out_v, &wv), &bv) in out.iter_mut().zip(w).zip(b) {
                *out_v = bv + wv * x0;
            }
            return;
        }
        for (o, out_v) in out.iter_mut().enumerate() {
            *out_v = b[o] + dot4(&w[o * self.fan_in..(o + 1) * self.fan_in], x);
        }
    }

    /// The deltas of the layer below for a batch: per sample, `prev =
    /// (Wᵀ · delta) ⊙ relu'(pre_prev)`, summed over the outputs in order
    /// from `0.0`, skipping zero deltas. `prev` holds exactly the batch's
    /// rows.
    #[inline]
    fn delta_back(&self, params: &[f64], delta: &[f64], pre_prev: &[f64], prev: &mut [f64]) {
        let w = self.w(params);
        prev.fill(0.0);
        let samples = prev
            .chunks_exact_mut(self.fan_in)
            .zip(delta.chunks_exact(self.fan_out));
        for (p, d) in samples {
            for (row, &dv) in w.chunks_exact(self.fan_in).zip(d) {
                if dv != 0.0 {
                    axpy4(p, dv, row);
                }
            }
        }
        for (p, &pre) in prev.iter_mut().zip(pre_prev) {
            if pre <= 0.0 {
                *p = 0.0;
            }
        }
    }

    /// Adds each `(input, delta)` sample's weight and bias gradients into
    /// the layer's span of `grads`, one sample after the other: `dW[o] +=
    /// delta[o] · x` (skipped when `delta[o]` is zero) and `db[o] +=
    /// delta[o]`. A scalar input (`fan_in == 1`) fuses both into one loop.
    #[inline]
    fn accumulate<'x, 'd>(
        &self,
        samples: impl Iterator<Item = (&'x [f64], &'d [f64])>,
        grads: &mut [f64],
    ) {
        let span = &mut grads[self.w_off..self.b_off + self.fan_out];
        let (gw, gb) = span.split_at_mut(self.fan_in * self.fan_out);
        for (x, d) in samples {
            if self.fan_in == 1 {
                let x0 = x[0];
                for ((w, b), &dv) in gw.iter_mut().zip(gb.iter_mut()).zip(d) {
                    *w += dv * x0;
                    *b += dv;
                }
                continue;
            }
            for ((row, b), &dv) in gw.chunks_exact_mut(self.fan_in).zip(gb.iter_mut()).zip(d) {
                if dv != 0.0 {
                    axpy4(row, dv, x);
                }
                *b += dv;
            }
        }
    }
}

/// A multi-layer perceptron. Hidden layers use ReLU; the output is linear.
#[derive(Debug, Clone)]
pub struct Ffn {
    sizes: Vec<usize>,
    layers: Vec<Layer>,
    /// All parameters, layer-major (weights then biases per layer).
    params: Vec<f64>,
    /// Widest layer (input included), for scratch sizing.
    max_width: usize,
}

/// Batch-major training scratch for one network shape.
///
/// Per layer `l`, `pre[l]` holds the layer's pre-activation output and
/// `delta[l]` the loss gradient with respect to it; per hidden layer,
/// `act[l]` holds `relu(pre[l])`, the input of layer `l + 1`. Each slab is
/// laid out `[sample][unit]` for up to `rows` samples (the network input
/// is read from the caller, not copied). `grads` accumulates parameter
/// gradients in the [`Ffn::params`] layout. Everything is allocated by
/// [`Batch::new`]; filling it afterwards never allocates.
#[derive(Debug, Clone)]
pub struct Batch {
    rows: usize,
    act: Vec<Vec<f64>>,
    pre: Vec<Vec<f64>>,
    delta: Vec<Vec<f64>>,
    grads: Vec<f64>,
}

impl Batch {
    /// Scratch for up to `rows` samples of `ffn`'s shape, gradients zeroed.
    pub fn new(ffn: &Ffn, rows: usize) -> Self {
        let outputs = || ffn.layers.iter().map(|l| vec![0.0; l.fan_out * rows]);
        Self {
            rows,
            act: outputs().take(ffn.layers.len() - 1).collect(),
            pre: outputs().collect(),
            delta: outputs().collect(),
            grads: vec![0.0; ffn.num_params()],
        }
    }

    /// The accumulated gradients, in [`Ffn::params`] order.
    pub fn grads(&self) -> &[f64] {
        &self.grads
    }

    /// Zeroes the gradient accumulator for the next mini-batch.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }

    /// Network output of sample `s` of the last pass.
    pub fn output(&self, s: usize) -> &[f64] {
        let out = self.pre.last().map_or(&[][..], Vec::as_slice);
        let width = out.len() / self.rows.max(1);
        &out[s * width..(s + 1) * width]
    }
}

impl Ffn {
    /// Creates an FFN with the given layer sizes, e.g. `[1, 16, 1]` for the
    /// rank models. Weights are seeded for reproducibility (He
    /// initialisation, biases zero).
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(
            sizes.len() >= 2,
            "an FFN needs at least input and output sizes"
        );
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        let mut params = Vec::new();
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let w_off = params.len();
            // He initialisation, appropriate for ReLU activations.
            let scale = (2.0 / fan_in as f64).sqrt();
            params.extend((0..fan_in * fan_out).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale));
            let b_off = params.len();
            params.extend(std::iter::repeat_n(0.0, fan_out));
            layers.push(Layer {
                fan_in,
                fan_out,
                w_off,
                b_off,
            });
        }
        let max_width = sizes.iter().copied().max().unwrap_or(1);
        Self {
            sizes: sizes.to_vec(),
            layers,
            params,
            max_width,
        }
    }

    /// Layer sizes this network was built with.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input dimensionality.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output dimensionality.
    #[inline]
    pub fn output_dim(&self) -> usize {
        *self.sizes.last().expect("non-empty sizes")
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The flat parameter vector (layer-major, weights then biases per
    /// layer), borrowed.
    #[inline]
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Mutable access to the flat parameter vector, for fused optimiser
    /// steps ([`crate::adam::Adam::step_params`]).
    #[inline]
    pub fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Copies the parameters of a same-shape network without allocating
    /// (the DQN's online → target sync).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn clone_params_from(&mut self, other: &Ffn) {
        assert_eq!(self.sizes, other.sizes, "shape mismatch");
        self.params.copy_from_slice(&other.params);
    }

    /// Runs the network on `x`, writing the output into `out`.
    ///
    /// Cold-path convenience: allocates two ping-pong buffers per call.
    /// Hot loops should hold a [`Batch`] and use [`Ffn::forward_batch`]
    /// instead.
    pub fn forward_into(&self, x: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.input_dim());
        let mut a = vec![0.0; self.max_width];
        let mut b = vec![0.0; self.max_width];
        a[..x.len()].copy_from_slice(x);
        let (mut cur, mut nxt) = (&mut a, &mut b);
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            layer.affine_into(
                &self.params,
                &cur[..layer.fan_in],
                &mut nxt[..layer.fan_out],
            );
            if l != last {
                for v in &mut nxt[..layer.fan_out] {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
        out.clear();
        out.extend_from_slice(&cur[..self.output_dim()]);
    }

    /// Runs the network on `x` and returns the output vector.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_into(x, &mut out);
        out
    }

    /// Allocation-free scalar inference for networks with a single output
    /// and layers no wider than 128: ping-pongs activations through two
    /// stack buffers. Wider networks fall back to [`Ffn::forward`].
    ///
    /// This is the general-depth counterpart of [`Ffn::predict1`], used by
    /// the method scorer and the rebuild predictor whose inputs are feature
    /// vectors rather than single keys.
    // lint:hot_path
    pub fn predict_scalar(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.input_dim());
        debug_assert_eq!(self.output_dim(), 1);
        if self.max_width > SCALAR_PATH_MAX_WIDTH {
            return self.predict_scalar_wide(x);
        }
        let mut a = [0.0f64; SCALAR_PATH_MAX_WIDTH];
        let mut b = [0.0f64; SCALAR_PATH_MAX_WIDTH];
        a[..x.len()].copy_from_slice(x);
        let (mut cur, mut nxt) = (&mut a, &mut b);
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            layer.affine_into(
                &self.params,
                &cur[..layer.fan_in],
                &mut nxt[..layer.fan_out],
            );
            if l != last {
                for v in &mut nxt[..layer.fan_out] {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
        cur[0]
    }

    /// Allocating fallback of [`Ffn::predict_scalar`] for networks wider
    /// than the stack buffers. Cold: no rank or rebuild-cost model in the
    /// workspace exceeds 128-wide layers; hitting this path means a caller
    /// built an unusual network, and the one-off allocation is acceptable.
    #[cold]
    fn predict_scalar_wide(&self, x: &[f64]) -> f64 {
        self.forward(x)[0]
    }

    /// Scalar convenience for `1 → … → 1` rank models: the hot path of
    /// predict-and-scan (cost `M(1)` in the paper's analysis).
    /// Allocation-free at every depth (≤ 128-wide layers).
    #[inline]
    // lint:hot_path
    pub fn predict1(&self, x: f64) -> f64 {
        debug_assert_eq!(self.input_dim(), 1);
        debug_assert_eq!(self.output_dim(), 1);
        match self.hinge_params() {
            Some(p) => {
                let [y] = hinge_lanes(p, [x]);
                y
            }
            None => self.predict_scalar(&[x]),
        }
    }

    /// Calls `f(i, self.predict1(xs[i]))` for every key, in ascending `i`,
    /// with the same bits: the full-partition prediction pass of a build
    /// (`M(n)`). A `[1, h, 1]` net runs eight keys at a time through the
    /// hinge body `predict1` runs one at a time; other shapes call
    /// `predict1` per key. Allocation-free.
    // lint:hot_path
    pub fn predict_each(&self, xs: &[f64], mut f: impl FnMut(usize, f64)) {
        debug_assert_eq!(self.input_dim(), 1);
        debug_assert_eq!(self.output_dim(), 1);
        let Some(p) = self.hinge_params() else {
            for (i, &x) in xs.iter().enumerate() {
                f(i, self.predict1(x));
            }
            return;
        };
        let lanes = xs.chunks_exact(PREDICT_LANES);
        let tail = lanes.remainder();
        let mut i = 0;
        for chunk in lanes {
            let mut x = [0.0; PREDICT_LANES];
            x.copy_from_slice(chunk);
            for y in hinge_lanes(p, x) {
                f(i, y);
                i += 1;
            }
        }
        for &x in tail {
            let [y] = hinge_lanes(p, [x]);
            f(i, y);
            i += 1;
        }
    }

    /// The parameters of a `[1, h, 1]` net as the hinge body reads them,
    /// or `None` for any other shape.
    #[inline(always)]
    fn hinge_params(&self) -> Option<HingeParams<'_>> {
        let [h, o] = self.layers.as_slice() else {
            return None;
        };
        if h.fan_in != 1 || o.fan_out != 1 {
            return None;
        }
        Some(HingeParams {
            w0: h.w(&self.params),
            b0: h.b(&self.params),
            w1: o.w(&self.params),
            b1: *o.b(&self.params).first()?,
        })
    }

    /// Runs the forward pass of samples `0..rows`, sample `s` read from
    /// `input(s)`, one layer at a time across the batch; the outputs are
    /// then at [`Batch::output`].
    ///
    /// # Panics
    /// Panics if `rows` exceeds the batch, or `batch` or an input has
    /// another shape.
    pub fn forward_batch<'x>(
        &self,
        batch: &mut Batch,
        rows: usize,
        input: impl Fn(usize) -> &'x [f64],
    ) {
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            let pre = &mut batch.pre[l][..rows * layer.fan_out];
            let outs = pre.chunks_exact_mut(layer.fan_out);
            match l.checked_sub(1) {
                None => outs
                    .enumerate()
                    .for_each(|(s, out)| layer.affine_into(&self.params, input(s), out)),
                Some(below) => batch.act[below]
                    .chunks_exact(layer.fan_in)
                    .zip(outs)
                    .for_each(|(x, out)| layer.affine_into(&self.params, x, out)),
            }
            if l != last {
                for (a, &p) in batch.act[l].iter_mut().zip(&*pre) {
                    *a = p.max(0.0);
                }
            }
        }
    }

    /// Backpropagates one mini-batch of samples `0..rows`, *adding* their
    /// parameter gradients to [`Batch::grads`].
    ///
    /// Pass A computes, for every sample, the forward pass on `input(s)`,
    /// the output error — `loss(s, output, d_out)` writes ∂loss/∂output
    /// into `d_out` — and the delta of every layer. It runs one layer at a
    /// time across the batch, and no sample reads another's values, so
    /// nothing waits on the previous sample. Pass B adds each layer's
    /// weight and bias gradients up over the samples in order. Every
    /// gradient element thus sees the same additions in the same order as
    /// a sample-at-a-time loop would give it: the result is bit-identical
    /// to one.
    ///
    /// # Panics
    /// As [`Ffn::forward_batch`].
    pub fn backprop<'x>(
        &self,
        batch: &mut Batch,
        rows: usize,
        input: impl Fn(usize) -> &'x [f64],
        mut loss: impl FnMut(usize, &[f64], &mut [f64]),
    ) {
        debug_assert_eq!(batch.grads.len(), self.params.len());
        self.forward_batch(batch, rows, &input);
        let last = self.layers.len() - 1;
        let out = self.output_dim();
        let errors = batch.pre[last].chunks_exact(out);
        let d_outs = batch.delta[last].chunks_exact_mut(out);
        for (s, (y, d_out)) in errors.zip(d_outs).take(rows).enumerate() {
            loss(s, y, d_out);
        }
        for l in (1..=last).rev() {
            let layer = &self.layers[l];
            let (lower, upper) = batch.delta.split_at_mut(l);
            let prev = &mut lower[l - 1][..rows * layer.fan_in];
            layer.delta_back(&self.params, &upper[0], &batch.pre[l - 1], prev);
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let deltas = batch.delta[l].chunks_exact(layer.fan_out);
            match l.checked_sub(1) {
                None => layer.accumulate((0..rows).map(&input).zip(deltas), &mut batch.grads),
                Some(below) => {
                    let inputs = batch.act[below].chunks_exact(layer.fan_in);
                    layer.accumulate(inputs.zip(deltas).take(rows), &mut batch.grads);
                }
            }
        }
    }

    /// Copies all parameters into a flat vector (layer-major, weights then
    /// biases per layer).
    pub fn params_flat(&self) -> Vec<f64> {
        self.params.clone()
    }

    /// Overwrites all parameters from a flat vector (inverse of
    /// [`Ffn::params_flat`]).
    ///
    /// # Panics
    /// Panics if `flat` has the wrong length.
    pub fn set_params_flat(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params());
        self.params.copy_from_slice(flat);
    }

    /// Applies a parameter update `p ← p + step` from a flat step vector.
    pub fn apply_step(&mut self, step: &[f64]) {
        assert_eq!(step.len(), self.num_params());
        for (p, s) in self.params.iter_mut().zip(step) {
            *p += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_dims() {
        let f = Ffn::new(&[1, 16, 1], 7);
        assert_eq!(f.input_dim(), 1);
        assert_eq!(f.output_dim(), 1);
        assert_eq!(f.num_params(), 16 + 16 + 16 + 1);
    }

    #[test]
    fn deterministic_init() {
        let a = Ffn::new(&[2, 8, 3], 42);
        let b = Ffn::new(&[2, 8, 3], 42);
        assert_eq!(a.params_flat(), b.params_flat());
        let c = Ffn::new(&[2, 8, 3], 43);
        assert_ne!(a.params_flat(), c.params_flat());
    }

    #[test]
    fn predict1_matches_forward() {
        let f = Ffn::new(&[1, 16, 1], 3);
        for &x in &[-1.0, 0.0, 0.25, 0.5, 1.0] {
            let fast = f.predict1(x);
            let slow = f.forward(&[x])[0];
            assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
        }
    }

    #[test]
    fn predict1_deep_matches_forward() {
        // The general (stack-buffer) scalar path must agree with the
        // allocating reference path on deeper-than-[1,H,1] networks.
        for sizes in [vec![1, 8, 8, 1], vec![1, 32, 16, 8, 1], vec![1, 3, 5, 1]] {
            let f = Ffn::new(&sizes, 9);
            for &x in &[-0.5, 0.0, 0.125, 0.5, 0.9, 2.0] {
                let fast = f.predict1(x);
                let slow = f.forward(&[x])[0];
                assert!(
                    (fast - slow).abs() < 1e-12,
                    "{sizes:?} at {x}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn predict_scalar_matches_forward_on_feature_inputs() {
        let f = Ffn::new(&[9, 24, 1], 4);
        let x: Vec<f64> = (0..9).map(|i| (i as f64 * 0.37).sin()).collect();
        let fast = f.predict_scalar(&x);
        let slow = f.forward(&x)[0];
        assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
    }

    #[test]
    fn predict_scalar_wide_network_falls_back() {
        // 200-wide hidden layer exceeds the stack path; the fallback must
        // still agree with forward().
        let f = Ffn::new(&[2, 200, 1], 6);
        let x = [0.3, -0.4];
        assert!((f.predict_scalar(&x) - f.forward(&x)[0]).abs() < 1e-12);
    }

    #[test]
    fn forward_batch_matches_forward() {
        let f = Ffn::new(&[3, 6, 4], 5);
        let xs = [[0.1, -0.2, 0.3], [0.7, 0.0, -0.4]];
        let mut batch = Batch::new(&f, 2);
        f.forward_batch(&mut batch, 2, |s| &xs[s]);
        for (s, x) in xs.iter().enumerate() {
            assert_eq!(batch.output(s), f.forward(x));
        }
    }

    /// Gradient of `Σ_s ‖f(x_s) − t_s‖²` from one batch pass.
    fn mse_grads(f: &Ffn, xs: &[&[f64]], ts: &[&[f64]]) -> Vec<f64> {
        let mut batch = Batch::new(f, xs.len());
        f.backprop(
            &mut batch,
            xs.len(),
            |s| xs[s],
            |s, y, d_out| {
                for ((d, y), t) in d_out.iter_mut().zip(y).zip(ts[s]) {
                    *d = 2.0 * (y - t);
                }
            },
        );
        batch.grads().to_vec()
    }

    #[test]
    fn one_pass_equals_one_sample_at_a_time_bitwise() {
        // Pass B adds the samples up in order, so a mini-batch in one pass
        // and the same samples one pass each give identical bytes.
        let f = Ffn::new(&[2, 7, 5, 3], 8);
        let xs: Vec<[f64; 2]> = (0..9)
            .map(|i| [i as f64 * 0.3 - 1.0, 0.5 - i as f64 * 0.1])
            .collect();
        let ts: Vec<[f64; 3]> = (0..9).map(|i| [i as f64 * 0.1, -0.2, 1.0]).collect();
        let loss = |s: usize, y: &[f64], d_out: &mut [f64]| {
            for ((d, y), t) in d_out.iter_mut().zip(y).zip(&ts[s]) {
                *d = 2.0 * (y - t) / 9.0;
            }
        };
        let mut whole = Batch::new(&f, 9);
        f.backprop(&mut whole, 9, |s| &xs[s], loss);
        let mut single = Batch::new(&f, 1);
        for (s, x) in xs.iter().enumerate() {
            f.backprop(&mut single, 1, |_| x, |_, y, d| loss(s, y, d));
        }
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(whole.grads()), bits(single.grads()));
        single.zero_grads();
        assert!(single.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn params_roundtrip() {
        let mut f = Ffn::new(&[3, 5, 2], 1);
        let p = f.params_flat();
        let mut f2 = Ffn::new(&[3, 5, 2], 99);
        f2.set_params_flat(&p);
        assert_eq!(f2.params_flat(), p);
        f.apply_step(&vec![0.0; p.len()]);
        assert_eq!(f.params_flat(), p);
        let mut f3 = Ffn::new(&[3, 5, 2], 7);
        f3.clone_params_from(&f);
        assert_eq!(f3.params_flat(), p);
    }

    /// Numerical gradient check: backprop must agree with central finite
    /// differences of the MSE loss on every parameter.
    #[test]
    fn gradient_check_against_finite_differences() {
        let mut f = Ffn::new(&[2, 4, 1], 11);
        let x = [0.3, -0.7];
        let target = 0.42;

        // loss = (y - t)^2, d_out = 2 (y - t)
        let grads = mse_grads(&f, &[&x], &[&[target]]);

        let params = f.params_flat();
        let eps = 1e-6;
        for i in 0..params.len() {
            let mut plus = params.clone();
            plus[i] += eps;
            f.set_params_flat(&plus);
            let lp = (f.forward(&x)[0] - target).powi(2);
            let mut minus = params.clone();
            minus[i] -= eps;
            f.set_params_flat(&minus);
            let lm = (f.forward(&x)[0] - target).powi(2);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[i];
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                "param {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_check_multi_output() {
        let mut f = Ffn::new(&[3, 6, 4], 5);
        let x = [0.1, 0.2, -0.3];
        let t = [0.5, -0.25, 0.0, 1.0];

        let grads = mse_grads(&f, &[&x], &[&t]);

        let loss = |f: &Ffn| -> f64 {
            f.forward(&x)
                .iter()
                .zip(&t)
                .map(|(yi, ti)| (yi - ti).powi(2))
                .sum()
        };
        let params = f.params_flat();
        let eps = 1e-6;
        for i in (0..params.len()).step_by(3) {
            let mut plus = params.clone();
            plus[i] += eps;
            f.set_params_flat(&plus);
            let lp = loss(&f);
            let mut minus = params.clone();
            minus[i] -= eps;
            f.set_params_flat(&minus);
            let lm = loss(&f);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 1e-5 * (1.0 + numeric.abs()),
                "param {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
    }

    /// Three-layer gradient check: the delta propagation must be correct
    /// through more than one hidden layer.
    #[test]
    fn gradient_check_deep() {
        let mut f = Ffn::new(&[2, 5, 3, 1], 13);
        let x = [0.4, -0.9];
        let target = -0.3;

        let grads = mse_grads(&f, &[&x], &[&[target]]);

        let params = f.params_flat();
        let eps = 1e-6;
        for i in 0..params.len() {
            let mut plus = params.clone();
            plus[i] += eps;
            f.set_params_flat(&plus);
            let lp = (f.forward(&x)[0] - target).powi(2);
            let mut minus = params.clone();
            minus[i] -= eps;
            f.set_params_flat(&minus);
            let lm = (f.forward(&x)[0] - target).powi(2);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grads[i]).abs() < 1e-5 * (1.0 + numeric.abs()),
                "param {i}: numeric {numeric} vs analytic {}",
                grads[i]
            );
        }
    }

    #[test]
    fn kernels_match_naive() {
        // dot4 / axpy4 vs the straightforward loops, across lengths that
        // exercise the unrolled body and every tail size.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot4(&a, &b) - naive).abs() < 1e-12, "dot len {n}");

            let mut y = b.clone();
            let mut y_naive = b.clone();
            axpy4(&mut y, 0.37, &a);
            for (v, x) in y_naive.iter_mut().zip(&a) {
                *v += 0.37 * x;
            }
            for (u, v) in y.iter().zip(&y_naive) {
                assert!((u - v).abs() < 1e-12, "axpy len {n}");
            }
        }
    }
}
