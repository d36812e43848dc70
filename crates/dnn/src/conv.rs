//! 2-D convolution as per-example GEMMs over one pooled, channel-major
//! im2col buffer, with hand-written backward.
//!
//! Present for the CNN stand-in (Wide-ResNet-tiny): the paper's §5.4 point
//! that CNN activations are too large for logging is a *structural*
//! property this layer lets us exhibit with real numbers. It is also the
//! compute that pipeline logging replays after a stage-0 failure, so its
//! speed is most of that recovery's MTTR.
//!
//! # Layout
//!
//! Activations are channel-major per example: example `e`, channel `c`,
//! pixel `(h, w)` lives at `x[e, c·H·W + h·W + w]`. The im2col buffer of a
//! micro-batch of `B` examples is `[B, c_in·k·k, H·W]`: example `e`'s
//! block `col_e` holds, in row `(c·k + dh)·k + dw`, input channel `c`
//! shifted by `(dh − k/2, dw − k/2)`, zero outside the image. Every image
//! row of a `col_e` row is one contiguous slice of an input row between
//! zero runs, so the buffer is built, and its gradient scattered back,
//! with row-slice copies. It is rebuilt in full, padding included, on
//! every call, and comes from and returns to [`swift_tensor::pool`] like
//! every other buffer here.
//!
//! # GEMMs
//!
//! Every product runs through [`matmul_into`] (the `ab` kernel: one
//! accumulator per output element, ascending `k`), on slices of the
//! buffers above. Shapes for pp-logging's second conv (`c_in = c_out = 16`,
//! `k = 3`, 32×32):
//!
//! | Pass | Product, per example `e`        | `m × k × n`              |
//! |------|---------------------------------|--------------------------|
//! | y    | `y_e = W · col_e` (+ bias)      | `c_out × c_in·k² × H·W` (16 × 144 × 1024) |
//! | dX   | `dcol_e = Wᵀ · dy_e`, col2im    | `c_in·k² × c_out × H·W` (144 × 16 × 1024) |
//! | dW   | `dWᵀ_e = col_e · dy_eᵀ`         | `c_in·k² × H·W × c_out` (144 × 1024 × 16) |
//!
//! The forward runs per example, fused with that example's im2col: the
//! block (576 KiB at the shape above) is still in L2 when its GEMM reads
//! it, and its rows sit `H·W` floats apart. One batched `W · col` over
//! `n = B·H·W` columns would need the whole buffer as
//! `[c_in·k·k, B·H·W]`, read back from memory with rows 32 KiB apart,
//! where the kernel's per-`k` loads collide in the same cache sets. On a
//! 2-vCPU AVX2 VM (`RAYON_NUM_THREADS=1`) that batched product ran at
//! ~4 GFLOP/s; the per-example forward, im2col included, runs at
//! ~20 GFLOP/s. The weight gradient transposes the small `dy_e`, not the
//! large `col_e`, so it runs on the `ab` kernel (28–38 GFLOP/s) instead
//! of the dot-based `matmul_a_bt` (12–15 GFLOP/s for `dy_e · col_eᵀ`).
//!
//! # One gradient per micro-batch
//!
//! `backward` folds the per-example `dWᵀ_e` and bias sums in example order
//! into one micro-batch gradient, transposes it once, and adds it to
//! `grads` once. Accumulating micro-batches A then B therefore leaves
//! exactly `(0 + g_A) + g_B`, the property a bitwise fold of
//! per-micro-batch gradients (parallel replay, §5.2) relies on.

use swift_tensor::{matmul_into, pool, simd, CounterRng, Tensor};

use crate::layer::{ActivationCache, Layer, Mode, StepCtx};

/// Same-padding, stride-1 2-D convolution.
///
/// Tensors are flattened channel-major: example `e`, channel `c`, pixel
/// `(h, w)` lives at `x[e, c·H·W + h·W + w]`. The kernel size must be odd
/// (symmetric padding).
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    c_in: usize,
    c_out: usize,
    height: usize,
    width: usize,
    ksize: usize,
    /// `[weight, bias]` with weight `[c_out, c_in · k · k]` — contiguous
    /// so [`Layer::params`] borrows.
    params: [Tensor; 2],
    /// `[grad_weight, grad_bias]`, aligned with `params`.
    grads: [Tensor; 2],
    /// Caches the micro-batch's im2col buffer `[B, c_in·k·k, H·W]`.
    cache_col: ActivationCache,
}

const W: usize = 0;
const B: usize = 1;

/// The output positions `lo..hi` along an axis of length `len` whose tap
/// `d` reads inside the input: position `o` reads `o + d − pad`.
fn tap_span(len: usize, d: usize, pad: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(d).min(len);
    let hi = (len + pad).saturating_sub(d).min(len).max(lo);
    (lo, hi)
}

/// Writes the `[rows, cols]` matrix `src` transposed into `dst`, one
/// contiguous `dst` row at a time.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (c, out) in dst.chunks_exact_mut(rows).enumerate() {
        for (o, &v) in out.iter_mut().zip(src[c..].iter().step_by(cols)) {
            *o = v;
        }
    }
}

impl Conv2d {
    /// Creates a convolution layer for `height × width` feature maps.
    pub fn new(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        height: usize,
        width: usize,
        ksize: usize,
        rng: &mut CounterRng,
    ) -> Self {
        assert!(ksize % 2 == 1, "kernel size must be odd for same padding");
        let fan_in = c_in * ksize * ksize;
        let bound = (1.0 / fan_in as f32).sqrt();
        Conv2d {
            name: name.into(),
            c_in,
            c_out,
            height,
            width,
            ksize,
            params: [
                Tensor::uniform([c_out, fan_in], -bound, bound, rng),
                Tensor::uniform([c_out], -bound, bound, rng),
            ],
            grads: [Tensor::zeros([c_out, fan_in]), Tensor::zeros([c_out])],
            cache_col: ActivationCache::new(),
        }
    }

    /// The kernel weights `[c_out, c_in·k·k]`.
    pub fn weight(&self) -> &Tensor {
        &self.params[W]
    }

    /// Mutable kernel access.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.params[W]
    }

    /// The per-channel bias `[c_out]`.
    pub fn bias(&self) -> &Tensor {
        &self.params[B]
    }

    /// Mutable bias access.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.params[B]
    }

    /// Elements per example on the input side.
    pub fn in_elems(&self) -> usize {
        self.c_in * self.height * self.width
    }

    /// Elements per example on the output side.
    pub fn out_elems(&self) -> usize {
        self.c_out * self.height * self.width
    }

    /// Rows of one example's im2col block: `c_in·k·k`.
    fn col_rows(&self) -> usize {
        self.c_in * self.ksize * self.ksize
    }

    /// Appends one example's `[c_in·k·k, H·W]` im2col block to `col`,
    /// writing every element, zero padding included.
    fn im2col_append(&self, x: &[f32], col: &mut Vec<f32>) {
        let (h, w, k) = (self.height, self.width, self.ksize);
        let pad = k / 2;
        for plane in x.chunks_exact(h * w) {
            for dh in 0..k {
                let (oh_lo, oh_hi) = tap_span(h, dh, pad);
                for dw in 0..k {
                    let (lo, hi) = tap_span(w, dw, pad);
                    col.resize(col.len() + oh_lo * w, 0.0);
                    for oh in oh_lo..oh_hi {
                        let src = &plane[(oh + dh - pad) * w..][..w];
                        col.resize(col.len() + lo, 0.0);
                        if hi > lo {
                            col.extend_from_slice(&src[lo + dw - pad..hi + dw - pad]);
                        }
                        col.resize(col.len() + w - hi, 0.0);
                    }
                    col.resize(col.len() + (h - oh_hi) * w, 0.0);
                }
            }
        }
    }

    /// Adds one example's `[c_in·k·k, H·W]` column gradient back into its
    /// input layout: each `dx` element sums its taps in row order.
    fn col2im_add(&self, dcol: &[f32], dx: &mut [f32]) {
        let (h, w, k) = (self.height, self.width, self.ksize);
        let pad = k / 2;
        for (c, plane) in dx.chunks_exact_mut(h * w).enumerate() {
            for dh in 0..k {
                let (oh_lo, oh_hi) = tap_span(h, dh, pad);
                for dw in 0..k {
                    let (lo, hi) = tap_span(w, dw, pad);
                    if hi == lo {
                        continue;
                    }
                    let row = &dcol[((c * k + dh) * k + dw) * h * w..][..h * w];
                    for oh in oh_lo..oh_hi {
                        let dst = &mut plane[(oh + dh - pad) * w..][lo + dw - pad..hi + dw - pad];
                        for (d, &g) in dst.iter_mut().zip(&row[oh * w + lo..oh * w + hi]) {
                            *d += g;
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        let per_in = self.in_elems();
        let b = input.numel() / per_in;
        assert_eq!(
            b * per_in,
            input.numel(),
            "input is not a multiple of C·H·W"
        );
        let (hw, rows, co) = (self.height * self.width, self.col_rows(), self.c_out);
        let block = rows * hw;
        // Training keeps the whole micro-batch's buffer for backward;
        // evaluation reuses one example's block.
        let train = mode == Mode::Train;
        let mut col = pool::take_f32_raw(if train { b * block } else { block });
        let mut y = Tensor::zeros([b, self.out_elems()]);
        for (x_e, y_e) in input
            .data()
            .chunks_exact(per_in)
            .zip(y.data_mut().chunks_exact_mut(co * hw))
        {
            if !train {
                col.clear();
            }
            let start = col.len();
            self.im2col_append(x_e, &mut col);
            matmul_into(self.params[W].data(), &col[start..], co, rows, hw, y_e);
            for (y_row, &bias) in y_e.chunks_exact_mut(hw).zip(self.params[B].data()) {
                for v in y_row {
                    *v += bias;
                }
            }
        }
        if train {
            self.cache_col
                .put(ctx, Tensor::from_vec([b * rows, hw], col));
        } else {
            pool::put_f32(col);
        }
        y
    }

    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        let (per_in, per_out) = (self.in_elems(), self.out_elems());
        let b = grad_out.numel() / per_out;
        let (hw, rows, co) = (self.height * self.width, self.col_rows(), self.c_out);
        let col = self.cache_col.take(ctx);
        let w_t = self.params[W].transpose();
        let ones = Tensor::ones([hw]);
        let mut dx = Tensor::zeros([b, per_in]);
        let mut dcol = Tensor::zeros([rows, hw]);
        let mut dy_t = Tensor::zeros([hw, co]);
        let mut dw_e = Tensor::zeros([rows, co]);
        let mut dw_t = Tensor::zeros([rows, co]);
        let mut db = Tensor::zeros([co]);
        for ((dy_e, col_e), dx_e) in grad_out
            .data()
            .chunks_exact(per_out)
            .zip(col.data().chunks_exact(rows * hw))
            .zip(dx.data_mut().chunks_exact_mut(per_in))
        {
            // dX: dcol_e = Wᵀ · dy_e, scattered back by col2im.
            matmul_into(w_t.data(), dy_e, rows, co, hw, dcol.data_mut());
            self.col2im_add(dcol.data(), dx_e);
            // dWᵀ_e = col_e · dy_eᵀ and the bias sums, folded in example
            // order into this micro-batch's gradient.
            transpose_into(dy_e, co, hw, dy_t.data_mut());
            matmul_into(col_e, dy_t.data(), rows, hw, co, dw_e.data_mut());
            dw_t.add_inplace(&dw_e);
            for (acc, dy_row) in db.data_mut().iter_mut().zip(dy_e.chunks_exact(hw)) {
                *acc += simd::dot(dy_row, ones.data());
            }
        }
        self.grads[W].add_inplace(&dw_t.transpose());
        self.grads[B].add_inplace(&db);
        dx
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [Tensor] {
        &mut self.params
    }

    fn grads(&self) -> &[Tensor] {
        &self.grads
    }

    fn grads_mut(&mut self) -> &mut [Tensor] {
        &mut self.grads
    }

    fn clear_cache(&mut self) {
        self.cache_col.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::numeric_grad_check;

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = CounterRng::new(0, 0);
        let mut conv = Conv2d::new("c", 1, 1, 4, 4, 3, &mut rng);
        // Kernel with 1 at the center, zero bias → identity.
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0;
        *conv.weight_mut() = Tensor::from_vec([1, 9], w);
        *conv.bias_mut() = Tensor::zeros([1]);
        let x = Tensor::randn([2, 16], 0.0, 1.0, &mut rng);
        let y = conv.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        assert!(y.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn shifting_kernel_shifts_image() {
        let mut rng = CounterRng::new(1, 0);
        let mut conv = Conv2d::new("c", 1, 1, 3, 3, 3, &mut rng);
        // 1 at position (dh=1, dw=0): output(h,w) = input(h, w−1).
        let mut w = vec![0.0f32; 9];
        w[3] = 1.0;
        *conv.weight_mut() = Tensor::from_vec([1, 9], w);
        *conv.bias_mut() = Tensor::zeros([1]);
        let x = Tensor::from_vec([1, 9], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let y = conv.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        assert_eq!(y.data(), &[0.0, 1.0, 2.0, 0.0, 4.0, 5.0, 0.0, 7.0, 8.0]);
    }

    #[test]
    fn grad_check_small() {
        let mut rng = CounterRng::new(2, 0);
        let conv = Conv2d::new("c", 2, 3, 3, 3, 3, &mut rng);
        numeric_grad_check(Box::new(conv), 2, 2 * 9, 8e-2);
    }

    #[test]
    fn output_shape() {
        let mut rng = CounterRng::new(3, 0);
        let mut conv = Conv2d::new("c", 3, 8, 5, 5, 3, &mut rng);
        let x = Tensor::zeros([4, 75]);
        let y = conv.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[4, 200]);
    }

    #[test]
    fn bias_applied_per_channel() {
        let mut rng = CounterRng::new(4, 0);
        let mut conv = Conv2d::new("c", 1, 2, 2, 2, 1, &mut rng);
        *conv.weight_mut() = Tensor::zeros([2, 1]);
        *conv.bias_mut() = Tensor::from_vec([2], vec![1.5, -2.5]);
        let y = conv.forward(StepCtx::new(0, 0), &Tensor::zeros([1, 4]), Mode::Eval);
        assert_eq!(y.data(), &[1.5, 1.5, 1.5, 1.5, -2.5, -2.5, -2.5, -2.5]);
    }
}
