//! Layer normalization with hand-written backward.

use swift_tensor::{CounterRng, Tensor};

use crate::layer::{ActivationCache, Layer, Mode, StepCtx};

/// Row-wise layer normalization: `y = γ · (x − μ)/σ + β` with learnable
/// gain `γ` and bias `β` over the last dimension.
#[derive(Debug)]
pub struct LayerNorm {
    name: String,
    /// `[gamma, beta]` — contiguous so [`Layer::params`] borrows.
    params: [Tensor; 2],
    /// `[grad_gamma, grad_beta]`, aligned with `params`.
    grads: [Tensor; 2],
    eps: f32,
    /// Caches the *normalized* input x̂ and per-row inverse std.
    cache_xhat: ActivationCache,
    cache_inv_std: ActivationCache,
}

const G: usize = 0;
const B: usize = 1;

impl LayerNorm {
    /// Creates a layer norm over rows of width `dim`. `_rng` is accepted
    /// for builder uniformity; initialization is the standard γ=1, β=0.
    pub fn new(name: impl Into<String>, dim: usize, _rng: &mut CounterRng) -> Self {
        LayerNorm {
            name: name.into(),
            params: [Tensor::ones([dim]), Tensor::zeros([dim])],
            grads: [Tensor::zeros([dim]), Tensor::zeros([dim])],
            eps: 1e-5,
            cache_xhat: ActivationCache::new(),
            cache_inv_std: ActivationCache::new(),
        }
    }

    /// The gain vector γ.
    pub fn gamma(&self) -> &Tensor {
        &self.params[G]
    }

    /// Mutable gain access.
    pub fn gamma_mut(&mut self) -> &mut Tensor {
        &mut self.params[G]
    }

    /// The bias vector β.
    pub fn beta(&self) -> &Tensor {
        &self.params[B]
    }

    /// Mutable bias access.
    pub fn beta_mut(&mut self) -> &mut Tensor {
        &mut self.params[B]
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        let (rows, cols) = input.shape().as_matrix();
        let mut xhat = input.clone();
        let mut inv_stds = vec![0.0f32; rows];
        #[allow(clippy::needless_range_loop)] // r indexes rows of two buffers in lockstep
        for r in 0..rows {
            let row = &mut xhat.data_mut()[r * cols..(r + 1) * cols];
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[r] = inv_std;
            for v in row.iter_mut() {
                *v = (*v - mean) * inv_std;
            }
        }
        // y = γ ⊙ x̂ + β, broadcast per row.
        let mut y = xhat.clone();
        for r in 0..rows {
            let row = &mut y.data_mut()[r * cols..(r + 1) * cols];
            for (c, v) in row.iter_mut().enumerate() {
                *v = *v * self.params[G].data()[c] + self.params[B].data()[c];
            }
        }
        if mode == Mode::Train {
            self.cache_xhat.put(ctx, xhat);
            self.cache_inv_std
                .put(ctx, Tensor::from_vec([rows], inv_stds));
        }
        y
    }

    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        let xhat = self.cache_xhat.take(ctx);
        let inv_std = self.cache_inv_std.take(ctx);
        let (rows, cols) = grad_out.shape().as_matrix();
        // dγ += Σ_rows dy ⊙ x̂ ; dβ += Σ_rows dy
        self.grads[G].add_inplace(&grad_out.mul(&xhat).sum_rows());
        self.grads[B].add_inplace(&grad_out.sum_rows());
        // dx = inv_std ⊙ (dŷ − mean(dŷ) − x̂ · mean(dŷ ⊙ x̂)), dŷ = dy ⊙ γ
        let mut dx = Tensor::zeros(*grad_out.shape());
        for r in 0..rows {
            let dy = &grad_out.data()[r * cols..(r + 1) * cols];
            let xh = &xhat.data()[r * cols..(r + 1) * cols];
            let istd = inv_std.data()[r];
            let mut dyg = vec![0.0f32; cols];
            for c in 0..cols {
                dyg[c] = dy[c] * self.params[G].data()[c];
            }
            let mean_dyg = dyg.iter().sum::<f32>() / cols as f32;
            let mean_dyg_xh =
                dyg.iter().zip(xh.iter()).map(|(a, b)| a * b).sum::<f32>() / cols as f32;
            let out = &mut dx.data_mut()[r * cols..(r + 1) * cols];
            for c in 0..cols {
                out[c] = istd * (dyg[c] - mean_dyg - xh[c] * mean_dyg_xh);
            }
        }
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
        self.cache_xhat.clear();
        self.cache_inv_std.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::numeric_grad_check;

    #[test]
    fn forward_normalizes_rows() {
        let mut rng = CounterRng::new(0, 0);
        let mut ln = LayerNorm::new("ln", 8, &mut rng);
        let x = Tensor::randn([4, 8], 3.0, 2.0, &mut rng);
        let y = ln.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        for r in 0..4 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean = row.iter().sum::<f32>() / 8.0;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn gamma_beta_affine() {
        let mut rng = CounterRng::new(1, 0);
        let mut ln = LayerNorm::new("ln", 4, &mut rng);
        *ln.gamma_mut() = Tensor::full([4], 2.0);
        *ln.beta_mut() = Tensor::full([4], 1.0);
        let x = Tensor::from_vec([1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = ln.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-5, "β shifts the mean");
    }

    #[test]
    fn grad_check() {
        let mut rng = CounterRng::new(2, 0);
        let ln = LayerNorm::new("ln", 6, &mut rng);
        numeric_grad_check(Box::new(ln), 3, 6, 5e-2);
    }

    #[test]
    fn caches_cleared() {
        let mut rng = CounterRng::new(3, 0);
        let mut ln = LayerNorm::new("ln", 4, &mut rng);
        ln.forward(StepCtx::new(0, 0), &Tensor::ones([2, 4]), Mode::Train);
        assert_eq!(ln.cache_xhat.len(), 1);
        ln.clear_cache();
        assert!(ln.cache_xhat.is_empty() && ln.cache_inv_std.is_empty());
    }
}
