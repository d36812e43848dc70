//! Fully-connected layer with hand-written backward.

use swift_tensor::{matmul, matmul_a_bt, matmul_at_b_acc, CounterRng, Tensor};

use crate::layer::{ActivationCache, Layer, Mode, StepCtx};

/// `y = x · Wᵀ + b` with `W: [out, in]`, `b: [out]`.
///
/// Backward:
/// - `dW += dyᵀ · x`  (shape `[out, in]`)
/// - `db += Σ_rows dy`
/// - `dx  = dy · W`
#[derive(Debug)]
pub struct Linear {
    name: String,
    /// `[weight, bias]` — contiguous so [`Layer::params`] borrows.
    params: [Tensor; 2],
    /// `[grad_weight, grad_bias]`, aligned with `params`.
    grads: [Tensor; 2],
    cache: ActivationCache,
}

const W: usize = 0;
const B: usize = 1;

impl Linear {
    /// Creates a linear layer with Kaiming-uniform initialization drawn
    /// from a deterministic stream.
    pub fn new(
        name: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        rng: &mut CounterRng,
    ) -> Self {
        let bound = (1.0 / in_dim as f32).sqrt();
        Linear {
            name: name.into(),
            params: [
                Tensor::uniform([out_dim, in_dim], -bound, bound, rng),
                Tensor::uniform([out_dim], -bound, bound, rng),
            ],
            grads: [Tensor::zeros([out_dim, in_dim]), Tensor::zeros([out_dim])],
            cache: ActivationCache::new(),
        }
    }

    /// The weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.params[W]
    }

    /// Mutable weight access.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.params[W]
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.params[B]
    }

    /// Mutable bias access.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.params[B]
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.params[W].shape().dim(1)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.params[W].shape().dim(0)
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        let y = matmul_a_bt(input, &self.params[W]).add_row_vector(&self.params[B]);
        if mode == Mode::Train {
            self.cache.put(ctx, input.clone());
        }
        y
    }

    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        let x = self.cache.take(ctx);
        // dW += dyᵀ x : [out, in], the micro-batch's whole product added once
        matmul_at_b_acc(grad_out, &x, &mut self.grads[W]);
        self.grads[B].add_inplace(&grad_out.sum_rows());
        // dx = dy W : [batch, in]
        matmul(grad_out, &self.params[W])
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

    fn params_and_grads_mut(&mut self) -> (&mut [Tensor], &[Tensor]) {
        (&mut self.params, &self.grads)
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::numeric_grad_check;

    #[test]
    fn forward_matches_manual() {
        let mut rng = CounterRng::new(0, 0);
        let mut l = Linear::new("l", 2, 3, &mut rng);
        // Overwrite params with known values.
        *l.weight_mut() = Tensor::from_vec([3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        *l.bias_mut() = Tensor::from_vec([3], vec![0.1, 0.2, 0.3]);
        let x = Tensor::from_vec([1, 2], vec![2.0, 5.0]);
        let y = l.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        assert_eq!(y.data(), &[2.1, 5.2, 7.3]);
    }

    #[test]
    fn gradients_pass_numeric_check() {
        let mut rng = CounterRng::new(1, 0);
        let layer = Linear::new("l", 4, 3, &mut rng);
        numeric_grad_check(Box::new(layer), 5, 4, 2e-2);
    }

    #[test]
    fn grads_accumulate_across_microbatches() {
        let mut rng = CounterRng::new(2, 0);
        let mut l = Linear::new("l", 2, 2, &mut rng);
        let x = Tensor::ones([3, 2]);
        let dy = Tensor::ones([3, 2]);
        let c0 = StepCtx::new(0, 0);
        let c1 = StepCtx::new(0, 1);
        l.forward(c0, &x, Mode::Train);
        l.forward(c1, &x, Mode::Train);
        l.backward(c0, &dy);
        let g1 = l.grads()[0].clone();
        l.backward(c1, &dy);
        let g2 = l.grads()[0].clone();
        assert!(g2.max_abs_diff(&g1.scale(2.0)) < 1e-6);
        l.zero_grads();
        assert_eq!(l.grads()[0].sum(), 0.0);
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut rng = CounterRng::new(3, 0);
        let mut l = Linear::new("l", 2, 2, &mut rng);
        let x = Tensor::ones([1, 2]);
        l.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        assert_eq!(l.cache.len(), 0);
    }

    #[test]
    fn init_is_deterministic() {
        let a = Linear::new("l", 8, 8, &mut CounterRng::new(9, 1));
        let b = Linear::new("l", 8, 8, &mut CounterRng::new(9, 1));
        assert!(a.weight().bit_eq(b.weight()));
        assert!(a.bias().bit_eq(b.bias()));
    }
}
