//! Deterministic dropout keyed by the training coordinates.
//!
//! This is the Rust analogue of the paper's determinism fix (§6): dropout
//! masks are drawn from a counter-based stream keyed by `(seed, iteration,
//! microbatch, layer)`, never from mutable global RNG state. A recovered
//! worker replaying iteration `i`, micro-batch `j` regenerates *exactly*
//! the mask used before the failure, so logged-data replay is bitwise
//! faithful even through stochastic regularization.

use swift_tensor::{CounterRng, Tensor};

use crate::layer::{ActivationCache, Layer, Mode, StepCtx};

/// Inverted dropout: in training, zeroes each unit with probability `p`
/// and scales survivors by `1/(1−p)`; identity in eval mode.
#[derive(Debug)]
pub struct Dropout {
    name: String,
    p: f32,
    seed: u64,
    layer_id: u64,
    cache_mask: ActivationCache,
}

impl Dropout {
    /// Creates a dropout layer. `layer_id` must be unique within the model
    /// so sibling dropouts draw independent masks.
    pub fn new(name: impl Into<String>, p: f32, seed: u64, layer_id: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Dropout {
            name: name.into(),
            p,
            seed,
            layer_id,
            cache_mask: ActivationCache::new(),
        }
    }

    fn mask_for(&self, ctx: StepCtx, numel: usize) -> Tensor {
        let mut rng = CounterRng::new(self.seed, ctx.stream(self.layer_id, 0xD0));
        let keep_scale = 1.0 / (1.0 - self.p);
        let data = (0..numel)
            .map(|_| {
                if rng.bernoulli(self.p) {
                    0.0
                } else {
                    keep_scale
                }
            })
            .collect();
        Tensor::from_vec([numel], data)
    }
}

impl Layer for Dropout {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Eval || self.p == 0.0 {
            return input.clone();
        }
        let mask = self.mask_for(ctx, input.numel()).reshape(*input.shape());
        let y = input.mul(&mask);
        self.cache_mask.put(ctx, mask);
        y
    }

    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        if self.p == 0.0 {
            return grad_out.clone();
        }
        let mask = self.cache_mask.take(ctx);
        grad_out.mul(&mask)
    }

    fn params(&self) -> &[Tensor] {
        &[]
    }

    fn params_mut(&mut self) -> &mut [Tensor] {
        &mut []
    }

    fn grads(&self) -> &[Tensor] {
        &[]
    }

    fn grads_mut(&mut self) -> &mut [Tensor] {
        &mut []
    }

    fn clear_cache(&mut self) {
        self.cache_mask.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_ctx_same_mask() {
        let mut a = Dropout::new("d", 0.5, 42, 3);
        let mut b = Dropout::new("d", 0.5, 42, 3);
        let x = Tensor::ones([64]);
        let ya = a.forward(StepCtx::new(7, 2), &x, Mode::Train);
        let yb = b.forward(StepCtx::new(7, 2), &x, Mode::Train);
        assert!(ya.bit_eq(&yb), "replay must regenerate the identical mask");
    }

    #[test]
    fn different_ctx_different_mask() {
        let mut d = Dropout::new("d", 0.5, 42, 3);
        let x = Tensor::ones([256]);
        let y0 = d.forward(StepCtx::new(0, 0), &x, Mode::Train);
        d.clear_cache();
        let y1 = d.forward(StepCtx::new(0, 1), &x, Mode::Train);
        assert!(!y0.bit_eq(&y1));
    }

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new("d", 0.9, 1, 0);
        let x = Tensor::ones([32]);
        assert!(d.forward(StepCtx::new(0, 0), &x, Mode::Eval).bit_eq(&x));
    }

    #[test]
    fn drop_rate_approximately_p() {
        let mut d = Dropout::new("d", 0.3, 5, 0);
        let x = Tensor::ones([10_000]);
        let y = d.forward(StepCtx::new(0, 0), &x, Mode::Train);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let rate = zeros as f32 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn expectation_preserved() {
        let mut d = Dropout::new("d", 0.4, 6, 0);
        let x = Tensor::ones([50_000]);
        let y = d.forward(StepCtx::new(0, 0), &x, Mode::Train);
        assert!(
            (y.mean() - 1.0).abs() < 0.02,
            "inverted scaling keeps E[y]=E[x]"
        );
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new("d", 0.5, 7, 0);
        let ctx = StepCtx::new(3, 1);
        let x = Tensor::ones([128]);
        let y = d.forward(ctx, &x, Mode::Train);
        let dx = d.backward(ctx, &Tensor::ones([128]));
        // Gradient flows exactly where the forward pass let values through.
        for (yi, di) in y.data().iter().zip(dx.data().iter()) {
            assert_eq!(yi == &0.0, di == &0.0);
        }
    }
}
