//! Parameter-free activation layers: ReLU, GELU, Tanh.

use swift_tensor::Tensor;

use crate::layer::{ActivationCache, Layer, Mode, StepCtx};

/// Which pointwise nonlinearity an [`Activation`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// `max(0, x)`.
    Relu,
    /// Gaussian Error Linear Unit (tanh approximation, as used by
    /// BERT/ViT).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActKind {
    fn apply(self, x: f32) -> f32 {
        match self {
            ActKind::Relu => x.max(0.0),
            ActKind::Gelu => {
                let c = (2.0 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
            }
            ActKind::Tanh => x.tanh(),
        }
    }

    fn derivative(self, x: f32) -> f32 {
        match self {
            ActKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActKind::Gelu => {
                let c = (2.0 / std::f32::consts::PI).sqrt();
                let inner = c * (x + 0.044715 * x * x * x);
                let t = inner.tanh();
                let sech2 = 1.0 - t * t;
                0.5 * (1.0 + t) + 0.5 * x * sech2 * c * (1.0 + 3.0 * 0.044715 * x * x)
            }
            ActKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }
}

/// A pointwise activation layer; caches its *input* for the backward pass.
#[derive(Debug)]
pub struct Activation {
    name: String,
    kind: ActKind,
    cache: ActivationCache,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(name: impl Into<String>, kind: ActKind) -> Self {
        Activation {
            name: name.into(),
            kind,
            cache: ActivationCache::new(),
        }
    }

    /// Convenience: ReLU.
    pub fn relu(name: impl Into<String>) -> Self {
        Self::new(name, ActKind::Relu)
    }

    /// Convenience: GELU.
    pub fn gelu(name: impl Into<String>) -> Self {
        Self::new(name, ActKind::Gelu)
    }
}

impl Layer for Activation {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        let kind = self.kind;
        let y = input.map(move |x| kind.apply(x));
        if mode == Mode::Train {
            self.cache.put(ctx, input.clone());
        }
        y
    }

    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        let x = self.cache.take(ctx);
        let kind = self.kind;
        let dydx = x.map(move |v| kind.derivative(v));
        grad_out.mul(&dydx)
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
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::numeric_grad_check;

    #[test]
    fn relu_forward_values() {
        let mut l = Activation::relu("r");
        let x = Tensor::from_vec([4], vec![-1.0, 0.0, 0.5, 2.0]);
        let y = l.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn gelu_known_points() {
        // GELU(0) = 0; GELU(x) → x for large x; GELU(-x) small negative.
        assert_eq!(ActKind::Gelu.apply(0.0), 0.0);
        assert!((ActKind::Gelu.apply(6.0) - 6.0).abs() < 1e-3);
        assert!(ActKind::Gelu.apply(-6.0).abs() < 1e-3);
        assert!((ActKind::Gelu.apply(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn relu_grad_check() {
        numeric_grad_check(Box::new(Activation::relu("r")), 4, 6, 5e-2);
    }

    #[test]
    fn gelu_grad_check() {
        numeric_grad_check(Box::new(Activation::gelu("g")), 4, 6, 5e-2);
    }

    #[test]
    fn tanh_grad_check() {
        numeric_grad_check(Box::new(Activation::new("t", ActKind::Tanh)), 4, 6, 5e-2);
    }

    #[test]
    fn backward_consumes_cache() {
        let mut l = Activation::relu("r");
        let ctx = StepCtx::new(1, 2);
        let x = Tensor::from_vec([2], vec![-1.0, 1.0]);
        l.forward(ctx, &x, Mode::Train);
        let dx = l.backward(ctx, &Tensor::ones([2]));
        assert_eq!(dx.data(), &[0.0, 1.0]);
        assert!(l.cache.is_empty());
    }
}
