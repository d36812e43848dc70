//! The primitive operators of the paper's Table 1, plus the fused
//! update/undo kernels the optimizers execute.
//!
//! An optimizer's update step is a composition of primitive operators;
//! [`OptimizerKind::operators`](crate::OptimizerKind::operators) states
//! which ones each optimizer uses. The update is *undoable* when every
//! operator in it is mathematically invertible (or, as with LAMB's norm, a
//! small scalar can be saved to make it so).
//!
//! [`fused`] exposes each composition as one tensor-level pass backed by
//! `swift_tensor::simd`'s runtime-dispatched microkernels: no intermediate
//! tensors, vectorized where the host supports it, and bit-identical to the
//! scalar closure forms the optimizers historically inlined.

/// A primitive operator appearing in an optimizer update rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum OpKind {
    /// Element-wise addition — invertible (subtract).
    EwAdd,
    /// Scalar multiplication — invertible (divide), exact for powers of two.
    ScalarMul,
    /// Element-wise multiplication — invertible (element-wise divide).
    EwMul,
    /// Element-wise square root — invertible (square).
    EwSqrt,
    /// Element-wise division — invertible (multiply).
    EwDiv,
    /// Element-wise maximum — **not** invertible (loses the smaller operand).
    EwMax,
    /// Reduction to a scalar (sum / norm) — **not** invertible in general;
    /// LAMB makes it undoable by saving the scalar.
    Sum,
}

impl OpKind {
    /// Whether the operator has an exact mathematical inverse.
    pub fn invertible(self) -> bool {
        !matches!(self, OpKind::EwMax | OpKind::Sum)
    }

    /// Human-readable name matching the paper's Table 1 rows.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::EwAdd => "EW add",
            OpKind::ScalarMul => "scalar mul",
            OpKind::EwMul => "EW mul",
            OpKind::EwSqrt => "EW sqrt",
            OpKind::EwDiv => "EW div",
            OpKind::EwMax => "EW-max",
            OpKind::Sum => "sum",
        }
    }

    /// All operators, in the paper's Table 1 row order.
    pub fn all() -> &'static [OpKind] {
        &[
            OpKind::EwAdd,
            OpKind::ScalarMul,
            OpKind::EwMul,
            OpKind::EwSqrt,
            OpKind::EwDiv,
            OpKind::EwMax,
            OpKind::Sum,
        ]
    }
}

/// Fused optimizer update/undo kernels over whole tensors.
///
/// Each function is one pass, SIMD-dispatched through
/// `swift_tensor::simd` (scalar / SSE2 / AVX2, selected at runtime or via
/// `SWIFT_SIMD`), parallel above the elementwise threshold, and bitwise
/// identical across tiers and thread counts. Scalar arguments are named
/// after the kernel algebra; the optimizer modules document which Table 1
/// composition each call site realizes.
pub mod fused {
    use swift_tensor::simd;
    use swift_tensor::Tensor;

    macro_rules! check_shapes {
        ($x:expr, $($y:expr),+) => {
            $(assert_eq!(
                $x.shape(), $y.shape(),
                "shape mismatch: {} vs {}", $x.shape(), $y.shape()
            );)+
        };
    }

    /// `x ← a·x + b·y` (SGD step, momentum advance, LAMB apply).
    pub fn axpby(x: &mut Tensor, y: &Tensor, a: f32, b: f32) {
        check_shapes!(x, y);
        simd::axpby(x.data_mut(), y.data(), a, b);
    }

    /// `x ← (x + a·y)·b` (SGD/momentum undo).
    pub fn add_scale(x: &mut Tensor, y: &Tensor, a: f32, b: f32) {
        check_shapes!(x, y);
        simd::add_scale(x.data_mut(), y.data(), a, b);
    }

    /// `x ← a·x + b·y²` (second-moment advance on the raw gradient).
    pub fn sq_axpby(x: &mut Tensor, y: &Tensor, a: f32, b: f32) {
        check_shapes!(x, y);
        simd::sq_axpby(x.data_mut(), y.data(), a, b);
    }

    /// `x ← max((x + a·y²)·b, 0)` (second-moment revert, clamped against
    /// cancellation-induced negatives).
    pub fn sq_add_scale_clamp0(x: &mut Tensor, y: &Tensor, a: f32, b: f32) {
        check_shapes!(x, y);
        simd::sq_add_scale_clamp0(x.data_mut(), y.data(), a, b);
    }

    /// `x ← max(x, c·y)` (AMSGrad's running second-moment maximum).
    pub fn scale_max(x: &mut Tensor, y: &Tensor, c: f32) {
        check_shapes!(x, y);
        simd::scale_max(x.data_mut(), y.data(), c);
    }

    /// `x ← (c1·x)/(√(c2·y) + ε)` (LAMB's materialized Adam direction).
    pub fn hat(x: &mut Tensor, y: &Tensor, c1: f32, c2: f32, eps: f32) {
        check_shapes!(x, y);
        simd::hat(x.data_mut(), y.data(), c1, c2, eps);
    }

    /// `x ← a·x + b·(y + c·z)` (momentum advance on the effective
    /// gradient `g + λ·x_t`, never materialized).
    pub fn eff_axpby(x: &mut Tensor, y: &Tensor, z: &Tensor, a: f32, b: f32, c: f32) {
        check_shapes!(x, y, z);
        simd::eff_axpby(x.data_mut(), y.data(), z.data(), a, b, c);
    }

    /// `x ← (x + a·(y + c·z))·b` (momentum revert on the effective
    /// gradient).
    pub fn eff_add_scale(x: &mut Tensor, y: &Tensor, z: &Tensor, a: f32, b: f32, c: f32) {
        check_shapes!(x, y, z);
        simd::eff_add_scale(x.data_mut(), y.data(), z.data(), a, b, c);
    }

    /// `x ← a·x + b·(y + c·z)²` (second-moment advance, effective
    /// gradient).
    pub fn eff_sq_axpby(x: &mut Tensor, y: &Tensor, z: &Tensor, a: f32, b: f32, c: f32) {
        check_shapes!(x, y, z);
        simd::eff_sq_axpby(x.data_mut(), y.data(), z.data(), a, b, c);
    }

    /// `x ← max((x + a·(y + c·z)²)·b, 0)` (second-moment revert, effective
    /// gradient).
    pub fn eff_sq_add_scale_clamp0(x: &mut Tensor, y: &Tensor, z: &Tensor, a: f32, b: f32, c: f32) {
        check_shapes!(x, y, z);
        simd::eff_sq_add_scale_clamp0(x.data_mut(), y.data(), z.data(), a, b, c);
    }

    /// `x ← a·x + b·ĥ` with `ĥ = (c1·y)/(√(c2·z) + ε)` (AdamW's decayed
    /// step along the bias-corrected direction).
    #[allow(clippy::too_many_arguments)]
    pub fn adam_dir_axpby(
        x: &mut Tensor,
        y: &Tensor,
        z: &Tensor,
        a: f32,
        b: f32,
        c1: f32,
        c2: f32,
        eps: f32,
    ) {
        check_shapes!(x, y, z);
        simd::adam_dir_axpby(x.data_mut(), y.data(), z.data(), a, b, c1, c2, eps);
    }

    /// `x ← x + b·ĥ` (Adam step/undo; AMSGrad step with `c2 = 1`).
    pub fn adam_dir_axpy(
        x: &mut Tensor,
        y: &Tensor,
        z: &Tensor,
        b: f32,
        c1: f32,
        c2: f32,
        eps: f32,
    ) {
        check_shapes!(x, y, z);
        simd::adam_dir_axpy(x.data_mut(), y.data(), z.data(), b, c1, c2, eps);
    }

    /// `x ← (x + a·ĥ)·b` (AdamW undo).
    #[allow(clippy::too_many_arguments)]
    pub fn adam_dir_add_scale(
        x: &mut Tensor,
        y: &Tensor,
        z: &Tensor,
        a: f32,
        b: f32,
        c1: f32,
        c2: f32,
        eps: f32,
    ) {
        check_shapes!(x, y, z);
        simd::adam_dir_add_scale(x.data_mut(), y.data(), z.data(), a, b, c1, c2, eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invertibility_classification() {
        assert!(OpKind::EwAdd.invertible());
        assert!(OpKind::ScalarMul.invertible());
        assert!(OpKind::EwMul.invertible());
        assert!(OpKind::EwSqrt.invertible());
        assert!(OpKind::EwDiv.invertible());
        assert!(!OpKind::EwMax.invertible());
        assert!(!OpKind::Sum.invertible());
    }

    #[test]
    fn all_ops_listed_once() {
        use std::collections::HashSet;
        let set: HashSet<_> = OpKind::all().iter().collect();
        assert_eq!(set.len(), OpKind::all().len());
        assert_eq!(set.len(), 7);
    }

    mod fused_bit_eq {
        //! Every fused kernel must match the closure form the optimizers
        //! historically inlined, bit for bit, on every available dispatch
        //! tier — this is what lets the SIMD rewrite preserve replay
        //! determinism (DESIGN.md).

        use crate::ops::fused;
        use swift_tensor::simd::{available_tiers, with_tier};
        use swift_tensor::{CounterRng, Tensor};

        const N: usize = 517; // odd length: exercises every remainder tail

        fn trip(seed: u64) -> (Tensor, Tensor, Tensor) {
            let mut rng = CounterRng::new(seed, 0);
            (
                Tensor::randn([N], 0.0, 1.0, &mut rng),
                Tensor::randn([N], 0.0, 0.5, &mut rng),
                Tensor::randn([N], 1.0, 0.25, &mut rng),
            )
        }

        /// Applies `fused_op` on every tier and `reference` once; asserts
        /// all results are bitwise identical.
        fn assert_matches(
            fused_op: impl Fn(&mut Tensor, &Tensor, &Tensor),
            reference: impl Fn(&mut Tensor, &Tensor, &Tensor),
        ) {
            let (x0, y, z) = trip(42);
            let mut want = x0.clone();
            reference(&mut want, &y, &z);
            for &tier in available_tiers() {
                let mut got = x0.clone();
                with_tier(tier, || fused_op(&mut got, &y, &z));
                assert!(got.bit_eq(&want), "tier {} diverged", tier.name());
            }
        }

        #[test]
        fn two_operand_kernels() {
            let (a, b, c1, c2, eps) = (0.9f32, -0.05f32, 1.25f32, 0.75f32, 1e-8f32);
            assert_matches(
                |x, y, _| fused::axpby(x, y, a, b),
                |x, y, _| x.zip_inplace(y, |x, y| a * x + b * y),
            );
            assert_matches(
                |x, y, _| fused::add_scale(x, y, a, b),
                |x, y, _| x.zip_inplace(y, |x, y| (x + a * y) * b),
            );
            assert_matches(
                |x, y, _| fused::sq_axpby(x, y, a, b),
                |x, y, _| x.zip_inplace(y, |x, y| a * x + b * (y * y)),
            );
            assert_matches(
                |x, y, _| fused::sq_add_scale_clamp0(x, y, -a, b),
                |x, y, _| x.zip_inplace(y, |x, y| ((x + -a * (y * y)) * b).max(0.0)),
            );
            assert_matches(
                |x, y, _| fused::scale_max(x, y, c1),
                |x, y, _| x.zip_inplace(y, |x, y| x.max(y * c1)),
            );
            assert_matches(
                |x, y, _| fused::hat(x, y, c1, c2, eps),
                |x, y, _| x.zip_inplace(y, |x, y| (c1 * x) / ((c2 * y).sqrt() + eps)),
            );
        }

        #[test]
        fn three_operand_kernels() {
            let (a, b, c, c1, c2, eps) = (0.9f32, 0.1f32, 0.01f32, 1.25f32, 0.75f32, 1e-8f32);
            assert_matches(
                |x, y, z| fused::eff_axpby(x, y, z, a, b, c),
                |x, y, z| x.zip2_inplace(y, z, |x, y, z| a * x + b * (y + c * z)),
            );
            assert_matches(
                |x, y, z| fused::eff_add_scale(x, y, z, a, b, c),
                |x, y, z| x.zip2_inplace(y, z, |x, y, z| (x + a * (y + c * z)) * b),
            );
            assert_matches(
                |x, y, z| fused::eff_sq_axpby(x, y, z, a, b, c),
                |x, y, z| {
                    x.zip2_inplace(y, z, |x, y, z| {
                        let e = y + c * z;
                        a * x + b * (e * e)
                    })
                },
            );
            assert_matches(
                |x, y, z| fused::eff_sq_add_scale_clamp0(x, y, z, -a, b, c),
                |x, y, z| {
                    x.zip2_inplace(y, z, |x, y, z| {
                        let e = y + c * z;
                        ((x + -a * (e * e)) * b).max(0.0)
                    })
                },
            );
            let hat = move |m: f32, v: f32| (c1 * m) / ((c2 * v).sqrt() + eps);
            assert_matches(
                |x, y, z| fused::adam_dir_axpby(x, y, z, a, b, c1, c2, eps),
                |x, y, z| x.zip2_inplace(y, z, move |x, m, v| a * x + b * hat(m, v)),
            );
            assert_matches(
                |x, y, z| fused::adam_dir_axpy(x, y, z, b, c1, c2, eps),
                |x, y, z| x.zip2_inplace(y, z, move |x, m, v| x + b * hat(m, v)),
            );
            assert_matches(
                |x, y, z| fused::adam_dir_add_scale(x, y, z, a, b, c1, c2, eps),
                |x, y, z| x.zip2_inplace(y, z, move |x, m, v| (x + a * hat(m, v)) * b),
            );
        }

        #[test]
        #[should_panic(expected = "shape mismatch")]
        fn shape_mismatch_rejected() {
            let mut x = Tensor::zeros([4]);
            let y = Tensor::zeros([5]);
            fused::axpby(&mut x, &y, 1.0, 1.0);
        }
    }
}
