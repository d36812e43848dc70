//! Property tests for the SIMD determinism contract (DESIGN.md): every
//! dispatch tier available on this host produces results **bitwise
//! identical** to the scalar tier — for the matmul drivers, the dot
//! kernel, the fused elementwise kernels, and the f16 conversions —
//! across random shapes, unaligned slice offsets, and remainder tails.
//!
//! The elementwise and f16 properties deliberately feed raw bit patterns
//! (NaN payloads, infinities, subnormals, signed zero). Finite, ±inf and
//! signed-zero lanes must come out bitwise identical on every tier, and
//! the f16 conversions strictly bitwise. A NaN lane of a fused
//! elementwise kernel need only be NaN on every tier: when an operation
//! combines two NaNs, the payload it keeps depends on operand order, and
//! LLVM does not preserve NaN payloads — an optimized build may swap the
//! operands of a scalar `fadd` where `addps` keeps the first one's. The
//! matmul/dot properties use finite values — their accumulation *order*
//! is the contract there, and saturating every sum to the same ±inf
//! would stop exercising it.

use proptest::prelude::*;
use swift_tensor::simd::{self, SimdTier};
use swift_tensor::{matmul, matmul_a_bt, matmul_at_b_acc, Tensor};

/// Raw bit patterns: includes every NaN payload, ±inf, subnormals.
fn arb_bits_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn arb_finite_f32() -> impl Strategy<Value = f32> {
    -100.0f32..100.0
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Like [`bits`], but every NaN maps to one marker (no non-NaN value has
/// the all-ones pattern), so NaN lanes compare by NaN-ness only.
fn lanes(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

/// A fused elementwise kernel under test, `(xs, ys, zs)` with `xs` in-out.
type ZipKernel<'a> = dyn Fn(&mut [f32], &[f32], &[f32]) + 'a;

/// Runs `op` under the scalar tier, then under every other available
/// tier, and asserts all outputs are bitwise identical to scalar's.
fn assert_tiers_bit_eq<T: PartialEq + std::fmt::Debug>(op: &dyn Fn() -> T) {
    let reference = simd::with_tier(SimdTier::Scalar, op);
    for &tier in simd::available_tiers() {
        let got = simd::with_tier(tier, op);
        prop_assert_eq!(
            &got,
            &reference,
            "tier {} diverged from scalar",
            tier.name()
        );
    }
}

proptest! {
    // All three matmul forms (AB, AᵀB accumulated onto a dirty
    // gradient, ABᵀ) — the register-tile kernels, the multi-row dot, the
    // panel walk, and their row/column remainder paths — are bitwise
    // tier-independent at every shape, including shapes far smaller than
    // one MR×NR tile and a 2560-deep k (one case in six).
    #[test]
    fn matmul_drivers_bitwise_across_tiers(
        m in 1usize..24,
        k in (1usize..48).prop_map(|k| if k < 40 { k } else { 2560 }),
        n in 1usize..56,
        seed in any::<u64>(),
    ) {
        let mut rng = seed;
        let mut next = move || {
            // SplitMix64, mapped into ±100.
            rng = rng.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            ((z ^ (z >> 31)) % 20_000) as f32 / 100.0 - 100.0
        };
        let a = Tensor::from_vec([m, k], (0..m * k).map(|_| next()).collect());
        let b = Tensor::from_vec([k, n], (0..k * n).map(|_| next()).collect());
        let at = Tensor::from_vec([k, m], (0..k * m).map(|_| next()).collect());
        let bt = Tensor::from_vec([n, k], (0..n * k).map(|_| next()).collect());
        let g = Tensor::from_vec([m, n], (0..m * n).map(|_| next()).collect());
        assert_tiers_bit_eq(&|| bits(matmul(&a, &b).data()));
        assert_tiers_bit_eq(&|| {
            let mut out = g.clone();
            matmul_at_b_acc(&at, &b, &mut out);
            bits(out.data())
        });
        assert_tiers_bit_eq(&|| bits(matmul_a_bt(&a, &bt).data()));
    }

    // `dot` at every length (remainder tails included) and slice offset
    // (vector loads are unaligned by construction) folds to the same
    // bits on every tier.
    #[test]
    fn dot_bitwise_across_tiers(
        xs in prop::collection::vec(arb_finite_f32(), 0..200),
        off in 0usize..8,
    ) {
        let pad: Vec<f32> = std::iter::repeat_n(0.0, off).chain(xs.iter().copied()).collect();
        let ys: Vec<f32> = xs.iter().map(|x| x * 0.5 + 1.0).collect();
        let pad_y: Vec<f32> = std::iter::repeat_n(0.0, off).chain(ys.iter().copied()).collect();
        assert_tiers_bit_eq(&|| simd::dot(&pad[off..], &pad_y[off..]).to_bits());
    }

    // The fused elementwise kernels — one per distinct operation mix
    // (mul/add, square, clamp, max, sqrt/div) — are tier-independent on
    // raw bit patterns, at unaligned offsets, with remainder tails:
    // bitwise on every lane that is not NaN, NaN where scalar is NaN.
    #[test]
    fn zip_kernels_bitwise_across_tiers(
        xs in prop::collection::vec(arb_bits_f32(), 1..300),
        off in 0usize..8,
        a in arb_finite_f32(),
        b in arb_finite_f32(),
        c in arb_finite_f32(),
    ) {
        let n = xs.len();
        let ys: Vec<f32> = xs.iter().map(|x| f32::from_bits(x.to_bits().rotate_left(7))).collect();
        let zs: Vec<f32> = xs.iter().map(|x| f32::from_bits(x.to_bits() ^ 0x5a5a_5a5a)).collect();
        let off = off.min(n - 1);
        let run = |kernel: &ZipKernel<'_>| {
            let mut out = xs.clone();
            kernel(&mut out[off..], &ys[off..], &zs[off..]);
            lanes(&out)
        };
        assert_tiers_bit_eq(&|| run(&|x, y, _| simd::axpby_seq(x, y, a, b)));
        assert_tiers_bit_eq(&|| run(&|x, y, _| simd::sq_add_scale_clamp0_seq(x, y, a, b)));
        assert_tiers_bit_eq(&|| run(&|x, y, _| simd::scale_max_seq(x, y, c)));
        assert_tiers_bit_eq(&|| run(&|x, y, _| simd::hat_seq(x, y, a, b, 1e-8)));
        assert_tiers_bit_eq(&|| run(&|x, y, z| simd::eff_axpby_seq(x, y, z, a, b, c)));
        assert_tiers_bit_eq(&|| run(&|x, y, z| simd::adam_dir_axpby_seq(x, y, z, a, b, c, b, 1e-8)));
    }

    // f32 → f16 narrowing hits the same bits on every tier for every
    // input pattern (rounding ties, subnormal underflow, overflow to
    // inf, NaN quieting), at unaligned offsets — through both the
    // sequential and the parallel entry points.
    #[test]
    fn f32_to_f16_bitwise_across_tiers(
        xs in prop::collection::vec(arb_bits_f32(), 1..300),
        off in 0usize..8,
    ) {
        let off = off.min(xs.len() - 1);
        assert_tiers_bit_eq(&|| {
            let mut dst = vec![0u16; xs.len() - off];
            simd::f32_to_f16_into_seq(&xs[off..], &mut dst);
            dst
        });
        assert_tiers_bit_eq(&|| {
            let mut dst = vec![0u16; xs.len() - off];
            simd::f32_to_f16_into(&xs[off..], &mut dst);
            dst
        });
    }

    // f16 → f32 widening (exact by construction) is also bitwise
    // tier-independent for all 2^16 payloads, reached via random draws.
    #[test]
    fn f16_to_f32_bitwise_across_tiers(
        hs in prop::collection::vec(any::<u16>(), 1..300),
        off in 0usize..8,
    ) {
        let off = off.min(hs.len() - 1);
        assert_tiers_bit_eq(&|| {
            let mut dst = vec![0.0f32; hs.len() - off];
            simd::f16_to_f32_into_seq(&hs[off..], &mut dst);
            bits(&dst)
        });
        assert_tiers_bit_eq(&|| {
            let mut dst = vec![0.0f32; hs.len() - off];
            simd::f16_to_f32_into(&hs[off..], &mut dst);
            bits(&dst)
        });
    }
}

/// The input that exposed the NaN-payload exception. In `a·x + b·ĥ`, `x`
/// is a NaN with a payload and `ĥ` is the default NaN from `√` of a
/// negative `c2·z`. AVX2 `addps` keeps `x`'s payload (0xffe2ea3f); an
/// optimized scalar build may swap the `fadd` operands and keep the
/// default NaN (0xffc00000). Both lanes are NaN, which is the contract.
#[test]
fn adam_dir_nan_sum_agrees_across_tiers_up_to_payload() {
    let n = 19; // two 8-lane vectors plus a remainder tail
    let xs = vec![f32::from_bits(0xffe2_ea3f); n];
    let ys = vec![f32::from_bits(0xf175_1fff); n];
    let zs = vec![f32::from_bits(0xa5b8_b065); n];
    let run = || {
        let mut out = xs.clone();
        simd::adam_dir_axpby_seq(&mut out, &ys, &zs, 0.5, 0.25, 1.5, 0.25, 1e-8);
        lanes(&out)
    };
    assert_tiers_bit_eq(&run);
    assert!(
        simd::with_tier(SimdTier::Scalar, run)
            .iter()
            .all(|&l| l == u32::MAX),
        "every lane adds two NaNs"
    );
}
