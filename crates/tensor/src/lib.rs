//! # swift-tensor
//!
//! Deterministic dense tensor math for the SWIFT reproduction.
//!
//! SWIFT's recovery correctness rests on two numerical properties this crate
//! provides:
//!
//! 1. **Bitwise determinism** — every kernel produces bit-identical output
//!    for identical input, independent of thread count or scheduling
//!    (fixed-order reductions, counter-based RNG). This is the Rust
//!    equivalent of the paper's `cudnn.deterministic = True` discussion
//!    (§6): without it, replaying logged activations would diverge from the
//!    pre-failure execution.
//! 2. **Exact serialization** — tensors round-trip through the logging /
//!    checkpoint wire format without loss, including NaN/∞ payloads.
//!
//! Parallel kernels use rayon with deterministic chunked reductions, per the
//! HPC-parallel guides for this codebase.

pub mod half;
pub mod matmul;
pub mod par;
pub mod pool;
pub mod rng;
pub mod serialize;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use half::{
    f16_bits_to_f32, f16_slice_to_f32, f32_slice_to_f16, f32_to_f16_bits, quantize_f16,
};
pub use matmul::{matmul, matmul_a_bt, matmul_at_b_acc, matmul_into};
pub use rng::{stream_id, CounterRng};
#[cfg(target_endian = "little")]
pub use serialize::f32_le_bytes;
pub use serialize::{
    decode, decode_from, decode_slice, encode, encode_f16, encode_f16_into, encode_into,
    encoded_f16_size, encoded_size, DecodeError,
};
pub use shape::Shape;
pub use tensor::Tensor;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_tensor(max_elems: usize) -> impl Strategy<Value = Tensor> {
        (1usize..=max_elems).prop_flat_map(|n| {
            prop::collection::vec(-1e3f32..1e3f32, n).prop_map(move |v| Tensor::from_vec([n], v))
        })
    }

    /// Adversarial payload values: NaN, ±inf, subnormals, ±0, extremes —
    /// everything a wire format is most likely to mangle.
    fn specials() -> [f32; 15] {
        [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,           // smallest normal
            f32::MIN_POSITIVE / 2.0,     // subnormal
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x8000_0001), // smallest negative subnormal
            f32::MAX,
            f32::MIN,
            65504.0,        // f16::MAX
            65520.0,        // first f32 that overflows f16
            5.960_464_5e-8, // 2^-24, smallest f16 subnormal
            2.980_232_2e-8, // 2^-25, f16 underflow tie — rounds to even 0
        ]
    }

    fn arb_adversarial_f32() -> impl Strategy<Value = f32> {
        // Half the draws hit a hand-picked special value, half are fully
        // random bit patterns (which include quiet/signaling NaN payloads).
        (0usize..30, any::<u32>()).prop_map(|(sel, bits)| {
            let s = specials();
            if sel < s.len() {
                s[sel]
            } else {
                f32::from_bits(bits)
            }
        })
    }

    fn arb_adversarial_tensor(max_elems: usize) -> impl Strategy<Value = Tensor> {
        prop::collection::vec(arb_adversarial_f32(), 1..max_elems)
            .prop_map(|v| Tensor::from_vec([v.len()], v))
    }

    proptest! {
        #[test]
        fn serialize_round_trip(t in arb_tensor(256)) {
            let back = decode(&mut encode(&t)).unwrap();
            prop_assert!(back.bit_eq(&t));
        }

        #[test]
        fn f32_round_trip_adversarial(t in arb_adversarial_tensor(300)) {
            // f32 wire format must be lossless for every bit pattern,
            // including NaN payloads, ±inf, subnormals and signed zero.
            let back = decode(&mut encode(&t)).unwrap();
            prop_assert!(back.bit_eq(&t));
            let back2 = decode_slice(&encode(&t)).unwrap();
            prop_assert!(back2.bit_eq(&t));
        }

        #[test]
        fn f16_round_trip_adversarial(t in arb_adversarial_tensor(300)) {
            // The f16 path is lossy by design; the contract is that the
            // decoded tensor equals quantize_f16 of the original, bit for
            // bit (NaN stays NaN, ±inf and signed zero survive exactly).
            let back = decode(&mut encode_f16(&t)).unwrap();
            let expect = Tensor::from_vec(*t.shape(), quantize_f16(t.data()));
            for (b, e) in back.data().iter().zip(expect.data()) {
                prop_assert!(
                    b.to_bits() == e.to_bits() || (b.is_nan() && e.is_nan()),
                    "decoded {b:?} != quantized {e:?}"
                );
            }
        }

        #[test]
        fn add_sub_inverse_within_tolerance(t in arb_tensor(128), s in -100.0f32..100.0) {
            // x + s - s stays within rounding of x. This mirrors the paper's
            // observation that undo is exact up to floating-point error (§4).
            let other = Tensor::full(*t.shape(), s);
            let round = t.add(&other).sub(&other);
            prop_assert!(round.max_abs_diff(&t) <= 1e-2);
        }

        #[test]
        fn axpy_matches_add_scale(t in arb_tensor(128), alpha in -10.0f32..10.0) {
            let g = t.scale(0.5);
            let mut via_axpy = t.clone();
            via_axpy.axpy(alpha, &g);
            let via_ops = t.add(&g.scale(alpha));
            prop_assert!(via_axpy.max_abs_diff(&via_ops) < 1e-1);
        }

        #[test]
        fn scale_undo_exact_for_pow2(t in arb_tensor(128)) {
            // Scaling by a power of two is exactly invertible in binary
            // floating point.
            let scaled = t.scale(0.5).scale(2.0);
            prop_assert!(scaled.bit_eq(&t));
        }

        #[test]
        fn reductions_bitwise_stable(t in arb_tensor(512)) {
            prop_assert_eq!(t.sum().to_bits(), t.sum().to_bits());
            prop_assert_eq!(t.sum_sq().to_bits(), t.sum_sq().to_bits());
        }

        #[test]
        fn transpose_involution(rows in 1usize..12, cols in 1usize..12, seed in 0u64..100) {
            let t = Tensor::randn([rows, cols], 0.0, 1.0, &mut CounterRng::new(seed, 0));
            prop_assert!(t.transpose().transpose().bit_eq(&t));
        }

        #[test]
        fn matmul_distributes_over_add(seed in 0u64..50) {
            let mut rng = CounterRng::new(seed, 0);
            let a = Tensor::randn([4, 6], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([6, 3], 0.0, 1.0, &mut rng);
            let c = Tensor::randn([6, 3], 0.0, 1.0, &mut rng);
            let lhs = matmul(&a, &b.add(&c));
            let rhs = matmul(&a, &b).add(&matmul(&a, &c));
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
        }
    }
}
