//! Deterministic, cache-blocked, register-tiled matrix multiplication.
//!
//! All three kernels tile the output into `MR`-row blocks and, within a
//! block, `MR × NR` register tiles: the tile accumulators live in
//! fixed-size stack arrays, each `B` row (or `A` column) is loaded once and
//! reused across the `MR` output rows, and stores to `C` happen once per
//! tile instead of once per `k` step. That is where the speedup over the
//! seed's unblocked row loops comes from.
//!
//! Parallelism is over `MR`-row output blocks via the shared dispatch in
//! [`crate::par`]. Each output element is accumulated by exactly one thread
//! in a fixed ascending-`k` order (lane-split but fixed for `matmul_a_bt`),
//! and block boundaries depend only on the shape — never on the thread
//! count — so results are bit-identical at any `RAYON_NUM_THREADS`,
//! including 1. SWIFT's replay correctness (paper §6) depends on this.
//!
//! The register tiles and the dot product execute through the
//! runtime-dispatched microkernels in [`crate::simd`] (scalar / SSE2 /
//! AVX2); all tiers are bitwise-identical by construction, so the choice
//! of tier — like the choice of thread count — never changes results.
//! Edge handling (`n % NR` columns, dot tails) stays in shared scalar
//! code here.

use crate::par;
use crate::pool;
use crate::simd::{self, MR, NR};
use crate::tensor::Tensor;

/// `C = A · B` on the matrix views of `a` (`[m, k]`) and `b` (`[k, n]`).
///
/// # Panics
/// Panics if inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul inner dim mismatch: {k} vs {k2}");
    let mut out = pool::take_f32(m * n);
    let ad = a.data();
    let bd = b.data();
    if n > 0 {
        par::for_each_block_mut(
            &mut out,
            MR * n,
            par::parallel_rows(m, k * n),
            |blk, out_block| ab_block(ad, bd, k, n, blk * MR, out_block),
        );
    }
    Tensor::from_vec([m, n], out)
}

/// `C = Aᵀ · B` without materializing the transpose: `a` is `[k, m]`,
/// result is `[m, n]`. Used for weight gradients (`xᵀ · dy`).
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul_at_b inner dim mismatch: {k} vs {k2}");
    let ad = a.data();
    let bd = b.data();
    let mut out = pool::take_f32(m * n);
    if n > 0 {
        par::for_each_block_mut(
            &mut out,
            MR * n,
            par::parallel_rows(m, k * n),
            |blk, out_block| atb_block(ad, bd, k, m, n, blk * MR, out_block),
        );
    }
    Tensor::from_vec([m, n], out)
}

/// `C = A · Bᵀ` without materializing the transpose: `a` is `[m, k]`,
/// `b` is `[n, k]`, result is `[m, n]`. Used for input gradients
/// (`dy · Wᵀ` with row-major `W: [out, in]` stored as `[n, k]`).
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix();
    let (n, k2) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul_a_bt inner dim mismatch: {k} vs {k2}");
    let ad = a.data();
    let bd = b.data();
    let mut out = pool::take_f32(m * n);
    if n > 0 {
        par::for_each_block_mut(
            &mut out,
            MR * n,
            par::parallel_rows(m, k * n),
            |blk, out_block| abt_block(ad, bd, k, n, blk * MR, out_block),
        );
    }
    Tensor::from_vec([m, n], out)
}

/// `out = A · B` on row-major slices: `a` is `[m, k]`, `b` is `[k, n]` and
/// `out` is `[m, n]`, fully overwritten. The slice-level form of
/// [`matmul`] for operands that live inside a larger buffer (a conv
/// layer's per-example im2col blocks): same kernel, same blocking, same
/// bits.
///
/// # Panics
/// Panics if a slice length disagrees with its shape.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert!(
        a.len() == m * k && b.len() == k * n && out.len() == m * n,
        "matmul_into: slice lengths do not match [{m},{k}]x[{k},{n}]"
    );
    if n == 0 {
        return;
    }
    // The column-edge path accumulates, so it needs the zeros that
    // `matmul`'s pooled buffer starts from.
    for row in out.chunks_mut(n) {
        row[n - n % NR..].fill(0.0);
    }
    par::for_each_block_mut(
        out,
        MR * n,
        par::parallel_rows(m, k * n),
        |blk, out_block| ab_block(a, b, k, n, blk * MR, out_block),
    );
}

/// One `MR`-row (or shorter, at the bottom edge) block of `C = A · B`.
/// Accumulation order per element: ascending `kk`, one accumulator.
fn ab_block(ad: &[f32], bd: &[f32], k: usize, n: usize, r0: usize, out_block: &mut [f32]) {
    let rows = out_block.len() / n;
    let mut a_rows: [&[f32]; MR] = [&[]; MR];
    for (i, slot) in a_rows.iter_mut().enumerate().take(rows) {
        *slot = &ad[(r0 + i) * k..(r0 + i + 1) * k];
    }

    let mut c0 = 0;
    while c0 + NR <= n {
        simd::tile_ab(&a_rows[..rows], bd, k, n, c0, out_block);
        c0 += NR;
    }

    // Column edge (n % NR): plain ikj, still ascending-k per element.
    if c0 < n {
        for i in 0..rows {
            for (kk, &av) in a_rows[i].iter().enumerate() {
                let b_edge = &bd[kk * n + c0..(kk + 1) * n];
                let out_edge = &mut out_block[i * n + c0..i * n + n];
                for (o, &bv) in out_edge.iter_mut().zip(b_edge) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// One output block of `C = Aᵀ · B` (`a` stored `[k, m]`): identical tiling
/// to [`ab_block`], but the `A` operands for the block's rows sit
/// contiguously inside each `A` row (`ad[kk·m + r0 ..]`).
fn atb_block(
    ad: &[f32],
    bd: &[f32],
    k: usize,
    m: usize,
    n: usize,
    r0: usize,
    out_block: &mut [f32],
) {
    let rows = out_block.len() / n;

    let mut c0 = 0;
    while c0 + NR <= n {
        simd::tile_atb(ad, bd, k, m, n, r0, rows, c0, out_block);
        c0 += NR;
    }

    if c0 < n {
        for kk in 0..k {
            let a_col = &ad[kk * m + r0..kk * m + r0 + rows];
            let b_edge = &bd[kk * n + c0..(kk + 1) * n];
            for (i, &av) in a_col.iter().enumerate() {
                let out_edge = &mut out_block[i * n + c0..i * n + n];
                for (o, &bv) in out_edge.iter_mut().zip(b_edge) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// One output block of `C = A · Bᵀ` (`b` stored `[n, k]`): both operands of
/// every dot product are contiguous, so each element is a lane-split dot.
fn abt_block(ad: &[f32], bd: &[f32], k: usize, n: usize, r0: usize, out_block: &mut [f32]) {
    let rows = out_block.len() / n;
    for i in 0..rows {
        let a_row = &ad[(r0 + i) * k..(r0 + i + 1) * k];
        let out_row = &mut out_block[i * n..(i + 1) * n];
        for (c, o) in out_row.iter_mut().enumerate() {
            *o = simd::dot(a_row, &bd[c * k..(c + 1) * k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CounterRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix();
        let (_, n) = b.shape().as_matrix();
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                out.set(&[i, j], s);
            }
        }
        out
    }

    /// The same blocked kernel forced down the sequential dispatch path —
    /// the single-thread reference for the determinism contract.
    fn matmul_forced_sequential(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix();
        let (_, n) = b.shape().as_matrix();
        let mut out = pool::take_f32(m * n);
        let (ad, bd) = (a.data(), b.data());
        if n > 0 {
            par::for_each_block_mut(&mut out, MR * n, false, |blk, out_block| {
                ab_block(ad, bd, k, n, blk * MR, out_block)
            });
        }
        Tensor::from_vec([m, n], out)
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec([3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = CounterRng::new(1, 0);
        let a = Tensor::randn([5, 5], 0.0, 1.0, &mut rng);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matches_naive_loop_order() {
        // The tiled kernel accumulates each element in the same ascending-k
        // order as the naive ijk loop, so results agree bit-exactly.
        let mut rng = CounterRng::new(2, 0);
        let a = Tensor::randn([17, 23], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([23, 11], 0.0, 1.0, &mut rng);
        assert!(matmul(&a, &b).bit_eq(&naive(&a, &b)));
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = CounterRng::new(3, 0);
        let a = Tensor::randn([13, 7], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([13, 9], 0.0, 1.0, &mut rng);
        let expect = matmul(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).bit_eq(&expect));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = CounterRng::new(4, 0);
        let a = Tensor::randn([6, 8], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([5, 8], 0.0, 1.0, &mut rng);
        let expect = matmul(&a, &b.transpose());
        assert!(matmul_a_bt(&a, &b).max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn parallel_path_bitwise_deterministic() {
        let mut rng = CounterRng::new(5, 0);
        let a = Tensor::randn([256, 512], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([512, 128], 0.0, 1.0, &mut rng);
        let c1 = matmul(&a, &b);
        for _ in 0..3 {
            assert!(c1.bit_eq(&matmul(&a, &b)));
        }
    }

    #[test]
    fn blocked_parallel_bit_eq_single_thread() {
        // The determinism contract: the parallel dispatch must reproduce the
        // forced-sequential result bit-for-bit on shapes that exercise full
        // tiles, row edges (m % MR), column edges (n % NR), and both sides
        // of the parallel threshold. CI runs this whole suite under
        // RAYON_NUM_THREADS ∈ {1, 2, 8}.
        let shapes: &[(usize, usize, usize)] = &[
            (64, 64, 64),      // full tiles only
            (67, 31, 29),      // ragged everything
            (8, 128, 513),     // above the threshold with a column edge
            (129, 130, 48),    // row edge, above the threshold
            (3, 5, 7),         // tiny, sequential path
            (1, 1, 1),         // degenerate
            (16, 100_000, 16), // deep k, tests accumulator order at scale
        ];
        let mut rng = CounterRng::new(6, 0);
        for &(m, k, n) in shapes {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let par = matmul(&a, &b);
            let seq = matmul_forced_sequential(&a, &b);
            assert!(
                par.bit_eq(&seq),
                "matmul [{m},{k}]x[{k},{n}] differs between parallel and sequential dispatch"
            );
        }
    }

    #[test]
    fn all_kernels_deterministic_across_repeats() {
        let mut rng = CounterRng::new(7, 0);
        let a = Tensor::randn([96, 70], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([70, 50], 0.0, 1.0, &mut rng);
        let at = Tensor::randn([70, 96], 0.0, 1.0, &mut rng);
        let bt = Tensor::randn([50, 70], 0.0, 1.0, &mut rng);
        let (c1, c2, c3) = (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt));
        for _ in 0..3 {
            assert!(c1.bit_eq(&matmul(&a, &b)));
            assert!(c2.bit_eq(&matmul_at_b(&at, &b)));
            assert!(c3.bit_eq(&matmul_a_bt(&a, &bt)));
        }
    }

    #[test]
    fn all_kernels_bit_eq_across_simd_tiers() {
        // The dispatch-tier leg of the determinism contract: every SIMD
        // tier available on this host must reproduce the scalar tier
        // bit-for-bit, on shapes with full tiles, ragged edges and tails.
        let mut rng = CounterRng::new(8, 0);
        for &(m, k, n) in &[
            (64usize, 64usize, 64usize),
            (67, 31, 29),
            (3, 5, 7),
            (1, 1, 1),
        ] {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let at = Tensor::randn([k, m], 0.0, 1.0, &mut rng);
            let bt = Tensor::randn([n, k], 0.0, 1.0, &mut rng);
            let want = simd::with_tier(simd::SimdTier::Scalar, || {
                (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
            });
            for &tier in simd::available_tiers() {
                let got = simd::with_tier(tier, || {
                    (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
                });
                assert!(
                    got.0.bit_eq(&want.0) && got.1.bit_eq(&want.1) && got.2.bit_eq(&want.2),
                    "tier {} differs from scalar on [{m},{k}]x[{k},{n}]",
                    tier.name()
                );
            }
        }
    }

    #[test]
    fn into_slices_bit_eq_matmul_over_a_dirty_buffer() {
        // The slice entry point must reproduce `matmul` bit for bit,
        // column edges included, whatever the output buffer held. (Tier
        // equality comes with the shared kernel; the conv tier test pins
        // it through this entry point.)
        let mut rng = CounterRng::new(9, 0);
        for &(m, k, n) in &[
            (16usize, 144usize, 1024usize),
            (67, 31, 29),
            (3, 5, 7),
            (1, 1, 1),
        ] {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let mut out = Tensor::full([m, n], f32::NAN);
            matmul_into(a.data(), b.data(), m, k, n, out.data_mut());
            assert!(
                out.bit_eq(&matmul(&a, &b)),
                "matmul_into differs from matmul on [{m},{k}]x[{k},{n}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn dim_mismatch_panics() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }
}
