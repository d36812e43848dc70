//! Deterministic, cache-blocked, register-tiled matrix multiplication.
//!
//! Three forms. Each tiles the output into `MR`-row blocks, and each keeps
//! one fixed accumulation order per output element:
//!
//! - **`C = A·B`** ([`matmul`], [`matmul_into`]) runs `MR × NR` register
//!   tiles. The tile accumulators live in fixed-size stack arrays, each
//!   `B` row segment is loaded once per `k` step and reused across the
//!   block's rows, and `C` is stored once per tile. Order: one accumulator
//!   per element, starting at +0.0, ascending `k`. Each row block walks
//!   `B` in panels of [`KC`] rows, every column tile of a panel before
//!   the next panel, so `B` streams row by row instead of at a stride of
//!   `n` floats (`dX = dy·W` at a small batch reads the weight about
//!   once). Each tile carries its accumulators through the output
//!   between panels; a store and a reload are exact, so the order and the
//!   bits are those of one walk over all of `k`.
//! - **`C = A·Bᵀ`** ([`matmul_a_bt`]: `x·Wᵀ` in a linear forward) has both
//!   operands of every dot contiguous. One kernel call per block walks the
//!   rows of `B` once and computes the block's dots against each row while
//!   it sits in L1, so a small batch reads the weight once, not once per
//!   input row. Order: [`simd::dot`]'s, per element — lane `l` of 8 sums
//!   `a[8i+l]·b[8i+l]` in ascending `i`, the lanes fold in ascending
//!   order, then the tail adds in ascending order.
//! - **`C += Aᵀ·B`** ([`matmul_at_b_acc`]: weight gradients `dyᵀ·x`) runs
//!   `MR × NR` tiles whose `A` operands sit contiguously in each `A` row.
//!   Each tile sums its products from +0.0 in ascending `k`, then adds the
//!   finished sum to the output once: `c + Σ_k`, the single add a
//!   temporary product plus `add_inplace` would make, without writing and
//!   re-reading a weight-sized temporary. Into a fresh zeroed buffer it is
//!   the plain product, bit for bit: an accumulator that starts at +0.0
//!   never becomes −0.0 (round-to-nearest gives `x + (−x) = +0.0` and
//!   `+0.0 + (−0.0) = +0.0`), so `+0.0 + Σ = Σ`.
//!
//! Parallelism is over `MR`-row output blocks via the shared dispatch in
//! [`crate::par`]. Each output element is accumulated by exactly one
//! thread in the order above, and block boundaries depend only on the
//! shape — never on the thread count — so results are bit-identical at
//! any `RAYON_NUM_THREADS`, including 1. SWIFT's replay correctness
//! (paper §6) depends on this.
//!
//! The register tiles and the dots execute through the runtime-dispatched
//! microkernels in [`crate::simd`] (scalar / SSE2 / AVX2); all tiers are
//! bitwise-identical by construction, so the choice of tier — like the
//! choice of thread count — never changes results. Column edges
//! (`n % NR` columns) stay in shared scalar code here.

use crate::par;
use crate::pool;
use crate::simd::{self, MR, NR};
use crate::tensor::Tensor;

/// Rows of `B` per panel of `C = A·B`. 16 rows of a 2560-wide `B`
/// (160 KiB) stream together while the block's outputs stay in cache. A
/// constant, not a knob: the bits do not depend on it.
const KC: usize = 16;

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

/// `out += Aᵀ · B` without materializing the transpose: `a` is `[k, m]`,
/// `b` is `[k, n]` and `out` is `[m, n]`. Used for weight gradients
/// (`grad += xᵀ · dy`); pass a zeroed tensor for the plain product.
///
/// # Panics
/// Panics if inner dimensions disagree or `out` is not `[m, n]`.
pub fn matmul_at_b_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (k, m) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul_at_b_acc inner dim mismatch: {k} vs {k2}");
    assert_eq!(
        out.shape().as_matrix(),
        (m, n),
        "matmul_at_b_acc output is {}, not [{m}, {n}]",
        out.shape()
    );
    let ad = a.data();
    let bd = b.data();
    if n > 0 {
        par::for_each_block_mut(
            out.data_mut(),
            MR * n,
            par::parallel_rows(m, k * n),
            |blk, out_block| atb_block(ad, bd, k, m, n, blk * MR, out_block),
        );
    }
}

/// `C = A · Bᵀ` without materializing the transpose: `a` is `[m, k]`,
/// `b` is `[n, k]`, result is `[m, n]`. Used for linear forwards
/// (`x · Wᵀ` with row-major `W: [out, in]` stored as `[n, k]`).
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

/// The `rows ≤ MR` rows of `[·, k]` matrix `ad` starting at row `r0`.
fn block_rows(ad: &[f32], k: usize, r0: usize, rows: usize) -> [&[f32]; MR] {
    let mut a_rows: [&[f32]; MR] = [&[]; MR];
    for (i, slot) in a_rows.iter_mut().enumerate().take(rows) {
        *slot = &ad[(r0 + i) * k..(r0 + i + 1) * k];
    }
    a_rows
}

/// One `MR`-row (or shorter, at the bottom edge) block of `C = A · B`.
/// Accumulation order per element: ascending `kk`, one accumulator,
/// carried through `out_block` between [`KC`]-row panels.
fn ab_block(ad: &[f32], bd: &[f32], k: usize, n: usize, r0: usize, out_block: &mut [f32]) {
    let rows = out_block.len() / n;
    let a_rows = block_rows(ad, k, r0, rows);

    // `max(1)`: at k = 0 one empty range still zeroes the tiles.
    for k0 in (0..k.max(1)).step_by(KC) {
        let ks = k0..(k0 + KC).min(k);
        let mut c0 = 0;
        while c0 + NR <= n {
            simd::tile_ab(&a_rows[..rows], bd, ks.clone(), n, c0, out_block);
            c0 += NR;
        }
    }

    // Column edge (n % NR): plain ikj, still ascending-k per element.
    let c0 = n - n % NR;
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

/// One output block of `C = A · Bᵀ` (`b` stored `[n, k]`): one kernel call
/// computes the block's dots against every row of `b`.
fn abt_block(ad: &[f32], bd: &[f32], k: usize, n: usize, r0: usize, out_block: &mut [f32]) {
    let rows = out_block.len() / n;
    let a_rows = block_rows(ad, k, r0, rows);
    simd::dot_rows(&a_rows[..rows], bd, k, n, out_block);
}

/// One output block of `C += Aᵀ · B` (`a` stored `[k, m]`): the `A`
/// operands for the block's rows sit contiguously inside each `A` row
/// (`ad[kk·m + r0 ..]`). Every element gets its ascending-`k` sum from
/// +0.0, added once.
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
        for i in 0..rows {
            let mut sums = [0.0f32; NR];
            for kk in 0..k {
                let av = ad[kk * m + r0 + i];
                let b_edge = &bd[kk * n + c0..(kk + 1) * n];
                for (s, &bv) in sums.iter_mut().zip(b_edge) {
                    *s += av * bv;
                }
            }
            let out_edge = &mut out_block[i * n + c0..i * n + n];
            for (o, &s) in out_edge.iter_mut().zip(&sums) {
                *o += s;
            }
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

    /// The weight-gradient add before the in-place form: a naive
    /// ascending-`k` temporary `Aᵀ·B` (`a` is `[k, m]`), added onto `g`
    /// with `add_inplace`.
    fn naive_at_b_added_to(a: &Tensor, b: &Tensor, g: &Tensor) -> Tensor {
        let (k, m) = a.shape().as_matrix();
        let (_, n) = b.shape().as_matrix();
        let mut tmp = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s += a.data()[kk * m + i] * b.data()[kk * n + j];
                }
                tmp.set(&[i, j], s);
            }
        }
        let mut out = g.clone();
        out.add_inplace(&tmp);
        out
    }

    /// `A·Bᵀ` (`b` is `[n, k]`) with every element the 8-lane reference dot.
    fn reference_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix();
        let (n, _) = b.shape().as_matrix();
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let dot = simd::reference_dot(
                    &a.data()[i * k..(i + 1) * k],
                    &b.data()[j * k..(j + 1) * k],
                );
                out.set(&[i, j], dot);
            }
        }
        out
    }

    /// `g + Aᵀ·B` through the in-place form, leaving `g` as it was.
    fn at_b_onto(a: &Tensor, b: &Tensor, g: &Tensor) -> Tensor {
        let mut out = g.clone();
        matmul_at_b_acc(a, b, &mut out);
        out
    }

    /// A finite, nonzero gradient buffer to accumulate onto.
    fn dirty(m: usize, n: usize, rng: &mut CounterRng) -> Tensor {
        Tensor::randn([m, n], 0.0, 4.0, rng)
    }

    /// The small-batch shapes: every `m` up to one row past a single row
    /// block, `k` at and around one `KC` panel and at a 2560-wide layer,
    /// and `n` with two full tiles plus an `NR` edge.
    fn small_batch_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        (1..=MR + 1).flat_map(|m| {
            [1, KC - 1, KC, KC + 1, 2560]
                .into_iter()
                .map(move |k| (m, k, 2 * NR + 3))
        })
    }

    /// Runs one form's block kernel over a `[m, n]` output forced down the
    /// sequential dispatch path — the single-thread reference for the
    /// determinism contract. The output starts as `start`, or zeros.
    fn forced_sequential(
        m: usize,
        n: usize,
        start: Option<&Tensor>,
        block: impl Fn(usize, &mut [f32]) + Sync,
    ) -> Tensor {
        let mut out = start.cloned().unwrap_or_else(|| Tensor::zeros([m, n]));
        if n > 0 {
            par::for_each_block_mut(out.data_mut(), MR * n, false, block);
        }
        out
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
        // Each form keeps its documented order per element, so it agrees
        // bit-exactly with a plain loop in that order: `matmul` with the
        // naive ijk loop (ascending k, panel walk included), `matmul_a_bt`
        // with the 8-lane reference dot, and the in-place `Aᵀ·B` with a
        // naive temporary added onto a dirty gradient by `add_inplace`.
        let mut rng = CounterRng::new(2, 0);
        for (m, k, n) in std::iter::once((17, 23, 11)).chain(small_batch_shapes()) {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let bt = Tensor::randn([n, k], 0.0, 1.0, &mut rng);
            let at = Tensor::randn([k, m], 0.0, 1.0, &mut rng);
            let g = dirty(m, n, &mut rng);
            assert!(
                matmul(&a, &b).bit_eq(&naive(&a, &b)),
                "matmul [{m},{k}]x[{k},{n}] differs from the naive loop"
            );
            assert!(
                matmul_a_bt(&a, &bt).bit_eq(&reference_a_bt(&a, &bt)),
                "matmul_a_bt [{m},{k}]x[{n},{k}]ᵀ differs from the reference dot"
            );
            assert!(
                at_b_onto(&at, &b, &g).bit_eq(&naive_at_b_added_to(&at, &b, &g)),
                "matmul_at_b_acc [{k},{m}]ᵀx[{k},{n}] differs from temporary + add_inplace"
            );
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = CounterRng::new(3, 0);
        let a = Tensor::randn([13, 7], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([13, 9], 0.0, 1.0, &mut rng);
        let expect = matmul(&a.transpose(), &b);
        assert!(at_b_onto(&a, &b, &Tensor::zeros([7, 9])).bit_eq(&expect));
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
        // forced-sequential result bit-for-bit, for all three forms, on
        // shapes that exercise full tiles, row edges (m % MR), column edges
        // (n % NR), both sides of the parallel threshold, and the
        // single-row-block shapes of a small batch. CI runs this whole
        // suite under RAYON_NUM_THREADS ∈ {1, 2, 8}.
        let shapes: &[(usize, usize, usize)] = &[
            (64, 64, 64),      // full tiles only
            (67, 31, 29),      // ragged everything
            (8, 128, 513),     // above the threshold with a column edge
            (129, 130, 48),    // row edge, above the threshold
            (3, 5, 7),         // tiny, sequential path
            (1, 1, 1),         // degenerate
            (16, 100_000, 16), // deep k, tests accumulator order at scale
            (64, 2560, 40),    // every form above the threshold
            (40, 4, 16_403),   // a weight gradient's shallow k, wide n
        ];
        let mut rng = CounterRng::new(6, 0);
        for (m, k, n) in shapes.iter().copied().chain(small_batch_shapes()) {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let bt = Tensor::randn([n, k], 0.0, 1.0, &mut rng);
            let at = Tensor::randn([k, m], 0.0, 1.0, &mut rng);
            let g = dirty(m, n, &mut rng);
            let (ad, bd, btd, atd) = (a.data(), b.data(), bt.data(), at.data());
            let seq = forced_sequential(m, n, None, |blk, o| ab_block(ad, bd, k, n, blk * MR, o));
            assert!(
                matmul(&a, &b).bit_eq(&seq),
                "matmul [{m},{k}]x[{k},{n}] differs between parallel and sequential dispatch"
            );
            let seq = forced_sequential(m, n, None, |blk, o| abt_block(ad, btd, k, n, blk * MR, o));
            assert!(
                matmul_a_bt(&a, &bt).bit_eq(&seq),
                "matmul_a_bt [{m},{k}]x[{n},{k}]ᵀ differs between parallel and sequential dispatch"
            );
            let seq = forced_sequential(m, n, Some(&g), |blk, o| {
                atb_block(atd, bd, k, m, n, blk * MR, o)
            });
            assert!(
                at_b_onto(&at, &b, &g).bit_eq(&seq),
                "matmul_at_b_acc [{k},{m}]ᵀx[{k},{n}] differs between parallel and sequential dispatch"
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
        let g = dirty(96, 50, &mut rng);
        let (c1, c2, c3) = (matmul(&a, &b), at_b_onto(&at, &b, &g), matmul_a_bt(&a, &bt));
        for _ in 0..3 {
            assert!(c1.bit_eq(&matmul(&a, &b)));
            assert!(c2.bit_eq(&at_b_onto(&at, &b, &g)));
            assert!(c3.bit_eq(&matmul_a_bt(&a, &bt)));
        }
    }

    #[test]
    fn all_kernels_bit_eq_across_simd_tiers() {
        // The dispatch-tier leg of the determinism contract: every SIMD
        // tier available on this host must reproduce the scalar tier
        // bit-for-bit, on shapes with full tiles, ragged edges and tails,
        // and on the single-row-block shapes of a small per-replica batch.
        let mut rng = CounterRng::new(8, 0);
        let shapes = [
            (64usize, 64usize, 64usize),
            (67, 31, 29),
            (3, 5, 7),
            (1, 1, 1),
        ];
        for (m, k, n) in shapes.into_iter().chain(small_batch_shapes()) {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let at = Tensor::randn([k, m], 0.0, 1.0, &mut rng);
            let bt = Tensor::randn([n, k], 0.0, 1.0, &mut rng);
            let g = dirty(m, n, &mut rng);
            let run = || (matmul(&a, &b), at_b_onto(&at, &b, &g), matmul_a_bt(&a, &bt));
            let want = simd::with_tier(simd::SimdTier::Scalar, run);
            for &tier in simd::available_tiers() {
                let got = simd::with_tier(tier, run);
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
        // column edges and the panel walk included, whatever the output
        // buffer held. (Tier equality comes with the shared kernel; the
        // conv tier test pins it through this entry point.)
        let mut rng = CounterRng::new(9, 0);
        let shapes = [
            (16usize, 144usize, 1024usize),
            (67, 31, 29),
            (3, 5, 7),
            (1, 1, 1),
        ];
        for (m, k, n) in shapes.into_iter().chain(small_batch_shapes()) {
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
