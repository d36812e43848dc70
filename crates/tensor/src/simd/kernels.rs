//! Generic kernels, instantiated once per dispatch tier.
//!
//! Every kernel is written against [`Vf32`] and monomorphized at `f32`
//! (scalar), [`super::vec::SseV`] and [`super::vec::AvxV`] by the
//! `#[target_feature]` wrappers in [`super`]. Bitwise equality across
//! tiers holds by construction:
//!
//! - **Elementwise kernels** compute each output element with the identical
//!   sequence of individually-rounded operations regardless of lane count,
//!   so vector width cannot change bits. The remainder tail re-runs the
//!   same expression at `V = f32`.
//! - **Matmul tile kernels** accumulate each output element in ascending-`k`
//!   order with one accumulator per element (a lane holds exactly one
//!   output column), matching the scalar tile loop step for step.
//!   `tile_ab` carries that accumulator through the output between `k`
//!   ranges (a store and a reload are exact); `tile_atb` adds its finished
//!   sum to the output once.
//! - **`dot`** always uses 8 logical accumulator lanes (8 × `f32`,
//!   2 × `SseV`, or 1 × `AvxV`) reduced in fixed ascending lane order, so
//!   lane `l` sees exactly the terms `x[8i+l]·y[8i+l]` in ascending `i` on
//!   every tier. `dot_rows` runs up to `MR` such dots against one shared
//!   operand, each with its own 8 lanes and the same fold.

use std::ops::Range;

use super::vec::Vf32;
use super::{DOT_LANES, MR, NR};

/// One `rows × NR` register tile of `C = A·B` at column `c0`, over the
/// `k` range `ks`. Each element's accumulator starts at +0.0 when
/// `ks.start == 0`, or else at the value already in `out_block`, adds
/// `a_rows[i][kk]·bd[kk·n + c0 + j]` for ascending `kk` in `ks`, and is
/// stored back. A store and a reload are exact, so consecutive ranges
/// from `0` give the same bits as one walk over `0..k`.
///
/// # Safety
/// Requires the ISA of `V`; `a_rows[i].len() ≥ ks.end`,
/// `bd.len() ≥ ks.end·n`, `c0 + NR ≤ n`, and `out_block` must cover
/// `rows` rows of stride `n`.
//
// `inline(always)` is load-bearing on every generic kernel here: the body
// must be compiled *inside* the `#[target_feature]` wrapper that
// instantiates it. As a standalone function it would be built for the
// crate's baseline ISA, and LLVM would legalize the 256-bit ops by
// splitting them and spilling `__m256` values through memory — bitwise
// identical results, an order of magnitude slower.
//
// Index-style loops are kept where iterator chains would obscure the
// lane/row structure the kernel is written around.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
pub(super) unsafe fn tile_ab<V: Vf32>(
    a_rows: &[&[f32]],
    bd: &[f32],
    ks: Range<usize>,
    n: usize,
    c0: usize,
    out_block: &mut [f32],
) {
    let rows = a_rows.len();
    debug_assert!(rows <= MR && c0 + NR <= n && bd.len() >= ks.end * n);
    let nv = NR / V::LANES;
    // SAFETY: the caller's contract above bounds every access: each `kk`
    // is below `ks.end`, so `a_rows[i][kk]` and the `NR` floats at
    // `bd[kk·n + c0]` exist, and the `NR` floats at `i·n + c0` lie inside
    // `out_block` for every `i < rows`.
    unsafe {
        let mut acc = [[V::splat(0.0); NR]; MR];
        if ks.start > 0 {
            for (i, acc_i) in acc.iter_mut().enumerate().take(rows) {
                let obase = out_block.as_ptr().add(i * n + c0);
                for v in 0..nv {
                    acc_i[v] = V::load(obase.add(v * V::LANES));
                }
            }
        }
        for kk in ks {
            let bbase = bd.as_ptr().add(kk * n + c0);
            let mut bvs = [V::splat(0.0); NR];
            for (v, slot) in bvs.iter_mut().enumerate().take(nv) {
                *slot = V::load(bbase.add(v * V::LANES));
            }
            for i in 0..rows {
                let av = V::splat(*a_rows.get_unchecked(i).get_unchecked(kk));
                let acc_i = &mut acc[i];
                for v in 0..nv {
                    acc_i[v] = acc_i[v].add(av.mul(bvs[v]));
                }
            }
        }
        for (i, acc_i) in acc.iter().enumerate().take(rows) {
            let obase = out_block.as_mut_ptr().add(i * n + c0);
            for v in 0..nv {
                acc_i[v].store(obase.add(v * V::LANES));
            }
        }
    }
}

/// One `rows × NR` register tile of `C += Aᵀ·B` (`a` stored `[k, m]`): the
/// block's `A` operands sit contiguously at `ad[kk·m + r0 ..]`. Each
/// element's sum starts at +0.0 and runs over ascending `k`; the finished
/// sum is then added to the element once, `c + Σ_k`.
///
/// # Safety
/// Requires the ISA of `V`; `ad.len() ≥ k·m`, `r0 + rows ≤ m`,
/// `bd.len() ≥ k·n`, `c0 + NR ≤ n`, `rows ≤ MR`, and `out_block` must
/// cover `rows` rows of stride `n`.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[inline(always)]
pub(super) unsafe fn tile_atb<V: Vf32>(
    ad: &[f32],
    bd: &[f32],
    k: usize,
    m: usize,
    n: usize,
    r0: usize,
    rows: usize,
    c0: usize,
    out_block: &mut [f32],
) {
    debug_assert!(rows <= MR && c0 + NR <= n && bd.len() >= k * n && ad.len() >= k * m);
    let nv = NR / V::LANES;
    // SAFETY: the caller's contract above bounds every access: `ad[kk·m +
    // r0 + i]` for `i < rows`, the `NR` floats at `bd[kk·n + c0]` for
    // `kk < k`, and the `NR` floats at `i·n + c0` of `out_block`.
    unsafe {
        let mut acc = [[V::splat(0.0); NR]; MR];
        for kk in 0..k {
            let abase = ad.as_ptr().add(kk * m + r0);
            let bbase = bd.as_ptr().add(kk * n + c0);
            let mut bvs = [V::splat(0.0); NR];
            for (v, slot) in bvs.iter_mut().enumerate().take(nv) {
                *slot = V::load(bbase.add(v * V::LANES));
            }
            for i in 0..rows {
                let av = V::splat(*abase.add(i));
                let acc_i = &mut acc[i];
                for v in 0..nv {
                    acc_i[v] = acc_i[v].add(av.mul(bvs[v]));
                }
            }
        }
        for (i, acc_i) in acc.iter().enumerate().take(rows) {
            let obase = out_block.as_mut_ptr().add(i * n + c0);
            for v in 0..nv {
                let p = obase.add(v * V::LANES);
                V::load(p).add(acc_i[v]).store(p);
            }
        }
    }
}

/// Dot product with [`DOT_LANES`] split accumulators combined in fixed
/// ascending lane order, then the scalar tail ascending — bit-identical to
/// the scalar tier at every vector width.
///
/// # Safety
/// Requires the ISA of `V` and `x.len() == y.len()`.
#[inline(always)]
pub(super) unsafe fn dot<V: Vf32>(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let nacc = DOT_LANES / V::LANES;
    let chunks = x.len() / DOT_LANES;
    unsafe {
        let mut acc = [V::splat(0.0); DOT_LANES];
        for c in 0..chunks {
            let xb = x.as_ptr().add(c * DOT_LANES);
            let yb = y.as_ptr().add(c * DOT_LANES);
            for (va, slot) in acc.iter_mut().enumerate().take(nacc) {
                let xv = V::load(xb.add(va * V::LANES));
                let yv = V::load(yb.add(va * V::LANES));
                *slot = slot.add(xv.mul(yv));
            }
        }
        fold_dot(&acc, x, y)
    }
}

/// The `rows` dots of one block of `C = A·Bᵀ` (`b` stored `[n, k]`) against
/// every row of `b`: `out_block[i·n + c] = dot(a_rows[i], b_c)`. Each `b`
/// row is read once, every [`DOT_LANES`] chunk of it used by all the
/// block's rows while it sits in L1, and each output keeps [`dot`]'s own
/// lane accumulators, lane split and fold, so every element has `dot`'s
/// bits.
///
/// # Safety
/// Requires the ISA of `V`; `a_rows[i].len() == k`, `bd.len() ≥ n·k`,
/// `a_rows.len() ≤ MR`, and `out_block` must cover `rows` rows of
/// stride `n`.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
pub(super) unsafe fn dot_rows<V: Vf32>(
    a_rows: &[&[f32]],
    bd: &[f32],
    k: usize,
    n: usize,
    out_block: &mut [f32],
) {
    let rows = a_rows.len();
    debug_assert!(rows <= MR && bd.len() >= n * k);
    let nacc = DOT_LANES / V::LANES;
    let chunks = k / DOT_LANES;
    // SAFETY: the caller's contract above bounds every access: row `c < n`
    // of `bd` spans `[c·k, (c+1)·k)`, every vector load reads below
    // `chunks·DOT_LANES ≤ k` of a length-`k` slice, `i < rows ≤ MR`
    // indexes both `a_rows` and `acc`, and `i·n + c` lies inside
    // `out_block`.
    unsafe {
        for c in 0..n {
            let y = bd.get_unchecked(c * k..(c + 1) * k);
            let mut acc = [[V::splat(0.0); DOT_LANES]; MR];
            for ch in 0..chunks {
                let off = ch * DOT_LANES;
                for va in 0..nacc {
                    let yv = V::load(y.as_ptr().add(off + va * V::LANES));
                    for i in 0..rows {
                        let xv = V::load(a_rows.get_unchecked(i).as_ptr().add(off + va * V::LANES));
                        acc[i][va] = acc[i][va].add(xv.mul(yv));
                    }
                }
            }
            for i in 0..rows {
                *out_block.get_unchecked_mut(i * n + c) =
                    fold_dot(&acc[i], a_rows.get_unchecked(i), y);
            }
        }
    }
}

/// Folds one dot's [`DOT_LANES`] logical lanes in ascending order, then adds
/// the scalar tail (`x.len() % DOT_LANES` products) in ascending order.
///
/// # Safety
/// Requires the ISA of `V` and `x.len() == y.len()`.
#[inline(always)]
unsafe fn fold_dot<V: Vf32>(acc: &[V; DOT_LANES], x: &[f32], y: &[f32]) -> f32 {
    let nacc = DOT_LANES / V::LANES;
    let tail = x.len() - x.len() % DOT_LANES;
    // SAFETY: `nacc` stores of `V::LANES` floats fill the `DOT_LANES`-float
    // `lanes` exactly, and the tail indexes stay below `x.len() == y.len()`.
    unsafe {
        let mut lanes = [0.0f32; DOT_LANES];
        for (va, slot) in acc.iter().enumerate().take(nacc) {
            slot.store(lanes.as_mut_ptr().add(va * V::LANES));
        }
        let mut s = 0.0f32;
        for &lane in &lanes {
            s += lane;
        }
        for i in tail..x.len() {
            s += *x.get_unchecked(i) * *y.get_unchecked(i);
        }
        s
    }
}

/// Defines a fused `x[i] = f(x[i], y[i])` kernel generic over the tier.
/// The vector loop and the scalar tail instantiate the *same* expression
/// (the tail at `V = f32`), so remainders cannot diverge.
macro_rules! zip_kernel {
    ($(#[$doc:meta])* $name:ident, ($($c:ident),*), |$x:ident, $y:ident, $zero:ident| $expr:expr) => {
        $(#[$doc])*
        ///
        /// # Safety
        /// Requires the ISA of `V` and `xs.len() == ys.len()`.
        #[allow(unused_variables)]
        #[inline(always)]
        pub(super) unsafe fn $name<V: Vf32>(xs: &mut [f32], ys: &[f32] $(, $c: f32)*) {
            debug_assert_eq!(xs.len(), ys.len());
            let n = xs.len();
            let mut i = 0;
            unsafe {
                {
                    $(let $c = V::splat($c);)*
                    let $zero = V::splat(0.0);
                    while i + V::LANES <= n {
                        let $x = V::load(xs.as_ptr().add(i));
                        let $y = V::load(ys.as_ptr().add(i));
                        ($expr).store(xs.as_mut_ptr().add(i));
                        i += V::LANES;
                    }
                }
                let $zero = 0.0f32;
                while i < n {
                    let $x = <f32 as Vf32>::load(xs.as_ptr().add(i));
                    let $y = <f32 as Vf32>::load(ys.as_ptr().add(i));
                    <f32 as Vf32>::store($expr, xs.as_mut_ptr().add(i));
                    i += 1;
                }
            }
        }
    };
}

/// Like [`zip_kernel!`] for `x[i] = f(x[i], y[i], z[i])`.
macro_rules! zip2_kernel {
    ($(#[$doc:meta])* $name:ident, ($($c:ident),*), |$x:ident, $y:ident, $z:ident, $zero:ident| $expr:expr) => {
        $(#[$doc])*
        ///
        /// # Safety
        /// Requires the ISA of `V` and `xs.len() == ys.len() == zs.len()`.
        #[allow(unused_variables, clippy::too_many_arguments)]
        #[inline(always)]
        pub(super) unsafe fn $name<V: Vf32>(
            xs: &mut [f32],
            ys: &[f32],
            zs: &[f32]
            $(, $c: f32)*
        ) {
            debug_assert!(xs.len() == ys.len() && xs.len() == zs.len());
            let n = xs.len();
            let mut i = 0;
            unsafe {
                {
                    $(let $c = V::splat($c);)*
                    let $zero = V::splat(0.0);
                    while i + V::LANES <= n {
                        let $x = V::load(xs.as_ptr().add(i));
                        let $y = V::load(ys.as_ptr().add(i));
                        let $z = V::load(zs.as_ptr().add(i));
                        ($expr).store(xs.as_mut_ptr().add(i));
                        i += V::LANES;
                    }
                }
                let $zero = 0.0f32;
                while i < n {
                    let $x = <f32 as Vf32>::load(xs.as_ptr().add(i));
                    let $y = <f32 as Vf32>::load(ys.as_ptr().add(i));
                    let $z = <f32 as Vf32>::load(zs.as_ptr().add(i));
                    <f32 as Vf32>::store($expr, xs.as_mut_ptr().add(i));
                    i += 1;
                }
            }
        }
    };
}

zip_kernel!(
    /// `x ← a·x + b·y` (SGD step with `b = −lr`, first-moment advance).
    k_axpby, (a, b), |x, y, zero| a.mul(x).add(b.mul(y))
);

zip_kernel!(
    /// `x ← x + b·y` (momentum parameter update / undo). Dedicated kernel
    /// rather than `axpby` with `a = 1` so `x` is never multiplied.
    k_axpy, (b), |x, y, zero| x.add(b.mul(y))
);

zip_kernel!(
    /// `x ← (x + a·y)·b` (SGD undo with `a = η`, `b = 1/decay`; moment
    /// reverts with `a = −mix`).
    k_add_scale, (a, b), |x, y, zero| x.add(a.mul(y)).mul(b)
);

zip_kernel!(
    /// `x ← a·x + b·y²` (second-moment advance).
    k_sq_axpby, (a, b), |x, y, zero| a.mul(x).add(b.mul(y.mul(y)))
);

zip_kernel!(
    /// `x ← max((x + a·y²)·b, 0)` (second-moment revert, clamped at zero).
    k_sq_add_scale_clamp0, (a, b), |x, y, zero| x.add(a.mul(y.mul(y))).mul(b).vmax(zero)
);

zip_kernel!(
    /// `x ← max(x, c·y)` with `maxps` semantics (AMSGrad running max).
    k_scale_max, (c), |x, y, zero| x.vmax(y.mul(c))
);

zip_kernel!(
    /// `x ← (c1·x)/(√(c2·y) + ε)` (LAMB update direction, in place).
    k_hat, (c1, c2, eps), |x, y, zero| x.mul(c1).div(y.mul(c2).vsqrt().add(eps))
);

zip2_kernel!(
    /// `x ← a·x + b·(y + c·z)` (moment advance with weight decay:
    /// `z` is the parameter, `c = λ`).
    k_eff_axpby, (a, b, c), |x, y, z, zero| a.mul(x).add(b.mul(y.add(c.mul(z))))
);

zip2_kernel!(
    /// `x ← (x + a·(y + c·z))·b` (moment revert with weight decay).
    k_eff_add_scale, (a, b, c), |x, y, z, zero| x.add(a.mul(y.add(c.mul(z)))).mul(b)
);

zip2_kernel!(
    /// `x ← a·x + b·(y + c·z)²` (second-moment advance with weight decay).
    k_eff_sq_axpby, (a, b, c), |x, y, z, zero| {
        let e = y.add(c.mul(z));
        a.mul(x).add(b.mul(e.mul(e)))
    }
);

zip2_kernel!(
    /// `x ← max((x + a·(y + c·z)²)·b, 0)` (second-moment revert with
    /// weight decay, clamped at zero).
    k_eff_sq_add_scale_clamp0, (a, b, c), |x, y, z, zero| {
        let e = y.add(c.mul(z));
        x.add(a.mul(e.mul(e))).mul(b).vmax(zero)
    }
);

zip2_kernel!(
    /// `x ← a·x + b·ĥ` with `ĥ = (c1·y)/(√(c2·z) + ε)` (AdamW step:
    /// `a = decay`, `b = −lr`, `y = m`, `z = v`).
    k_adam_dir_axpby, (a, b, c1, c2, eps), |x, y, z, zero| {
        let h = y.mul(c1).div(z.mul(c2).vsqrt().add(eps));
        a.mul(x).add(b.mul(h))
    }
);

zip2_kernel!(
    /// `x ← x + b·ĥ` (Adam/AMSGrad parameter update; `x` never scaled).
    k_adam_dir_axpy, (b, c1, c2, eps), |x, y, z, zero| {
        let h = y.mul(c1).div(z.mul(c2).vsqrt().add(eps));
        x.add(b.mul(h))
    }
);

zip2_kernel!(
    /// `x ← (x + a·ĥ)·b` (AdamW undo: `a = η`, `b = 1/decay`).
    k_adam_dir_add_scale, (a, b, c1, c2, eps), |x, y, z, zero| {
        let h = y.mul(c1).div(z.mul(c2).vsqrt().add(eps));
        x.add(a.mul(h)).mul(b)
    }
);
