//! Runtime-dispatched SIMD microkernels.
//!
//! Three dispatch tiers — scalar, SSE2 and AVX2 — share one generic kernel
//! body ([`kernels`]) over the [`vec::Vf32`] lane abstraction, and every
//! tier produces **bitwise-identical** results (the DESIGN.md determinism
//! contract, extended to lane order): elementwise kernels round identically
//! per element at any width, matmul tiles keep one ascending-`k`
//! accumulator per output element, and dot products always reduce
//! [`DOT_LANES`] logical lanes in fixed ascending order. FMA is never used.
//!
//! The active tier is picked once per process: the `SWIFT_SIMD`
//! environment variable (`scalar`|`sse2`|`avx2`) if set — unavailable
//! tiers panic rather than silently degrade — otherwise the best tier
//! runtime detection offers. Tests and the bench harness can pin a tier
//! for a scope with [`with_tier`].
//!
//! `// lint:alloc-ok` markers below exempt cold setup code from the xtask
//! hot-loop allocation lint; the kernels themselves never allocate.

mod f16x;
mod kernels;
mod vec;

use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Register-tile rows handled per matmul block row sweep.
pub const MR: usize = 6;
/// Register-tile columns; two AVX2 vectors, four SSE2 vectors. Together
/// with `MR` this puts 12 independent accumulator chains in flight on
/// AVX2 — enough to hide the unfused add latency the determinism contract
/// imposes (FMA is forbidden). Tile geometry never affects bits: each
/// output element keeps exactly one accumulator folded in ascending-`k`
/// order at every width.
pub const NR: usize = 16;
/// Logical accumulator lanes for dot products on *every* tier.
pub const DOT_LANES: usize = 8;
/// Elements per rayon chunk for parallel elementwise kernels. Elementwise
/// outputs depend only on their own index, so chunk boundaries cannot
/// change bits; the size just amortizes spawn overhead.
pub const ELEM_CHUNK: usize = 8192;

/// A SIMD dispatch tier. Ordering is capability order: every tier computes
/// the same bits, higher tiers are just faster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Pure scalar Rust — the reference tier, available everywhere.
    Scalar,
    /// 4-lane `__m128` kernels (baseline on x86_64).
    Sse2,
    /// 8-lane `__m256` kernels, without FMA.
    Avx2,
}

impl SimdTier {
    /// Stable lowercase name, as accepted by `SWIFT_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Parses a `SWIFT_SIMD` value.
    pub fn from_name(s: &str) -> Option<SimdTier> {
        match s {
            "scalar" => Some(SimdTier::Scalar),
            "sse2" => Some(SimdTier::Sse2),
            "avx2" => Some(SimdTier::Avx2),
            _ => None,
        }
    }

    fn is_available(self) -> bool {
        available_tiers().contains(&self)
    }

    fn to_u8(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Sse2 => 2,
            SimdTier::Avx2 => 3,
        }
    }

    fn from_u8(v: u8) -> Option<SimdTier> {
        match v {
            1 => Some(SimdTier::Scalar),
            2 => Some(SimdTier::Sse2),
            3 => Some(SimdTier::Avx2),
            _ => None,
        }
    }
}

/// Tiers usable on this host, scalar first, ascending capability.
pub fn available_tiers() -> &'static [SimdTier] {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            &[SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2]
        } else {
            &[SimdTier::Scalar, SimdTier::Sse2]
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[SimdTier::Scalar]
    }
}

/// The best tier runtime detection offers on this host.
pub fn detected_tier() -> SimdTier {
    *available_tiers().last().unwrap_or(&SimdTier::Scalar)
}

static BASE_TIER: OnceLock<SimdTier> = OnceLock::new();
/// 0 = no override, otherwise `SimdTier::to_u8`. Tests use this (via
/// [`with_tier`]) to pin a tier; cross-talk with concurrently running code
/// is benign *by design* — every tier produces identical bits, which is
/// the very property under test.
static TIER_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn base_tier() -> SimdTier {
    *BASE_TIER.get_or_init(|| match std::env::var("SWIFT_SIMD") {
        Ok(s) => {
            let tier = SimdTier::from_name(&s)
                .unwrap_or_else(|| panic!("SWIFT_SIMD={s:?}: expected one of scalar|sse2|avx2"));
            assert!(
                tier.is_available(),
                "SWIFT_SIMD={} requested but this host only supports {:?}",
                tier.name(),
                available_tiers()
            );
            tier
        }
        Err(_) => detected_tier(),
    })
}

/// The tier every dispatched kernel will use for the next call.
pub fn active_tier() -> SimdTier {
    match SimdTier::from_u8(TIER_OVERRIDE.load(Ordering::Relaxed)) {
        Some(t) => t,
        None => base_tier(),
    }
}

/// Sets (or clears) a process-wide tier override. Panics if the tier is
/// not available on this host. Prefer [`with_tier`] for scoped use.
pub fn set_tier_override(tier: Option<SimdTier>) {
    if let Some(t) = tier {
        assert!(
            t.is_available(),
            "tier {} not available on this host (supported: {:?})",
            t.name(),
            available_tiers()
        );
        TIER_OVERRIDE.store(t.to_u8(), Ordering::Relaxed);
    } else {
        TIER_OVERRIDE.store(0, Ordering::Relaxed);
    }
}

static WITH_TIER_LOCK: Mutex<()> = Mutex::new(());

struct RestoreOverride(u8);

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        TIER_OVERRIDE.store(self.0, Ordering::Relaxed);
    }
}

/// Runs `f` with the given tier pinned, serializing concurrent `with_tier`
/// scopes and restoring the previous override afterwards (even on panic).
pub fn with_tier<R>(tier: SimdTier, f: impl FnOnce() -> R) -> R {
    let _guard = WITH_TIER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    pin_tier(tier, f)
}

/// [`with_tier`] for a caller that already holds `WITH_TIER_LOCK`.
fn pin_tier<R>(tier: SimdTier, f: impl FnOnce() -> R) -> R {
    let _restore = RestoreOverride(TIER_OVERRIDE.load(Ordering::Relaxed));
    set_tier_override(Some(tier));
    f()
}

// ---------------------------------------------------------------------------
// Matmul tile + dot dispatch.
// ---------------------------------------------------------------------------

macro_rules! tier_wrappers {
    ($kernel:ident, $sse2:ident, $avx2:ident,
     ($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "sse2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $sse2($($arg: $ty),*) -> $ret {
            unsafe { kernels::$kernel::<vec::SseV>($($arg),*) }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx2($($arg: $ty),*) -> $ret {
            unsafe { kernels::$kernel::<vec::AvxV>($($arg),*) }
        }
    };
}

/// Dispatches one tier-wrapped kernel call on [`active_tier`]. The SSE2 and
/// AVX2 arms are sound because `active_tier` can only report a tier that
/// passed availability checks (detection or an explicit, validated
/// `SWIFT_SIMD`/override request).
macro_rules! tier_dispatch {
    ($kernel:ident, $sse2:ident, $avx2:ident, ($($arg:expr),*)) => {
        match active_tier() {
            SimdTier::Scalar => unsafe { kernels::$kernel::<f32>($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => unsafe { $sse2($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { $avx2($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unsafe { kernels::$kernel::<f32>($($arg),*) },
        }
    };
}

tier_wrappers!(tile_ab, tile_ab_sse2, tile_ab_avx2,
    (a_rows: &[&[f32]], bd: &[f32], ks: Range<usize>, n: usize, c0: usize,
     out_block: &mut [f32]) -> ());
tier_wrappers!(tile_atb, tile_atb_sse2, tile_atb_avx2,
    (ad: &[f32], bd: &[f32], k: usize, m: usize, n: usize, r0: usize, rows: usize, c0: usize,
     out_block: &mut [f32]) -> ());
tier_wrappers!(dot, dot_sse2, dot_avx2, (x: &[f32], y: &[f32]) -> f32);
tier_wrappers!(dot_rows, dot_rows_sse2, dot_rows_avx2,
    (a_rows: &[&[f32]], bd: &[f32], k: usize, n: usize, out_block: &mut [f32]) -> ());

/// One `rows × NR` register tile of `C = A·B` at column `c0` over the `k`
/// range `ks`, stored to `out_block`. Each element starts from +0.0 when
/// `ks.start == 0`, or else from its value in `out_block`, and adds its
/// products in ascending `k`. `a_rows` holds ≤ [`MR`] row slices of
/// length ≥ `ks.end`; `out_block` covers the same rows with stride `n`;
/// requires `c0 + NR ≤ n` and `bd.len() ≥ ks.end·n`.
pub fn tile_ab(
    a_rows: &[&[f32]],
    bd: &[f32],
    ks: Range<usize>,
    n: usize,
    c0: usize,
    out_block: &mut [f32],
) {
    assert!(a_rows.len() <= MR && c0 + NR <= n && bd.len() >= ks.end * n);
    for r in a_rows {
        assert!(r.len() >= ks.end);
    }
    assert!(out_block.len() >= a_rows.len().saturating_sub(1) * n + c0 + NR);
    tier_dispatch!(
        tile_ab,
        tile_ab_sse2,
        tile_ab_avx2,
        (a_rows, bd, ks, n, c0, out_block)
    )
}

/// One `rows × NR` register tile of `C += Aᵀ·B` (`a` stored `[k, m]`) at
/// rows `r0..r0+rows`, column `c0`: each element gets its ascending-`k`
/// sum, started at +0.0, added once.
#[allow(clippy::too_many_arguments)]
pub fn tile_atb(
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
    assert!(rows <= MR && r0 + rows <= m && c0 + NR <= n);
    assert!(ad.len() >= k * m && bd.len() >= k * n);
    assert!(out_block.len() >= rows.saturating_sub(1) * n + c0 + NR);
    tier_dispatch!(
        tile_atb,
        tile_atb_sse2,
        tile_atb_avx2,
        (ad, bd, k, m, n, r0, rows, c0, out_block)
    )
}

/// Dot product with the fixed [`DOT_LANES`]-lane reduction order — bitwise
/// identical on every tier and to `matmul`'s historical `dot_lanes`.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len());
    tier_dispatch!(dot, dot_sse2, dot_avx2, (x, y))
}

/// `out_block[i·n + c] = dot(a_rows[i], bd[c·k .. (c+1)·k])` for every row
/// of `bd` (stored `[n, k]`), walking `bd` once for all ≤ [`MR`] rows.
/// Every element has [`dot`]'s bits.
pub fn dot_rows(a_rows: &[&[f32]], bd: &[f32], k: usize, n: usize, out_block: &mut [f32]) {
    assert!(a_rows.len() <= MR && bd.len() >= n * k);
    for r in a_rows {
        assert_eq!(r.len(), k);
    }
    assert!(out_block.len() >= a_rows.len() * n);
    tier_dispatch!(
        dot_rows,
        dot_rows_sse2,
        dot_rows_avx2,
        (a_rows, bd, k, n, out_block)
    )
}

// ---------------------------------------------------------------------------
// Fused elementwise kernel dispatch.
// ---------------------------------------------------------------------------

macro_rules! zip_dispatch {
    ($(#[$doc:meta])* $name:ident, $seq:ident, $kernel:ident, $sse2:ident, $avx2:ident,
     ($($c:ident),*)) => {
        tier_wrappers!($kernel, $sse2, $avx2, (xs: &mut [f32], ys: &[f32] $(, $c: f32)*) -> ());

        $(#[$doc])*
        /// Sequential entry point: one tier-dispatched pass over the slices.
        pub fn $seq(xs: &mut [f32], ys: &[f32] $(, $c: f32)*) {
            assert_eq!(xs.len(), ys.len());
            tier_dispatch!($kernel, $sse2, $avx2, (xs, ys $(, $c)*))
        }

        $(#[$doc])*
        /// Goes parallel above the elementwise threshold; per-element
        /// results are position-only, so chunking never changes bits.
        pub fn $name(xs: &mut [f32], ys: &[f32] $(, $c: f32)*) {
            assert_eq!(xs.len(), ys.len());
            if crate::par::parallel_elements(xs.len()) {
                xs.par_chunks_mut(ELEM_CHUNK)
                    .zip(ys.par_chunks(ELEM_CHUNK))
                    .for_each(|(xc, yc)| $seq(xc, yc $(, $c)*));
            } else {
                $seq(xs, ys $(, $c)*);
            }
        }
    };
}

macro_rules! zip2_dispatch {
    ($(#[$doc:meta])* $name:ident, $seq:ident, $kernel:ident, $sse2:ident, $avx2:ident,
     ($($c:ident),*)) => {
        tier_wrappers!($kernel, $sse2, $avx2,
            (xs: &mut [f32], ys: &[f32], zs: &[f32] $(, $c: f32)*) -> ());

        $(#[$doc])*
        /// Sequential entry point: one tier-dispatched pass over the slices.
        #[allow(clippy::too_many_arguments)]
        pub fn $seq(xs: &mut [f32], ys: &[f32], zs: &[f32] $(, $c: f32)*) {
            assert!(xs.len() == ys.len() && xs.len() == zs.len());
            tier_dispatch!($kernel, $sse2, $avx2, (xs, ys, zs $(, $c)*))
        }

        $(#[$doc])*
        /// Goes parallel above the elementwise threshold; per-element
        /// results are position-only, so chunking never changes bits.
        #[allow(clippy::too_many_arguments)]
        pub fn $name(xs: &mut [f32], ys: &[f32], zs: &[f32] $(, $c: f32)*) {
            assert!(xs.len() == ys.len() && xs.len() == zs.len());
            if crate::par::parallel_elements(xs.len()) {
                xs.par_chunks_mut(ELEM_CHUNK)
                    .zip(ys.par_chunks(ELEM_CHUNK).zip(zs.par_chunks(ELEM_CHUNK)))
                    .for_each(|(xc, (yc, zc))| $seq(xc, yc, zc $(, $c)*));
            } else {
                $seq(xs, ys, zs $(, $c)*);
            }
        }
    };
}

zip_dispatch!(
    /// `x ← a·x + b·y`.
    axpby, axpby_seq, k_axpby, axpby_sse2, axpby_avx2, (a, b)
);
zip_dispatch!(
    /// `x ← x + b·y`.
    axpy, axpy_seq, k_axpy, axpy_sse2, axpy_avx2, (b)
);
zip_dispatch!(
    /// `x ← (x + a·y)·b`.
    add_scale, add_scale_seq, k_add_scale, add_scale_sse2, add_scale_avx2, (a, b)
);
zip_dispatch!(
    /// `x ← a·x + b·y²`.
    sq_axpby, sq_axpby_seq, k_sq_axpby, sq_axpby_sse2, sq_axpby_avx2, (a, b)
);
zip_dispatch!(
    /// `x ← max((x + a·y²)·b, 0)`.
    sq_add_scale_clamp0, sq_add_scale_clamp0_seq, k_sq_add_scale_clamp0,
    sq_add_scale_clamp0_sse2, sq_add_scale_clamp0_avx2, (a, b)
);
zip_dispatch!(
    /// `x ← max(x, c·y)` (`maxps` semantics).
    scale_max, scale_max_seq, k_scale_max, scale_max_sse2, scale_max_avx2, (c)
);
zip_dispatch!(
    /// `x ← (c1·x)/(√(c2·y) + ε)`.
    hat, hat_seq, k_hat, hat_sse2, hat_avx2, (c1, c2, eps)
);
zip2_dispatch!(
    /// `x ← a·x + b·(y + c·z)`.
    eff_axpby, eff_axpby_seq, k_eff_axpby, eff_axpby_sse2, eff_axpby_avx2, (a, b, c)
);
zip2_dispatch!(
    /// `x ← (x + a·(y + c·z))·b`.
    eff_add_scale, eff_add_scale_seq, k_eff_add_scale, eff_add_scale_sse2, eff_add_scale_avx2,
    (a, b, c)
);
zip2_dispatch!(
    /// `x ← a·x + b·(y + c·z)²`.
    eff_sq_axpby, eff_sq_axpby_seq, k_eff_sq_axpby, eff_sq_axpby_sse2, eff_sq_axpby_avx2,
    (a, b, c)
);
zip2_dispatch!(
    /// `x ← max((x + a·(y + c·z)²)·b, 0)`.
    eff_sq_add_scale_clamp0, eff_sq_add_scale_clamp0_seq, k_eff_sq_add_scale_clamp0,
    eff_sq_add_scale_clamp0_sse2, eff_sq_add_scale_clamp0_avx2, (a, b, c)
);
zip2_dispatch!(
    /// `x ← a·x + b·ĥ`, `ĥ = (c1·y)/(√(c2·z) + ε)`.
    adam_dir_axpby, adam_dir_axpby_seq, k_adam_dir_axpby, adam_dir_axpby_sse2,
    adam_dir_axpby_avx2, (a, b, c1, c2, eps)
);
zip2_dispatch!(
    /// `x ← x + b·ĥ`, `ĥ = (c1·y)/(√(c2·z) + ε)`.
    adam_dir_axpy, adam_dir_axpy_seq, k_adam_dir_axpy, adam_dir_axpy_sse2, adam_dir_axpy_avx2,
    (b, c1, c2, eps)
);
zip2_dispatch!(
    /// `x ← (x + a·ĥ)·b`, `ĥ = (c1·y)/(√(c2·z) + ε)`.
    adam_dir_add_scale, adam_dir_add_scale_seq, k_adam_dir_add_scale, adam_dir_add_scale_sse2,
    adam_dir_add_scale_avx2, (a, b, c1, c2, eps)
);

// ---------------------------------------------------------------------------
// f16 ↔ f32 conversion dispatch.
// ---------------------------------------------------------------------------

fn f32_to_f16_scalar(src: &[f32], dst: &mut [u16]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = crate::half::f32_to_f16_bits(s);
    }
}

fn f16_to_f32_scalar(src: &[u16], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = crate::half::f16_bits_to_f32(s);
    }
}

/// Sequential f32 → f16 encode into a caller-provided buffer. Only AVX2
/// has a vector path (SSE2 lacks the per-lane variable shifts the
/// subnormal narrowing needs); scalar and SSE2 tiers share the branchy
/// reference conversion.
pub fn f32_to_f16_into_seq(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len());
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { f16x::f32_to_f16_avx2(src, dst) },
        _ => f32_to_f16_scalar(src, dst),
    }
}

/// Sequential f16 → f32 decode into a caller-provided buffer.
pub fn f16_to_f32_into_seq(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { f16x::f16_to_f32_avx2(src, dst) },
        _ => f16_to_f32_scalar(src, dst),
    }
}

/// f32 → f16 encode into a caller-provided buffer, parallel above the
/// elementwise threshold (per-element conversion: chunking is bit-safe).
pub fn f32_to_f16_into(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len());
    if crate::par::parallel_elements(src.len()) {
        dst.par_chunks_mut(ELEM_CHUNK)
            .zip(src.par_chunks(ELEM_CHUNK))
            .for_each(|(dc, sc)| f32_to_f16_into_seq(sc, dc));
    } else {
        f32_to_f16_into_seq(src, dst);
    }
}

/// f16 → f32 decode into a caller-provided buffer, parallel above the
/// elementwise threshold.
pub fn f16_to_f32_into(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    if crate::par::parallel_elements(src.len()) {
        dst.par_chunks_mut(ELEM_CHUNK)
            .zip(src.par_chunks(ELEM_CHUNK))
            .for_each(|(dc, sc)| f16_to_f32_into_seq(sc, dc));
    } else {
        f16_to_f32_into_seq(src, dst);
    }
}

/// The documented 8-lane dot, written out with no dispatch: lane `l` sums
/// `x[8i+l]·y[8i+l]` in ascending `i`, the lanes fold in ascending order,
/// then the tail adds in ascending order. The reference every dot-based
/// kernel is checked against.
#[cfg(test)]
pub(crate) fn reference_dot(x: &[f32], y: &[f32]) -> f32 {
    let n = x.len();
    let mut lanes = [0.0f32; DOT_LANES];
    let chunks = n / DOT_LANES;
    for c in 0..chunks {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += x[c * DOT_LANES + l] * y[c * DOT_LANES + l];
        }
    }
    let mut s = 0.0f32;
    for &lane in &lanes {
        s += lane;
    }
    for i in chunks * DOT_LANES..n {
        s += x[i] * y[i];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CounterRng;

    fn tiers() -> &'static [SimdTier] {
        available_tiers()
    }

    fn fill(rng: &mut CounterRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.normal() * 3.0).collect()
    }

    fn fill_pos(rng: &mut CounterRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.uniform(1e-6, 4.0)).collect()
    }

    const SIZES: &[usize] = &[0, 1, 3, 7, 8, 9, 15, 16, 31, 64, 100, 257, 1024];

    /// Runs `op` on a fresh copy of `xs` under every available tier and
    /// asserts all results are bitwise identical to the scalar tier's.
    fn assert_tiers_bit_eq(xs: &[f32], op: &dyn Fn(&mut [f32])) {
        let reference = with_tier(SimdTier::Scalar, || {
            let mut v = xs.to_vec();
            op(&mut v);
            v
        });
        for &tier in tiers() {
            let got = with_tier(tier, || {
                let mut v = xs.to_vec();
                op(&mut v);
                v
            });
            let ok = reference.len() == got.len()
                && reference
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(ok, "tier {} diverged from scalar", tier.name());
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for &t in &[SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            assert_eq!(SimdTier::from_name(t.name()), Some(t));
        }
        assert_eq!(SimdTier::from_name("avx512"), None);
    }

    #[test]
    fn available_tiers_starts_with_scalar() {
        assert_eq!(tiers()[0], SimdTier::Scalar);
        assert_eq!(detected_tier(), *tiers().last().unwrap());
    }

    #[test]
    fn with_tier_pins_and_restores() {
        // Other tests pin tiers concurrently through `with_tier`; holding
        // its lock keeps their scopes out between the two reads below.
        let _guard = WITH_TIER_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let before = active_tier();
        pin_tier(SimdTier::Scalar, || {
            assert_eq!(active_tier(), SimdTier::Scalar);
        });
        assert_eq!(active_tier(), before);
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn override_rejects_unavailable_tier() {
        // At most 3 tiers exist; on non-AVX2 hosts Avx2 is unavailable. On
        // AVX2 hosts, fabricate unavailability via a tier that parses but
        // is absent only off-x86: skip by panicking manually.
        if SimdTier::Avx2.is_available() {
            panic!("tier avx2 not available (skipped: host supports it)");
        }
        set_tier_override(Some(SimdTier::Avx2));
    }

    #[test]
    fn zip_kernels_bit_eq_across_tiers() {
        let mut rng = CounterRng::new(0x51AD, 8);
        for &n in SIZES {
            let ys = fill(&mut rng, n);
            let ys_pos = fill_pos(&mut rng, n);
            let xs = fill(&mut rng, n);
            assert_tiers_bit_eq(&xs, &|v| axpby_seq(v, &ys, 0.9, -0.01));
            assert_tiers_bit_eq(&xs, &|v| axpy_seq(v, &ys, -0.05));
            assert_tiers_bit_eq(&xs, &|v| add_scale_seq(v, &ys, 0.1, 1.25));
            assert_tiers_bit_eq(&xs, &|v| sq_axpby_seq(v, &ys, 0.99, 0.01));
            assert_tiers_bit_eq(&xs, &|v| sq_add_scale_clamp0_seq(v, &ys, -0.01, 1.0101));
            assert_tiers_bit_eq(&xs, &|v| scale_max_seq(v, &ys, 1.07));
            assert_tiers_bit_eq(&xs, &|v| hat_seq(v, &ys_pos, 1.11, 1.05, 1e-8));
        }
    }

    #[test]
    fn zip2_kernels_bit_eq_across_tiers() {
        let mut rng = CounterRng::new(0xF00D, 8);
        for &n in SIZES {
            let ys = fill(&mut rng, n);
            let zs = fill(&mut rng, n);
            let zs_pos = fill_pos(&mut rng, n);
            let xs = fill(&mut rng, n);
            assert_tiers_bit_eq(&xs, &|v| eff_axpby_seq(v, &ys, &zs, 0.9, 0.1, 0.01));
            assert_tiers_bit_eq(&xs, &|v| eff_add_scale_seq(v, &ys, &zs, -0.1, 1.111, 0.01));
            assert_tiers_bit_eq(&xs, &|v| eff_sq_axpby_seq(v, &ys, &zs, 0.999, 0.001, 0.01));
            assert_tiers_bit_eq(&xs, &|v| {
                eff_sq_add_scale_clamp0_seq(v, &ys, &zs, -0.001, 1.001, 0.01)
            });
            assert_tiers_bit_eq(&xs, &|v| {
                adam_dir_axpby_seq(v, &ys, &zs_pos, 0.99, -0.01, 1.05, 1.1, 1e-8)
            });
            assert_tiers_bit_eq(&xs, &|v| {
                adam_dir_axpy_seq(v, &ys, &zs_pos, -0.001, 1.02, 1.04, 1e-8)
            });
            assert_tiers_bit_eq(&xs, &|v| {
                adam_dir_add_scale_seq(v, &ys, &zs_pos, 0.001, 0.99, 1.02, 1.04, 1e-8)
            });
        }
    }

    #[test]
    fn zip_kernels_bit_eq_on_unaligned_slices() {
        let mut rng = CounterRng::new(0xA117, 1);
        let ys = fill(&mut rng, 130);
        let xs = fill(&mut rng, 130);
        for off in 1..9 {
            let yo = &ys[off..];
            assert_tiers_bit_eq(&xs[off..], &|v| axpby_seq(v, yo, 0.75, -0.3));
        }
    }

    #[test]
    fn parallel_zip_matches_sequential_bitwise() {
        let mut rng = CounterRng::new(0xBEEF, 2);
        let n = crate::par::PAR_MIN_ELEMS + 77;
        let ys = fill(&mut rng, n);
        let zs = fill_pos(&mut rng, n);
        let xs = fill(&mut rng, n);
        for &tier in tiers() {
            with_tier(tier, || {
                let mut seq = xs.clone();
                axpby_seq(&mut seq, &ys, 0.9, -0.02);
                let mut par = xs.clone();
                axpby(&mut par, &ys, 0.9, -0.02);
                assert!(seq
                    .iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));

                let mut seq2 = xs.clone();
                adam_dir_axpy_seq(&mut seq2, &ys, &zs, -0.001, 1.02, 1.04, 1e-8);
                let mut par2 = xs.clone();
                adam_dir_axpy(&mut par2, &ys, &zs, -0.001, 1.02, 1.04, 1e-8);
                assert!(seq2
                    .iter()
                    .zip(&par2)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            });
        }
    }

    #[test]
    fn special_values_propagate_identically() {
        let xs = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE / 2.0,
            65504.0,
            1.0,
        ];
        let ys = [
            1.0,
            f32::NAN,
            2.0,
            -0.0,
            0.0,
            f32::NEG_INFINITY,
            f32::MAX,
            -65504.0,
            f32::INFINITY,
        ];
        assert_tiers_bit_eq(&xs, &|v| axpby_seq(v, &ys, 0.5, 2.0));
        assert_tiers_bit_eq(&xs, &|v| scale_max_seq(v, &ys, 1.0));
        assert_tiers_bit_eq(&xs, &|v| sq_add_scale_clamp0_seq(v, &ys, -1.0, 1.0));
    }

    #[test]
    fn dot_bit_eq_across_tiers_and_matches_reference() {
        let mut rng = CounterRng::new(0xD07, 3);
        for &n in SIZES {
            let x = fill(&mut rng, n);
            let y = fill(&mut rng, n);
            let want = reference_dot(&x, &y);
            for &tier in tiers() {
                let got = with_tier(tier, || dot(&x, &y));
                assert_eq!(got.to_bits(), want.to_bits(), "dot tier {}", tier.name());
            }
        }
    }

    #[test]
    fn tile_ab_bit_eq_across_tiers() {
        // Whole-`k` tiles from zero, and a `k` walk split at `split` whose
        // second range carries on from the output (at `split = 0` the
        // empty first range zeroes the tile and the second starts from
        // zero too).
        let mut rng = CounterRng::new(0x7117, 4);
        for &(rows, k, n, c0, split) in &[
            (MR, 17usize, NR + 8, 0usize, 16usize),
            (MR, 5, NR, 0, 5),
            (2, 33, 2 * NR + 8, NR, 1),
            (1, 1, NR, 0, 0),
            (3, 64, NR + 8, 8, 48),
        ] {
            let ad: Vec<f32> = fill(&mut rng, rows * k);
            let bd = fill(&mut rng, k * n);
            let dirty = fill(&mut rng, rows * n);
            let a_rows: Vec<&[f32]> = (0..rows).map(|i| &ad[i * k..(i + 1) * k]).collect();
            let run = |tier: SimdTier| {
                with_tier(tier, || {
                    let mut whole = dirty.clone();
                    tile_ab(&a_rows, &bd, 0..k, n, c0, &mut whole);
                    let mut split_walk = dirty.clone();
                    tile_ab(&a_rows, &bd, 0..split, n, c0, &mut split_walk);
                    tile_ab(&a_rows, &bd, split..k, n, c0, &mut split_walk);
                    (whole, split_walk)
                })
            };
            let want = run(SimdTier::Scalar);
            let same =
                |x: &[f32], y: &[f32]| x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same(&want.0, &want.1),
                "tile_ab split walk differs from one walk rows={rows} k={k} split={split}"
            );
            for &tier in tiers() {
                let got = run(tier);
                assert!(
                    same(&want.0, &got.0) && same(&want.1, &got.1),
                    "tile_ab tier {} rows={rows} k={k} n={n} c0={c0}",
                    tier.name()
                );
            }
        }
    }

    #[test]
    fn tile_atb_bit_eq_across_tiers() {
        let mut rng = CounterRng::new(0x7A7B, 4);
        for &(m, k, n, r0, rows, c0) in &[
            (12usize, 9usize, 2 * NR, 0usize, MR, 0usize),
            (12, 9, 2 * NR, 12 - MR, MR, NR),
            (5, 21, NR, 2, 3, 0),
            (1, 1, NR, 0, 1, 0),
        ] {
            let ad = fill(&mut rng, k * m);
            let bd = fill(&mut rng, k * n);
            let dirty = fill(&mut rng, rows * n);
            let run = |tier: SimdTier| {
                with_tier(tier, || {
                    let mut out = dirty.clone();
                    tile_atb(&ad, &bd, k, m, n, r0, rows, c0, &mut out);
                    out
                })
            };
            let want = run(SimdTier::Scalar);
            for &tier in tiers() {
                let got = run(tier);
                assert!(
                    want.iter()
                        .zip(&got)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "tile_atb tier {} m={m} k={k} n={n}",
                    tier.name()
                );
            }
        }
    }

    #[test]
    fn f16_decode_exhaustive_bit_eq_across_tiers() {
        let src: Vec<u16> = (0..=u16::MAX).collect();
        let mut want = vec![0.0f32; src.len()];
        with_tier(SimdTier::Scalar, || f16_to_f32_into_seq(&src, &mut want));
        for &tier in tiers() {
            let mut got = vec![0.0f32; src.len()];
            with_tier(tier, || f16_to_f32_into_seq(&src, &mut got));
            assert!(
                want.iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "f16→f32 tier {}",
                tier.name()
            );
        }
    }

    /// Structured f32 sweep hitting every encoder path: all exponents, and
    /// for each narrowing shift the exact RNE tie pattern, tie±1 and the
    /// all-ones round field, plus specials — under both signs.
    fn f32_to_f16_boundary_inputs() -> Vec<f32> {
        let mut bits: Vec<u32> = Vec::new();
        for exp in 0..=255u32 {
            for mant in [0u32, 1, 0x0007_FFFF, 0x0040_0000, 0x007F_FFFF] {
                bits.push((exp << 23) | mant);
            }
        }
        for shift in 13..=23u32 {
            let half = 1u32 << (shift - 1);
            let mask = (1u64 << shift) as u32 - 1;
            for exp in 0..=255u32 {
                for mant in [
                    half,
                    half - 1,
                    half + 1,
                    mask,
                    mask - 1,
                    half | (1 << shift),
                ] {
                    bits.push((exp << 23) | (mant & 0x007F_FFFF));
                }
            }
        }
        bits.extend_from_slice(&[
            0,
            0x7FC0_0000, // quiet NaN
            0x7F80_0001, // signalling NaN, payload truncates to 0
            0x7F80_2000, // signalling NaN, payload survives
            0x7F7F_FFFF, // f32::MAX
            0x0000_0001, // smallest f32 subnormal
            0x3380_0000, // 2^-24 (f16 subnormal tie at zero)
            0x477F_E000, // 65504 (f16 max)
            0x477F_F000, // 65520 (ties to +inf)
            0x477F_EFFF, // just under the tie
        ]);
        let mut out = Vec::with_capacity(bits.len() * 2);
        for b in bits {
            out.push(f32::from_bits(b));
            out.push(f32::from_bits(b | 0x8000_0000));
        }
        out
    }

    #[test]
    fn f16_encode_boundary_sweep_bit_eq_across_tiers() {
        let src = f32_to_f16_boundary_inputs();
        let mut want = vec![0u16; src.len()];
        with_tier(SimdTier::Scalar, || f32_to_f16_into_seq(&src, &mut want));
        for &tier in tiers() {
            let mut got = vec![0u16; src.len()];
            with_tier(tier, || f32_to_f16_into_seq(&src, &mut got));
            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    w,
                    g,
                    "f32→f16 tier {} diverged on input {:#010x}",
                    tier.name(),
                    src[i].to_bits()
                );
            }
        }
    }

    #[test]
    fn f16_parallel_conversion_matches_sequential() {
        let mut rng = CounterRng::new(0xF16, 5);
        let n = crate::par::PAR_MIN_ELEMS + 13;
        let src = fill(&mut rng, n);
        for &tier in tiers() {
            with_tier(tier, || {
                let mut seq = vec![0u16; n];
                f32_to_f16_into_seq(&src, &mut seq);
                let mut par = vec![0u16; n];
                f32_to_f16_into(&src, &mut par);
                assert_eq!(seq, par);
                let mut back_seq = vec![0.0f32; n];
                f16_to_f32_into_seq(&seq, &mut back_seq);
                let mut back_par = vec![0.0f32; n];
                f16_to_f32_into(&par, &mut back_par);
                assert!(back_seq
                    .iter()
                    .zip(&back_par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            });
        }
    }
}
