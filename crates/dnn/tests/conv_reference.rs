//! `Conv2d` against a naive direct convolution, and across SIMD tiers.
//!
//! The layer runs as im2col GEMMs over pooled buffers; the reference here
//! is the textbook 7-deep loop with f64 accumulation. Shapes are ragged on
//! purpose: odd non-square images (some narrower than the kernel), every
//! kernel size in {1, 3, 5}, channel counts that leave the GEMMs' register
//! tiles partly filled, and batches of 1 to 5. Each shape runs twice with
//! the pool stocked with NaN-filled buffers in between, so the second call
//! works in recycled memory and must write its zero padding again.

use swift_dnn::{Conv2d, Layer, Mode, StepCtx};
use swift_tensor::simd::{self, SimdTier};
use swift_tensor::{pool, CounterRng, Tensor};

/// One convolution problem: layer geometry and batch.
#[derive(Clone, Copy, Debug)]
struct Case {
    k: usize,
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    batch: usize,
}

impl Case {
    fn in_dim(&self) -> usize {
        self.c_in * self.h * self.w
    }

    fn out_dim(&self) -> usize {
        self.c_out * self.h * self.w
    }

    fn layer(&self, seed: u64) -> Conv2d {
        let mut rng = CounterRng::new(seed, 0);
        let mut conv = Conv2d::new(
            "conv", self.c_in, self.c_out, self.h, self.w, self.k, &mut rng,
        );
        // A non-trivial bias, so the reference checks it is added.
        *conv.bias_mut() = Tensor::randn([self.c_out], 0.0, 1.0, &mut rng);
        conv
    }
}

/// Every k × c_in × c_out combination, cycling through odd non-square
/// images (including ones narrower than a 5×5 kernel) and batches 1–5.
fn ragged_cases() -> Vec<Case> {
    let images = [(7, 5), (5, 9), (3, 1), (9, 7), (1, 3)];
    let mut cases = Vec::new();
    let mut i = 0;
    for k in [1, 3, 5] {
        for c_in in [1, 3, 16] {
            for c_out in [1, 5, 16] {
                let (h, w) = images[i % images.len()];
                cases.push(Case {
                    k,
                    c_in,
                    c_out,
                    h,
                    w,
                    batch: 1 + i % 5,
                });
                i += 1;
            }
        }
    }
    cases
}

/// Forward output, input gradient, weight gradient and bias gradient.
struct Grads {
    y: Vec<f64>,
    dx: Vec<f64>,
    dw: Vec<f64>,
    db: Vec<f64>,
}

/// The naive direct convolution and its gradients, accumulated in f64.
#[allow(clippy::needless_range_loop)] // the loop indices address four arrays at once
fn reference(case: Case, weight: &[f32], bias: &[f32], x: &[f32], dy: &[f32]) -> Grads {
    let Case {
        k,
        c_in,
        c_out,
        h,
        w,
        batch,
    } = case;
    let pad = (k / 2) as isize;
    let mut g = Grads {
        y: vec![0.0; batch * c_out * h * w],
        dx: vec![0.0; batch * c_in * h * w],
        dw: vec![0.0; c_out * c_in * k * k],
        db: vec![0.0; c_out],
    };
    for e in 0..batch {
        for o in 0..c_out {
            for oh in 0..h {
                for ow in 0..w {
                    let yi = ((e * c_out + o) * h + oh) * w + ow;
                    let gy = dy[yi] as f64;
                    let mut acc = bias[o] as f64;
                    g.db[o] += gy;
                    for c in 0..c_in {
                        for dh in 0..k {
                            for dw in 0..k {
                                let ih = oh as isize + dh as isize - pad;
                                let iw = ow as isize + dw as isize - pad;
                                if ih < 0 || iw < 0 || ih >= h as isize || iw >= w as isize {
                                    continue;
                                }
                                let xi = ((e * c_in + c) * h + ih as usize) * w + iw as usize;
                                let wi = o * c_in * k * k + (c * k + dh) * k + dw;
                                acc += weight[wi] as f64 * x[xi] as f64;
                                g.dx[xi] += weight[wi] as f64 * gy;
                                g.dw[wi] += x[xi] as f64 * gy;
                            }
                        }
                    }
                    g.y[yi] = acc;
                }
            }
        }
    }
    g
}

/// Largest elementwise error relative to the reference's largest
/// magnitude.
fn rel_err(got: &[f32], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len());
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
    got.iter()
        .zip(want)
        .map(|(&g, &r)| (g as f64 - r).abs())
        .fold(0.0, f64::max)
        / scale
}

/// Leaves NaN-filled buffers of `len` elements in the pool, so the next
/// request of that size is served recycled memory.
fn stock_pool_with_nans(len: usize) {
    let dirty: Vec<Vec<f32>> = (0..4)
        .map(|_| {
            let mut v = pool::take_f32(len);
            v.fill(f32::NAN);
            v
        })
        .collect();
    dirty.into_iter().for_each(pool::put_f32);
}

/// One forward + backward on a fresh layer: `(y, dx, [dW, dB])`.
fn run(case: Case, seed: u64, x: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Vec<Tensor>) {
    let mut conv = case.layer(seed);
    let ctx = StepCtx::new(0, 0);
    let y = conv.forward(ctx, x, Mode::Train);
    let dx = conv.backward(ctx, dy);
    (y, dx, conv.grads().to_vec())
}

#[test]
fn matches_direct_convolution_on_ragged_shapes() {
    let mut rng = CounterRng::new(0xC0417, 0);
    for (i, case) in ragged_cases().into_iter().enumerate() {
        let mut conv = case.layer(i as u64);
        let (weight, bias) = (conv.weight().clone(), conv.bias().clone());
        for call in 0..2 {
            let x = Tensor::randn([case.batch, case.in_dim()], 0.0, 1.0, &mut rng);
            let dy = Tensor::randn([case.batch, case.out_dim()], 0.0, 1.0, &mut rng);
            conv.zero_grads();
            let ctx = StepCtx::new(call, 0);
            let y = conv.forward(ctx, &x, Mode::Train);
            let dx = conv.backward(ctx, &dy);
            let want = reference(case, weight.data(), bias.data(), x.data(), dy.data());
            let grads = conv.grads();
            for (what, got, want) in [
                ("y", y.data(), &want.y),
                ("dX", dx.data(), &want.dx),
                ("dW", grads[0].data(), &want.dw),
                ("dB", grads[1].data(), &want.db),
            ] {
                let err = rel_err(got, want);
                assert!(
                    err <= 1e-5,
                    "{case:?} call {call}: {what} relative error {err:e}"
                );
            }
            let col_len = case.batch * case.c_in * case.k * case.k * case.h * case.w;
            for len in [col_len, y.numel(), dx.numel()] {
                stock_pool_with_nans(len);
            }
        }
    }
}

#[test]
fn forward_and_backward_bitwise_equal_on_every_simd_tier() {
    let cases = [
        Case {
            k: 3,
            c_in: 16,
            c_out: 16,
            h: 8,
            w: 8,
            batch: 3,
        },
        Case {
            k: 5,
            c_in: 3,
            c_out: 5,
            h: 7,
            w: 9,
            batch: 2,
        },
        Case {
            k: 1,
            c_in: 1,
            c_out: 1,
            h: 3,
            w: 1,
            batch: 1,
        },
    ];
    let mut rng = CounterRng::new(0x71E5, 0);
    for (i, case) in cases.into_iter().enumerate() {
        let x = Tensor::randn([case.batch, case.in_dim()], 0.0, 1.0, &mut rng);
        let dy = Tensor::randn([case.batch, case.out_dim()], 0.0, 1.0, &mut rng);
        let seed = 100 + i as u64;
        let (y0, dx0, g0) = simd::with_tier(SimdTier::Scalar, || run(case, seed, &x, &dy));
        for &tier in simd::available_tiers() {
            let (y, dx, g) = simd::with_tier(tier, || run(case, seed, &x, &dy));
            let same =
                y.bit_eq(&y0) && dx.bit_eq(&dx0) && g.iter().zip(&g0).all(|(a, b)| a.bit_eq(b));
            assert!(same, "{case:?}: tier {} differs from scalar", tier.name());
        }
    }
}
