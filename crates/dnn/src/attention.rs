//! Single-head self-attention with hand-written backward.
//!
//! The transformer stand-ins (ViT/BERT tiny) treat each example as a
//! `[seq, hidden]` matrix flattened into one row of the batch tensor.

use swift_tensor::{matmul, matmul_a_bt, matmul_at_b_acc, CounterRng, Tensor};

use crate::layer::{ActivationCache, Layer, Mode, StepCtx};

/// Multi-head scaled-dot-product self-attention (single-head when
/// `heads == 1`).
///
/// Per example `X ∈ [S, H]` and per head `h` over slice `H_h = H/heads`:
/// `Q_h = XW_q[:, h]`, `K_h`, `V_h` likewise,
/// `A_h = softmax(Q_h K_hᵀ/√H_h)`, `Y = concat_h(A_h V_h) W_o`.
#[derive(Debug)]
pub struct SelfAttention {
    name: String,
    seq: usize,
    hidden: usize,
    heads: usize,
    /// `[Wq, Wk, Wv, Wo]` — contiguous so [`Layer::params`] borrows.
    params: [Tensor; 4],
    /// The matching gradients, aligned with `params`.
    grads: [Tensor; 4],
    /// Caches X, Q, K, V, A, Z stacked over the batch.
    cache: ActivationCache,
}

const WQ: usize = 0;
const WK: usize = 1;
const WV: usize = 2;
const WO: usize = 3;

/// Cached tensors are stacked along a synthetic leading axis; we pack the
/// six of them into one tensor to reuse the single-slot cache:
/// `[6, B*S, max(H, S)]` would waste space, so instead we keep a private
/// struct serialized as separate cache entries keyed by sub-tags.
#[derive(Debug, Clone)]
struct AttnCacheEntry {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    a: Tensor,
    z: Tensor,
}

impl SelfAttention {
    /// Creates a single-head self-attention layer for sequences of `seq`
    /// tokens with `hidden` channels.
    pub fn new(name: impl Into<String>, seq: usize, hidden: usize, rng: &mut CounterRng) -> Self {
        Self::multi_head(name, seq, hidden, 1, rng)
    }

    /// Creates a multi-head self-attention layer; `hidden` must divide
    /// evenly by `heads`.
    pub fn multi_head(
        name: impl Into<String>,
        seq: usize,
        hidden: usize,
        heads: usize,
        rng: &mut CounterRng,
    ) -> Self {
        assert!(
            heads >= 1 && hidden.is_multiple_of(heads),
            "hidden must split evenly across heads"
        );
        let bound = (1.0 / hidden as f32).sqrt();
        let mut w = || Tensor::uniform([hidden, hidden], -bound, bound, rng);
        let g = || Tensor::zeros([hidden, hidden]);
        SelfAttention {
            name: name.into(),
            seq,
            hidden,
            heads,
            params: [w(), w(), w(), w()],
            grads: [g(), g(), g(), g()],
            cache: ActivationCache::new(),
        }
    }

    fn batch_of(&self, input: &Tensor) -> usize {
        let n = input.numel();
        let per = self.seq * self.hidden;
        assert_eq!(n % per, 0, "input is not a multiple of seq×hidden");
        n / per
    }

    fn example(&self, t: &Tensor, b: usize) -> Tensor {
        let per = self.seq * self.hidden;
        Tensor::from_vec(
            [self.seq, self.hidden],
            t.data()[b * per..(b + 1) * per].to_vec(),
        )
    }
}

/// Copies columns `[start, start+width)` of a `[rows, _]` matrix.
fn col_slice(t: &Tensor, start: usize, width: usize) -> Tensor {
    let (rows, cols) = t.shape().as_matrix();
    let mut out = vec![0.0f32; rows * width];
    for r in 0..rows {
        out[r * width..(r + 1) * width]
            .copy_from_slice(&t.data()[r * cols + start..r * cols + start + width]);
    }
    Tensor::from_vec([rows, width], out)
}

/// Writes `src` (`[rows, width]`) into columns starting at `start`.
fn write_col_slice(dst: &mut Tensor, start: usize, src: &Tensor) {
    let (rows, cols) = dst.shape().as_matrix();
    let (srows, width) = src.shape().as_matrix();
    assert_eq!(rows, srows);
    for r in 0..rows {
        dst.data_mut()[r * cols + start..r * cols + start + width]
            .copy_from_slice(&src.data()[r * width..(r + 1) * width]);
    }
}

// Private cache storage: flatten the six tensors into one payload tensor.
fn pack(entry: &AttnCacheEntry) -> Tensor {
    let mut data = Vec::new();
    for t in [&entry.x, &entry.q, &entry.k, &entry.v, &entry.a, &entry.z] {
        data.extend_from_slice(t.data());
    }
    Tensor::from_vec([data.len()], data)
}

fn unpack(t: &Tensor, b: usize, s: usize, h: usize, heads: usize) -> AttnCacheEntry {
    let sh = b * s * h;
    let ss = b * s * s * heads;
    let d = t.data();
    let mut off = 0usize;
    let mut take = |n: usize, shape: Vec<usize>| {
        let out = Tensor::from_vec(shape, d[off..off + n].to_vec());
        off += n;
        out
    };
    AttnCacheEntry {
        x: take(sh, vec![b * s, h]),
        q: take(sh, vec![b * s, h]),
        k: take(sh, vec![b * s, h]),
        v: take(sh, vec![b * s, h]),
        a: take(ss, vec![b * s, heads * s]),
        z: take(sh, vec![b * s, h]),
    }
}

impl Layer for SelfAttention {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        let b = self.batch_of(input);
        let (s, h) = (self.seq, self.hidden);
        let scale = 1.0 / (h as f32 / self.heads as f32).sqrt();
        let mut y_data = Vec::with_capacity(b * s * h);
        let mut xs = Vec::with_capacity(b * s * h);
        let mut qs = Vec::with_capacity(b * s * h);
        let mut ks = Vec::with_capacity(b * s * h);
        let mut vs = Vec::with_capacity(b * s * h);
        let mut as_ = Vec::with_capacity(b * s * s);
        let mut zs = Vec::with_capacity(b * s * h);
        for e in 0..b {
            let x = self.example(input, e);
            let q = matmul(&x, &self.params[WQ]);
            let k = matmul(&x, &self.params[WK]);
            let v = matmul(&x, &self.params[WV]);
            // Per-head attention over column slices of Q/K/V.
            let hh = h / self.heads;
            let mut a = Tensor::zeros([s, self.heads * s]);
            let mut z = Tensor::zeros([s, h]);
            for head in 0..self.heads {
                let qh = col_slice(&q, head * hh, hh);
                let kh = col_slice(&k, head * hh, hh);
                let vh = col_slice(&v, head * hh, hh);
                let ah = matmul_a_bt(&qh, &kh).scale(scale).softmax_rows();
                let zh = matmul(&ah, &vh);
                write_col_slice(&mut a, head * s, &ah);
                write_col_slice(&mut z, head * hh, &zh);
            }
            let y = matmul(&z, &self.params[WO]);
            y_data.extend_from_slice(y.data());
            if mode == Mode::Train {
                xs.extend_from_slice(x.data());
                qs.extend_from_slice(q.data());
                ks.extend_from_slice(k.data());
                vs.extend_from_slice(v.data());
                as_.extend_from_slice(a.data());
                zs.extend_from_slice(z.data());
            }
        }
        if mode == Mode::Train {
            let entry = AttnCacheEntry {
                x: Tensor::from_vec([b * s, h], xs),
                q: Tensor::from_vec([b * s, h], qs),
                k: Tensor::from_vec([b * s, h], ks),
                v: Tensor::from_vec([b * s, h], vs),
                a: Tensor::from_vec([b * s, self.heads * s], as_),
                z: Tensor::from_vec([b * s, h], zs),
            };
            self.cache.put(ctx, pack(&entry));
        }
        Tensor::from_vec([b, s * h], y_data)
    }

    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        let b = self.batch_of(grad_out);
        let (s, h) = (self.seq, self.hidden);
        let hh = h / self.heads;
        let scale = 1.0 / (hh as f32).sqrt();
        let packed = self.cache.take(ctx);
        let cache = unpack(&packed, b, s, h, self.heads);
        let mut dx_data = Vec::with_capacity(b * s * h);
        for e in 0..b {
            let slice_sh = |t: &Tensor| {
                Tensor::from_vec([s, h], t.data()[e * s * h..(e + 1) * s * h].to_vec())
            };
            let x = slice_sh(&cache.x);
            let q = slice_sh(&cache.q);
            let k = slice_sh(&cache.k);
            let v = slice_sh(&cache.v);
            let z = slice_sh(&cache.z);
            let per_a = s * self.heads * s;
            let a_all = Tensor::from_vec(
                [s, self.heads * s],
                cache.a.data()[e * per_a..(e + 1) * per_a].to_vec(),
            );
            let dy = self.example(grad_out, e);
            // Y = Z Wo
            matmul_at_b_acc(&z, &dy, &mut self.grads[WO]);
            let dz = matmul_a_bt(&dy, &self.params[WO]); // dy · Woᵀ
                                                         // Per-head backward through Z_h = A_h V_h and the softmax.
            let mut dq = Tensor::zeros([s, h]);
            let mut dk = Tensor::zeros([s, h]);
            let mut dv = Tensor::zeros([s, h]);
            for head in 0..self.heads {
                let a = col_slice(&a_all, head * s, s);
                let qh = col_slice(&q, head * hh, hh);
                let kh = col_slice(&k, head * hh, hh);
                let vh = col_slice(&v, head * hh, hh);
                let dzh = col_slice(&dz, head * hh, hh);
                let da = matmul_a_bt(&dzh, &vh); // dz_h · V_hᵀ
                let mut dvh = Tensor::zeros([s, hh]);
                matmul_at_b_acc(&a, &dzh, &mut dvh); // A_hᵀ dz_h
                                                     // softmax backward, row-wise
                let mut dsm = Tensor::zeros([s, s]);
                for r in 0..s {
                    let a_row = &a.data()[r * s..(r + 1) * s];
                    let da_row = &da.data()[r * s..(r + 1) * s];
                    let dot: f32 = a_row.iter().zip(da_row.iter()).map(|(x, y)| x * y).sum();
                    let out = &mut dsm.data_mut()[r * s..(r + 1) * s];
                    for c in 0..s {
                        out[c] = a_row[c] * (da_row[c] - dot);
                    }
                }
                let dscores = dsm.scale(scale);
                // scores = Q_h K_hᵀ
                let dqh = matmul(&dscores, &kh);
                let mut dkh = Tensor::zeros([s, hh]);
                matmul_at_b_acc(&dscores, &qh, &mut dkh);
                write_col_slice(&mut dq, head * hh, &dqh);
                write_col_slice(&mut dk, head * hh, &dkh);
                write_col_slice(&mut dv, head * hh, &dvh);
            }
            // Q = X Wq etc.
            matmul_at_b_acc(&x, &dq, &mut self.grads[WQ]);
            matmul_at_b_acc(&x, &dk, &mut self.grads[WK]);
            matmul_at_b_acc(&x, &dv, &mut self.grads[WV]);
            let mut dx = matmul_a_bt(&dq, &self.params[WQ]);
            dx.add_inplace(&matmul_a_bt(&dk, &self.params[WK]));
            dx.add_inplace(&matmul_a_bt(&dv, &self.params[WV]));
            dx_data.extend_from_slice(dx.data());
        }
        Tensor::from_vec([b, s * h], dx_data)
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [Tensor] {
        &mut self.params
    }

    fn grads(&self) -> &[Tensor] {
        &self.grads
    }

    fn grads_mut(&mut self) -> &mut [Tensor] {
        &mut self.grads
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
    fn output_shape_matches_input() {
        let mut rng = CounterRng::new(0, 0);
        let mut attn = SelfAttention::new("a", 4, 8, &mut rng);
        let x = Tensor::randn([3, 32], 0.0, 1.0, &mut rng);
        let y = attn.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[3, 32]);
    }

    #[test]
    fn attention_rows_mix_values() {
        // With uniform attention-ish small weights, output should blend
        // token values — a constant input stays constant.
        let mut rng = CounterRng::new(1, 0);
        let mut attn = SelfAttention::new("a", 3, 4, &mut rng);
        let x = Tensor::ones([1, 12]);
        let y = attn.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        // All tokens identical → all output tokens identical.
        let t0: Vec<f32> = y.data()[0..4].to_vec();
        let t1: Vec<f32> = y.data()[4..8].to_vec();
        for (a, b) in t0.iter().zip(t1.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn grad_check_small() {
        let mut rng = CounterRng::new(2, 0);
        let attn = SelfAttention::new("a", 3, 4, &mut rng);
        numeric_grad_check(Box::new(attn), 2, 12, 8e-2);
    }

    #[test]
    fn grads_zeroable() {
        let mut rng = CounterRng::new(3, 0);
        let mut attn = SelfAttention::new("a", 2, 4, &mut rng);
        let ctx = StepCtx::new(0, 0);
        let x = Tensor::randn([2, 8], 0.0, 1.0, &mut rng);
        attn.forward(ctx, &x, Mode::Train);
        attn.backward(ctx, &Tensor::ones([2, 8]));
        assert!(attn.grads().iter().any(|g| g.sum_sq() > 0.0));
        attn.zero_grads();
        assert!(attn.grads().iter().all(|g| g.sum_sq() == 0.0));
    }

    #[test]
    fn multi_head_grad_check() {
        let mut rng = CounterRng::new(5, 0);
        let attn = SelfAttention::multi_head("mh", 3, 8, 2, &mut rng);
        numeric_grad_check(Box::new(attn), 2, 24, 8e-2);
    }

    #[test]
    fn multi_head_reduces_to_single_when_heads_is_one() {
        let mut r1 = CounterRng::new(6, 0);
        let mut r2 = CounterRng::new(6, 0);
        let mut a = SelfAttention::new("a", 3, 4, &mut r1);
        let mut b = SelfAttention::multi_head("a", 3, 4, 1, &mut r2);
        let x = Tensor::randn([2, 12], 0.0, 1.0, &mut CounterRng::new(7, 0));
        let ya = a.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        let yb = b.forward(StepCtx::new(0, 0), &x, Mode::Eval);
        assert!(ya.bit_eq(&yb));
    }

    #[test]
    fn heads_attend_independently() {
        // With 2 heads, the attention cache holds two distinct row-
        // stochastic maps; outputs differ from the single-head layer with
        // identical weights.
        let mut rng = CounterRng::new(8, 0);
        let mut mh = SelfAttention::multi_head("mh", 4, 8, 2, &mut rng);
        let x = Tensor::randn([1, 32], 0.0, 1.0, &mut CounterRng::new(9, 0));
        let ctx = StepCtx::new(0, 0);
        let _y = mh.forward(ctx, &x, Mode::Train);
        let packed = mh.cache.take(ctx);
        let cache = unpack(&packed, 1, 4, 8, 2);
        // Each head's attention rows sum to 1.
        for head in 0..2 {
            let a = col_slice(&cache.a, head * 4, 4);
            for r in 0..4 {
                let sum: f32 = a.data()[r * 4..(r + 1) * 4].iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "head {head} row {r} sum {sum}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "split evenly")]
    fn uneven_heads_rejected() {
        SelfAttention::multi_head("x", 2, 6, 4, &mut CounterRng::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn wrong_width_panics() {
        let mut rng = CounterRng::new(4, 0);
        let mut attn = SelfAttention::new("a", 4, 8, &mut rng);
        attn.forward(StepCtx::new(0, 0), &Tensor::ones([1, 30]), Mode::Eval);
    }
}
