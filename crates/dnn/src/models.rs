//! Model zoo: runnable stand-ins for the paper's benchmark models, plus
//! stage partitioning for pipeline parallelism.
//!
//! The paper trains billion-parameter models (Table 2); here every model is
//! a faithful *structural* miniature — the CNN keeps the
//! large-activation/small-weight profile of Wide-ResNet, the transformer
//! stand-ins keep the small-activation/stacked-block profile of
//! ViT-128/32 and BERT-128 — so the fault-tolerance machinery exercises the
//! same code paths at laptop scale.

use swift_tensor::{CounterRng, Tensor};

use crate::activation::{ActKind, Activation};
use crate::attention::SelfAttention;
use crate::conv::Conv2d;
use crate::dropout::Dropout;
use crate::layer::{Layer, Mode, StepCtx};
use crate::linear::Linear;
use crate::norm::LayerNorm;
use crate::sequential::Sequential;

/// Applies an inner [`Linear`] token-wise: reshapes `[B, S·H_in]` to
/// `[B·S, H_in]`, applies the linear map, reshapes back to `[B, S·H_out]`.
#[derive(Debug)]
pub struct TokenLinear {
    inner: Linear,
    seq: usize,
}

impl TokenLinear {
    /// Creates a token-wise linear layer for `seq`-token sequences.
    pub fn new(
        name: impl Into<String>,
        seq: usize,
        in_dim: usize,
        out_dim: usize,
        rng: &mut CounterRng,
    ) -> Self {
        TokenLinear {
            inner: Linear::new(name, in_dim, out_dim, rng),
            seq,
        }
    }
}

impl Layer for TokenLinear {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        let b = input.numel() / (self.seq * self.inner.in_dim());
        let x = input.reshape([b * self.seq, self.inner.in_dim()]);
        let y = self.inner.forward(ctx, &x, mode);
        y.reshape([b, self.seq * self.inner.out_dim()])
    }

    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        let b = grad_out.numel() / (self.seq * self.inner.out_dim());
        let g = grad_out.reshape([b * self.seq, self.inner.out_dim()]);
        let dx = self.inner.backward(ctx, &g);
        dx.reshape([b, self.seq * self.inner.in_dim()])
    }

    fn params(&self) -> &[Tensor] {
        self.inner.params()
    }

    fn params_mut(&mut self) -> &mut [Tensor] {
        self.inner.params_mut()
    }

    fn grads(&self) -> &[Tensor] {
        self.inner.grads()
    }

    fn grads_mut(&mut self) -> &mut [Tensor] {
        self.inner.grads_mut()
    }

    fn clear_cache(&mut self) {
        self.inner.clear_cache();
    }
}

/// A plain MLP: `dims[0] → dims[1] → … → dims.last()` with ReLU between
/// hidden layers (none after the output).
pub fn mlp(name: &str, dims: &[usize], seed: u64) -> Sequential {
    assert!(dims.len() >= 2, "need at least input and output dims");
    let mut rng = CounterRng::new(seed, 0x3310);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for i in 0..dims.len() - 1 {
        layers.push(Box::new(Linear::new(
            format!("fc{i}"),
            dims[i],
            dims[i + 1],
            &mut rng,
        )));
        if i + 2 < dims.len() {
            layers.push(Box::new(Activation::relu(format!("relu{i}"))));
        }
    }
    Sequential::new(name, layers)
}

/// One transformer block: attention + token-wise GELU MLP, each followed
/// by layer norm, with optional deterministic dropout.
fn transformer_block(
    layers: &mut Vec<Box<dyn Layer>>,
    block: usize,
    seq: usize,
    hidden: usize,
    dropout_p: f32,
    seed: u64,
    rng: &mut CounterRng,
) {
    layers.push(Box::new(SelfAttention::new(
        format!("attn{block}"),
        seq,
        hidden,
        rng,
    )));
    layers.push(Box::new(LayerNorm::new(
        format!("ln_a{block}"),
        seq * hidden,
        rng,
    )));
    layers.push(Box::new(TokenLinear::new(
        format!("mlp_up{block}"),
        seq,
        hidden,
        hidden * 2,
        rng,
    )));
    layers.push(Box::new(Activation::new(
        format!("gelu{block}"),
        ActKind::Gelu,
    )));
    layers.push(Box::new(TokenLinear::new(
        format!("mlp_down{block}"),
        seq,
        hidden * 2,
        hidden,
        rng,
    )));
    if dropout_p > 0.0 {
        layers.push(Box::new(Dropout::new(
            format!("drop{block}"),
            dropout_p,
            seed,
            block as u64,
        )));
    }
    layers.push(Box::new(LayerNorm::new(
        format!("ln_m{block}"),
        seq * hidden,
        rng,
    )));
}

/// ViT-tiny: token embedding, `blocks` transformer blocks, linear
/// classifier head. Input is `[B, seq·in_dim]` (patch features).
#[allow(clippy::too_many_arguments)]
pub fn vit_tiny(
    name: &str,
    seq: usize,
    in_dim: usize,
    hidden: usize,
    blocks: usize,
    classes: usize,
    dropout_p: f32,
    seed: u64,
) -> Sequential {
    let mut rng = CounterRng::new(seed, 0x517);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.push(Box::new(TokenLinear::new(
        "embed", seq, in_dim, hidden, &mut rng,
    )));
    for b in 0..blocks {
        transformer_block(&mut layers, b, seq, hidden, dropout_p, seed, &mut rng);
    }
    layers.push(Box::new(Linear::new(
        "head",
        seq * hidden,
        classes,
        &mut rng,
    )));
    Sequential::new(name, layers)
}

/// BERT-tiny: structurally identical miniature of BERT-128 — token
/// embedding over a one-hot vocab, transformer stack, classification head
/// (next-token prediction on the synthetic Markov stream).
pub fn bert_tiny(
    name: &str,
    seq: usize,
    vocab: usize,
    hidden: usize,
    blocks: usize,
    dropout_p: f32,
    seed: u64,
) -> Sequential {
    let mut rng = CounterRng::new(seed, 0xBE27);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.push(Box::new(TokenLinear::new(
        "embed", seq, vocab, hidden, &mut rng,
    )));
    for b in 0..blocks {
        transformer_block(&mut layers, b, seq, hidden, dropout_p, seed, &mut rng);
    }
    layers.push(Box::new(Linear::new("head", seq * hidden, vocab, &mut rng)));
    Sequential::new(name, layers)
}

/// Wide-ResNet-tiny: a small CNN with the Wide-ResNet activation profile
/// (activations ≫ weights). Input is `[B, 3·size·size]` channel-major.
pub fn wide_resnet_tiny(
    name: &str,
    size: usize,
    width: usize,
    classes: usize,
    seed: u64,
) -> Sequential {
    let mut rng = CounterRng::new(seed, 0x3357);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("conv1", 3, width, size, size, 3, &mut rng)),
        Box::new(Activation::relu("relu1")),
        Box::new(Conv2d::new("conv2", width, width, size, size, 3, &mut rng)),
        Box::new(Activation::relu("relu2")),
        Box::new(Linear::new("head", width * size * size, classes, &mut rng)),
    ];
    Sequential::new(name, layers)
}

/// Splits a model into `n` contiguous pipeline stages, balancing parameter
/// counts greedily (first-fit against the ideal per-stage share, mirroring
/// Megatron-style layer partitioning).
///
/// # Panics
/// Panics when there are fewer layers than stages.
pub fn split_stages(model: Sequential, n: usize) -> Vec<Sequential> {
    assert!(n >= 1);
    let name = model.name().to_string();
    let mut layers = model.into_layers();
    assert!(
        layers.len() >= n,
        "fewer layers ({}) than stages ({n})",
        layers.len()
    );
    let counts: Vec<usize> = layers.iter().map(|l| l.param_count()).collect();
    let param_layers: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();

    let boundaries = if param_layers.len() >= n {
        // Balance over *parameter-bearing* layers so every stage holds
        // trainable state (a parameterless stage would make its recovery
        // vacuous); parameter-free layers (activations, dropout) attach to
        // the stage of the preceding parameterized layer.
        let weights: Vec<f64> = param_layers.iter().map(|&i| counts[i] as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut prefix = vec![0f64; weights.len() + 1];
        for (i, &w) in weights.iter().enumerate() {
            prefix[i + 1] = prefix[i] + w;
        }
        let mut bounds = vec![0usize];
        let mut start = 0usize;
        for j in 0..n - 1 {
            let target = total * (j + 1) as f64 / n as f64;
            let max_end = weights.len() - (n - 1 - j);
            let mut end = (start + 1).min(max_end);
            while end < max_end && prefix[end] < target {
                end += 1;
            }
            // Stage boundary sits right before the group's first
            // parameterized layer.
            bounds.push(param_layers[end]);
            start = end;
        }
        bounds.push(counts.len());
        bounds
    } else {
        // Too few parameterized layers: fall back to balancing raw layer
        // counts (still ≥1 layer per stage).
        let mut bounds = vec![0usize];
        for j in 1..n {
            bounds.push(j * counts.len() / n);
        }
        bounds.push(counts.len());
        // De-duplicate degenerate boundaries.
        for j in 1..bounds.len() {
            if bounds[j] <= bounds[j - 1] {
                bounds[j] = bounds[j - 1] + 1;
            }
        }
        bounds
    };
    let mut stages = Vec::with_capacity(n);
    for (i, window) in boundaries.windows(2).enumerate().rev() {
        let tail = layers.split_off(window[0]);
        stages.push((i, tail));
    }
    stages.reverse();
    stages
        .into_iter()
        .map(|(i, ls)| Sequential::new(format!("{name}/stage{i}"), ls))
        .collect()
}

impl Sequential {
    /// Consumes the model, yielding its layers (used by stage splitting).
    pub fn into_layers(self) -> Vec<Box<dyn Layer>> {
        self.into_parts().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{accuracy, softmax_cross_entropy};
    use swift_data::{BlobsDataset, Dataset};
    use swift_optim::OptimizerKind;
    use swift_tensor::tensor::without_init_draws;

    #[test]
    fn mlp_learns_blobs() {
        let ds = BlobsDataset::new(0, 8, 3, 0.3);
        let mut model = mlp("m", &[8, 32, 3], 42);
        let mut opt = OptimizerKind::SgdMomentum {
            lr: 0.05,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        }
        .build();
        let mut last_acc = 0.0;
        for it in 0..60 {
            let batch = ds.batch(it, 32);
            let ctx = StepCtx::new(it, 0);
            let logits = model.forward(ctx, &batch.x, Mode::Train);
            let (_, grad) = softmax_cross_entropy(&logits, &batch.y);
            model.backward(ctx, &grad);
            model.optimizer_step(opt.as_mut());
            model.zero_grads();
            last_acc = accuracy(&logits, &batch.y);
        }
        assert!(last_acc > 0.9, "MLP failed to learn blobs: acc {last_acc}");
    }

    #[test]
    fn vit_tiny_learns_blobs() {
        use swift_optim::OptimizerKind;
        let ds = BlobsDataset::new(2, 24, 3, 0.3); // 4 tokens × 6 dims
        let mut model = vit_tiny("vit", 4, 6, 16, 2, 3, 0.0, 21);
        let mut opt = OptimizerKind::Adam {
            lr: 3e-3,
            weight_decay: 0.0,
        }
        .build();
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..50 {
            let b = ds.batch(it, 16);
            let ctx = StepCtx::new(it, 0);
            let y = model.forward(ctx, &b.x, Mode::Train);
            let (l, g) = softmax_cross_entropy(&y, &b.y);
            model.backward(ctx, &g);
            model.optimizer_step(opt.as_mut());
            model.zero_grads();
            if it == 0 {
                first = l;
            }
            last = l;
        }
        assert!(
            last < 0.5 * first,
            "transformer failed to learn: {first} -> {last}"
        );
    }

    #[test]
    fn bert_tiny_learns_markov_stream() {
        use swift_data::TokenDataset;
        use swift_optim::OptimizerKind;
        let ds = TokenDataset::new(5, 8, 3, 0.95);
        let mut model = bert_tiny("bert", 3, 8, 16, 2, 0.0, 22);
        let mut opt = OptimizerKind::Adam {
            lr: 3e-3,
            weight_decay: 0.0,
        }
        .build();
        let mut accs = Vec::new();
        for it in 0..150 {
            let b = ds.batch(it, 16);
            let ctx = StepCtx::new(it, 0);
            let y = model.forward(ctx, &b.x, Mode::Train);
            let (_, g) = softmax_cross_entropy(&y, &b.y);
            accs.push(accuracy(&y, &b.y));
            model.backward(ctx, &g);
            model.optimizer_step(opt.as_mut());
            model.zero_grads();
        }
        let late: f32 = accs[140..].iter().sum::<f32>() / 10.0;
        let early: f32 = accs[..10].iter().sum::<f32>() / 10.0;
        assert!(
            late > 0.7 && late > early + 0.3,
            "BERT-tiny should learn the Markov chain: early {early}, late {late}"
        );
    }

    #[test]
    fn vit_tiny_builds_and_runs() {
        let mut m = vit_tiny("vit", 4, 6, 8, 2, 5, 0.1, 1);
        let ctx = StepCtx::new(0, 0);
        let x = Tensor::ones([2, 24]);
        let y = m.forward(ctx, &x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 5]);
        let dx = m.backward(ctx, &Tensor::ones([2, 5]));
        assert_eq!(dx.shape().dims(), &[2, 24]);
    }

    #[test]
    fn bert_tiny_builds_and_runs() {
        let mut m = bert_tiny("bert", 3, 12, 8, 2, 0.0, 2);
        let ctx = StepCtx::new(0, 0);
        let x = Tensor::zeros([2, 36]);
        let y = m.forward(ctx, &x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 12]);
    }

    #[test]
    fn wrn_tiny_activation_heavy() {
        let m = wide_resnet_tiny("wrn", 8, 16, 10, 3);
        // CNN stand-in: activations (B·width·size²) dominate weights for
        // moderate batch — the §5.4 "logging unsuitable" profile.
        let act_elems_per_example = 16 * 8 * 8;
        assert!(act_elems_per_example * 64 > m.param_count() / 2);
    }

    #[test]
    fn stage_split_preserves_structure() {
        let m = vit_tiny("vit", 4, 6, 8, 4, 5, 0.0, 4);
        let n_layers = m.len();
        let total_params = m.param_count();
        let stages = split_stages(m, 4);
        assert_eq!(stages.len(), 4);
        assert_eq!(stages.iter().map(|s| s.len()).sum::<usize>(), n_layers);
        assert_eq!(
            stages.iter().map(|s| s.param_count()).sum::<usize>(),
            total_params
        );
        assert!(stages.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn stage_split_forward_equals_monolithic() {
        let mut mono = vit_tiny("vit", 4, 6, 8, 2, 5, 0.0, 5);
        let mut stages = split_stages(vit_tiny("vit", 4, 6, 8, 2, 5, 0.0, 5), 3);
        let ctx = StepCtx::new(0, 0);
        let x = Tensor::randn([2, 24], 0.0, 1.0, &mut CounterRng::new(9, 9));
        let y_mono = mono.forward(ctx, &x, Mode::Eval);
        let mut h = x.clone();
        for s in &mut stages {
            h = s.forward(ctx, &h, Mode::Eval);
        }
        assert!(
            h.bit_eq(&y_mono),
            "staged forward must be bitwise identical"
        );
    }

    #[test]
    fn stage_split_gives_every_stage_parameters() {
        // An MLP with 3 linears split 3 ways: each stage must hold
        // trainable state (no vacuous ReLU-only stages).
        for n in [2usize, 3] {
            let stages = split_stages(mlp("m", &[8, 24, 24, 3], 1), n);
            for (i, s) in stages.iter().enumerate() {
                assert!(
                    s.param_count() > 0,
                    "{n}-way split: stage {i} has no parameters"
                );
            }
        }
        let stages = split_stages(vit_tiny("v", 4, 6, 8, 4, 5, 0.0, 2), 4);
        for (i, s) in stages.iter().enumerate() {
            assert!(s.param_count() > 0, "vit stage {i} has no parameters");
        }
    }

    #[test]
    fn stage_split_one_stage_is_identity() {
        let m = mlp("m", &[4, 8, 2], 6);
        let n = m.len();
        let stages = split_stages(m, 1);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].len(), n);
    }

    #[test]
    #[should_panic(expected = "fewer layers")]
    fn too_many_stages_panics() {
        split_stages(mlp("m", &[4, 2], 7), 5);
    }

    /// One model from every constructor in this file.
    fn every_model(seed: u64) -> Vec<Sequential> {
        vec![
            mlp("m", &[6, 12, 3], seed),
            vit_tiny("vit", 4, 6, 8, 2, 5, 0.1, seed),
            bert_tiny("bert", 3, 12, 8, 2, 0.1, seed),
            wide_resnet_tiny("wrn", 8, 4, 10, seed),
        ]
    }

    fn states(models: &[Sequential]) -> Vec<crate::ModelState> {
        models.iter().map(Sequential::state).collect()
    }

    fn assert_states_bit_eq(got: &[crate::ModelState], want: &[crate::ModelState], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.bit_eq(w),
                "{what}: model {i} differs from the seeded build"
            );
        }
    }

    #[test]
    fn builds_without_draws_keep_the_layout_and_zero_every_draw() {
        let seeded = every_model(7);
        let reseeded = every_model(8);
        let shaped = without_init_draws(|| every_model(7));
        for ((s, r), z) in seeded.iter().zip(&reseeded).zip(&shaped) {
            let layout = |m: &Sequential| -> Vec<(String, Vec<usize>)> {
                m.named_params()
                    .map(|(name, p)| (name, p.shape().dims().to_vec()))
                    .collect()
            };
            assert_eq!(layout(z), layout(s), "{}", s.name());
            let mut drawn = 0;
            for ((name, sp), ((_, rp), (_, zp))) in
                s.named_params().zip(r.named_params().zip(z.named_params()))
            {
                if sp.bit_eq(rp) {
                    // Not drawn (a layer norm's γ = 1 and β = 0): the
                    // scope leaves constant initializers alone.
                    assert!(zp.bit_eq(sp), "{name}: constant init changed");
                } else {
                    drawn += 1;
                    assert!(
                        zp.data().iter().all(|v| v.to_bits() == 0),
                        "{name}: a draw inside the scope is not +0.0"
                    );
                }
            }
            assert!(drawn > 0, "{} draws nothing", s.name());
        }
    }

    #[test]
    fn builds_after_the_scope_draw_again_even_after_a_panic() {
        let never = states(&every_model(7));
        drop(without_init_draws(|| every_model(7)));
        assert_states_bit_eq(&states(&every_model(7)), &never, "after the scope");
        let unwound = std::panic::catch_unwind(|| {
            without_init_draws(|| {
                let _half_built = every_model(7);
                panic!("build aborted inside the scope");
            })
        });
        assert!(unwound.is_err());
        assert_states_bit_eq(&states(&every_model(7)), &never, "after a panic");
    }

    #[test]
    fn other_threads_draw_while_one_is_inside_the_scope() {
        let seeded = states(&every_model(7));
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (built_tx, built_rx) = std::sync::mpsc::channel();
        let holder = std::thread::spawn(move || {
            without_init_draws(|| {
                entered_tx.send(()).unwrap();
                built_rx.recv().unwrap();
                states(&every_model(7))
            })
        });
        entered_rx.recv().unwrap();
        let elsewhere = states(&every_model(7));
        built_tx.send(()).unwrap();
        let inside = holder.join().unwrap();
        assert_states_bit_eq(&elsewhere, &seeded, "built on another thread");
        assert!(
            !inside[0].bit_eq(&seeded[0]),
            "the holder's own build inside the scope must not draw"
        );
    }
}
