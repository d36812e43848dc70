//! Token embedding: table lookup with scatter-add backward.
//!
//! Input tokens are ids encoded as floats (`[B, S]`, each value an integer
//! in `[0, vocab)`); the output stacks the looked-up rows to `[B, S·H]`.
//! Unlike one-hot × matmul (`TokenLinear`), the lookup touches only the
//! rows actually used — the memory-access pattern of real LM embeddings,
//! and the access pattern Check-N-Run-style incremental checkpointing
//! exploits (paper §8's recommendation-model discussion).

use swift_tensor::{CounterRng, Tensor};

use crate::layer::{ActivationCache, Layer, Mode, StepCtx};

/// A learned embedding table `[vocab, hidden]`.
#[derive(Debug)]
pub struct Embedding {
    name: String,
    vocab: usize,
    hidden: usize,
    /// `[table]` — contiguous so [`Layer::params`] borrows.
    params: [Tensor; 1],
    /// `[grad_table]`, aligned with `params`.
    grads: [Tensor; 1],
    cache_ids: ActivationCache,
}

impl Embedding {
    /// Creates an embedding with N(0, 0.02) initialization (BERT-style).
    pub fn new(name: impl Into<String>, vocab: usize, hidden: usize, rng: &mut CounterRng) -> Self {
        Embedding {
            name: name.into(),
            vocab,
            hidden,
            params: [Tensor::randn([vocab, hidden], 0.0, 0.02, rng)],
            grads: [Tensor::zeros([vocab, hidden])],
            cache_ids: ActivationCache::new(),
        }
    }

    /// The embedding table `[vocab, hidden]`.
    pub fn table(&self) -> &Tensor {
        &self.params[0]
    }

    /// Mutable table access.
    pub fn table_mut(&mut self) -> &mut Tensor {
        &mut self.params[0]
    }

    /// The accumulated table gradient.
    pub fn grad_table(&self) -> &Tensor {
        &self.grads[0]
    }

    /// Rows of the table that iteration's batch actually touched — the
    /// sparsity incremental checkpointing exploits.
    pub fn touched_rows(ids: &Tensor) -> std::collections::BTreeSet<usize> {
        ids.data().iter().map(|&v| v as usize).collect()
    }
}

impl Layer for Embedding {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        let n = input.numel(); // B·S token ids
        let (b, s) = input.shape().as_matrix();
        let mut out = vec![0.0f32; n * self.hidden];
        for (i, &idf) in input.data().iter().enumerate() {
            let id = idf as usize;
            assert!(
                id < self.vocab && idf.fract() == 0.0 && idf >= 0.0,
                "token id {idf} invalid for vocab {}",
                self.vocab
            );
            out[i * self.hidden..(i + 1) * self.hidden]
                .copy_from_slice(&self.params[0].data()[id * self.hidden..(id + 1) * self.hidden]);
        }
        if mode == Mode::Train {
            self.cache_ids.put(ctx, input.clone());
        }
        Tensor::from_vec([b, s * self.hidden], out)
    }

    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        let ids = self.cache_ids.take(ctx);
        for (i, &idf) in ids.data().iter().enumerate() {
            let id = idf as usize;
            let g = &grad_out.data()[i * self.hidden..(i + 1) * self.hidden];
            let row = &mut self.grads[0].data_mut()[id * self.hidden..(id + 1) * self.hidden];
            for (r, &gv) in row.iter_mut().zip(g.iter()) {
                *r += gv;
            }
        }
        // Token ids have no gradient; return zeros of the input shape.
        Tensor::zeros(*ids.shape())
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
        self.cache_ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb() -> Embedding {
        let mut rng = CounterRng::new(1, 0);
        Embedding::new("e", 6, 4, &mut rng)
    }

    #[test]
    fn forward_looks_up_rows() {
        let mut e = emb();
        let ids = Tensor::from_vec([1, 3], vec![2.0, 0.0, 2.0]);
        let y = e.forward(StepCtx::new(0, 0), &ids, Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 12]);
        let row2 = &e.table().data()[8..12];
        assert_eq!(&y.data()[0..4], row2);
        assert_eq!(&y.data()[8..12], row2, "repeated token reuses the row");
        assert_eq!(&y.data()[4..8], &e.table().data()[0..4]);
    }

    #[test]
    fn backward_scatter_adds() {
        let mut e = emb();
        let ctx = StepCtx::new(0, 0);
        let ids = Tensor::from_vec([1, 3], vec![2.0, 0.0, 2.0]);
        e.forward(ctx, &ids, Mode::Train);
        let dy = Tensor::ones([1, 12]);
        e.backward(ctx, &dy);
        // Row 2 appears twice → gradient 2.0 per element; row 0 once.
        assert!(e.grad_table().data()[8..12].iter().all(|&v| v == 2.0));
        assert!(e.grad_table().data()[0..4].iter().all(|&v| v == 1.0));
        // Untouched rows stay zero.
        assert!(e.grad_table().data()[4..8].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matches_one_hot_matmul() {
        // Lookup must equal one-hot × table.
        let mut e = emb();
        let ids = Tensor::from_vec([2, 2], vec![1.0, 3.0, 5.0, 0.0]);
        let y = e.forward(StepCtx::new(0, 0), &ids, Mode::Eval);
        for (i, &idf) in ids.data().iter().enumerate() {
            let id = idf as usize;
            let expect = &e.table().data()[id * 4..(id + 1) * 4];
            assert_eq!(&y.data()[i * 4..(i + 1) * 4], expect);
        }
    }

    #[test]
    fn touched_rows_sparsity() {
        let ids = Tensor::from_vec([2, 3], vec![1.0, 1.0, 4.0, 0.0, 4.0, 4.0]);
        let touched = Embedding::touched_rows(&ids);
        assert_eq!(touched.into_iter().collect::<Vec<_>>(), vec![0, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "invalid for vocab")]
    fn out_of_vocab_rejected() {
        let mut e = emb();
        e.forward(
            StepCtx::new(0, 0),
            &Tensor::from_vec([1, 1], vec![9.0]),
            Mode::Eval,
        );
    }

    #[test]
    fn trains_with_optimizer_and_undo() {
        use swift_optim::OptimizerKind;
        let mut e = emb();
        let ctx = StepCtx::new(0, 0);
        let ids = Tensor::from_vec([1, 2], vec![1.0, 3.0]);
        e.forward(ctx, &ids, Mode::Train);
        e.backward(ctx, &Tensor::ones([1, 8]));
        let before = e.table().clone();
        let mut opt = OptimizerKind::SgdMomentum {
            lr: 0.1,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        }
        .build();
        let g = e.grad_table().clone();
        opt.step(
            std::slice::from_mut(e.table_mut()),
            std::slice::from_ref(&g),
        );
        assert!(e.table().max_abs_diff(&before) > 0.0);
        opt.undo(
            std::slice::from_mut(e.table_mut()),
            std::slice::from_ref(&g),
        )
        .unwrap();
        assert!(
            e.table().max_abs_diff(&before) < 1e-6,
            "embedding update is undoable too"
        );
    }
}
