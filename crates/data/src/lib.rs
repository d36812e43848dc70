//! # swift-data
//!
//! Deterministic synthetic datasets standing in for the paper's
//! ImageNet / Wikipedia / SQuAD / CIFAR-100 workloads.
//!
//! The end-to-end experiments (paper Fig. 11) only need a *learnable* task
//! to demonstrate that update-undo and logging-based recovery leave the
//! training trajectory unchanged; the statistics of the specific corpus are
//! irrelevant to the fault-tolerance mechanisms. Two task families cover
//! the paper's two model classes:
//!
//! - [`BlobsDataset`] — Gaussian class clusters (vision stand-in),
//! - [`TokenDataset`] — a deterministic Markov token stream (language
//!   stand-in).
//!
//! All sampling is counter-based, and the unit of generation is the
//! example: example `e` of batch `i` is a pure function of `(seed, i, e)`,
//! drawn from its own random stream. So every data-parallel worker — and
//! every *recovered* worker replaying iteration `i` — sees exactly the same
//! bytes (paper §6's determinism requirement, applied to the input
//! pipeline), and a rank generates only the examples it consumes:
//! [`Dataset::examples`] over a micro-batch's or a shard's [`part_range`]
//! is bitwise equal to the same rows sliced from the whole batch.

pub mod blobs;
pub mod microbatch;
pub mod tokens;

pub use blobs::BlobsDataset;
pub use microbatch::{part_range, shard_batch, split_microbatches, MicroBatch};
pub use tokens::TokenDataset;

use std::ops::Range;

use swift_tensor::Tensor;

/// A labelled batch: features `[batch, features]` (or token ids encoded as
/// one-hot rows) and integer class targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Input features, `[batch_size, feature_dim]`.
    pub x: Tensor,
    /// Target class per example.
    pub y: Vec<usize>,
}

impl Batch {
    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the batch holds no examples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// A deterministic dataset: example `e` of batch `index` is a pure
/// function of the dataset's seed, `index` and `e`, and does not depend on
/// how many examples are generated with it. Hence examples `r` of batch
/// `index` are bitwise equal to rows `r` of `batch(index, n)` for every
/// `n ≥ r.end`, and a rank that consumes one micro-batch or one shard
/// generates exactly those examples and no others.
pub trait Dataset: Send + Sync {
    /// Feature dimensionality of `x`.
    fn feature_dim(&self) -> usize;

    /// Number of target classes.
    fn num_classes(&self) -> usize;

    /// Materializes examples `range` of batch `index`, in order.
    fn examples(&self, index: u64, range: Range<usize>) -> Batch;

    /// The targets of examples `range` of batch `index`: always equal to
    /// `self.examples(index, range).y`, which is what the default
    /// computes. Datasets that can draw a target without its features
    /// override it.
    fn labels(&self, index: u64, range: Range<usize>) -> Vec<usize> {
        self.examples(index, range).y
    }

    /// Materializes batch `index` with `batch_size` examples:
    /// `examples(index, 0..batch_size)`.
    fn batch(&self, index: u64, batch_size: usize) -> Batch {
        self.examples(index, 0..batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_len() {
        let b = Batch {
            x: Tensor::zeros([4, 2]),
            y: vec![0, 1, 0, 1],
        };
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }
}
