//! Deterministic Markov token stream (language-model stand-in).

use std::ops::Range;

use crate::{Batch, Dataset};
use swift_tensor::{pool, CounterRng, Tensor};

/// A synthetic next-token-prediction task over a small vocabulary.
///
/// Tokens follow a deterministic random Markov chain: each token has a
/// "preferred" successor chosen with high probability, so the conditional
/// entropy is low and a small transformer/MLP can learn the transition
/// table. Inputs are one-hot context windows flattened to
/// `[batch, context × vocab]`; the target is the next token.
#[derive(Debug, Clone)]
pub struct TokenDataset {
    seed: u64,
    vocab: usize,
    context: usize,
    /// P(preferred successor); the rest of the mass is uniform.
    fidelity: f32,
    successor: Vec<usize>,
}

impl TokenDataset {
    /// Creates the dataset; `fidelity` is the probability of taking the
    /// preferred transition (e.g. 0.9).
    pub fn new(seed: u64, vocab: usize, context: usize, fidelity: f32) -> Self {
        assert!(vocab >= 2 && context >= 1);
        assert!((0.0..=1.0).contains(&fidelity));
        let mut rng = CounterRng::new(seed, 0x70C3);
        // A random permutation-ish successor table (self-loops allowed but
        // rerolled once to keep chains moving).
        let successor = (0..vocab)
            .map(|t| {
                let mut s = rng.below(vocab as u64) as usize;
                if s == t {
                    s = (s + 1) % vocab;
                }
                s
            })
            .collect();
        TokenDataset {
            seed,
            vocab,
            context,
            fidelity,
            successor,
        }
    }

    /// The preferred successor of token `t`.
    pub fn preferred_successor(&self, t: usize) -> usize {
        self.successor[t]
    }

    /// Walks example `ex` of batch `index` along the chain: calls
    /// `visit(pos, token)` for each context position and returns the
    /// target, the token after the window.
    fn walk(&self, index: u64, ex: usize, mut visit: impl FnMut(usize, usize)) -> usize {
        // Stream keyed by (batch index, example index): pure function.
        let mut rng = CounterRng::new(self.seed, index.wrapping_mul(999_983) + ex as u64);
        let mut tok = rng.below(self.vocab as u64) as usize;
        for pos in 0..self.context {
            visit(pos, tok);
            tok = if rng.bernoulli(self.fidelity) {
                self.successor[tok]
            } else {
                rng.below(self.vocab as u64) as usize
            };
        }
        tok
    }
}

impl Dataset for TokenDataset {
    fn feature_dim(&self) -> usize {
        self.context * self.vocab
    }

    fn num_classes(&self) -> usize {
        self.vocab
    }

    fn examples(&self, index: u64, range: Range<usize>) -> Batch {
        let dim = self.feature_dim();
        let n = range.len();
        let mut data = pool::take_f32(n * dim);
        let mut y = Vec::with_capacity(n);
        for (row, ex) in data.chunks_exact_mut(dim).zip(range) {
            y.push(self.walk(index, ex, |pos, tok| row[pos * self.vocab + tok] = 1.0));
        }
        Batch {
            x: Tensor::from_vec([n, dim], data),
            y,
        }
    }

    fn labels(&self, index: u64, range: Range<usize>) -> Vec<usize> {
        range.map(|ex| self.walk(index, ex, |_, _| {})).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_batches() {
        let ds = TokenDataset::new(11, 16, 4, 0.9);
        let a = ds.batch(5, 8);
        let b = ds.batch(5, 8);
        assert!(a.x.bit_eq(&b.x));
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn one_hot_structure() {
        let ds = TokenDataset::new(11, 8, 3, 0.9);
        let b = ds.batch(0, 4);
        // Each context position contributes exactly one hot unit.
        for ex in 0..4 {
            for pos in 0..3 {
                let row: f32 = (0..8).map(|v| b.x.at(&[ex, pos * 8 + v])).sum();
                assert_eq!(row, 1.0, "one-hot violated at ex {ex} pos {pos}");
            }
        }
    }

    #[test]
    fn high_fidelity_chains_follow_successors() {
        let ds = TokenDataset::new(2, 8, 2, 1.0);
        let b = ds.batch(0, 32);
        for ex in 0..32 {
            // Find last context token and check target is its successor.
            let last = (0..8).find(|&v| b.x.at(&[ex, 8 + v]) == 1.0).unwrap();
            assert_eq!(b.y[ex], ds.preferred_successor(last));
        }
    }

    #[test]
    fn targets_in_vocab() {
        let ds = TokenDataset::new(4, 10, 5, 0.5);
        let b = ds.batch(9, 64);
        assert!(b.y.iter().all(|&t| t < 10));
    }
}
