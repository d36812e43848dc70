//! Gaussian-blob classification data (vision stand-in).

use std::ops::Range;

use crate::{Batch, Dataset};
use swift_tensor::{pool, CounterRng, Tensor};

/// Gaussian class clusters in `dim` dimensions: class `c` is centred at a
/// deterministic random point, examples are `center + noise`.
///
/// With `noise_std` well below the inter-center distance the task is
/// cleanly learnable by a small MLP, which is all the accuracy experiments
/// need.
#[derive(Debug, Clone)]
pub struct BlobsDataset {
    seed: u64,
    dim: usize,
    classes: usize,
    noise_std: f32,
    centers: Vec<Tensor>,
}

impl BlobsDataset {
    /// Creates a blob dataset with deterministic class centers.
    pub fn new(seed: u64, dim: usize, classes: usize, noise_std: f32) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(dim >= 1);
        let centers = (0..classes)
            .map(|c| {
                let mut rng = CounterRng::new(seed, 0xB10B_0000 + c as u64);
                Tensor::randn([dim], 0.0, 2.0, &mut rng)
            })
            .collect();
        BlobsDataset {
            seed,
            dim,
            classes,
            noise_std,
            centers,
        }
    }

    /// Class center `c`.
    pub fn center(&self, c: usize) -> &Tensor {
        &self.centers[c]
    }

    /// The random stream of example `ex` of batch `index`: keyed by both,
    /// so every example is a pure function of its coordinates.
    fn stream(&self, index: u64, ex: usize) -> CounterRng {
        CounterRng::new(self.seed, index.wrapping_mul(1_000_003) + ex as u64)
    }
}

impl Dataset for BlobsDataset {
    fn feature_dim(&self) -> usize {
        self.dim
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn examples(&self, index: u64, range: Range<usize>) -> Batch {
        let n = range.len();
        let mut data = pool::take_f32_raw(n * self.dim);
        let mut y = Vec::with_capacity(n);
        for ex in range {
            let mut rng = self.stream(index, ex);
            let class = rng.below(self.classes as u64) as usize;
            let center = &self.centers[class];
            data.extend(
                center
                    .data()
                    .iter()
                    .map(|&c| c + self.noise_std * rng.normal()),
            );
            y.push(class);
        }
        Batch {
            x: Tensor::from_vec([n, self.dim], data),
            y,
        }
    }

    fn labels(&self, index: u64, range: Range<usize>) -> Vec<usize> {
        // The class is each stream's first draw.
        range
            .map(|ex| self.stream(index, ex).below(self.classes as u64) as usize)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic() {
        let ds = BlobsDataset::new(7, 8, 4, 0.3);
        let a = ds.batch(12, 16);
        let b = ds.batch(12, 16);
        assert!(a.x.bit_eq(&b.x));
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn different_batches_differ() {
        let ds = BlobsDataset::new(7, 8, 4, 0.3);
        let a = ds.batch(0, 16);
        let b = ds.batch(1, 16);
        assert!(!a.x.bit_eq(&b.x));
    }

    #[test]
    fn labels_in_range_and_mixed() {
        let ds = BlobsDataset::new(3, 4, 3, 0.1);
        let b = ds.batch(0, 256);
        assert!(b.y.iter().all(|&c| c < 3));
        let distinct: std::collections::HashSet<_> = b.y.iter().collect();
        assert!(
            distinct.len() >= 2,
            "labels should be mixed in a large batch"
        );
    }

    #[test]
    fn examples_cluster_near_centers() {
        let ds = BlobsDataset::new(5, 6, 2, 0.05);
        let b = ds.batch(0, 64);
        for (i, &cls) in b.y.iter().enumerate() {
            let center = ds.center(cls);
            let mut dist2 = 0.0f32;
            for d in 0..6 {
                let delta = b.x.at(&[i, d]) - center.data()[d];
                dist2 += delta * delta;
            }
            assert!(dist2.sqrt() < 1.0, "example {i} too far from its center");
        }
    }

    #[test]
    fn shapes_match_request() {
        let ds = BlobsDataset::new(1, 10, 2, 0.1);
        let b = ds.batch(0, 5);
        assert_eq!(b.x.shape().dims(), &[5, 10]);
        assert_eq!(b.len(), 5);
        assert_eq!(ds.feature_dim(), 10);
        assert_eq!(ds.num_classes(), 2);
    }
}
