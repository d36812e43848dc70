//! Micro-batch splitting and data-parallel sharding.
//!
//! Pipeline parallelism splits a mini-batch into `m` micro-batches (paper
//! §2.1); data parallelism shards it across replicas. Both transforms must
//! be deterministic and exhaustive — every example lands in exactly one
//! shard/micro-batch — so a recovered worker replaying iteration `i`
//! processes exactly the examples the failed worker did. One rule,
//! [`part_range`], says which examples each part holds; a consumer that
//! needs only its own part generates just that range with
//! [`Dataset::examples`](crate::Dataset::examples).

use std::ops::Range;

use crate::Batch;
use swift_tensor::{pool, Tensor};

/// A micro-batch: a contiguous slice of a mini-batch, tagged with its
/// position for replay ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBatch {
    /// Index of this micro-batch within its mini-batch (0-based).
    pub index: usize,
    /// The examples.
    pub batch: Batch,
}

/// The examples that part `part` of `parts` holds when an `n`-example
/// batch is split in order into parts of (near-)equal size: part `p` holds
/// `n / parts + (p < n % parts)` examples, so the first `n % parts` parts
/// get one extra example.
///
/// # Panics
/// Panics when `parts` is zero, `part ≥ parts`, or `parts` exceeds `n`
/// (some part would be empty).
pub fn part_range(n: usize, part: usize, parts: usize) -> Range<usize> {
    assert!(parts >= 1 && part < parts, "part {part} of {parts}");
    assert!(parts <= n, "more parts than examples");
    let base = n / parts;
    let extra = n % parts;
    let start = part * base + part.min(extra);
    start..start + base + usize::from(part < extra)
}

/// Splits a batch into `m` micro-batches of (near-)equal size, preserving
/// example order; micro-batch `p` holds [`part_range`]`(len, p, m)`.
///
/// # Panics
/// Panics when `m` is zero or exceeds the batch size.
pub fn split_microbatches(batch: &Batch, m: usize) -> Vec<MicroBatch> {
    assert!(m >= 1, "need at least one micro-batch");
    assert!(m <= batch.len(), "more micro-batches than examples");
    (0..m)
        .map(|index| MicroBatch {
            index,
            batch: rows(batch, part_range(batch.len(), index, m)),
        })
        .collect()
}

/// Shards a batch across `world` data-parallel replicas; `rank` receives
/// the `rank`-th contiguous shard, [`part_range`]`(len, rank, world)`.
pub fn shard_batch(batch: &Batch, rank: usize, world: usize) -> Batch {
    assert!(world >= 1 && rank < world);
    assert!(world <= batch.len(), "more replicas than examples");
    rows(batch, part_range(batch.len(), rank, world))
}

/// Examples `r` of `batch`, copied into a pooled buffer.
fn rows(batch: &Batch, r: Range<usize>) -> Batch {
    let dim = batch.x.shape().dims()[1];
    let data = pool::take_f32_copy(&batch.x.data()[r.start * dim..r.end * dim]);
    Batch {
        x: Tensor::from_vec([r.len(), dim], data),
        y: batch.y[r].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlobsDataset, Dataset, TokenDataset};

    fn sample(n: usize) -> Batch {
        BlobsDataset::new(1, 3, 2, 0.1).batch(0, n)
    }

    /// The split rule written out as a walk over the parts: part `p` holds
    /// the next `n / parts + (p < n % parts)` examples.
    fn walked_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
        let mut start = 0;
        (0..parts)
            .map(|p| {
                let len = n / parts + usize::from(p < n % parts);
                start += len;
                start - len..start
            })
            .collect()
    }

    /// A rank that generates only its part gets the bits of that part of
    /// the whole batch, from either dataset, at every split: as a
    /// micro-batch, as a DP shard, and (labels alone) as the loss's
    /// targets.
    #[test]
    fn examples_equal_the_matching_part_of_the_whole_batch() {
        let blobs = BlobsDataset::new(4, 5, 3, 0.3);
        let tokens = TokenDataset::new(9, 6, 3, 0.8);
        for ds in [&blobs as &dyn Dataset, &tokens] {
            for n in [1, 5, 8, 10, 32] {
                let index = 3 + n as u64;
                let whole = ds.batch(index, n);
                for parts in 1..=n.min(5) {
                    let mbs = split_microbatches(&whole, parts);
                    for (p, r) in walked_ranges(n, parts).into_iter().enumerate() {
                        assert_eq!(part_range(n, p, parts), r, "n {n}, part {p} of {parts}");
                        let own = ds.examples(index, r.clone());
                        for part in [&mbs[p].batch, &shard_batch(&whole, p, parts)] {
                            assert!(own.x.bit_eq(&part.x), "n {n}, part {p} of {parts}");
                            assert_eq!(own.y, part.y, "n {n}, part {p} of {parts}");
                            assert_eq!(ds.labels(index, r.clone()), part.y);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "more parts than examples")]
    fn part_range_rejects_empty_parts() {
        part_range(3, 0, 4);
    }

    #[test]
    fn microbatches_partition_exhaustively() {
        let b = sample(10);
        let mbs = split_microbatches(&b, 4);
        assert_eq!(mbs.len(), 4);
        let sizes: Vec<usize> = mbs.iter().map(|m| m.batch.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // Reassemble and compare.
        let mut ys = Vec::new();
        for m in &mbs {
            ys.extend_from_slice(&m.batch.y);
        }
        assert_eq!(ys, b.y);
    }

    #[test]
    fn even_split_sizes() {
        let b = sample(8);
        let mbs = split_microbatches(&b, 4);
        assert!(mbs.iter().all(|m| m.batch.len() == 2));
        assert_eq!(mbs[3].index, 3);
    }

    #[test]
    fn shards_are_disjoint_and_cover() {
        let b = sample(9);
        let mut seen = Vec::new();
        for rank in 0..3 {
            let s = shard_batch(&b, rank, 3);
            seen.extend_from_slice(&s.y);
        }
        assert_eq!(seen, b.y);
    }

    #[test]
    fn shard_features_match_source() {
        let b = sample(6);
        let s = shard_batch(&b, 1, 2);
        assert_eq!(s.len(), 3);
        for i in 0..3 {
            for d in 0..3 {
                assert_eq!(s.x.at(&[i, d]), b.x.at(&[i + 3, d]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "more micro-batches than examples")]
    fn too_many_microbatches_panics() {
        split_microbatches(&sample(2), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{BlobsDataset, Dataset};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn microbatches_always_partition(n in 1usize..64, m_frac in 0.01f64..1.0) {
            let m = ((n as f64 * m_frac).ceil() as usize).clamp(1, n);
            let b = BlobsDataset::new(0, 4, 3, 0.2).batch(1, n);
            let mbs = split_microbatches(&b, m);
            prop_assert_eq!(mbs.len(), m);
            let total: usize = mbs.iter().map(|x| x.batch.len()).sum();
            prop_assert_eq!(total, n);
            // Sizes differ by at most one, ordered largest-first.
            let sizes: Vec<usize> = mbs.iter().map(|x| x.batch.len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(hi - lo <= 1);
            // Order of examples preserved.
            let mut ys = Vec::new();
            for mb in &mbs { ys.extend_from_slice(&mb.batch.y); }
            prop_assert_eq!(ys, b.y);
        }

        #[test]
        fn shards_always_partition(n in 1usize..64, w_frac in 0.01f64..1.0) {
            let world = ((n as f64 * w_frac).ceil() as usize).clamp(1, n);
            let b = BlobsDataset::new(1, 3, 2, 0.2).batch(2, n);
            let mut all = Vec::new();
            for r in 0..world {
                all.extend_from_slice(&shard_batch(&b, r, world).y);
            }
            prop_assert_eq!(all, b.y);
        }
    }
}
