//! Gradient bucketing with backward overlap (PyTorch-DDP style).
//!
//! [`GradBucketer`] coalesces consecutive parameter groups into
//! size-capped buckets assigned in *reverse* group order — the order
//! backward completes them — so the last bucket to be assigned (the
//! earliest layers) is the last one whose gradients become available.
//! [`BucketedAllreduce`] streams each group's contribution to the root
//! the moment its backward finishes, overlapping the transfer with the
//! remaining backward compute; the *bucket* is the synchronization,
//! result, and update granularity: one tag, one result message, and one
//! update callback per bucket, drained in launch order. It reduces
//! straight into the caller's per-group gradient tensors, and the root
//! ships each bucket's result before it applies that bucket itself.
//!
//! Determinism contract: the root folds peer contributions into its own
//! staged copy of each group in ascending rank order — elementwise, the
//! same ascending-rank left fold as `Comm::allreduce_sum_chunked_into` —
//! so results are bitwise identical to a per-group all-reduce at any
//! bucket cap and thread count. Two invariants are part of the wire protocol: every
//! participant must use the *same bucket cap* (bucket boundaries shape
//! the message streams) and must stage groups in the *same order* (the
//! shared backward order) — the root decodes each peer's per-bucket
//! message stream positionally against its own staging order.

use std::ops::Range;

use bytes::Bytes;
use swift_dnn::Sequential;
use swift_net::{bytemuck_f32, check_frame_len, f32_from_bytes, Comm, CommError, Rank};
use swift_tensor::Tensor;

/// Default bucket capacity, mirroring PyTorch DDP's 25 MiB default scaled
/// down to this repo's model sizes.
pub const DEFAULT_BUCKET_CAP_BYTES: usize = 4 * 1024 * 1024;

/// Per-bucket completion callback: receives the bucket's global group
/// range and every group's gradient tensor, the bucket's ones reduced.
pub type BucketCallback<'a> = &'a mut dyn FnMut(Range<usize>, &[Tensor]) -> Result<(), CommError>;

/// Assigns parameter groups to size-capped buckets in reverse (backward
/// completion) order and tracks per-bucket readiness across a step.
pub struct GradBucketer {
    /// Per-bucket contiguous global group ranges, in launch order
    /// (reverse group order: bucket 0 holds the *last* groups).
    buckets: Vec<Range<usize>>,
    /// group → (bucket index, f32 offset inside the bucket's flat buffer).
    group_slot: Vec<(usize, usize)>,
    /// Per-bucket flat element count.
    bucket_elems: Vec<usize>,
    /// Per-bucket outstanding group count for the current step.
    pending: Vec<usize>,
}

impl GradBucketer {
    /// Buckets `group_numels` (f32 counts per global group) under
    /// `cap_bytes`. A bucket closes when adding the next (earlier) group
    /// would exceed the cap; a single oversized group gets its own bucket.
    pub fn new(group_numels: &[usize], cap_bytes: usize) -> Self {
        let cap_elems = (cap_bytes / 4).max(1);
        let mut buckets: Vec<Range<usize>> = Vec::new();
        let mut hi = group_numels.len();
        let mut elems = 0usize;
        for g in (0..group_numels.len()).rev() {
            if elems > 0 && elems + group_numels[g] > cap_elems {
                buckets.push(g + 1..hi);
                hi = g + 1;
                elems = 0;
            }
            elems += group_numels[g];
        }
        if hi > 0 {
            buckets.push(0..hi);
        }
        let mut group_slot = vec![(0usize, 0usize); group_numels.len()];
        let mut bucket_elems = Vec::with_capacity(buckets.len());
        for (b, r) in buckets.iter().enumerate() {
            let mut off = 0usize;
            for g in r.clone() {
                group_slot[g] = (b, off);
                off += group_numels[g];
            }
            bucket_elems.push(off);
        }
        let pending = buckets.iter().map(Range::len).collect();
        GradBucketer {
            buckets,
            group_slot,
            bucket_elems,
            pending,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Global group range of bucket `b`.
    pub fn groups_of(&self, b: usize) -> Range<usize> {
        self.buckets[b].clone()
    }

    /// Flat f32 length of bucket `b`.
    pub fn elems_of(&self, b: usize) -> usize {
        self.bucket_elems[b]
    }

    /// (bucket, flat f32 offset) of global group `g`.
    pub fn slot_of(&self, g: usize) -> (usize, usize) {
        self.group_slot[g]
    }

    /// Marks group `g`'s gradient ready; returns `Some(bucket)` when this
    /// completes its bucket.
    pub fn mark_ready(&mut self, g: usize) -> Option<usize> {
        let (b, _) = self.group_slot[g];
        self.pending[b] -= 1;
        (self.pending[b] == 0).then_some(b)
    }

    /// Rearms readiness tracking for the next step.
    pub fn reset(&mut self) {
        for (b, r) in self.buckets.iter().enumerate() {
            self.pending[b] = r.len();
        }
    }
}

/// One step's bucketed gradient all-reduce among a replica group, reduced
/// straight into the caller's gradient tensors (`out`, one per group).
///
/// Non-root ranks stream each group's raw gradient bytes to the root as
/// soon as backward produces it ([`Self::stage`]): no pack copy, no
/// bucket-sized payload allocation. The root copies its own gradient into
/// `out[g]` and folds peer contributions into it in [`Self::finish`], one
/// bucket at a time. It ships each bucket's result to the live peers
/// *before* it runs the per-bucket callback (layer-wise update, progress
/// marks), so every peer's scatter and update run alongside the root's.
/// Peers scatter the result straight from the wire into `out`.
pub struct BucketedAllreduce {
    me: Rank,
    root: Rank,
    /// Sorted participants; the root is the first.
    participants: Vec<Rank>,
    bucketer: GradBucketer,
    numels: Vec<usize>,
    /// Per-bucket collective tag, allocated at the bucket's first stage.
    tags: Vec<Option<u64>>,
    /// Per-bucket groups in the order they were staged this step (the
    /// shared backward order); the root uses its own record to map each
    /// peer's positional message stream back to groups.
    stage_order: Vec<Vec<usize>>,
    /// Buckets in the order they were launched this step.
    launch_order: Vec<usize>,
    /// The bucket cap this reducer was built with (cache-validity key for
    /// cross-step reuse).
    cap_bytes: usize,
}

impl BucketedAllreduce {
    /// Builds the per-step reducer. `group_numels` must be identical on
    /// every participant (same model replica).
    pub fn new(me: Rank, participants: &[Rank], group_numels: &[usize], cap_bytes: usize) -> Self {
        let mut sorted = participants.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.contains(&me), "caller must be a participant");
        let root = sorted[0];
        let bucketer = GradBucketer::new(group_numels, cap_bytes);
        let tags = vec![None; bucketer.num_buckets()];
        let stage_order = vec![Vec::new(); bucketer.num_buckets()];
        BucketedAllreduce {
            me,
            root,
            participants: sorted,
            bucketer,
            numels: group_numels.to_vec(),
            tags,
            stage_order,
            launch_order: Vec::new(),
            cap_bytes,
        }
    }

    /// True when this reducer was built for exactly this caller,
    /// participant list, and bucket cap — the steady-state check that lets
    /// a worker [`reset`](Self::reset) and reuse it across steps instead of
    /// rebuilding. A permuted-but-equal participant list fails the check
    /// and merely triggers a rebuild; group geometry is validated
    /// separately against [`Self::numels`].
    pub fn built_for(&self, me: Rank, participants: &[Rank], cap_bytes: usize) -> bool {
        self.me == me
            && self.cap_bytes == cap_bytes
            && participants.len() == self.participants.len()
            && participants.iter().eq(self.participants.iter())
    }

    /// The per-group element counts this reducer was planned from.
    pub fn numels(&self) -> &[usize] {
        &self.numels
    }

    /// Number of buckets the groups were coalesced into.
    pub fn num_buckets(&self) -> usize {
        self.bucketer.num_buckets()
    }

    /// Stages group `g`'s local gradient: the root copies it into
    /// `out[g]`, where [`Self::finish`] folds the peers in; peers ship the
    /// raw bytes to the root immediately (overlapping with the remaining
    /// backward) and leave `out` alone. The bucket is launched — its tag
    /// allocated and its drain scheduled — at its first staged group;
    /// every participant must stage in the same (backward) order so tags
    /// and message streams line up.
    pub fn stage(
        &mut self,
        comm: &mut Comm,
        g: usize,
        grad: &Tensor,
        out: &mut [Tensor],
    ) -> Result<(), CommError> {
        let (b, _) = self.bucketer.slot_of(g);
        debug_assert_eq!(grad.numel(), self.numels[g], "gradient/group shape drift");
        let tag = match self.tags[b] {
            Some(t) => t,
            None => {
                // Every participant allocates the bucket tag at the same
                // point in its collective sequence (staging order is the
                // deterministic reverse-layer order), so tags line up
                // without negotiation.
                let t = comm.next_coll_tag();
                self.tags[b] = Some(t);
                t
            }
        };
        self.stage_order[b].push(g);
        if self.me == self.root {
            out[g].data_mut().copy_from_slice(grad.data());
        } else {
            comm.send_bytes(
                self.root,
                tag,
                Bytes::copy_from_slice(bytemuck_f32(grad.data())),
            )?;
        }
        if let Some(done) = self.bucketer.mark_ready(g) {
            self.launch_order.push(done);
        }
        Ok(())
    }

    /// Drains launched buckets in launch order. The root folds each peer's
    /// payloads into `out` (ascending rank after its own staged copy: the
    /// monolithic fold order), ships the bucket's result to the live
    /// peers, and then runs `on_bucket` with the bucket's global group
    /// range and `out`. Peers receive the result into `out`, then run the
    /// callback. On an error, the buckets already passed to `on_bucket`
    /// hold their reduced values in `out`; the rest are unspecified.
    pub fn finish(
        &self,
        comm: &mut Comm,
        out: &mut [Tensor],
        on_bucket: BucketCallback<'_>,
    ) -> Result<(), CommError> {
        let peers = &self.participants[1..];
        for &b in &self.launch_order {
            let tag = self.tags[b].expect("launched bucket has a tag");
            let groups = self.bucketer.groups_of(b);
            if self.me == self.root {
                // Each peer's stream carries one message per group in the
                // shared staging order.
                for &peer in peers {
                    for &g in &self.stage_order[b] {
                        let payload = comm.recv_bytes(peer, tag)?;
                        check_frame_len("gradient payload", &payload, self.numels[g] * 4)?;
                        for (acc, v) in out[g].data_mut().iter_mut().zip(f32_from_bytes(&payload)) {
                            *acc += v;
                        }
                    }
                }
                // A peer whose link is dark — already, or by the time its
                // send is written — died mid-step: its result is doomed,
                // and declaring the failure from the fan-out would fence
                // the sends the survivors behind it still need. Skip it —
                // the data dependency at the next fold (or the lease
                // monitor) declares the death instead. The result is
                // gathered once, and only when a live peer needs it, so a
                // peerless (single-replica) step stays allocation-free.
                let mut result: Option<Bytes> = None;
                for &peer in peers {
                    if !comm.peer_link_up(peer) {
                        continue;
                    }
                    let payload = result
                        .get_or_insert_with(|| {
                            let mut buf = Vec::with_capacity(self.bucketer.elems_of(b) * 4);
                            for t in &out[groups.clone()] {
                                buf.extend_from_slice(bytemuck_f32(t.data()));
                            }
                            Bytes::from(buf)
                        })
                        .clone();
                    comm.send_unless_dark(peer, tag ^ (1 << 32), payload)?;
                }
            } else {
                let payload = comm.recv_bytes(self.root, tag ^ (1 << 32))?;
                check_frame_len("bucket result", &payload, self.bucketer.elems_of(b) * 4)?;
                let mut off = 0usize;
                for g in groups.clone() {
                    let n = self.numels[g] * 4;
                    for (dst, v) in out[g]
                        .data_mut()
                        .iter_mut()
                        .zip(f32_from_bytes(&payload[off..off + n]))
                    {
                        *dst = v;
                    }
                    off += n;
                }
            }
            on_bucket(groups, out)?;
        }
        Ok(())
    }

    /// Rearms for the next step. Nothing is zeroed: the root's `stage`
    /// overwrites each group's `out` tensor before any peer is folded in,
    /// and a peer's result overwrites it whole.
    pub fn reset(&mut self) {
        self.bucketer.reset();
        self.launch_order.clear();
        for t in &mut self.tags {
            *t = None;
        }
        for s in &mut self.stage_order {
            s.clear();
        }
    }
}

/// Makes `grads` one tensor per parameter group of `model`, shaped like
/// that group: the `out` buffers a [`BucketedAllreduce`] reduces into,
/// allocated again only when the model geometry changes.
pub(crate) fn fit_grad_buffers(model: &Sequential, grads: &mut Vec<Tensor>) {
    if !model
        .params()
        .map(Tensor::shape)
        .eq(grads.iter().map(Tensor::shape))
    {
        *grads = model.params().map(|p| Tensor::zeros(*p.shape())).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_net::{Cluster, Topology};
    use swift_tensor::CounterRng;

    #[test]
    fn reduces_into_out_bitwise_like_an_ascending_rank_fold() {
        // Caps (bytes) giving one group per bucket, a mix of single- and
        // multi-group buckets ({4}, {2, 3}, {1}, {0}), and one bucket.
        const NUMELS: [usize; 5] = [3, 70, 5, 33, 8];
        let mixed = GradBucketer::new(&NUMELS, 160);
        let sizes: Vec<usize> = (0..mixed.num_buckets())
            .map(|b| mixed.groups_of(b).len())
            .collect();
        assert_eq!(sizes, [1, 2, 1, 1]);
        for world in 1..=4 {
            for cap in [4, 160, usize::MAX / 8] {
                let results = Cluster::run_all(Topology::uniform(world, 1), move |mut ctx| {
                    let me = ctx.rank();
                    let ranks: Vec<Rank> = (0..world).collect();
                    // Every rank's seeded gradients, folded locally in
                    // ascending rank order: the expected sums.
                    let grads_of = |rank: Rank| -> Vec<Tensor> {
                        let mut rng = CounterRng::new(17, rank as u64);
                        NUMELS
                            .iter()
                            .map(|&n| Tensor::randn([n], 0.0, 1.0, &mut rng))
                            .collect()
                    };
                    let grads = grads_of(me);
                    let mut want = grads_of(0);
                    for rank in 1..world {
                        for (acc, t) in want.iter_mut().zip(grads_of(rank)) {
                            acc.add_inplace(&t);
                        }
                    }
                    // Stale values must never leak into the result.
                    let mut out: Vec<Tensor> = NUMELS
                        .iter()
                        .map(|&n| Tensor::full([n], f32::NAN))
                        .collect();
                    let mut reducer = BucketedAllreduce::new(me, &ranks, &NUMELS, cap);
                    for g in (0..NUMELS.len()).rev() {
                        reducer
                            .stage(&mut ctx.comm, g, &grads[g], &mut out)
                            .unwrap();
                    }
                    // Each callback sees its bucket already reduced.
                    let mut seen: Vec<(Range<usize>, Vec<Tensor>)> = Vec::new();
                    reducer
                        .finish(&mut ctx.comm, &mut out, &mut |range, grads| {
                            seen.push((range.clone(), grads[range].to_vec()));
                            Ok(())
                        })
                        .unwrap();
                    (grads, want, out, seen, reducer.num_buckets())
                });
                for (rank, (grads, want, out, seen, buckets)) in results.iter().enumerate() {
                    let at = format!("world {world}, cap {cap}, rank {rank}");
                    assert!(out.iter().zip(want).all(|(a, b)| a.bit_eq(b)), "{at}");
                    if world == 1 {
                        assert!(out.iter().zip(grads).all(|(a, b)| a.bit_eq(b)), "{at}");
                    }
                    assert_eq!(seen.len(), *buckets, "{at}: one callback per bucket");
                    for (range, got) in seen {
                        assert!(got
                            .iter()
                            .zip(&want[range.clone()])
                            .all(|(a, b)| a.bit_eq(b)));
                    }
                }
            }
        }
    }

    /// Rank `crafter` of two allocates the reducer's bucket tag and sends
    /// the other rank `frame` on the stream `tag ^ tag_xor`; the other
    /// rank stages one 4-element group and finishes. Returns its result.
    /// The crafter waits (boundedly) until `finish` has returned, so it
    /// outlives every send to it.
    fn finish_after_crafted_frame(crafter: Rank, frame: &'static [u8], tag_xor: u64) -> String {
        let out = Cluster::run_all(Topology::uniform(2, 1), move |mut ctx| {
            if ctx.rank() == crafter {
                let tag = ctx.comm.next_coll_tag();
                let frame = Bytes::from_static(frame);
                ctx.comm
                    .send_bytes(1 - crafter, tag ^ tag_xor, frame)
                    .unwrap();
                let deadline = std::time::Duration::from_secs(30);
                ctx.kv.wait_for("finish-returned", deadline);
                return String::new();
            }
            let mut reducer = BucketedAllreduce::new(ctx.rank(), &[0, 1], &[4], 1024);
            let mut out = vec![Tensor::zeros([4])];
            let grad = Tensor::ones([4]);
            reducer.stage(&mut ctx.comm, 0, &grad, &mut out).unwrap();
            let result = reducer.finish(&mut ctx.comm, &mut out, &mut |_, _| Ok(()));
            ctx.kv.set("finish-returned", "1");
            format!("{result:?}")
        });
        out[1 - crafter].clone()
    }

    #[test]
    fn short_frames_are_protocol_errors() {
        // The root receives a 3-float gradient for a 4-float group.
        let root = finish_after_crafted_frame(1, b"abcdefghijkl", 0);
        assert!(root.starts_with("Err(Protocol"), "root: {root}");
        // The peer receives a 3-float result for a 4-float bucket.
        let peer = finish_after_crafted_frame(0, b"abcdefghijkl", 1 << 32);
        assert!(peer.starts_with("Err(Protocol"), "peer: {peer}");
    }

    #[test]
    fn buckets_are_reverse_order_and_capped() {
        // groups of 100, 200, 300, 400 f32s; cap 2400 bytes = 600 elems.
        let b = GradBucketer::new(&[100, 200, 300, 400], 2400);
        // Reverse assignment: {3} (g2 would overflow), then {0, 1, 2}
        // (300 + 200 + 100 = 600 fits exactly).
        assert_eq!(b.num_buckets(), 2);
        assert_eq!(b.groups_of(0), 3..4);
        assert_eq!(b.groups_of(1), 0..3);
        assert_eq!(b.elems_of(0), 400);
        assert_eq!(b.elems_of(1), 600);
        // Ascending pack order inside a bucket.
        assert_eq!(b.slot_of(0), (1, 0));
        assert_eq!(b.slot_of(1), (1, 100));
        assert_eq!(b.slot_of(2), (1, 300));
    }

    #[test]
    fn oversized_group_gets_own_bucket() {
        let b = GradBucketer::new(&[10, 5000, 10], 64);
        assert_eq!(b.num_buckets(), 3);
        assert_eq!(b.elems_of(1), 5000);
    }

    #[test]
    fn mark_ready_completes_in_reverse_order() {
        let mut b = GradBucketer::new(&[4, 4, 4, 4], 32);
        // Two buckets: {2, 3} then {0, 1}.
        assert_eq!(b.num_buckets(), 2);
        assert_eq!(b.mark_ready(3), None);
        assert_eq!(b.mark_ready(2), Some(0));
        assert_eq!(b.mark_ready(1), None);
        assert_eq!(b.mark_ready(0), Some(1));
        b.reset();
        assert_eq!(b.mark_ready(3), None);
    }

    #[test]
    fn single_bucket_when_under_cap() {
        let b = GradBucketer::new(&[8, 8], usize::MAX / 8);
        assert_eq!(b.num_buckets(), 1);
        assert_eq!(b.groups_of(0), 0..2);
    }

    #[test]
    fn empty_model_has_no_buckets() {
        let b = GradBucketer::new(&[], 1024);
        assert_eq!(b.num_buckets(), 0);
    }
}
