//! Checkpoint payloads and the per-worker checkpoint manager.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use swift_dnn::ModelState;
use swift_optim::OptimState;
use swift_store::BlobStore;

use crate::delta::{self, DeltaRecord, DeltaSession, DigestSet, IncrementalSave};

/// Deepest delta chain `load_latest`/`gc` will walk before declaring the
/// store corrupt (defends against pointer cycles).
const MAX_CHAIN: usize = 4096;

/// A complete recovery point for one worker: iteration counter, model
/// parameters and optimizer state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Iteration at whose *boundary* this state is valid (training resumes
    /// at `iteration`).
    pub iteration: u64,
    /// Model parameters.
    pub model: ModelState,
    /// Optimizer slots and counters.
    pub optim: OptimState,
}

impl Checkpoint {
    /// Binary encoding.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.byte_size());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the binary encoding to `buf` — exactly [`Self::byte_size`]
    /// bytes, with no intermediate section buffers.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.iteration);
        buf.put_u64_le(self.model.encoded_size() as u64);
        self.model.encode_into(buf);
        buf.put_u64_le(self.optim.encoded_size() as u64);
        self.optim.encode_into(buf);
    }

    /// Decodes a checkpoint payload.
    pub fn decode(mut buf: Bytes) -> Result<Self, String> {
        if buf.remaining() < 8 {
            return Err("checkpoint truncated".into());
        }
        let iteration = buf.get_u64_le();
        let take_section = |buf: &mut Bytes| -> Result<Bytes, String> {
            if buf.remaining() < 8 {
                return Err("checkpoint truncated".into());
            }
            let n = buf.get_u64_le() as usize;
            if buf.remaining() < n {
                return Err("checkpoint truncated".into());
            }
            Ok(buf.split_to(n))
        };
        let mut m = take_section(&mut buf)?;
        let model = ModelState::decode(&mut m)?;
        let mut o = take_section(&mut buf)?;
        let optim = OptimState::decode(&mut o)?;
        Ok(Checkpoint {
            iteration,
            model,
            optim,
        })
    }

    /// Payload size in bytes (the cost every strategy pays to persist).
    /// Computed arithmetically from shapes and name lengths — no encode,
    /// no allocation — so strategies can consult it every iteration.
    pub fn byte_size(&self) -> usize {
        8 + 8 + self.model.encoded_size() + 8 + self.optim.encoded_size()
    }
}

/// Saves/loads a worker's checkpoints in a blob store, maintaining a
/// `latest` pointer and garbage-collecting superseded checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    store: BlobStore,
    rank: usize,
}

impl CheckpointManager {
    /// Creates a manager writing under `ckpt/rank{rank}/`.
    pub fn new(store: BlobStore, rank: usize) -> Self {
        CheckpointManager { store, rank }
    }

    fn key(&self, iteration: u64) -> String {
        format!("ckpt/rank{}/iter{iteration:012}.bin", self.rank)
    }

    fn delta_key(&self, iteration: u64) -> String {
        format!("ckpt/rank{}/iter{iteration:012}.delta", self.rank)
    }

    fn latest_key(&self) -> String {
        format!("ckpt/rank{}/latest", self.rank)
    }

    /// The underlying store.
    pub fn store(&self) -> &BlobStore {
        &self.store
    }

    /// Persists a checkpoint and flips the `latest` pointer (write-then-
    /// rename discipline: the pointer only moves after the payload is
    /// durable, so a crash mid-save never corrupts the latest checkpoint).
    pub fn save(&self, ckpt: &Checkpoint) -> std::io::Result<()> {
        self.save_full(ckpt).map(|_| ())
    }

    /// [`Self::save`], returning the payload size and using a pooled
    /// staging buffer so steady-state checkpointing does not allocate.
    fn save_full(&self, ckpt: &Checkpoint) -> std::io::Result<usize> {
        let key = self.key(ckpt.iteration);
        let mut payload = swift_tensor::pool::take_u8_raw(ckpt.byte_size());
        ckpt.encode_into(&mut payload);
        let bytes = payload.len();
        swift_obs::add(swift_obs::Counter::CheckpointBytes, bytes as u64);
        self.store.put(&key, &payload)?;
        swift_tensor::pool::put_u8(payload);
        self.store.put(&self.latest_key(), key.as_bytes())?;
        Ok(bytes)
    }

    /// Persists only the tensors that changed since `session`'s previous
    /// save as a delta manifest, falling back to a full checkpoint when
    /// one is required (first save, tensor-structure change, or the
    /// chain-rebase interval). The `latest` pointer moves only after the
    /// payload is durable, exactly like [`Self::save`], and
    /// [`Self::load_latest`] transparently resolves the delta's base
    /// chain back to its full anchor.
    pub fn save_incremental(
        &self,
        ckpt: &Checkpoint,
        session: &mut DeltaSession,
    ) -> std::io::Result<IncrementalSave> {
        let now = DigestSet::of(ckpt);
        let full = session.must_save_full()
            || !session
                .digests
                .as_ref()
                .is_some_and(|prev| prev.same_shape(&now));
        if full {
            let bytes = self.save_full(ckpt)?;
            session.prev_key = Some(self.key(ckpt.iteration));
            session.digests = Some(now);
            session.chain_len = 0;
            return Ok(IncrementalSave::Full { bytes });
        }
        let prev_key = session.prev_key.clone().expect("checked by must_save_full");
        let prev = session.digests.as_ref().expect("checked by must_save_full");
        let key = self.delta_key(ckpt.iteration);
        // Worst case (everything dirty) a delta carries the full payload
        // plus per-entry digests; sizing for it keeps the pooled staging
        // buffer from reallocating mid-encode.
        let mut payload = swift_tensor::pool::take_u8_raw(ckpt.byte_size() + 4096);
        let (changed, total) = delta::encode_delta(ckpt, &prev_key, prev, &now, &mut payload);
        let bytes = payload.len();
        swift_obs::add(swift_obs::Counter::CheckpointBytes, bytes as u64);
        swift_obs::add(swift_obs::Counter::DeltaCheckpointBytes, bytes as u64);
        self.store.put(&key, &payload)?;
        swift_tensor::pool::put_u8(payload);
        self.store.put(&self.latest_key(), key.as_bytes())?;
        session.prev_key = Some(key);
        session.digests = Some(now);
        session.chain_len += 1;
        Ok(IncrementalSave::Delta {
            bytes,
            changed,
            total,
        })
    }

    /// Loads the most recent checkpoint, if any: a full checkpoint, or a
    /// delta manifest whose base chain is resolved (and digest-verified)
    /// back to its full anchor.
    pub fn load_latest(&self) -> std::io::Result<Option<Checkpoint>> {
        if !self.store.contains(&self.latest_key()) {
            return Ok(None);
        }
        let key = self.store.get_utf8(&self.latest_key())?;
        self.load_key(&key, 0).map(Some)
    }

    fn load_key(&self, key: &str, depth: usize) -> std::io::Result<Checkpoint> {
        let corrupt = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        if depth > MAX_CHAIN {
            return Err(corrupt(format!("delta chain deeper than {MAX_CHAIN}")));
        }
        let payload = self.store.get(key)?;
        if key.ends_with(".delta") {
            let rec = DeltaRecord::decode(payload).map_err(corrupt)?;
            let prev = rec.prev_key.clone();
            let base = self.load_key(&prev, depth + 1)?;
            rec.apply(base).map_err(corrupt)
        } else {
            Checkpoint::decode(payload).map_err(corrupt)
        }
    }

    /// Deletes every checkpoint not reachable from the `latest` pointer
    /// (for a delta, the whole base chain down to its full anchor stays
    /// live); returns the count removed.
    ///
    /// An unreadable or non-UTF-8 `latest` pointer is an error — GC
    /// refuses to run rather than guess which checkpoints are live.
    pub fn gc(&self) -> std::io::Result<usize> {
        if !self.store.contains(&self.latest_key()) {
            return Ok(0);
        }
        // A corrupt pointer surfaces as `StoreError::Corrupt` (→
        // `InvalidData`) here instead of silently matching nothing and
        // deleting every checkpoint.
        let latest = self.store.get_utf8(&self.latest_key())?;
        let corrupt = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let mut live = std::collections::HashSet::new();
        let mut key = latest;
        loop {
            if !live.insert(key.clone()) || live.len() > MAX_CHAIN {
                return Err(corrupt("delta chain cycles or exceeds MAX_CHAIN".into()));
            }
            if !key.ends_with(".delta") {
                break;
            }
            key = DeltaRecord::peek_prev_key(self.store.get(&key)?).map_err(corrupt)?;
        }
        let mut removed = 0;
        for key in self.store.list(&format!("ckpt/rank{}/", self.rank))? {
            if (key.ends_with(".bin") || key.ends_with(".delta")) && !live.contains(&key) {
                self.store.delete(&key)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_tensor::Tensor;

    fn sample_ckpt(iteration: u64) -> Checkpoint {
        Checkpoint {
            iteration,
            model: ModelState {
                entries: vec![
                    ("0:fc.0".into(), Tensor::full([3, 2], iteration as f32)),
                    ("0:fc.1".into(), Tensor::zeros([3])),
                ],
            },
            optim: OptimState {
                name: "SGD-momentum".into(),
                t: iteration,
                last_lr: 0.1,
                scalars: vec![("lr".into(), vec![0.1])],
                slots: vec![("m".into(), vec![Some(Tensor::ones([3, 2])), None])],
            },
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample_ckpt(42);
        let back = Checkpoint::decode(c.encode()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn truncated_payload_rejected() {
        let c = sample_ckpt(1);
        let enc = c.encode();
        for cut in [0usize, 7, enc.len() / 2, enc.len() - 1] {
            assert!(Checkpoint::decode(enc.slice(0..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn manager_save_load_latest() {
        let store = BlobStore::new_temp("ckpt1").unwrap();
        let mgr = CheckpointManager::new(store, 3);
        assert!(mgr.load_latest().unwrap().is_none());
        mgr.save(&sample_ckpt(100)).unwrap();
        mgr.save(&sample_ckpt(200)).unwrap();
        let latest = mgr.load_latest().unwrap().unwrap();
        assert_eq!(latest.iteration, 200);
    }

    #[test]
    fn manager_gc_keeps_latest_only() {
        let store = BlobStore::new_temp("ckpt2").unwrap();
        let mgr = CheckpointManager::new(store, 0);
        for it in [10, 20, 30] {
            mgr.save(&sample_ckpt(it)).unwrap();
        }
        assert_eq!(mgr.gc().unwrap(), 2);
        assert_eq!(mgr.load_latest().unwrap().unwrap().iteration, 30);
    }

    #[test]
    fn byte_size_is_exact_without_encoding() {
        for it in [0, 1, 42, u64::MAX] {
            let c = sample_ckpt(it);
            assert_eq!(c.byte_size(), c.encode().len());
        }
    }

    #[test]
    fn gc_with_corrupt_latest_pointer_errors_and_deletes_nothing() {
        let store = BlobStore::new_temp("ckpt-corrupt").unwrap();
        let mgr = CheckpointManager::new(store.clone(), 0);
        for it in [10, 20] {
            mgr.save(&sample_ckpt(it)).unwrap();
        }
        // Clobber the pointer with invalid UTF-8. The old behavior decayed
        // this to "" and deleted every checkpoint; now GC refuses.
        store.put("ckpt/rank0/latest", &[0xFF, 0xFE, 0x00]).unwrap();
        let err = mgr.gc().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let kept = store
            .list("ckpt/rank0/")
            .unwrap()
            .into_iter()
            .filter(|k| k.ends_with(".bin"))
            .count();
        assert_eq!(kept, 2, "a corrupt pointer must not trigger deletion");
    }

    #[test]
    fn incremental_save_round_trips_and_shrinks() {
        let store = BlobStore::new_temp("ckpt-delta").unwrap();
        let mgr = CheckpointManager::new(store, 0);
        let mut session = DeltaSession::new();
        let base = sample_ckpt(100);
        let first = mgr.save_incremental(&base, &mut session).unwrap();
        assert!(matches!(first, IncrementalSave::Full { .. }));

        // Mutate one model tensor; everything else is unchanged.
        let mut next = base.clone();
        next.iteration = 110;
        next.optim.t = 110;
        next.model.entries[0].1 = Tensor::full([3, 2], 9.5);
        let second = mgr.save_incremental(&next, &mut session).unwrap();
        match second {
            IncrementalSave::Delta {
                bytes,
                changed,
                total,
            } => {
                assert_eq!(changed, 1, "only the mutated tensor is carried");
                assert_eq!(total, 3, "2 model entries + 1 populated slot");
                assert!(bytes < first.bytes(), "delta must be smaller than full");
            }
            other => panic!("expected a delta save, got {other:?}"),
        }
        assert_eq!(mgr.load_latest().unwrap().unwrap(), next);
    }

    #[test]
    fn delta_chain_resolves_through_multiple_deltas() {
        let store = BlobStore::new_temp("ckpt-chain").unwrap();
        let mgr = CheckpointManager::new(store.clone(), 0);
        let mut session = DeltaSession::new();
        let mut ckpt = sample_ckpt(1);
        mgr.save_incremental(&ckpt, &mut session).unwrap();
        for it in 2..=5u64 {
            ckpt.iteration = it;
            ckpt.model.entries[(it % 2) as usize].1 =
                Tensor::full(if it % 2 == 0 { vec![3, 2] } else { vec![3] }, it as f32);
            let save = mgr.save_incremental(&ckpt, &mut session).unwrap();
            assert!(matches!(save, IncrementalSave::Delta { .. }));
        }
        assert_eq!(mgr.load_latest().unwrap().unwrap(), ckpt);
        // GC keeps the live chain (full anchor + 4 deltas) and nothing else.
        assert_eq!(mgr.gc().unwrap(), 0);
        assert_eq!(mgr.load_latest().unwrap().unwrap(), ckpt);
    }

    #[test]
    fn gc_prunes_dead_chains_but_keeps_live_one() {
        let store = BlobStore::new_temp("ckpt-prune").unwrap();
        let mgr = CheckpointManager::new(store.clone(), 0);
        // First chain: full(10) + delta(11).
        let mut s1 = DeltaSession::new();
        let mut c = sample_ckpt(10);
        mgr.save_incremental(&c, &mut s1).unwrap();
        c.iteration = 11;
        c.model.entries[0].1 = Tensor::full([3, 2], 1.25);
        mgr.save_incremental(&c, &mut s1).unwrap();
        // Second chain from a fresh session: full(20) + delta(21).
        let mut s2 = DeltaSession::new();
        let mut c2 = sample_ckpt(20);
        mgr.save_incremental(&c2, &mut s2).unwrap();
        c2.iteration = 21;
        c2.optim.slots[0].1[0] = Some(Tensor::full([3, 2], 2.5));
        mgr.save_incremental(&c2, &mut s2).unwrap();
        // The first chain (2 payloads) is unreachable from latest.
        assert_eq!(mgr.gc().unwrap(), 2);
        assert_eq!(mgr.load_latest().unwrap().unwrap(), c2);
        let keys = store.list("ckpt/rank0/").unwrap();
        assert!(
            keys.iter().all(|k| !k.contains("iter000000000010")),
            "{keys:?}"
        );
        assert!(
            keys.iter().all(|k| !k.contains("iter000000000011")),
            "{keys:?}"
        );
    }

    #[test]
    fn structure_change_forces_full_save() {
        let store = BlobStore::new_temp("ckpt-restruct").unwrap();
        let mgr = CheckpointManager::new(store, 0);
        let mut session = DeltaSession::new();
        let mut c = sample_ckpt(1);
        mgr.save_incremental(&c, &mut session).unwrap();
        // A slot flipping from None to Some is a structure change.
        c.iteration = 2;
        c.optim.slots[0].1[1] = Some(Tensor::ones([3]));
        let save = mgr.save_incremental(&c, &mut session).unwrap();
        assert!(matches!(save, IncrementalSave::Full { .. }));
        assert_eq!(mgr.load_latest().unwrap().unwrap(), c);
    }

    #[test]
    fn full_interval_rebases_the_chain() {
        let store = BlobStore::new_temp("ckpt-rebase").unwrap();
        let mgr = CheckpointManager::new(store, 0);
        let mut session = DeltaSession::new().with_full_interval(2);
        let mut c = sample_ckpt(1);
        let mut kinds = Vec::new();
        for it in 1..=6u64 {
            c.iteration = it;
            c.model.entries[0].1 = Tensor::full([3, 2], it as f32);
            let save = mgr.save_incremental(&c, &mut session).unwrap();
            kinds.push(matches!(save, IncrementalSave::Full { .. }));
        }
        // full, delta, delta, full (rebase), delta, delta.
        assert_eq!(kinds, [true, false, false, true, false, false]);
        assert_eq!(mgr.load_latest().unwrap().unwrap(), c);
    }

    #[test]
    fn per_rank_isolation() {
        let store = BlobStore::new_temp("ckpt3").unwrap();
        let m0 = CheckpointManager::new(store.clone(), 0);
        let m1 = CheckpointManager::new(store, 1);
        m0.save(&sample_ckpt(5)).unwrap();
        assert!(m1.load_latest().unwrap().is_none());
    }
}
