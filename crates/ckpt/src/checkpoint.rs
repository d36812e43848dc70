//! Checkpoint payloads and the per-worker checkpoint manager.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use swift_dnn::ModelState;
use swift_optim::OptimState;
use swift_store::BlobStore;

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
    /// The payload is staged in a pooled buffer, so steady-state
    /// checkpointing does not allocate.
    pub fn save(&self, ckpt: &Checkpoint) -> std::io::Result<()> {
        let key = self.key(ckpt.iteration);
        let mut payload = swift_tensor::pool::take_u8_raw(ckpt.byte_size());
        ckpt.encode_into(&mut payload);
        swift_obs::add(swift_obs::Counter::CheckpointBytes, payload.len() as u64);
        self.store.put(&key, &payload)?;
        swift_tensor::pool::put_u8(payload);
        self.store.put(&self.latest_key(), key.as_bytes())?;
        Ok(())
    }

    /// Loads the checkpoint the `latest` pointer names, if any. A pointer
    /// that names a missing or truncated payload is an error, never
    /// `Ok(None)`.
    pub fn load_latest(&self) -> std::io::Result<Option<Checkpoint>> {
        if !self.store.contains(&self.latest_key()) {
            return Ok(None);
        }
        let key = self.store.get_utf8(&self.latest_key())?;
        let payload = self.store.get(&key)?;
        Checkpoint::decode(payload)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Deletes every checkpoint but the one the `latest` pointer names;
    /// returns the count removed.
    ///
    /// An unreadable or non-UTF-8 `latest` pointer is an error — GC
    /// refuses to run rather than guess which checkpoint is live.
    pub fn gc(&self) -> std::io::Result<usize> {
        if !self.store.contains(&self.latest_key()) {
            return Ok(0);
        }
        // A corrupt pointer surfaces as `StoreError::Corrupt` (→
        // `InvalidData`) here instead of silently matching nothing and
        // deleting every checkpoint.
        let live = self.store.get_utf8(&self.latest_key())?;
        let mut removed = 0;
        for key in self.store.list(&format!("ckpt/rank{}/", self.rank))? {
            if key.ends_with(".bin") && key != live {
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
    fn corrupt_latest_pointer_errors_and_gc_deletes_nothing() {
        use std::io::ErrorKind;
        // (row, what `latest` holds, `load_latest`'s error, whether `gc`
        // must refuse too). Iteration 30's payload is stored truncated.
        let rows: [(&str, &[u8], ErrorKind, bool); 3] = [
            (
                "missing payload",
                b"ckpt/rank0/iter000000000099.bin",
                ErrorKind::NotFound,
                false,
            ),
            // Decayed to "", the pointer would name no payload and GC
            // would delete every checkpoint.
            (
                "not UTF-8",
                &[0xFF, 0xFE, 0x00],
                ErrorKind::InvalidData,
                true,
            ),
            (
                "truncated payload",
                b"ckpt/rank0/iter000000000030.bin",
                ErrorKind::InvalidData,
                false,
            ),
        ];
        for (row, pointer, kind, gc_refuses) in rows {
            let store = BlobStore::new_temp("ckpt-corrupt").unwrap();
            let mgr = CheckpointManager::new(store.clone(), 0);
            for it in [10, 20, 30] {
                mgr.save(&sample_ckpt(it)).unwrap();
            }
            let truncated = store.get("ckpt/rank0/iter000000000030.bin").unwrap();
            store
                .put("ckpt/rank0/iter000000000030.bin", &truncated[..20])
                .unwrap();
            store.put("ckpt/rank0/latest", pointer).unwrap();
            match mgr.load_latest() {
                Err(e) => assert_eq!(e.kind(), kind, "{row}: {e}"),
                Ok(loaded) => panic!("{row}: load_latest returned {loaded:?}"),
            }
            if gc_refuses {
                assert_eq!(mgr.gc().unwrap_err().kind(), kind, "{row}");
                let kept = store
                    .list("ckpt/rank0/")
                    .unwrap()
                    .into_iter()
                    .filter(|k| k.ends_with(".bin"))
                    .count();
                assert_eq!(
                    kept, 3,
                    "{row}: a corrupt pointer must not trigger deletion"
                );
            }
            store.destroy().unwrap();
        }
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
