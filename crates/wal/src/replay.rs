//! Replay: feeding logged tensors back through the pipeline executor, and
//! the parallel-recovery work assignment (§5.1 recovery, §5.2).
//!
//! Recovery is deliberately *the same code path* as training: the
//! executor runs the failed stages' schedule, but boundary endpoints that
//! crossed the failed machine's edge read from the log instead of the
//! network. Inner boundaries (between stages being recovered together)
//! stay live.

use swift_dnn::StepCtx;
use swift_net::{Comm, CommError, Rank};
use swift_obs::{IterationId, MicrobatchId};
use swift_pipeline::{MsgKind, Transport};
use swift_store::BlobStore;
use swift_tensor::Tensor;

use crate::record::LogRecord;

/// Reads logged records from a (downloaded) store.
#[derive(Debug, Clone)]
pub struct WalReader {
    store: BlobStore,
}

impl WalReader {
    /// Wraps a store containing `wal/` records.
    pub fn new(store: BlobStore) -> Self {
        WalReader { store }
    }

    /// Reads the record `src → dst` at `(iteration, microbatch, kind)`.
    pub fn read(
        &self,
        src: Rank,
        dst: Rank,
        iteration: IterationId,
        microbatch: MicrobatchId,
        kind: MsgKind,
    ) -> std::io::Result<Tensor> {
        let key = LogRecord::key_for(src, dst, iteration.get(), microbatch.get(), kind.into());
        let payload = self.store.get(&key)?;
        let rec = LogRecord::decode(payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(rec.tensor)
    }

    /// All iterations with at least one record, ascending.
    pub fn iterations(&self) -> std::io::Result<Vec<IterationId>> {
        let mut its: Vec<IterationId> = self
            .store
            .list("wal/")?
            .iter()
            .filter_map(|k| {
                k.strip_prefix("wal/it")
                    .and_then(|s| s.get(0..12))
                    .and_then(|s| s.parse().ok())
                    .map(IterationId::new)
            })
            .collect();
        its.sort_unstable();
        its.dedup();
        Ok(its)
    }

    /// Every record of one iteration, in replay (timestamp) order.
    /// Torn tail records are skipped and reported (see
    /// [`WalReader::records_for_audited`]).
    pub fn records_for(&self, iteration: IterationId) -> std::io::Result<Vec<LogRecord>> {
        Ok(self.records_for_audited(iteration)?.0)
    }

    /// Like [`WalReader::records_for`], but also returns the store keys
    /// of records found truncated mid-write.
    ///
    /// A truncated record is the expected artifact of a crash during a
    /// WAL flush (fail-stop tears the tail write): it is *skipped and
    /// reported* — counted under `Counter::TornWalRecords` and returned
    /// in the second element — so the rest of the log stays usable and
    /// the audit ([`WalReader::verify`]) decides whether the gap is
    /// recoverable. Any other decode failure is corruption the store
    /// should never produce and aborts with `InvalidData`.
    pub fn records_for_audited(
        &self,
        iteration: IterationId,
    ) -> std::io::Result<(Vec<LogRecord>, Vec<String>)> {
        let mut recs = Vec::new();
        let mut torn = Vec::new();
        for key in self.store.list(&LogRecord::iter_prefix(iteration.get()))? {
            match LogRecord::decode(self.store.get(&key)?) {
                Ok(rec) => recs.push(rec),
                Err(e) if e.is_truncation() => {
                    swift_obs::add(swift_obs::Counter::TornWalRecords, 1);
                    torn.push(key);
                }
                Err(e) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                }
            }
        }
        recs.sort_by_key(|r| r.stamp);
        Ok((recs, torn))
    }
}

/// One side of a replaying stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// A live peer (inner boundary of the recovered sub-pipeline, or a
    /// surviving neighbor participating in recovery).
    Live {
        /// Peer rank.
        peer: Rank,
    },
    /// The boundary crossed the failed edge: reads come from the log
    /// (recorded as sent by `peer`), writes are dropped — the surviving
    /// side already consumed them pre-failure.
    Logged {
        /// The pre-failure peer whose traffic was logged.
        peer: Rank,
    },
    /// Pipeline end (first stage has no upstream / last has no
    /// downstream). The executor never touches it.
    None,
}

/// A [`Transport`] that mixes live communication and log replay.
pub struct ReplayTransport<'a> {
    /// Communicator for live endpoints.
    pub comm: &'a mut Comm,
    /// This worker's rank **in the pre-failure topology** (log keys are
    /// addressed by original ranks).
    pub me: Rank,
    /// Upstream endpoint.
    pub prev: Endpoint,
    /// Downstream endpoint.
    pub next: Endpoint,
    /// The log reader (downloaded records).
    pub reader: &'a WalReader,
    /// Sends dropped because the peer side needs no replayed data.
    pub dropped_sends: usize,
}

impl ReplayTransport<'_> {
    fn read_log(&self, src: Rank, ctx: StepCtx, kind: MsgKind) -> Result<Tensor, CommError> {
        Ok(self
            .reader
            .read(
                src,
                self.me,
                IterationId::new(ctx.iteration),
                MicrobatchId::new(ctx.microbatch),
                kind,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "missing log record {src}->{} it {} mb {} ({kind:?}): {e}",
                    self.me, ctx.iteration, ctx.microbatch
                )
            }))
    }
}

impl Transport for ReplayTransport<'_> {
    fn send_activation(&mut self, ctx: StepCtx, t: &Tensor) -> Result<(), CommError> {
        match self.next {
            Endpoint::Live { peer } => self.comm.send_tensor(
                peer,
                swift_pipeline::tags::tag(
                    MsgKind::Activation,
                    ctx.iteration,
                    ctx.microbatch as usize,
                ),
                t,
            ),
            Endpoint::Logged { .. } => {
                self.dropped_sends += 1;
                Ok(())
            }
            Endpoint::None => unreachable!("last stage never sends activations"),
        }
    }

    fn recv_activation(&mut self, ctx: StepCtx) -> Result<Tensor, CommError> {
        match self.prev {
            Endpoint::Live { peer } => self.comm.recv_tensor(
                peer,
                swift_pipeline::tags::tag(
                    MsgKind::Activation,
                    ctx.iteration,
                    ctx.microbatch as usize,
                ),
            ),
            Endpoint::Logged { peer } => self.read_log(peer, ctx, MsgKind::Activation),
            Endpoint::None => unreachable!("first stage never receives activations"),
        }
    }

    fn send_gradient(&mut self, ctx: StepCtx, t: &Tensor) -> Result<(), CommError> {
        match self.prev {
            Endpoint::Live { peer } => self.comm.send_tensor(
                peer,
                swift_pipeline::tags::tag(
                    MsgKind::Gradient,
                    ctx.iteration,
                    ctx.microbatch as usize,
                ),
                t,
            ),
            Endpoint::Logged { .. } => {
                self.dropped_sends += 1;
                Ok(())
            }
            Endpoint::None => unreachable!("first stage never sends gradients"),
        }
    }

    fn recv_gradient(&mut self, ctx: StepCtx) -> Result<Tensor, CommError> {
        match self.next {
            Endpoint::Live { peer } => self.comm.recv_tensor(
                peer,
                swift_pipeline::tags::tag(
                    MsgKind::Gradient,
                    ctx.iteration,
                    ctx.microbatch as usize,
                ),
            ),
            Endpoint::Logged { peer } => self.read_log(peer, ctx, MsgKind::Gradient),
            Endpoint::None => unreachable!("last stage never receives gradients"),
        }
    }
}

/// A pre-replay integrity report: which records a recovery would need but
/// cannot find. The paper's §5.1 warning — "once a piece of logged data is
/// missing, the original state cannot be recovered precisely" — becomes an
/// explicit pre-flight check: on any gap, fall back to global
/// checkpointing instead of replaying garbage.
#[derive(Debug, Clone, Default)]
pub struct LogAudit {
    /// `(src, dst, iteration, microbatch, kind)` of each missing record.
    pub missing: Vec<(Rank, Rank, u64, u64, MsgKind)>,
    /// Records that exist but were truncated mid-write — a crash tore
    /// the tail flush. Distinguished from `missing` so operators can
    /// tell "never logged" from "logged but the machine died writing
    /// it"; both make precise recovery of that record impossible.
    pub torn: Vec<(Rank, Rank, u64, u64, MsgKind)>,
}

impl LogAudit {
    /// True when every required record is present and intact.
    pub fn complete(&self) -> bool {
        self.missing.is_empty() && self.torn.is_empty()
    }
}

impl WalReader {
    /// Verifies that every record a replay of `iterations` would read is
    /// present: for each boundary `(src, dst, kind)` and micro-batch.
    pub fn verify(
        &self,
        boundaries: &[(Rank, Rank, MsgKind)],
        iterations: std::ops::Range<u64>,
        microbatches: u64,
    ) -> LogAudit {
        let mut audit = LogAudit::default();
        for it in iterations {
            for mb in 0..microbatches {
                for &(src, dst, kind) in boundaries {
                    let key = LogRecord::key_for(src, dst, it, mb, kind.into());
                    match self.store.get(&key) {
                        Err(_) => audit.missing.push((src, dst, it, mb, kind)),
                        Ok(payload) => match LogRecord::decode(payload) {
                            Ok(_) => {}
                            Err(e) if e.is_truncation() => {
                                audit.torn.push((src, dst, it, mb, kind));
                            }
                            // Non-truncation corruption is as unusable
                            // as an absent record.
                            Err(_) => audit.missing.push((src, dst, it, mb, kind)),
                        },
                    }
                }
            }
        }
        audit
    }
}

/// Parallel-recovery assignment (§5.2): micro-batch `mb` goes to replica
/// `mb mod d`, matching the paper's Fig. 7 (d = 2, m = 4 → replica 0 gets
/// {0, 2}, replica 1 gets {1, 3}).
pub fn assign_microbatches(m: usize, d: usize, replica: usize) -> Vec<usize> {
    assert!(d >= 1 && replica < d);
    (0..m).filter(|mb| mb % d == replica).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MsgKindCode;

    #[test]
    fn assignment_matches_fig7() {
        assert_eq!(assign_microbatches(4, 2, 0), vec![0, 2]);
        assert_eq!(assign_microbatches(4, 2, 1), vec![1, 3]);
    }

    #[test]
    fn assignment_partitions_all_microbatches() {
        for m in 1..=12 {
            for d in 1..=m {
                let mut all: Vec<usize> =
                    (0..d).flat_map(|r| assign_microbatches(m, d, r)).collect();
                all.sort_unstable();
                assert_eq!(all, (0..m).collect::<Vec<_>>(), "m={m} d={d}");
            }
        }
    }

    #[test]
    fn reader_round_trip_and_order() {
        let store = BlobStore::new_temp("walr").unwrap();
        let reader = WalReader::new(store.clone());
        // Write records out of order.
        for (it, mb, kind) in [
            (1u64, 1u64, MsgKind::Gradient),
            (0, 0, MsgKind::Activation),
            (0, 1, MsgKind::Activation),
            (0, 0, MsgKind::Gradient),
        ] {
            let rec = LogRecord::new(0, 1, it, mb, kind, Tensor::full([2], mb as f32));
            store.put(&rec.key(), &rec.encode()).unwrap();
        }
        assert_eq!(
            reader.iterations().unwrap(),
            vec![IterationId::new(0), IterationId::new(1)]
        );
        let recs = reader.records_for(IterationId::new(0)).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].stamp.kind, MsgKindCode::Activation);
        assert_eq!(recs[0].stamp.microbatch, 0);
        assert_eq!(recs[1].stamp.kind, MsgKindCode::Gradient);
        let t = reader
            .read(
                0,
                1,
                IterationId::new(0),
                MicrobatchId::new(1),
                MsgKind::Activation,
            )
            .unwrap();
        assert_eq!(t.data(), &[1.0, 1.0]);
        store.destroy().unwrap();
    }

    #[test]
    fn reader_missing_record_errors() {
        let store = BlobStore::new_temp("walm").unwrap();
        let reader = WalReader::new(store.clone());
        assert!(reader
            .read(
                0,
                1,
                IterationId::new(5),
                MicrobatchId::new(0),
                MsgKind::Activation,
            )
            .is_err());
        store.destroy().unwrap();
    }

    fn populated_reader(microbatches: u64) -> WalReader {
        let store = BlobStore::new_temp("walpar").unwrap();
        for mb in 0..microbatches {
            for (src, dst, kind) in [
                (0usize, 1usize, MsgKind::Activation),
                (2, 1, MsgKind::Gradient),
            ] {
                let t = Tensor::from_vec([3], vec![mb as f32, src as f32, 0.1 + mb as f32 * 0.7]);
                let rec = LogRecord::new(src, dst, 0, mb, kind, t);
                store.put(&rec.key(), &rec.encode()).unwrap();
            }
        }
        WalReader::new(store)
    }

    /// Overwrites one record with a strict byte prefix of its encoding —
    /// exactly what a crash mid-flush leaves behind.
    fn tear_record(reader: &WalReader, rec: &LogRecord, keep: usize) {
        let enc = rec.encode();
        assert!(keep < enc.len());
        reader.store.put(&rec.key(), &enc[..keep]).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_and_reported() {
        let reader = populated_reader(4);
        let victim = LogRecord::new(
            0,
            1,
            0,
            3,
            MsgKind::Activation,
            Tensor::from_vec([3], vec![3.0, 0.0, 0.1 + 3.0 * 0.7]),
        );
        tear_record(&reader, &victim, 20);
        let (recs, torn) = reader.records_for_audited(IterationId::new(0)).unwrap();
        assert_eq!(torn, vec![victim.key()]);
        assert_eq!(recs.len(), 7, "the 7 intact records survive");
        assert!(recs.iter().all(|r| r.key() != victim.key()));
        reader.store.destroy().unwrap();
    }

    #[test]
    fn torn_tail_at_any_offset_never_aborts_replay() {
        let victim = LogRecord::new(
            2,
            1,
            0,
            1,
            MsgKind::Gradient,
            Tensor::from_vec([3], vec![1.0, 2.0, 0.8]),
        );
        let full = victim.encode().len();
        for keep in [0, 1, 32, 33, full / 2, full - 1] {
            let reader = populated_reader(3);
            tear_record(&reader, &victim, keep);
            let (recs, torn) = reader.records_for_audited(IterationId::new(0)).unwrap();
            assert_eq!(torn.len(), 1, "keep={keep}");
            assert_eq!(recs.len(), 5, "keep={keep}");
            reader.store.destroy().unwrap();
        }
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;
    use crate::record::LogRecord;

    #[test]
    fn verify_passes_on_complete_logs() {
        let store = BlobStore::new_temp("audit1").unwrap();
        for it in 3..6u64 {
            for mb in 0..2u64 {
                for (src, dst, kind) in [
                    (0usize, 1usize, MsgKind::Activation),
                    (2, 1, MsgKind::Gradient),
                ] {
                    let r = LogRecord::new(src, dst, it, mb, kind, Tensor::ones([2]));
                    store.put(&r.key(), &r.encode()).unwrap();
                }
            }
        }
        let reader = WalReader::new(store.clone());
        let audit = reader.verify(
            &[(0, 1, MsgKind::Activation), (2, 1, MsgKind::Gradient)],
            3..6,
            2,
        );
        assert!(audit.complete(), "{:?}", audit.missing);
        store.destroy().unwrap();
    }

    #[test]
    fn verify_reports_each_gap() {
        let store = BlobStore::new_temp("audit2").unwrap();
        for it in 0..3u64 {
            for mb in 0..2u64 {
                let r = LogRecord::new(0, 1, it, mb, MsgKind::Activation, Tensor::ones([2]));
                store.put(&r.key(), &r.encode()).unwrap();
            }
        }
        // Corrupt the middle: delete iteration 1, micro-batch 1.
        let victim = LogRecord::new(0, 1, 1, 1, MsgKind::Activation, Tensor::ones([2]));
        store.delete(&victim.key()).unwrap();
        let reader = WalReader::new(store.clone());
        let audit = reader.verify(&[(0, 1, MsgKind::Activation)], 0..3, 2);
        assert_eq!(audit.missing, vec![(0, 1, 1, 1, MsgKind::Activation)]);
        assert!(audit.torn.is_empty());
        assert!(!audit.complete());
        store.destroy().unwrap();
    }

    #[test]
    fn verify_distinguishes_torn_from_missing() {
        let store = BlobStore::new_temp("audit3").unwrap();
        for it in 0..3u64 {
            let r = LogRecord::new(0, 1, it, 0, MsgKind::Activation, Tensor::ones([2]));
            store.put(&r.key(), &r.encode()).unwrap();
        }
        // Iteration 1's record is torn mid-write; iteration 2's was
        // never logged at all.
        let torn = LogRecord::new(0, 1, 1, 0, MsgKind::Activation, Tensor::ones([2]));
        let enc = torn.encode();
        store.put(&torn.key(), &enc[..enc.len() / 2]).unwrap();
        let gone = LogRecord::new(0, 1, 2, 0, MsgKind::Activation, Tensor::ones([2]));
        store.delete(&gone.key()).unwrap();

        let reader = WalReader::new(store.clone());
        let audit = reader.verify(&[(0, 1, MsgKind::Activation)], 0..3, 1);
        assert_eq!(audit.torn, vec![(0, 1, 1, 0, MsgKind::Activation)]);
        assert_eq!(audit.missing, vec![(0, 1, 2, 0, MsgKind::Activation)]);
        assert!(!audit.complete());
        store.destroy().unwrap();
    }
}
