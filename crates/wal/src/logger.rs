//! The logging engine: upstream backup with synchronous, asynchronous, and
//! bubble-time-asynchronous modes (§5.1).
//!
//! The paper's pipeline is: outbound tensor → (stays "on the GPU") →
//! copied to CPU during the next bubble → background thread writes it to
//! the local disk. Here:
//!
//! - `Sync` writes inline on `on_send` (the `torch.save`-before-send
//!   baseline of §7.1);
//! - `Async` enqueues to the writer thread immediately on `on_send`;
//! - `BubbleAsync` stages the record in memory on `on_send` and hands the
//!   staged batch to the writer thread only at the next bubble
//!   ([`PipelineObserver::on_idle`]) — logging fully off the critical
//!   path.
//!
//! On failure detection the owner calls [`Logger::flush`], which drains
//! the staging area and blocks until the writer is idle — the paper's
//! "flush the queue of uncompleted logging tasks".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use swift_dnn::StepCtx;
use swift_net::{Rank, Topology};
use swift_obs::IterationId;
use swift_pipeline::{MsgKind, PipelineObserver};
use swift_store::BlobStore;
use swift_tensor::Tensor;

use crate::grouping::GroupMap;
use crate::record::LogRecord;

/// A record already rendered to its wire form: the store key plus the
/// encoded payload. Records are encoded once, on `log_send`, straight from
/// the borrowed boundary tensor — the tensor itself is never cloned, and
/// the payload buffer travels to the writer thread and comes back through
/// the recycle channel for reuse.
#[derive(Debug, Default)]
struct WriteJob {
    key: String,
    /// Training iteration the record belongs to — checked against the GC
    /// watermark so a checkpoint can retire queued-but-unflushed records.
    iteration: u64,
    payload: Vec<u8>,
}

impl WriteJob {
    /// Clears the key and payload for reuse, keeping their capacity.
    fn recycle(mut self) -> Self {
        self.key.clear();
        self.payload.clear();
        self
    }
}

/// Background writer threads sharing the job queue.
const WRITER_POOL: usize = 2;

/// Jobs handed to the writer threads and not yet finished. The writer
/// that finishes the last one wakes every thread waiting for the queue to
/// drain, so a flush returns on that write instead of on a polling tick.
#[derive(Debug, Default)]
struct InFlight {
    count: Mutex<u64>,
    drained: Condvar,
}

impl InFlight {
    fn lock(&self) -> std::sync::MutexGuard<'_, u64> {
        // The count stays consistent even if a holder panicked: every
        // critical section is a single arithmetic update.
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn add(&self) {
        *self.lock() += 1;
    }

    fn done(&self) {
        let mut n = self.lock();
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until every job handed to the writers has finished.
    fn wait_drained(&self) {
        let mut n = self.lock();
        while *n > 0 {
            n = self.drained.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Default bubble budget (§5.4): how many staged bytes may wait for a
/// bubble before `log_send` starts spilling synchronously. Generous by
/// default — the budget only bites when bubbles are scarce relative to
/// logging volume.
pub const DEFAULT_BUBBLE_BUDGET_BYTES: usize = 8 * 1024 * 1024;

/// When records leave the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogMode {
    /// Write inline before returning from the send (baseline).
    Sync,
    /// Enqueue to the background writer immediately.
    Async,
    /// Stage in memory; enqueue at the next pipeline bubble.
    BubbleAsync,
}

/// Payload precision for persisted records (§8 mixed precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogPrecision {
    /// Full precision: replay is bitwise exact.
    F32,
    /// Half precision: half the volume, ≤2⁻¹¹ relative rounding on replay.
    F16,
}

/// Counters exposed for experiments.
#[derive(Debug, Default)]
pub struct LogStats {
    /// Records durably written.
    pub records_written: AtomicU64,
    /// Payload bytes durably written.
    pub bytes_written: AtomicU64,
    /// Records dropped because the destination was intra-group (not
    /// logged under selective logging).
    pub records_skipped: AtomicU64,
}

/// The per-machine logger. One logger serves all workers of a machine
/// (they share its disk); it decides *what* to log from the topology and
/// the selective-logging group map.
pub struct Logger {
    mode: LogMode,
    precision: LogPrecision,
    topology: Topology,
    groups: GroupMap,
    staged: Vec<WriteJob>,
    /// Total payload bytes currently staged (metered against the budget).
    staged_bytes: usize,
    /// Staged bytes allowed to wait for a bubble before spilling inline.
    bubble_budget_bytes: usize,
    tx: Option<Sender<WriteJob>>,
    writers: Vec<JoinHandle<()>>,
    in_flight: Arc<InFlight>,
    /// Records below this iteration are superseded by a checkpoint; queued
    /// jobs under it are dropped instead of written.
    gc_watermark: Arc<AtomicU64>,
    stats: Arc<LogStats>,
    store: BlobStore,
    /// Drained jobs (key + payload buffers) coming back from the writer
    /// threads; reused by the next `log_send` so steady-state logging
    /// stops allocating.
    recycled: Receiver<WriteJob>,
    /// Job held back by the inline (`Sync`/spill) write paths for reuse.
    spare: Option<WriteJob>,
}

impl Logger {
    /// Creates a logger writing to the machine-local `store`.
    ///
    /// `groups` controls selective logging (§5.3): traffic between ranks
    /// whose machines share a group is *not* logged. Use
    /// [`GroupMap::singletons`] for full (per-machine) logging.
    pub fn new(mode: LogMode, topology: Topology, groups: GroupMap, store: BlobStore) -> Self {
        Self::with_precision(mode, topology, groups, store, LogPrecision::F32)
    }

    /// Creates a logger persisting records at the given precision.
    pub fn with_precision(
        mode: LogMode,
        topology: Topology,
        groups: GroupMap,
        store: BlobStore,
        precision: LogPrecision,
    ) -> Self {
        let stats = Arc::new(LogStats::default());
        let in_flight = Arc::new(InFlight::default());
        let gc_watermark = Arc::new(AtomicU64::new(0));
        let (pool_tx, pool_rx) = unbounded::<WriteJob>();
        let (tx, writers) = if mode == LogMode::Sync {
            (None, Vec::new())
        } else {
            let (tx, rx) = unbounded::<WriteJob>();
            let mut writers = Vec::with_capacity(WRITER_POOL);
            for i in 0..WRITER_POOL {
                let rx = rx.clone();
                let pool_tx = pool_tx.clone();
                let store2 = store.clone();
                let stats2 = stats.clone();
                let in_flight2 = in_flight.clone();
                let watermark = gc_watermark.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("wal-writer-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // A checkpoint taken while the job was queued
                            // supersedes it — drop instead of persisting.
                            if job.iteration >= watermark.load(Ordering::SeqCst) {
                                write_payload(&store2, &job.key, &job.payload, &stats2);
                            }
                            // Hand the drained job (key + payload buffers)
                            // back for reuse; the logger may already be
                            // gone, in which case it simply drops.
                            let _ = pool_tx.send(job.recycle());
                            in_flight2.done();
                        }
                    })
                    .expect("failed to spawn wal writer");
                writers.push(handle);
            }
            (Some(tx), writers)
        };
        Logger {
            mode,
            precision,
            topology,
            groups,
            staged: Vec::new(),
            staged_bytes: 0,
            bubble_budget_bytes: DEFAULT_BUBBLE_BUDGET_BYTES,
            tx,
            writers,
            in_flight,
            gc_watermark,
            stats,
            store,
            recycled: pool_rx,
            spare: None,
        }
    }

    /// Overrides the bubble budget (staged bytes allowed to wait for a
    /// bubble before `log_send` spills synchronously).
    pub fn set_bubble_budget(&mut self, bytes: usize) {
        self.bubble_budget_bytes = bytes;
    }

    /// The logging mode.
    pub fn mode(&self) -> LogMode {
        self.mode
    }

    /// Statistics counters.
    pub fn stats(&self) -> &Arc<LogStats> {
        &self.stats
    }

    /// The machine-local store records land in.
    pub fn store(&self) -> &BlobStore {
        &self.store
    }

    /// Whether traffic `src → dst` must be logged: inter-machine (§5.1)
    /// *and* inter-group (§5.3).
    pub fn should_log(&self, src: Rank, dst: Rank) -> bool {
        let (ms, md) = (self.topology.machine_of(src), self.topology.machine_of(dst));
        ms != md && self.groups.group_of(ms) != self.groups.group_of(md)
    }

    /// Records an outbound tensor (called from the send path).
    ///
    /// The tensor is encoded straight into a pooled buffer here — it is
    /// never cloned, and in the async modes the only per-record cost on
    /// the critical path is the encode itself.
    pub fn log_send(&mut self, src: Rank, dst: Rank, ctx: StepCtx, kind: MsgKind, t: &Tensor) {
        if !self.should_log(src, dst) {
            self.stats.records_skipped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let half = self.precision == LogPrecision::F16;
        let kind_code = kind.into();
        // Grab a recycled job (writer-drained, spill-retained, or fresh)
        // and render the key + wire payload into it in place.
        let mut job = self
            .spare
            .take()
            .or_else(|| self.recycled.try_recv().ok().map(WriteJob::recycle))
            .unwrap_or_default();
        LogRecord::key_into(
            src,
            dst,
            ctx.iteration,
            ctx.microbatch,
            kind_code,
            &mut job.key,
        );
        job.iteration = ctx.iteration;
        job.payload.reserve(LogRecord::encoded_len(t, half));
        LogRecord::encode_parts_into(
            src,
            dst,
            ctx.iteration,
            ctx.microbatch,
            kind_code,
            t,
            half,
            &mut job.payload,
        );
        match self.mode {
            LogMode::Sync => {
                write_payload(&self.store, &job.key, &job.payload, &self.stats);
                self.spare = Some(job.recycle());
            }
            LogMode::Async => self.enqueue(job),
            LogMode::BubbleAsync => {
                if self.staged_bytes + job.payload.len() > self.bubble_budget_bytes {
                    // Budget exceeded (§5.4): bubbles aren't keeping up, so
                    // this record can't be hidden — spill it synchronously
                    // rather than letting the logging debt grow unbounded.
                    swift_obs::add(swift_obs::Counter::SpilledBytes, job.payload.len() as u64);
                    write_payload(&self.store, &job.key, &job.payload, &self.stats);
                    self.spare = Some(job.recycle());
                } else {
                    self.staged_bytes += job.payload.len();
                    self.staged.push(job);
                }
            }
        }
    }

    /// Bubble callback: hand staged records to the background writer
    /// ("copy to CPU during the bubble").
    pub fn on_bubble(&mut self) {
        if self.mode == LogMode::BubbleAsync {
            for job in self.staged.drain(..) {
                // BubbleBytes counts exactly what a bubble hid; spilled
                // records were counted as SpilledBytes at log_send.
                swift_obs::add(swift_obs::Counter::BubbleBytes, job.payload.len() as u64);
                self.in_flight.add();
                self.tx
                    .as_ref()
                    .unwrap()
                    .send(job)
                    .expect("wal writer gone");
            }
            self.staged_bytes = 0;
        }
    }

    fn enqueue(&mut self, job: WriteJob) {
        self.in_flight.add();
        self.tx
            .as_ref()
            .unwrap()
            .send(job)
            .expect("wal writer gone");
    }

    /// Records staged in memory, not yet handed to the writer.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Drains staging and blocks until every record is durable — called on
    /// failure detection (§5.1 recovery step 1–2) and at checkpoints.
    pub fn flush(&mut self) {
        let staged: Vec<WriteJob> = self.staged.drain(..).collect();
        self.staged_bytes = 0;
        match self.mode {
            LogMode::Sync => {
                for job in &staged {
                    write_payload(&self.store, &job.key, &job.payload, &self.stats);
                }
            }
            _ => {
                for job in staged {
                    self.enqueue(job);
                }
                self.in_flight.wait_drained();
            }
        }
    }

    /// Garbage-collects every record older than `checkpoint_iteration`
    /// (obsoleted by the checkpoint, §5.1): drops queued-but-unflushed
    /// records the checkpoint supersedes, then deletes persisted ones.
    /// Returns the count removed.
    pub fn gc_before(&mut self, checkpoint_iteration: IterationId) -> std::io::Result<usize> {
        let wm = checkpoint_iteration.get();
        self.gc_watermark.store(wm, Ordering::SeqCst);
        let before = self.staged.len();
        self.staged.retain(|j| j.iteration >= wm);
        let mut removed = before - self.staged.len();
        self.staged_bytes = self.staged.iter().map(|j| j.payload.len()).sum();
        // Wait out in-flight writes so a straggler below the watermark
        // can't land after the delete pass (writers drop such jobs from
        // here on).
        self.in_flight.wait_drained();
        for key in self.store.list("wal/")? {
            // Keys embed the iteration: wal/it{iter:012}/...
            if let Some(it) = key
                .strip_prefix("wal/it")
                .and_then(|s| s.get(0..12))
                .and_then(|s| s.parse::<u64>().ok())
            {
                if it < wm {
                    self.store.delete(&key)?;
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }
}

impl Drop for Logger {
    fn drop(&mut self) {
        self.flush();
        drop(self.tx.take());
        for h in self.writers.drain(..) {
            let _ = h.join();
        }
    }
}

fn write_payload(store: &BlobStore, key: &str, payload: &[u8], stats: &LogStats) {
    store.put(key, payload).expect("log write failed");
    stats.records_written.fetch_add(1, Ordering::Relaxed);
    stats
        .bytes_written
        .fetch_add(payload.len() as u64, Ordering::Relaxed);
    swift_obs::add(swift_obs::Counter::BytesLogged, payload.len() as u64);
}

/// A [`PipelineObserver`] binding a worker rank to its machine's logger —
/// the seam between the pipeline executor and the WAL.
pub struct LoggingObserver<'a> {
    /// The sending rank.
    pub rank: Rank,
    /// The machine's logger.
    pub logger: &'a mut Logger,
}

impl PipelineObserver for LoggingObserver<'_> {
    fn on_send(&mut self, dst: Rank, ctx: StepCtx, kind: MsgKind, t: &Tensor) {
        self.logger.log_send(self.rank, dst, ctx, kind, t);
    }

    fn on_idle(&mut self, _ctx: StepCtx) {
        self.logger.on_bubble();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_pipeline::MsgKind;

    fn setup(mode: LogMode) -> Logger {
        let topo = Topology::uniform(2, 2); // ranks 0,1 | 2,3
        let store = BlobStore::new_temp("wal").unwrap();
        Logger::new(mode, topo.clone(), GroupMap::singletons(2), store)
    }

    /// Drops the logger, which flushes it, then removes its store.
    fn destroy(l: Logger) {
        let store = l.store().clone();
        drop(l);
        store.destroy().unwrap();
    }

    fn ctx(it: u64, mb: u64) -> StepCtx {
        StepCtx::new(it, mb)
    }

    #[test]
    fn intra_machine_traffic_not_logged() {
        let mut l = setup(LogMode::Sync);
        l.log_send(0, 1, ctx(0, 0), MsgKind::Activation, &Tensor::ones([4]));
        assert_eq!(l.stats().records_written.load(Ordering::Relaxed), 0);
        assert_eq!(l.stats().records_skipped.load(Ordering::Relaxed), 1);
        l.log_send(1, 2, ctx(0, 0), MsgKind::Activation, &Tensor::ones([4]));
        assert_eq!(l.stats().records_written.load(Ordering::Relaxed), 1);
        destroy(l);
    }

    #[test]
    fn selective_logging_skips_intra_group() {
        let topo = Topology::uniform(4, 1);
        let store = BlobStore::new_temp("wal-sel").unwrap();
        // Machines {0,1} and {2,3} grouped: only the 1→2 boundary logs.
        let groups = GroupMap::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut l = Logger::new(LogMode::Sync, topo, groups, store);
        assert!(!l.should_log(0, 1));
        assert!(l.should_log(1, 2));
        assert!(!l.should_log(2, 3));
        l.log_send(0, 1, ctx(0, 0), MsgKind::Activation, &Tensor::ones([2]));
        l.log_send(1, 2, ctx(0, 0), MsgKind::Activation, &Tensor::ones([2]));
        assert_eq!(l.stats().records_written.load(Ordering::Relaxed), 1);
        destroy(l);
    }

    #[test]
    fn sync_mode_is_immediately_durable() {
        let mut l = setup(LogMode::Sync);
        l.log_send(1, 2, ctx(3, 1), MsgKind::Gradient, &Tensor::full([8], 2.0));
        assert_eq!(l.store().list("wal/").unwrap().len(), 1);
        destroy(l);
    }

    #[test]
    fn bubble_mode_stages_until_idle() {
        let mut l = setup(LogMode::BubbleAsync);
        l.log_send(1, 2, ctx(0, 0), MsgKind::Activation, &Tensor::ones([4]));
        l.log_send(1, 2, ctx(0, 1), MsgKind::Activation, &Tensor::ones([4]));
        assert_eq!(l.staged_len(), 2, "records wait for a bubble");
        l.on_bubble();
        assert_eq!(l.staged_len(), 0);
        l.flush();
        assert_eq!(l.stats().records_written.load(Ordering::Relaxed), 2);
        destroy(l);
    }

    #[test]
    fn flush_drains_staging_on_failure() {
        let mut l = setup(LogMode::BubbleAsync);
        l.log_send(1, 2, ctx(5, 0), MsgKind::Activation, &Tensor::ones([4]));
        // Failure detected before any bubble: flush must persist it.
        l.flush();
        assert_eq!(l.store().list("wal/").unwrap().len(), 1);
        destroy(l);
    }

    #[test]
    fn async_mode_eventually_durable() {
        let mut l = setup(LogMode::Async);
        for mb in 0..4 {
            l.log_send(1, 2, ctx(0, mb), MsgKind::Activation, &Tensor::ones([16]));
        }
        l.flush();
        assert_eq!(l.stats().records_written.load(Ordering::Relaxed), 4);
        // Each record stores its metadata header plus the 64-byte payload.
        assert!(l.stats().bytes_written.load(Ordering::Relaxed) >= 4 * 64);
        destroy(l);
    }

    #[test]
    fn gc_removes_pre_checkpoint_records() {
        let mut l = setup(LogMode::Sync);
        for it in 0..6u64 {
            l.log_send(1, 2, ctx(it, 0), MsgKind::Activation, &Tensor::ones([2]));
        }
        let removed = l.gc_before(IterationId::new(4)).unwrap();
        assert_eq!(removed, 4);
        let remaining = l.store().list("wal/").unwrap();
        assert_eq!(remaining.len(), 2);
        assert!(remaining
            .iter()
            .all(|k| k.contains("it000000000004") || k.contains("it000000000005")));
        destroy(l);
    }

    #[test]
    fn f16_precision_halves_stored_volume() {
        let topo = Topology::uniform(2, 1);
        let mk = |precision| {
            Logger::with_precision(
                LogMode::Sync,
                topo.clone(),
                GroupMap::singletons(2),
                BlobStore::new_temp("wal-prec").unwrap(),
                precision,
            )
        };
        let t = Tensor::full([4096], 0.125);
        let mut full = mk(LogPrecision::F32);
        let mut half = mk(LogPrecision::F16);
        full.log_send(0, 1, ctx(0, 0), MsgKind::Activation, &t);
        half.log_send(0, 1, ctx(0, 0), MsgKind::Activation, &t);
        let fb = full.store().total_bytes().unwrap();
        let hb = half.store().total_bytes().unwrap();
        assert!(
            hb < fb * 6 / 10,
            "f16 logging must roughly halve storage: {hb} vs {fb}"
        );
        // And the stored record still decodes to the exact tensor (0.125
        // is representable in f16).
        let key = full.store().list("wal/").unwrap().remove(0);
        let rec = crate::record::LogRecord::decode(half.store().get(&key).unwrap()).unwrap();
        assert!(rec.tensor.bit_eq(&t));
        destroy(full);
        destroy(half);
    }

    #[test]
    fn gc_drops_queued_but_unflushed_records() {
        let mut l = setup(LogMode::BubbleAsync);
        for it in 0..6u64 {
            l.log_send(1, 2, ctx(it, 0), MsgKind::Activation, &Tensor::ones([2]));
        }
        assert_eq!(l.staged_len(), 6, "no bubble yet — everything staged");
        // Checkpoint at iteration 4: the four staged records it supersedes
        // must never reach the disk, even though they were never flushed.
        let removed = l.gc_before(IterationId::new(4)).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(l.staged_len(), 2);
        l.flush();
        let remaining = l.store().list("wal/").unwrap();
        assert_eq!(remaining.len(), 2);
        assert!(remaining
            .iter()
            .all(|k| k.contains("it000000000004") || k.contains("it000000000005")));
        destroy(l);
    }

    #[test]
    fn writer_pool_persists_async_backlog() {
        let mut l = setup(LogMode::Async);
        for it in 0..8u64 {
            for mb in 0..8 {
                l.log_send(1, 2, ctx(it, mb), MsgKind::Activation, &Tensor::ones([16]));
            }
        }
        l.flush();
        assert_eq!(l.stats().records_written.load(Ordering::Relaxed), 64);
        assert_eq!(l.store().list("wal/").unwrap().len(), 64);
        destroy(l);
    }

    /// One randomized round for the replay-equivalence proptest: logs the
    /// same record stream through a synchronous logger and a background
    /// (BubbleAsync, pooled-writer) logger with arbitrary bubble cadence,
    /// a tight random budget (forcing spills), and a crash after `crash_at`
    /// records followed by flush-on-failure. Replay reads both stores and
    /// must see bitwise-identical tensors under identical keys.
    fn background_replay_matches_sync(
        n_records: usize,
        bubble_every: usize,
        budget: usize,
        crash_at: usize,
        seed: u64,
    ) -> bool {
        let topo = Topology::uniform(2, 1);
        let mut sync = Logger::new(
            LogMode::Sync,
            topo.clone(),
            GroupMap::singletons(2),
            BlobStore::new_temp("wal-replay-sync").unwrap(),
        );
        let mut bg = Logger::new(
            LogMode::BubbleAsync,
            topo,
            GroupMap::singletons(2),
            BlobStore::new_temp("wal-replay-bg").unwrap(),
        );
        bg.set_bubble_budget(budget);

        let crash_at = crash_at.min(n_records);
        let mut state = seed | 1;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f32 / (1u64 << 31) as f32 - 0.5
        };
        for i in 0..crash_at {
            let t = Tensor::from_vec([3], vec![rng(), rng(), rng()]);
            let c = ctx(i as u64 / 4, i as u64 % 4);
            sync.log_send(0, 1, c, MsgKind::Activation, &t);
            bg.log_send(0, 1, c, MsgKind::Activation, &t);
            if bubble_every > 0 && (i + 1) % bubble_every == 0 {
                bg.on_bubble();
            }
        }
        // Crash: flush-on-failure barriers the queue before replay.
        bg.flush();

        let mut sync_keys = sync.store().list("wal/").unwrap();
        let mut bg_keys = bg.store().list("wal/").unwrap();
        sync_keys.sort();
        bg_keys.sort();
        let same = sync_keys == bg_keys
            && sync_keys.iter().all(|k| {
                let a = crate::record::LogRecord::decode(sync.store().get(k).unwrap()).unwrap();
                let b = crate::record::LogRecord::decode(bg.store().get(k).unwrap()).unwrap();
                a.tensor.bit_eq(&b.tensor)
            });
        destroy(sync);
        destroy(bg);
        same
    }

    mod proptests {
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn background_wal_replay_is_bitwise_equal_to_sync(
                n_records in 1usize..24,
                bubble_every in 0usize..6,
                budget in 0usize..256,
                crash_at in 0usize..24,
                seed in 0u64..10_000,
            ) {
                prop_assert!(super::background_replay_matches_sync(
                    n_records, bubble_every, budget, crash_at, seed
                ));
            }
        }
    }

    #[test]
    fn drop_flushes_outstanding_records() {
        let store = BlobStore::new_temp("wal-drop").unwrap();
        {
            let mut l = Logger::new(
                LogMode::BubbleAsync,
                Topology::uniform(2, 1),
                GroupMap::singletons(2),
                store.clone(),
            );
            l.log_send(0, 1, ctx(9, 0), MsgKind::Gradient, &Tensor::ones([4]));
        } // drop
        assert_eq!(store.list("wal/").unwrap().len(), 1);
        store.destroy().unwrap();
    }
}
