//! The cluster launcher: spawns one OS thread per worker rank and wires up
//! communicators, the failure controller, and the key-value store.

use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;

use crate::comm::{build_comms, respawn_comm, Comm, CommError, Fabric};
use crate::detector::{Heartbeat, HeartbeatConfig, HeartbeatMonitor};
use crate::failure::FailureController;
use crate::faults::{FaultInjector, FaultPlan};
use crate::kv::KvStore;
use crate::topology::{Rank, Topology};
use crate::trace::Tracer;

/// A cluster-lifecycle error (misuse of the launcher API), kept separate
/// from [`CommError`] which reports *runtime* failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The context for a rank was requested twice without a respawn.
    CtxAlreadyTaken {
        /// The doubly-requested rank.
        rank: Rank,
    },
    /// A rank outside the topology was named.
    UnknownRank {
        /// The out-of-range rank.
        rank: Rank,
        /// The world size it must be below.
        world: usize,
    },
    /// An OS-level spawn (worker or detector thread) failed.
    SpawnFailed {
        /// What was being spawned.
        what: String,
        /// The OS error.
        detail: String,
    },
    /// Heartbeat lease parameters that cannot work (e.g. a lease shorter
    /// than the beat interval allows).
    InvalidHeartbeatConfig {
        /// What is wrong with them.
        detail: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::CtxAlreadyTaken { rank } => {
                write!(f, "context for rank {rank} already taken")
            }
            ClusterError::UnknownRank { rank, world } => {
                write!(f, "rank {rank} outside world of size {world}")
            }
            ClusterError::SpawnFailed { what, detail } => {
                write!(f, "failed to spawn {what}: {detail}")
            }
            ClusterError::InvalidHeartbeatConfig { detail } => {
                write!(f, "invalid heartbeat config: {detail}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Everything a worker thread needs.
pub struct WorkerCtx {
    /// This worker's communicator.
    pub comm: Comm,
    /// The shared key-value store (rank 0's in the paper).
    pub kv: KvStore,
    /// Cluster topology.
    pub topology: Topology,
    /// Heartbeat lease publisher (when the cluster enables heartbeats).
    /// Owned by the context so a crashed worker's unwinding stops its
    /// beats — which is precisely how the monitor learns of the death.
    heartbeat: Option<Heartbeat>,
}

impl WorkerCtx {
    /// Assembles a context from its parts — the process backend's
    /// constructor: a `swift-worker` process builds its communicator
    /// over a socket transport and its KV handle over the supervisor's
    /// socket, then wraps them here to run the same worker loops the
    /// in-process cluster drives.
    pub fn from_parts(
        comm: Comm,
        kv: KvStore,
        topology: Topology,
        heartbeat: Option<Heartbeat>,
    ) -> Self {
        WorkerCtx {
            comm,
            kv,
            topology,
            heartbeat,
        }
    }

    /// This worker's rank.
    pub fn rank(&self) -> Rank {
        self.comm.rank()
    }

    /// The machine hosting this worker.
    pub fn machine(&self) -> usize {
        self.topology.machine_of(self.comm.rank())
    }

    /// Whether this context is publishing heartbeats.
    pub fn heartbeating(&self) -> bool {
        self.heartbeat.is_some()
    }

    /// Reports training progress to the fault injector so `AtIteration`
    /// crash triggers can fire. Returns `Err(SelfKilled)` when the
    /// trigger just took this worker's machine down.
    pub fn note_iteration(&self, iteration: u64) -> Result<(), CommError> {
        if let Some(inj) = self.comm.injector() {
            if inj.note_iteration(self.rank(), iteration) {
                return Err(CommError::SelfKilled);
            }
        }
        Ok(())
    }
}

/// Declarative construction of a [`Cluster`]: topology plus the
/// optional fault plan, heartbeat detection and protocol tracing, in
/// one builder instead of a constructor-then-mutate dance.
///
/// ```
/// use swift_net::{Cluster, FaultPlan, Topology};
///
/// let cluster = Cluster::builder(Topology::uniform(2, 1))
///     .faults(FaultPlan::chaos(7))
///     .tracing()
///     .build();
/// assert!(cluster.injector().is_some());
/// assert!(cluster.tracer().is_some());
/// ```
#[must_use = "a ClusterBuilder does nothing until .build() is called"]
#[derive(Debug)]
pub struct ClusterBuilder {
    topology: Topology,
    plan: Option<FaultPlan>,
    heartbeats: Option<HeartbeatConfig>,
    tracing: bool,
}

impl ClusterBuilder {
    /// Starts a builder for `topology` with no faults, no heartbeats and
    /// no tracing.
    pub fn new(topology: Topology) -> Self {
        ClusterBuilder {
            topology,
            plan: None,
            heartbeats: None,
            tracing: false,
        }
    }

    /// Installs a fault plan on the fabric (retrievable afterwards via
    /// [`Cluster::injector`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Enables heartbeat-lease failure detection.
    pub fn heartbeats(mut self, cfg: HeartbeatConfig) -> Self {
        self.heartbeats = Some(cfg);
        self
    }

    /// Enables heartbeat-lease failure detection with the defaults as
    /// overridden by `SWIFT_HEARTBEAT_MS` / `SWIFT_LEASE_MS` (validated:
    /// the lease must exceed twice the beat interval).
    pub fn heartbeats_from_env(self) -> Result<Self, ClusterError> {
        Ok(self.heartbeats(HeartbeatConfig::from_env()?))
    }

    /// Enables protocol tracing (retrievable afterwards via
    /// [`Cluster::tracer`]).
    pub fn tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Builds the cluster with everything installed before any worker
    /// can run, so coverage is complete from the first message.
    pub fn build(self) -> Cluster {
        let cluster = Cluster::new(self.topology);
        if let Some(plan) = self.plan {
            cluster.install_faults(plan);
        }
        if let Some(cfg) = self.heartbeats {
            cluster.enable_heartbeats(cfg);
        }
        if self.tracing {
            cluster.enable_tracing();
        }
        cluster
    }
}

/// A running in-process cluster.
///
/// Created with [`Cluster::builder`] (or [`Cluster::new`] for a plain
/// fabric); worker threads are spawned with [`Cluster::spawn`]. The
/// test/driver side keeps the handle to inject failures and spawn
/// replacement workers.
pub struct Cluster {
    topology: Topology,
    fc: Arc<FailureController>,
    kv: KvStore,
    fabric: Arc<Fabric>,
    pending: Mutex<Vec<Option<Comm>>>,
    hb_cfg: Mutex<Option<HeartbeatConfig>>,
    monitor: Mutex<Option<HeartbeatMonitor>>,
}

impl Cluster {
    /// Builds the fabric for `topology`.
    pub fn new(topology: Topology) -> Self {
        let fc = FailureController::new(topology.clone());
        let kv = KvStore::new();
        let (fabric, comms) = build_comms(topology.world_size(), fc.clone(), kv.clone());
        Cluster {
            topology,
            fc,
            kv,
            fabric,
            pending: Mutex::new(comms.into_iter().map(Some).collect()),
            hb_cfg: Mutex::new(None),
            monitor: Mutex::new(None),
        }
    }

    /// Starts a [`ClusterBuilder`] for `topology`.
    pub fn builder(topology: Topology) -> ClusterBuilder {
        ClusterBuilder::new(topology)
    }

    /// The fault injector installed on the fabric, if any.
    pub fn injector(&self) -> Option<Arc<FaultInjector>> {
        self.fabric.injector()
    }

    /// The protocol tracer installed on the fabric, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.fabric.tracer()
    }

    /// Installs `plan` on the fabric (call before spawning workers for
    /// full coverage). Returns the injector for stats and assertions.
    pub fn install_faults(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let inj = FaultInjector::new(plan, self.fc.clone());
        self.fabric.install_injector(inj.clone());
        inj
    }

    /// Turns on heartbeat-lease failure detection: every context taken
    /// from now on publishes a lease, and a monitor thread declares
    /// ranks whose lease goes stale. Idempotent. Panicking convenience
    /// wrapper around [`Cluster::try_enable_heartbeats`].
    pub fn enable_heartbeats(&self, cfg: HeartbeatConfig) {
        if let Err(e) = self.try_enable_heartbeats(cfg) {
            panic!("{e}");
        }
    }

    /// Turns on heartbeat-lease failure detection, surfacing an invalid
    /// lease configuration or a failed monitor spawn as a typed error.
    pub fn try_enable_heartbeats(&self, cfg: HeartbeatConfig) -> Result<(), ClusterError> {
        cfg.validate()?;
        *self.hb_cfg.lock() = Some(cfg);
        let mut mon = self.monitor.lock();
        if mon.is_none() {
            *mon = Some(HeartbeatMonitor::try_start(
                self.kv.clone(),
                cfg,
                self.topology.world_size(),
            )?);
        }
        Ok(())
    }

    /// Stops the heartbeat monitor (graceful shutdown: a driver that is
    /// about to tear the cluster down should stop suspecting it first).
    pub fn stop_heartbeat_monitor(&self) {
        *self.hb_cfg.lock() = None;
        *self.monitor.lock() = None;
    }

    /// Turns on protocol tracing: every subsequent send, delivery, epoch
    /// bump and purge is recorded with vector clocks. Returns the tracer;
    /// snapshot it after the run and feed the trace to `swift-verify`'s
    /// race checker. Call before spawning workers for a complete trace.
    pub fn enable_tracing(&self) -> Arc<Tracer> {
        let tracer = Tracer::new(self.topology.world_size());
        self.fabric.install_tracer(tracer.clone());
        tracer
    }

    /// The shared channel fabric.
    pub fn fabric(&self) -> Arc<Fabric> {
        self.fabric.clone()
    }

    /// The failure controller (the injection mechanism; production code
    /// must not consult it for detection).
    pub fn failure_controller(&self) -> Arc<FailureController> {
        self.fc.clone()
    }

    /// The shared key-value store.
    pub fn kv(&self) -> KvStore {
        self.kv.clone()
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Takes the worker context for `rank`, reporting misuse as a typed
    /// error instead of panicking (each rank's context can be taken
    /// exactly once; use [`Cluster::respawn`] for replacements).
    pub fn try_take_ctx(&self, rank: Rank) -> Result<WorkerCtx, ClusterError> {
        let mut pending = self.pending.lock();
        let slot = pending.get_mut(rank).ok_or(ClusterError::UnknownRank {
            rank,
            world: self.topology.world_size(),
        })?;
        let comm = slot.take().ok_or(ClusterError::CtxAlreadyTaken { rank })?;
        drop(pending);
        self.try_make_ctx(comm)
    }

    /// Takes the worker context for `rank` (exactly once per rank; use
    /// [`Cluster::respawn`] for replacements). Panicking convenience
    /// wrapper around [`Cluster::try_take_ctx`] for test drivers.
    pub fn take_ctx(&self, rank: Rank) -> WorkerCtx {
        self.try_take_ctx(rank)
            .unwrap_or_else(|e| panic!("take_ctx: {e}"))
    }

    fn try_make_ctx(&self, comm: Comm) -> Result<WorkerCtx, ClusterError> {
        let heartbeat = match *self.hb_cfg.lock() {
            Some(cfg) => Some(Heartbeat::try_start(
                self.kv.clone(),
                comm.rank(),
                cfg,
                self.fc.clone(),
                self.fabric.injector(),
            )?),
            None => None,
        };
        Ok(WorkerCtx {
            comm,
            kv: self.kv.clone(),
            topology: self.topology.clone(),
            heartbeat,
        })
    }

    /// Spawns a worker thread for `rank` running `f`. Panicking
    /// convenience wrapper around [`Cluster::try_spawn`] for test
    /// drivers.
    pub fn spawn<R, F>(&self, rank: Rank, f: F) -> thread::JoinHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(WorkerCtx) -> R + Send + 'static,
    {
        match self.try_spawn(rank, f) {
            Ok(h) => h,
            Err(e) => panic!("spawn: {e}"),
        }
    }

    /// Spawns a worker thread for `rank` running `f`, surfacing a taken
    /// context or a failed OS spawn as a typed error.
    pub fn try_spawn<R, F>(&self, rank: Rank, f: F) -> Result<thread::JoinHandle<R>, ClusterError>
    where
        R: Send + 'static,
        F: FnOnce(WorkerCtx) -> R + Send + 'static,
    {
        let ctx = self.try_take_ctx(rank)?;
        thread::Builder::new()
            .name(format!("worker-{rank}"))
            .spawn(move || f(ctx))
            .map_err(|e| ClusterError::SpawnFailed {
                what: format!("worker thread for rank {rank}"),
                detail: e.to_string(),
            })
    }

    /// Creates a fresh context for a *replacement* worker under an
    /// existing rank (after [`FailureController::replace_machine`]): new
    /// inbox, stale messages discarded. Panicking convenience wrapper
    /// around [`Cluster::try_respawn`].
    pub fn respawn(&self, rank: Rank) -> WorkerCtx {
        match self.try_respawn(rank) {
            Ok(ctx) => ctx,
            Err(e) => panic!("respawn: {e}"),
        }
    }

    /// Creates a fresh context for a *replacement* worker under an
    /// existing rank, surfacing a failed heartbeat spawn as a typed
    /// error.
    pub fn try_respawn(&self, rank: Rank) -> Result<WorkerCtx, ClusterError> {
        let comm = respawn_comm(
            &self.fabric,
            rank,
            self.topology.world_size(),
            self.fc.clone(),
            self.kv.clone(),
        );
        self.try_make_ctx(comm)
    }

    /// Runs `f` on every rank and joins all threads, returning results in
    /// rank order. Panics in workers propagate.
    pub fn run_all<R, F>(topology: Topology, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(WorkerCtx) -> R + Send + Sync + 'static,
    {
        let cluster = Cluster::new(topology);
        let f = Arc::new(f);
        let handles: Vec<_> = (0..cluster.topology.world_size())
            .map(|rank| {
                let f = f.clone();
                cluster.spawn(rank, move |ctx| f(ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // Re-raise the worker's own panic payload rather than
                // wrapping it (the caller sees the original message).
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommError;
    use swift_tensor::Tensor;

    #[test]
    fn try_take_ctx_reports_misuse_as_typed_errors() {
        let cluster = Cluster::new(Topology::uniform(1, 2));
        let _ctx0 = cluster.try_take_ctx(0).unwrap();
        assert_eq!(
            cluster.try_take_ctx(0).err(),
            Some(ClusterError::CtxAlreadyTaken { rank: 0 })
        );
        assert_eq!(
            cluster.try_take_ctx(5).err(),
            Some(ClusterError::UnknownRank { rank: 5, world: 2 })
        );
    }

    #[test]
    fn p2p_send_recv() {
        let results = Cluster::run_all(Topology::uniform(1, 2), |mut ctx| {
            if ctx.rank() == 0 {
                ctx.comm.send_tensor(1, 7, &Tensor::full([3], 5.0)).unwrap();
                0.0
            } else {
                ctx.comm.recv_tensor(0, 7).unwrap().sum()
            }
        });
        assert_eq!(results, vec![0.0, 15.0]);
    }

    #[test]
    fn out_of_order_tags() {
        let results = Cluster::run_all(Topology::uniform(1, 2), |mut ctx| {
            if ctx.rank() == 0 {
                ctx.comm.send_tensor(1, 1, &Tensor::scalar(1.0)).unwrap();
                ctx.comm.send_tensor(1, 2, &Tensor::scalar(2.0)).unwrap();
                0.0
            } else {
                // Receive tag 2 first, then tag 1 (stashed).
                let b = ctx.comm.recv_tensor(0, 2).unwrap().item();
                let a = ctx.comm.recv_tensor(0, 1).unwrap().item();
                b * 10.0 + a
            }
        });
        assert_eq!(results[1], 21.0);
    }

    /// The ascending-rank left fold `((t₀ + t₁) + t₂) + …` of every
    /// rank's input, computed locally: what the chunked all-reduce must
    /// produce bit for bit.
    fn left_fold(world: usize, input: impl Fn(Rank) -> Tensor) -> Tensor {
        let mut acc = input(0);
        for r in 1..world {
            acc.add_inplace(&input(r));
        }
        acc
    }

    #[test]
    fn allreduce_is_rank_sum_and_deterministic() {
        let run = || {
            Cluster::run_all(Topology::uniform(2, 2), |mut ctx| {
                let t = Tensor::full([4], (ctx.rank() + 1) as f32);
                ctx.comm
                    .allreduce_sum_chunked_among(&[0, 1, 2, 3], &t, usize::MAX)
                    .unwrap()
            })
        };
        let a = run();
        // 1+2+3+4 = 10 per element.
        for t in &a {
            assert_eq!(t.data(), &[10.0, 10.0, 10.0, 10.0]);
        }
        let b = run();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.bit_eq(y));
        }
    }

    #[test]
    fn broadcast_among_subgroup() {
        let results = Cluster::run_all(Topology::uniform(2, 2), |mut ctx| {
            let group = [1usize, 3];
            if group.contains(&ctx.rank()) {
                let mut t = if ctx.rank() == 1 {
                    Tensor::full([2], 9.0)
                } else {
                    Tensor::zeros([2])
                };
                ctx.comm
                    .broadcast_tensor_chunked_into(&group, 1, &mut t, 4)
                    .unwrap();
                t.sum()
            } else {
                -1.0
            }
        });
        assert_eq!(results, vec![-1.0, 18.0, -1.0, 18.0]);
    }

    /// The chunked chain all-reduce must be *bitwise* equal to the
    /// ascending-rank left fold of the inputs at every chunk size — 1 KiB
    /// (many chunks), 64 KiB (the default), and whole-tensor (one chunk).
    /// Shapes are deliberately not chunk-aligned.
    #[test]
    fn chunked_allreduce_bitwise_matches_ascending_rank_fold() {
        let input = |rank: Rank| {
            let n = 40_961; // prime-ish: last chunk is ragged
            Tensor::from_vec(
                [n],
                (0..n)
                    .map(|i| ((i * 31 + rank * 17) % 1013) as f32 * 0.37 - 90.0)
                    .collect(),
            )
        };
        for world in [2usize, 3, 4] {
            let want = left_fold(world, input);
            for chunk_bytes in [1024usize, 64 * 1024, usize::MAX] {
                let ranks: Vec<Rank> = (0..world).collect();
                let results = Cluster::run_all(Topology::uniform(world, 1), move |mut ctx| {
                    let t = input(ctx.rank());
                    ctx.comm
                        .allreduce_sum_chunked_among(&ranks, &t, chunk_bytes)
                        .unwrap()
                });
                for chunked in &results {
                    assert!(
                        chunked.bit_eq(&want),
                        "chunked all-reduce diverged at world={world} chunk={chunk_bytes}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_broadcast_delivers_the_root_tensor_bitwise() {
        for chunk_bytes in [1024usize, 64 * 1024, usize::MAX] {
            let n = 33_333;
            let src = Tensor::from_vec([n], (0..n).map(|i| (i as f32).sin()).collect());
            let want = src.clone();
            let results = Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
                let group = [0usize, 1, 2];
                // Bytes path: payload must survive chunking byte-exactly.
                let payload = (ctx.rank() == 1)
                    .then(|| bytes::Bytes::copy_from_slice(crate::bytemuck_f32(src.data())));
                let via_bytes = ctx
                    .comm
                    .broadcast_bytes_chunked_among(&group, 1, payload, chunk_bytes)
                    .unwrap();
                // Tensor path: the root streams its own tensor, the others
                // install into pre-shaped storage.
                let mut dst = if ctx.rank() == 1 {
                    src.clone()
                } else {
                    Tensor::zeros([n])
                };
                ctx.comm
                    .broadcast_tensor_chunked_into(&group, 1, &mut dst, chunk_bytes)
                    .unwrap();
                (via_bytes, dst)
            });
            for (via_bytes, dst) in &results {
                assert!(dst.bit_eq(&want), "chunked tensor broadcast diverged");
                assert_eq!(
                    &via_bytes[..],
                    crate::bytemuck_f32(want.data()),
                    "chunked bytes broadcast diverged"
                );
            }
        }
    }

    /// Deterministic pseudo-random payload shared by the sharded-transfer
    /// tests: every survivor builds the same bytes (the replication
    /// invariant the scatter contract requires).
    fn scatter_payload(len: usize, seed: u64) -> bytes::Bytes {
        bytes::Bytes::from(
            (0..len)
                .map(|i| {
                    ((i as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(seed)
                        >> 33) as u8
                })
                .collect::<Vec<u8>>(),
        )
    }

    /// One sharded-transfer round on the channel fabric: survivors stream
    /// shards to the replacement, and the replacement's bytes must be
    /// bitwise identical to the single-root chunked broadcast. Returns
    /// whether they matched.
    fn sharded_round_matches(
        len: usize,
        shard_bytes: usize,
        survivors: Vec<Rank>,
        replacement: Rank,
        seed: u64,
    ) -> bool {
        let world = survivors.len() + 1;
        let participants: Vec<Rank> = (0..world).collect();
        let survivors2 = survivors.clone();
        let results = Cluster::run_all(Topology::uniform(world, 1), move |mut ctx| {
            let me = ctx.rank();
            let payload = survivors2.contains(&me).then(|| scatter_payload(len, seed));
            let sharded = ctx
                .comm
                .scatter_state_sharded(&survivors2, &[replacement], payload, shard_bytes)
                .unwrap();
            let root = *survivors2.iter().min().unwrap();
            let root_payload = (me == root).then(|| scatter_payload(len, seed));
            let broadcast = ctx
                .comm
                .broadcast_bytes_chunked_among(&participants, root, root_payload, 4096)
                .unwrap();
            (sharded, broadcast)
        });
        let (sharded, broadcast) = &results[replacement];
        sharded == broadcast && sharded.len() == len
    }

    /// The sharded multi-source transfer must hand the replacement bytes
    /// bitwise identical to the single-root broadcast at shard counts
    /// 1, 2, 4 and 8, for 1–4 survivors, ragged and aligned alike.
    #[test]
    fn sharded_scatter_bitwise_matches_single_root_broadcast() {
        let len = 100_001usize; // ragged: the last shard is short
        for num_survivors in 1usize..=4 {
            for shard_count in [1usize, 2, 4, 8] {
                let shard_bytes = len.div_ceil(shard_count);
                let survivors: Vec<Rank> = (0..num_survivors).collect();
                assert!(
                    sharded_round_matches(len, shard_bytes, survivors, num_survivors, 7),
                    "diverged at survivors={num_survivors} shards={shard_count}"
                );
            }
        }
        // Empty payload: header-only exchange.
        assert!(sharded_round_matches(0, 1024, vec![0, 1], 2, 7));
    }

    /// Shard arrival drives the streaming callback in flat-offset order
    /// with the advertised total, so decode can overlap arrival.
    #[test]
    fn sharded_scatter_callback_sees_flat_offsets_in_order() {
        let len = 10_000usize;
        let results = Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
            let survivors = [0usize, 1];
            let me = ctx.rank();
            if survivors.contains(&me) {
                let payload = Some(scatter_payload(len, 3));
                ctx.comm
                    .scatter_state_sharded_with(&survivors, &[2], payload, 1000, |_, _, _| {})
                    .unwrap();
                Vec::new()
            } else {
                let mut seen = Vec::new();
                let total = ctx
                    .comm
                    .scatter_state_sharded_with(&survivors, &[2], None, 1000, |total, off, b| {
                        seen.push((total, off, b.len()));
                    })
                    .unwrap();
                assert_eq!(total, len);
                seen
            }
        });
        let seen = &results[2];
        assert_eq!(seen.len(), 10, "ceil(10000/1000) shards");
        let mut expect_off = 0;
        for &(total, off, piece) in seen {
            assert_eq!(total, len);
            assert_eq!(off, expect_off, "flat-offset order");
            expect_off += piece;
        }
        assert_eq!(expect_off, len);
    }

    /// One randomized round: the chunked all-reduce must be bitwise equal
    /// to the local ascending-rank fold, and the chunked broadcast of
    /// rank 0's input must deliver it bitwise. Returns whether every rank
    /// agreed.
    fn chunked_round_matches(numel: usize, chunk_bytes: usize, world: usize, seed: u64) -> bool {
        let ranks: Vec<Rank> = (0..world).collect();
        let input = move |rank: Rank| {
            Tensor::from_vec(
                [numel],
                (0..numel)
                    .map(|i| {
                        let x = (i as u64)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(seed + rank as u64);
                        (x >> 40) as f32 * 1e-4 - 0.8
                    })
                    .collect(),
            )
        };
        let want = left_fold(world, input);
        let root = input(0);
        let results = Cluster::run_all(Topology::uniform(world, 1), move |mut ctx| {
            let t = input(ctx.rank());
            let chunked = ctx
                .comm
                .allreduce_sum_chunked_among(&ranks, &t, chunk_bytes)
                .unwrap();
            let mut bcast = if ctx.rank() == 0 {
                t.clone()
            } else {
                Tensor::zeros([numel])
            };
            ctx.comm
                .broadcast_tensor_chunked_into(&ranks, 0, &mut bcast, chunk_bytes)
                .unwrap();
            (chunked, bcast)
        });
        results
            .iter()
            .all(|(chunked, bcast)| chunked.bit_eq(&want) && bcast.bit_eq(&root))
    }

    mod proptests {
        use proptest::prelude::*;

        proptest! {
            // Each case spawns a real thread-per-rank cluster.
            #![proptest_config(ProptestConfig::with_cases(6))]

            // Random shapes × chunk sizes × rank counts: the chunked
            // collectives stay bitwise equal to the local fold and the
            // root's tensor.
            #[test]
            fn chunked_collectives_match_local_fold(
                numel in 1usize..5000,
                chunk_bytes in 4usize..4096,
                world in 2usize..5,
                seed in 0u64..1000,
            ) {
                prop_assert!(super::chunked_round_matches(numel, chunk_bytes, world, seed));
            }

            // Random payload sizes × shard sizes × survivor sets: the
            // sharded multi-source transfer stays bitwise equal to the
            // single-root chunked broadcast.
            #[test]
            fn sharded_scatter_matches_broadcast(
                len in 0usize..20_000,
                shard_bytes in 1usize..8192,
                num_survivors in 1usize..5,
                seed in 0u64..1000,
            ) {
                let survivors: Vec<usize> = (0..num_survivors).collect();
                prop_assert!(super::sharded_round_matches(
                    len, shard_bytes, survivors, num_survivors, seed,
                ));
            }
        }
    }

    /// Runs `op` on one rank of two while the other, `crafter`, allocates
    /// the same collective tag and sends it `frame` on that tag's stream
    /// `tag ^ tag_xor`: the receive site must reject the malformed frame
    /// as a protocol error — never panic, never fold a short chunk. The
    /// crafter waits (boundedly) until the op has returned, so it
    /// outlives every send to it.
    fn rejects_crafted_frame<T: std::fmt::Debug + 'static>(
        crafter: Rank,
        frame: &'static [u8],
        tag_xor: u64,
        op: fn(&mut WorkerCtx) -> Result<T, CommError>,
    ) {
        let out = Cluster::run_all(Topology::uniform(2, 1), move |mut ctx| {
            if ctx.rank() == crafter {
                let tag = ctx.comm.next_coll_tag();
                let to = 1 - crafter;
                ctx.comm
                    .send_bytes(to, tag ^ tag_xor, bytes::Bytes::from_static(frame))
                    .unwrap();
                ctx.kv
                    .wait_for("op-returned", std::time::Duration::from_secs(30));
                return None;
            }
            let got = match op(&mut ctx) {
                Err(CommError::Protocol { detail }) => Ok(detail),
                other => Err(format!("{other:?}")),
            };
            ctx.kv.set("op-returned", "1");
            Some(got)
        });
        let got = out[1 - crafter].clone().unwrap();
        assert!(got.is_ok(), "expected a protocol error, got {got:?}");
    }

    #[test]
    fn short_tensor_frame_is_a_protocol_error() {
        let out = Cluster::run_all(Topology::uniform(2, 1), |mut ctx| {
            if ctx.rank() == 0 {
                let frame = bytes::Bytes::from_static(b"xy");
                ctx.comm.send_bytes(1, 7, frame).unwrap();
                return true;
            }
            matches!(ctx.comm.recv_tensor(0, 7), Err(CommError::Protocol { .. }))
        });
        assert!(out[1], "recv_tensor must reject a short frame");
    }

    #[test]
    fn short_allreduce_chunk_is_a_protocol_error() {
        // Rank 1, the chain's last rank, receives a 6-byte fold chunk.
        rejects_crafted_frame(0, b"abcdef", 0, |ctx| {
            ctx.comm
                .allreduce_sum_chunked_among(&[0, 1], &Tensor::zeros([4]), 1024)
        });
    }

    #[test]
    fn short_broadcast_chunk_is_a_protocol_error() {
        rejects_crafted_frame(0, b"abcdef", 0, |ctx| {
            let mut dst = Tensor::zeros([4]);
            ctx.comm
                .broadcast_tensor_chunked_into(&[0, 1], 0, &mut dst, 1024)
        });
    }

    #[test]
    fn short_broadcast_header_is_a_protocol_error() {
        rejects_crafted_frame(0, b"abc", 0, |ctx| {
            ctx.comm
                .broadcast_bytes_chunked_among(&[0, 1], 0, None, 1024)
        });
    }

    #[test]
    fn short_state_header_is_a_protocol_error() {
        rejects_crafted_frame(0, b"abc", 0, |ctx| {
            ctx.comm.scatter_state_sharded(&[0], &[1], None, 1024)
        });
    }

    #[test]
    fn short_all_gather_frames_are_protocol_errors() {
        // The root receives a 3-byte value; a peer receives one value
        // where two were gathered.
        rejects_crafted_frame(1, b"abc", 0, |ctx| {
            ctx.comm.all_gather_u64_among(&[0, 1], 5)
        });
        rejects_crafted_frame(0, b"12345678", 0, |ctx| {
            ctx.comm.all_gather_u64_among(&[0, 1], 5)
        });
    }

    #[test]
    fn all_gather_u64_reaches_consensus() {
        let results = Cluster::run_all(Topology::uniform(1, 3), |mut ctx| {
            ctx.comm
                .all_gather_u64_among(&[0, 1, 2], 100 + ctx.rank() as u64)
                .unwrap()
        });
        for r in &results {
            assert_eq!(r, &vec![100, 101, 102]);
        }
    }

    #[test]
    fn recv_from_killed_peer_errors() {
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let fc = cluster.failure_controller();
        let h1 = cluster.spawn(1, |mut ctx| ctx.comm.recv_tensor(0, 5));
        // Rank 0 never sends; kill its machine.
        let _ctx0 = cluster.take_ctx(0);
        std::thread::sleep(std::time::Duration::from_millis(10));
        fc.kill_machine(0);
        let r = h1.join().unwrap();
        assert_eq!(r, Err(CommError::PeerFailed { rank: 0 }));
    }

    #[test]
    fn send_to_killed_peer_errors() {
        let cluster = Cluster::new(Topology::uniform(2, 1));
        cluster.failure_controller().kill_machine(1);
        let ctx0 = cluster.take_ctx(0);
        let _ctx1 = cluster.take_ctx(1);
        assert_eq!(
            ctx0.comm.send_tensor(1, 0, &Tensor::scalar(1.0)),
            Err(CommError::PeerFailed { rank: 1 })
        );
        // And the global failure flag is visible (the paper's KV flag).
        assert!(ctx0.comm.failure_controller().failure_detected());
    }

    #[test]
    fn killed_self_unwinds() {
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let fc = cluster.failure_controller();
        let h = cluster.spawn(0, |mut ctx| ctx.comm.recv_tensor(1, 0));
        let _ctx1 = cluster.take_ctx(1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        fc.kill_machine(0);
        assert_eq!(h.join().unwrap(), Err(CommError::SelfKilled));
    }

    #[test]
    fn respawn_gets_fresh_inbox() {
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let fc = cluster.failure_controller();
        {
            // Stale message sits in rank 1's inbox, then rank 1 dies.
            let ctx0 = cluster.take_ctx(0);
            ctx0.comm.send_tensor(1, 9, &Tensor::scalar(1.0)).unwrap();
            let _ctx1 = cluster.take_ctx(1);
            fc.kill_machine(1);
        }
        fc.replace_machine(1);
        let mut new1 = cluster.respawn(1);
        // The stale pre-failure message is gone; a fresh one arrives.
        let fabric_send_ok = new1
            .comm
            .send_bytes(1, 1, bytes::Bytes::from_static(b"x"))
            .is_ok();
        assert!(fabric_send_ok, "self-send through fabric");
        assert_eq!(new1.comm.recv_bytes(1, 1).unwrap().as_ref(), b"x");
    }

    #[test]
    fn respawn_rejoins_under_queued_traffic() {
        // Messages queued for the victim before its death must be
        // invisible to the replacement, and fresh post-respawn traffic
        // must flow in order even though the sender's link counters
        // advanced past the lost messages.
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let fc = cluster.failure_controller();
        let ctx0 = cluster.take_ctx(0);
        let _ctx1 = cluster.take_ctx(1);
        for i in 0..3 {
            ctx0.comm
                .send_tensor(1, 4, &Tensor::scalar(i as f32))
                .unwrap();
        }
        fc.kill_machine(1);
        fc.replace_machine(1);
        let mut new1 = cluster.respawn(1);
        ctx0.comm.send_tensor(1, 4, &Tensor::scalar(10.0)).unwrap();
        ctx0.comm.send_tensor(1, 4, &Tensor::scalar(11.0)).unwrap();
        assert_eq!(new1.comm.recv_tensor(0, 4).unwrap().item(), 10.0);
        assert_eq!(new1.comm.recv_tensor(0, 4).unwrap().item(), 11.0);
    }

    #[test]
    fn purge_discards_stash_from_dead_rank() {
        // Out-of-order receives stash messages per (src, tag). A stash
        // entry from a rank that then dies must not satisfy post-recovery
        // receives once the survivor purges — the replacement's fresh
        // message must win.
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let fc = cluster.failure_controller();
        let ctx0 = cluster.take_ctx(0);
        let mut ctx1 = cluster.take_ctx(1);
        ctx0.comm.send_tensor(1, 7, &Tensor::scalar(-1.0)).unwrap(); // goes stale
        ctx0.comm.send_tensor(1, 8, &Tensor::scalar(2.0)).unwrap();
        // Receiving tag 8 first forces the tag-7 message into the stash.
        assert_eq!(ctx1.comm.recv_tensor(0, 8).unwrap().item(), 2.0);
        fc.kill_machine(0);
        ctx1.comm.purge();
        fc.replace_machine(0);
        let new0 = cluster.respawn(0);
        new0.comm.send_tensor(1, 7, &Tensor::scalar(42.0)).unwrap();
        assert_eq!(ctx1.comm.recv_tensor(0, 7).unwrap().item(), 42.0);
    }

    #[test]
    fn stale_generation_traffic_is_fenced_on_receive() {
        // A message sent under an old failure generation must not satisfy
        // receives after the communicator has advanced generations (the
        // recovery fence's bulkhead against pre-failure stragglers).
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let mut ctx0 = cluster.take_ctx(0);
        let mut ctx1 = cluster.take_ctx(1);
        ctx0.comm.send_tensor(1, 5, &Tensor::scalar(-7.0)).unwrap();
        // Both sides move to generation 1 (as the recovery fence does)
        // and the sender retransmits under the new generation.
        ctx0.comm.set_generation(swift_obs::Epoch::new(1));
        ctx1.comm.set_generation(swift_obs::Epoch::new(1));
        ctx0.comm.send_tensor(1, 5, &Tensor::scalar(8.0)).unwrap();
        assert_eq!(ctx1.comm.recv_tensor(0, 5).unwrap().item(), 8.0);
    }

    #[test]
    fn byte_counters_track_traffic() {
        let results = Cluster::run_all(Topology::uniform(1, 2), |mut ctx| {
            if ctx.rank() == 0 {
                ctx.comm.send_tensor(1, 1, &Tensor::zeros([100])).unwrap();
                (ctx.comm.bytes_sent(), ctx.comm.bytes_received())
            } else {
                let _ = ctx.comm.recv_tensor(0, 1).unwrap();
                (ctx.comm.bytes_sent(), ctx.comm.bytes_received())
            }
        });
        // 100 f32 + tensor header = 416 payload bytes.
        assert_eq!(results[0].0, results[1].1);
        assert!(results[0].0 >= 400);
        assert_eq!(results[0].1, 0);
        assert_eq!(results[1].0, 0);
    }

    #[test]
    fn failure_detection_latency_is_bounded() {
        // The paper's detector polls NCCL for async errors; here a
        // link-down transition wakes every blocked receiver, which runs
        // its failure checks at once. A blocked receiver must observe a
        // kill within a few milliseconds.
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let fc = cluster.failure_controller();
        let h = cluster.spawn(1, |mut ctx| {
            let t0 = std::time::Instant::now();
            let r = ctx.comm.recv_tensor(0, 9);
            (r, t0.elapsed())
        });
        let _ctx0 = cluster.take_ctx(0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let kill_at = std::time::Instant::now();
        fc.kill_machine(0);
        let (r, _) = h.join().unwrap();
        let latency = kill_at.elapsed();
        assert_eq!(r, Err(CommError::PeerFailed { rank: 0 }));
        assert!(
            latency < std::time::Duration::from_millis(50),
            "detection took {latency:?}"
        );
    }

    #[test]
    fn kill_machine_bumps_the_kv_revision_and_wakes_waiters() {
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let fc = cluster.failure_controller();
        let kv = cluster.kv();
        let rev = kv.revision();
        let h = std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            (kv.wait_change(rev, deadline), std::time::Instant::now())
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        let kill_at = std::time::Instant::now();
        fc.kill_machine(1);
        let (now, woke_at) = h.join().unwrap();
        assert!(now > rev, "a fail-stop transition must bump the revision");
        assert!(woke_at.duration_since(kill_at) < std::time::Duration::from_secs(5));
        let rev = cluster.kv().revision();
        fc.replace_machine(1);
        assert!(cluster.kv().revision() > rev, "so must a replacement");
    }

    /// A link-down wake-up is invisible to the communicator: it is never
    /// delivered or counted, and a purge drops any that are queued.
    #[test]
    fn wake_ups_are_never_delivered() {
        let cluster = Cluster::new(Topology::uniform(3, 1));
        let fc = cluster.failure_controller();
        let ctx0 = cluster.take_ctx(0);
        let mut ctx1 = cluster.take_ctx(1);
        let _ctx2 = cluster.take_ctx(2);
        // Two wake-ups queue behind a real frame in rank 1's inbox.
        ctx0.comm.send_tensor(1, 3, &Tensor::scalar(5.0)).unwrap();
        fc.kill_machine(2);
        fc.kill_machine(2);
        assert_eq!(ctx1.comm.recv_tensor(0, 3).unwrap().item(), 5.0);
        ctx1.comm.purge();
        ctx0.comm.send_tensor(1, 4, &Tensor::scalar(6.0)).unwrap();
        assert_eq!(ctx1.comm.recv_tensor(0, 4).unwrap().item(), 6.0);
        assert_eq!(ctx1.comm.bytes_received(), ctx0.comm.bytes_sent());
    }

    #[test]
    fn barrier_synchronizes_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        let results = Cluster::run_all(Topology::uniform(1, 4), move |mut ctx| {
            c2.fetch_add(1, Ordering::SeqCst);
            ctx.comm.barrier().unwrap();
            // After the barrier, every rank must have incremented.
            c2.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&v| v == 4));
        let _ = counter;
    }
}
