//! The job runners and the in-process driver. A runner is one rank's
//! half of a [`SwiftJob`]: training plus its side of recovery, from
//! iteration 0 or as a replacement. The in-process driver runs one per
//! cluster thread — train, kill a machine, recover, finish — for the
//! end-to-end accuracy experiments (paper Fig. 11), the examples, the
//! integration tests and the benchmark; the process backend's
//! `swift-worker` runs the same runner for its one rank.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use swift_ckpt::CheckpointManager;
use swift_data::{part_range, Dataset};
use swift_dnn::{accuracy, softmax_cross_entropy_scaled, Mode, ModelState, Sequential, StepCtx};
use swift_net::{
    failure_epoch, failure_state, Cluster, CommError, CrashTrigger, FaultPlan, FaultStatsSnapshot,
    KvStore, Rank, RetryPolicy, Topology, Trace, WorkerCtx,
};
use swift_obs::{Epoch, Phase};
use swift_optim::{Optimizer, OptimizerKind};
use swift_store::{BlobStore, GlobalStore};
use swift_tensor::Tensor;
use swift_wal::{GroupMap, LogMode, LogPrecision, Logger, WalReader};

use crate::api::{JobCrash, Parallelism, SwiftJob};
use crate::fence::recovery_fence;
use crate::pipeline_ft::{
    pipeline_maybe_checkpoint, pipeline_on_failure_survivor, pipeline_replay,
    pipeline_train_iteration, DataSource, PipelineJob, PipelineWorker, RecoveryRole,
};
use crate::replication::{
    dp_train_step, replication_join_supervised, replication_recover_supervised, CrashPoint,
    DpWorker,
};
use crate::supervisor::PhaseTracker;

/// A model factory (must be deterministic: every call builds the same
/// initialization, as all replicas/replacements construct it).
pub type ModelFn = Arc<dyn Fn() -> Sequential + Send + Sync>;

/// How long a scenario thread waits on a recovery rendezvous before
/// calling the run hung: the recovery policy's deadline.
const RENDEZVOUS_DEADLINE: Duration = RetryPolicy::recovery().deadline;

/// Blocks until a failure is declared in `kv`, returning its epoch.
fn wait_declared(kv: &KvStore) -> Epoch {
    let declared = kv.wait_until(RENDEZVOUS_DEADLINE, || {
        let (epoch, dead) = failure_state(kv);
        (!dead.is_empty()).then_some(epoch)
    });
    declared.expect("failure never declared")
}

/// Bridges a deterministic [`Dataset`] to the pipeline [`DataSource`].
/// Micro-batch `mb` is examples [`part_range`]`(batch_size, mb,
/// microbatches)` of the iteration's batch; each call generates only
/// those examples (only their labels, for the loss).
pub struct DatasetSource {
    /// The dataset.
    pub dataset: Arc<dyn Dataset>,
    /// Global mini-batch size.
    pub batch_size: usize,
    /// Micro-batches per iteration.
    pub microbatches: usize,
}

impl DatasetSource {
    fn examples_of(&self, mb: usize) -> Range<usize> {
        part_range(self.batch_size, mb, self.microbatches)
    }
}

impl DataSource for DatasetSource {
    fn input(&self, iteration: u64, mb: usize) -> Tensor {
        self.dataset.examples(iteration, self.examples_of(mb)).x
    }

    fn loss(&self, iteration: u64, mb: usize, output: &Tensor) -> (f32, Tensor) {
        let y = self.dataset.labels(iteration, self.examples_of(mb));
        softmax_cross_entropy_scaled(output, &y, 1.0 / self.batch_size as f32)
    }
}

/// Evaluates a model state on `batches` held-out dataset batches,
/// returning mean accuracy.
pub fn evaluate_state(
    model_fn: &ModelFn,
    state: &ModelState,
    dataset: &dyn Dataset,
    batch_size: usize,
    batches: u64,
) -> f32 {
    let mut model = model_fn();
    model.load_state(state);
    let mut acc = 0.0;
    for i in 0..batches {
        // Held-out region: batch indices far beyond any training index.
        let b = dataset.batch(1_000_000 + i, batch_size);
        let y = model.forward(StepCtx::new(u64::MAX - i, 0), &b.x, Mode::Eval);
        acc += accuracy(&y, &b.y);
    }
    acc / batches as f32
}

/// Result of a scenario run.
pub struct ScenarioResult {
    /// Final model state per rank (bit-identical across replicas for DP).
    pub states: Vec<ModelState>,
    /// Per-iteration training loss (global mean), from the loss-owning
    /// rank (rank 0 for DP, the last stage for pipelines).
    pub losses: Vec<f32>,
    /// Whether a failure was injected and recovered.
    pub recovered: bool,
    /// Fault-injector counters (delays, reorders, drops, duplicates,
    /// crashes fired) when a [`FaultPlan`] was installed.
    pub fault_stats: Option<FaultStatsSnapshot>,
    /// The vector-clocked fabric trace, when the job was built with
    /// tracing enabled — feed it to `swift-verify`'s race checker.
    pub trace: Option<Trace>,
}

/// What one rank hands back: its final state (`None` when the rank was
/// killed) and the losses it recorded.
pub(crate) type RankOutcome = (Option<ModelState>, Vec<f32>);

/// One recovery strategy's half of a job, the same on both backends: a
/// cluster thread here and a `swift-worker` process in the process
/// backend run it. [`drive`] is the in-process other half.
///
/// Every iteration a rank publishes to `proc/progress/{rank}` in the KV
/// store, so the process supervisor can arm its progress-based kill
/// triggers (`CrashTrigger::KillProcess`) without a shared-memory oracle.
pub(crate) trait Runner: Send + Sync {
    /// Runs a rank from iteration 0: training plus the survivor side of
    /// recovery.
    fn start(&self, ctx: WorkerCtx) -> RankOutcome;
    /// Runs a replacement: its side of recovery, then training to the end.
    fn rejoin(&self, ctx: WorkerCtx) -> RankOutcome;
}

/// Waits, up to `deadline` per survivor, until every rank of
/// `parallelism` but `victim` has acknowledged the failure declared at
/// `epoch`: a DP replica under `dp/ack/{epoch}/{rank}`, a pipeline stage
/// by publishing its consensus iteration. Both backends wait here before
/// reviving the victim: revival restores its links, after which a
/// survivor that had not yet detected the failure would block on the
/// revived but still recovering rank. Returns the first survivor that
/// missed the deadline.
pub(crate) fn await_survivor_acks(
    kv: &KvStore,
    parallelism: Parallelism,
    epoch: Epoch,
    victim: Rank,
    deadline: Duration,
) -> Result<(), Rank> {
    for r in (0..parallelism.machines()).filter(|&r| r != victim) {
        let key = match parallelism {
            Parallelism::Data { .. } => format!("dp/ack/{epoch}/{r}"),
            Parallelism::Pipeline { .. } => format!("consensus/{epoch}/{r}"),
        };
        kv.wait_for(&key, deadline).ok_or(r)?;
    }
    Ok(())
}

/// Runs one job on single-rank machines: installs the fault plan and
/// (optionally) the fabric tracer, runs a thread per rank and, when
/// `victim` is doomed, brings its replacement up once the failure is
/// declared and every survivor has acknowledged it. The driver reacts to
/// the declaration only, never to injector ground truth.
fn drive(
    runner: Arc<dyn Runner>,
    parallelism: Parallelism,
    faults: Option<FaultPlan>,
    victim: Option<Rank>,
    trace: bool,
) -> ScenarioResult {
    let world = parallelism.machines();
    let cluster = Cluster::new(Topology::uniform(world, 1));
    let tracer = trace.then(|| cluster.enable_tracing());
    let fc = cluster.failure_controller();
    let injector = faults.map(|plan| cluster.install_faults(plan));
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let runner = runner.clone();
            cluster.spawn(rank, move |ctx| runner.start(ctx))
        })
        .collect();
    let replacement = victim.map(|mach| {
        let kv = cluster.kv();
        let epoch = wait_declared(&kv);
        await_survivor_acks(&kv, parallelism, epoch, mach, RENDEZVOUS_DEADLINE)
            .unwrap_or_else(|r| panic!("survivor {r} never acknowledged epoch {epoch}"));
        fc.replace_machine(mach);
        let rctx = cluster.respawn(mach);
        let runner = runner.clone();
        (mach, std::thread::spawn(move || runner.rejoin(rctx)))
    });
    let mut outcomes: Vec<(Rank, RankOutcome)> = handles
        .into_iter()
        .enumerate()
        .map(|(rank, h)| (rank, h.join().expect("worker panicked")))
        .collect();
    if let Some((mach, h)) = replacement {
        outcomes.push((mach, h.join().expect("replacement panicked")));
    }
    let mut states = vec![None; world];
    let mut losses = Vec::new();
    for (rank, (state, l)) in outcomes {
        if rank == parallelism.loss_owner() && !l.is_empty() {
            losses = l;
        }
        states[rank] = state;
    }
    ScenarioResult {
        states: states
            .into_iter()
            .map(|s| s.expect("missing final state"))
            .collect(),
        losses,
        recovered: victim.is_some(),
        fault_stats: injector.map(|i| i.stats()),
        trace: tracer.map(|t| t.snapshot()),
    }
}

/// Runs `job` for `iters` iterations (see [`SwiftJob::run`]). The doomed
/// machine is the scripted `crash`'s, else the fault plan's first crash
/// trigger's.
pub(crate) fn run_job(job: &SwiftJob, iters: u64, crash: Option<JobCrash>) -> ScenarioResult {
    let plan_victim = job.faults.as_ref().and_then(|p| {
        p.crashes.first().map(|t| match *t {
            CrashTrigger::AtNthSend { rank, .. }
            | CrashTrigger::AtNthDelivery { rank, .. }
            | CrashTrigger::AtIteration { rank, .. }
            | CrashTrigger::KillProcess { rank, .. } => rank,
        })
    });
    let victim = crash.map(|c| c.machine).or(plan_victim);
    // A pipeline's scripted crash rides on the fault injector: an
    // `AtIteration` trigger kills the machine when the victim reports
    // that iteration (one rank per machine, so rank == machine).
    // Triggers are one-shot, so the replacement re-running the same
    // iteration survives. A DP runner holds its mid-update crash itself.
    let faults = match (job.parallelism, crash) {
        (Parallelism::Pipeline { .. }, Some(c)) => Some(
            job.faults
                .clone()
                .unwrap_or_else(|| FaultPlan::new(0))
                .with_crash(CrashTrigger::AtIteration {
                    rank: c.machine,
                    iteration: c.iteration,
                }),
        ),
        _ => job.faults.clone(),
    };
    let runner = runner(job, iters, crash, None);
    drive(runner, job.parallelism, faults, victim, job.trace)
}

/// The runner of `job`'s layout, training to `iters`. `stores` is a
/// pipeline's global store and this rank's machine-local log store when
/// both must outlive the process (a `swift-worker`'s run directory);
/// without it the run gets a [`RunDir`] holding a fresh global store and
/// a fresh log store per worker, removed with the runner.
pub(crate) fn runner(
    job: &SwiftJob,
    iters: u64,
    crash: Option<JobCrash>,
    stores: Option<(GlobalStore, BlobStore)>,
) -> Arc<dyn Runner> {
    match job.parallelism {
        Parallelism::Data { machines } => Arc::new(DpRunner {
            model_fn: job.model_fn.clone(),
            opt: job.opt,
            dataset: job.dataset.clone(),
            replicas: (0..machines).collect(),
            batch: job.batch_size,
            iters,
            bucket_cap: job.bucket_cap_bytes,
            crash: crash.map(|c| {
                let at = CrashPoint {
                    iteration: c.iteration,
                    after_groups: c.after_groups.max(1),
                };
                (c.machine, at)
            }),
            crash_armed: AtomicBool::new(true),
        }),
        Parallelism::Pipeline {
            stages,
            microbatches,
        } => {
            let (global, local_logs) = match stores {
                Some((global, local_log)) => (global, LocalLogs::Kept(local_log)),
                None => {
                    let run = RunDir::new();
                    (
                        GlobalStore::from_blob(run.store("global")),
                        LocalLogs::Fresh(run),
                    )
                }
            };
            Arc::new(PipelineRunner {
                job: PipelineJob {
                    stage_ranks: (0..stages).collect(),
                    microbatches,
                    kind: job.schedule,
                    ckpt_interval: job.ckpt_interval,
                    batch_size: job.batch_size,
                },
                model_fn: job.model_fn.clone(),
                opt: job.opt,
                data: DatasetSource {
                    dataset: job.dataset.clone(),
                    batch_size: job.batch_size,
                    microbatches,
                },
                global,
                local_logs,
                log_mode: job.log_mode,
                log_precision: job.log_precision,
                iters,
                d: job.parallel_recovery,
            })
        }
    }
}

/// Replication recovery (§3–4): every machine holds a full replica.
struct DpRunner {
    model_fn: ModelFn,
    opt: OptimizerKind,
    dataset: Arc<dyn Dataset>,
    replicas: Vec<Rank>,
    batch: usize,
    iters: u64,
    bucket_cap: Option<usize>,
    /// The scripted mid-update crash and its machine. It fires exactly
    /// once: the replacement re-runs the same (machine, iteration)
    /// coordinates and must not die again.
    crash: Option<(usize, CrashPoint)>,
    crash_armed: AtomicBool,
}

impl DpRunner {
    /// One replica's steady-state and survivor-recovery loop.
    fn train(&self, mut ctx: WorkerCtx, mut w: DpWorker) -> RankOutcome {
        if let Some(cap) = self.bucket_cap {
            w.bucket_cap_bytes = cap;
        }
        let my_crash = self
            .crash
            .filter(|&(mach, _)| {
                ctx.machine() == mach && self.crash_armed.swap(false, Ordering::SeqCst)
            })
            .map(|(_, at)| at);
        let replicas = &self.replicas;
        let mut losses = Vec::new();
        loop {
            // Progress beacon for external (process) supervisors.
            ctx.kv.set(
                &format!("proc/progress/{}", ctx.rank()),
                w.iteration.to_string(),
            );
            // Report progress to the fault injector so AtIteration crash
            // triggers can fire; a killed worker unwinds here.
            if ctx.note_iteration(w.iteration).is_err() {
                return (None, losses);
            }
            if w.iteration >= self.iters {
                return (Some(w.model.state()), losses);
            }
            let it = w.iteration;
            let b = dataset_shard(&*self.dataset, it, self.batch, ctx.rank(), replicas.len());
            match dp_train_step(
                &mut ctx,
                &mut w,
                replicas,
                &b.0,
                &b.1,
                1.0 / self.batch as f32,
                my_crash,
            ) {
                Ok(loss) => {
                    // Sum of shard losses = global mean; approximate with
                    // rank-local contribution × world for reporting.
                    losses.push(loss * replicas.len() as f32);
                }
                Err(CommError::SelfKilled) => return (None, losses),
                Err(e @ CommError::Protocol { .. }) => panic!("protocol bug: {e}"),
                Err(CommError::PeerFailed { .. }) => {
                    // Acknowledge detection under the *declared* failure
                    // epoch; the driver revives the machine only once every
                    // survivor has seen the failure (else a survivor could
                    // block on the revived-but-idle rank).
                    let epoch = failure_epoch(&ctx.kv);
                    ctx.kv.set(&format!("dp/ack/{epoch}/{}", ctx.rank()), "1");
                    assert!(
                        ctx.kv
                            .wait_for("dp/replacement-up", RENDEZVOUS_DEADLINE)
                            .is_some(),
                        "replacement never came up"
                    );
                    replication_recover_supervised(
                        &mut ctx,
                        &mut w,
                        replicas,
                        &RetryPolicy::recovery(),
                    )
                    .expect("survivor recovery failed");
                }
            }
        }
    }
}

impl Runner for DpRunner {
    fn start(&self, ctx: WorkerCtx) -> RankOutcome {
        let w = DpWorker::new((self.model_fn)(), self.opt.build());
        self.train(ctx, w)
    }

    fn rejoin(&self, mut ctx: WorkerCtx) -> RankOutcome {
        // Announce itself (releasing blocked survivors), then adopt a
        // replica's state by supervised state transfer.
        ctx.kv.set("dp/replacement-up", "1");
        let (w, _report) = replication_join_supervised(
            &mut ctx,
            &*self.model_fn,
            &|| self.opt.build(),
            &self.replicas,
            &RetryPolicy::recovery(),
        )
        .expect("replacement join failed");
        // Its losses start mid-run; the original rank 0's are the job's.
        (self.train(ctx, w).0, Vec::new())
    }
}

/// Replica `rank`'s shard of batch `it`, generated alone.
fn dataset_shard(
    ds: &dyn Dataset,
    it: u64,
    batch: usize,
    rank: Rank,
    world: usize,
) -> (Tensor, Vec<usize>) {
    let s = ds.examples(it, part_range(batch, rank, world));
    (s.x, s.y)
}

/// Where a pipeline runner's workers keep their machine-local logs.
enum LocalLogs {
    /// This rank's store, which must outlive the process.
    Kept(BlobStore),
    /// A fresh store per worker, the replacement included.
    Fresh(RunDir),
}

/// The temporary directory of one in-process pipeline run: its global
/// store and every worker's log store live under it, and dropping it
/// (with the runner, once [`drive`] has joined every worker) removes
/// them all.
struct RunDir {
    root: PathBuf,
    stores: AtomicUsize,
}

impl RunDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        RunDir {
            root: std::env::temp_dir().join(format!("swift-run-{}-{n}", std::process::id())),
            stores: AtomicUsize::new(0),
        }
    }

    /// A fresh, empty store in the run directory.
    fn store(&self, label: &str) -> BlobStore {
        let n = self.stores.fetch_add(1, Ordering::Relaxed);
        BlobStore::open(self.root.join(format!("{label}-{n}"))).expect("run-directory store")
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        // Leftover stores waste disk, not correctness: no panic in drop.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Logging recovery (§5): one pipeline stage per machine.
struct PipelineRunner {
    job: PipelineJob,
    model_fn: ModelFn,
    opt: OptimizerKind,
    data: DatasetSource,
    global: GlobalStore,
    local_logs: LocalLogs,
    log_mode: LogMode,
    log_precision: LogPrecision,
    iters: u64,
    /// Parallel-recovery replica count (1 = the replacement replays
    /// alone; assistants are the lowest-ranked survivors).
    d: usize,
}

impl PipelineRunner {
    fn stage(&self, stage: usize) -> Sequential {
        swift_dnn::models::split_stages((self.model_fn)(), self.job.num_stages())
            .into_iter()
            .nth(stage)
            .expect("one split per stage")
    }

    /// A fresh worker for `ctx`'s stage (one rank per machine, so the
    /// stage is the rank).
    fn worker(&self, ctx: &WorkerCtx) -> PipelineWorker {
        let (rank, topo) = (ctx.rank(), &ctx.topology);
        let store = match &self.local_logs {
            LocalLogs::Kept(store) => store.clone(),
            LocalLogs::Fresh(run) => run.store(&format!("m{}", topo.machine_of(rank))),
        };
        PipelineWorker {
            stage: rank,
            model: self.stage(rank),
            opt: self.opt.build(),
            iteration: 0,
            logger: Logger::with_precision(
                self.log_mode,
                topo.clone(),
                GroupMap::singletons(topo.num_machines()),
                store,
                self.log_precision,
            ),
            ckpt: CheckpointManager::new(self.global.blob().clone(), rank),
            global: self.global.clone(),
            last_grads: Vec::new(),
        }
    }

    /// One stage's steady-state and survivor-recovery loop: training,
    /// checkpointing, the survivor side of logging recovery (undo,
    /// consensus, log upload, optional assist replay) and the resume
    /// fence.
    fn train(&self, mut ctx: WorkerCtx, mut w: PipelineWorker) -> RankOutcome {
        let job = &self.job;
        let mut losses = Vec::new();
        loop {
            // Progress beacon for external (process) supervisors.
            ctx.kv.set(
                &format!("proc/progress/{}", ctx.rank()),
                w.iteration.to_string(),
            );
            if w.iteration >= self.iters {
                return (Some(w.model.state()), losses);
            }
            // Report progress to the fault injector; an `AtIteration`
            // crash trigger takes this machine down right here.
            if ctx.note_iteration(w.iteration).is_err() {
                return (None, losses);
            }
            match pipeline_train_iteration(&mut ctx, job, &mut w, &self.data) {
                Ok(l) => {
                    if w.stage + 1 == job.num_stages() {
                        losses.push(l);
                    }
                    pipeline_maybe_checkpoint(job, &mut w).unwrap();
                }
                Err(CommError::SelfKilled) => return (None, losses),
                Err(e @ CommError::Protocol { .. }) => panic!("protocol bug: {e}"),
                Err(CommError::PeerFailed { rank: failed_rank }) => {
                    // The failed machine's rank comes from the error
                    // (the detection paths declare before returning);
                    // all recovery namespaces derive from the declared
                    // failure epoch.
                    let generation = failure_epoch(&ctx.kv);
                    let mut phases = PhaseTracker::new(ctx.rank(), generation);
                    let survivors = self.survivors(failed_rank);
                    phases.enter(Phase::Undo);
                    let consensus =
                        pipeline_on_failure_survivor(&mut ctx, &mut w, &survivors).unwrap();
                    phases.close();
                    // Parallel recovery (Fig. 6c): the lowest d − 1
                    // survivors replay a share of the failed stage in a
                    // separate model instance, leaving their own intact.
                    let me = ctx.rank();
                    let assistant = survivors.iter().take(self.d - 1).position(|&r| r == me);
                    if let Some(i) = assistant {
                        let mut model = self.stage(job.stage_of(failed_rank));
                        let mut opt = self.opt.build();
                        self.replay_failed_stage(
                            &mut ctx,
                            failed_rank,
                            1 + i,
                            &mut model,
                            &mut *opt,
                            &mut phases,
                            |_| consensus,
                        );
                        phases.close();
                    }
                    // Rendezvous with the replacement, then resume.
                    phases.enter(Phase::Resume);
                    recovery_fence(&mut ctx, generation.fence_channel(2), &job.stage_ranks)
                        .unwrap();
                    phases.close();
                }
            }
        }
    }

    /// Every stage rank but the failed one, in stage order.
    fn survivors(&self, failed_rank: Rank) -> Vec<Rank> {
        let ranks = self.job.stage_ranks.iter().copied();
        ranks.filter(|&r| r != failed_rank).collect()
    }

    /// The replacement's recovery sequence before it trains: replay its
    /// stage as replica 0, adopting the consensus iteration the survivors
    /// published, then pass the resume fence. Returns with `w` positioned
    /// at the consensus iteration.
    fn recover(&self, ctx: &mut WorkerCtx, w: &mut PipelineWorker) {
        let mach = ctx.rank();
        let generation = failure_epoch(&ctx.kv);
        let mut phases = PhaseTracker::new(mach, generation);
        let survivors = self.survivors(mach);
        let consensus = |ctx: &WorkerCtx| {
            survivors
                .iter()
                .map(|&r| {
                    let key = format!("consensus/{generation}/{r}");
                    let v = ctx.kv.wait_for(&key, RENDEZVOUS_DEADLINE);
                    v.expect("no consensus").parse::<u64>().unwrap()
                })
                .fold(u64::MAX, u64::min)
        };
        w.iteration = self.replay_failed_stage(
            ctx,
            mach,
            0,
            &mut w.model,
            &mut *w.opt,
            &mut phases,
            consensus,
        );
        phases.enter(Phase::Resume);
        recovery_fence(ctx, generation.fence_channel(2), &self.job.stage_ranks).unwrap();
        phases.close();
    }

    /// Replays the stage of `failed_rank` from its latest checkpoint up to
    /// the consensus iteration as replica `replica` of the replay group
    /// (Fig. 6b step 5 / Fig. 6c steps 6–7; the replacement is replica 0,
    /// the assisting survivors follow in rank order): load the checkpoint
    /// into `model` and `opt` (before the first one, the initial state at
    /// iteration 0), learn the consensus, fence the replay group on
    /// channel 1, replay. The Fence span is recorded even when the
    /// replacement replays alone (d = 1), so the per-incident breakdown
    /// always carries a (possibly empty) fence segment; the Replay span is
    /// left open. Returns the consensus iteration.
    #[allow(clippy::too_many_arguments)]
    fn replay_failed_stage(
        &self,
        ctx: &mut WorkerCtx,
        failed_rank: Rank,
        replica: usize,
        model: &mut Sequential,
        opt: &mut dyn Optimizer,
        phases: &mut PhaseTracker,
        consensus: impl FnOnce(&WorkerCtx) -> u64,
    ) -> u64 {
        let job = &self.job;
        let ckpt = CheckpointManager::new(self.global.blob().clone(), failed_rank);
        let from = match ckpt.load_latest().expect("checkpoint read") {
            Some(c) => {
                model.load_state(&c.model);
                opt.load_state(&c.optim);
                c.iteration
            }
            None => 0,
        };
        let consensus = consensus(ctx);
        let replay_ranks = replay_participants(failed_rank, &self.survivors(failed_rank), self.d);
        phases.enter(Phase::Fence);
        if replay_ranks.len() > 1 {
            recovery_fence(ctx, phases.epoch().fence_channel(1), &replay_ranks)
                .expect("replay-group fence");
        }
        phases.close();
        let stage = job.stage_of(failed_rank);
        let role = RecoveryRole {
            stage,
            recovered_stages: vec![stage],
            group_ranks: vec![ctx.rank()],
            replica,
            num_replicas: self.d,
            allreduce_peers: replay_ranks,
        };
        let reader = WalReader::new(self.global.blob().clone());
        phases.enter(Phase::Replay);
        pipeline_replay(
            ctx, job, &role, model, opt, &reader, &self.data, from, consensus,
        )
        .unwrap();
        consensus
    }
}

impl Runner for PipelineRunner {
    fn start(&self, ctx: WorkerCtx) -> RankOutcome {
        let w = self.worker(&ctx);
        self.train(ctx, w)
    }

    fn rejoin(&self, mut ctx: WorkerCtx) -> RankOutcome {
        let mut w = self.worker(&ctx);
        self.recover(&mut ctx, &mut w);
        self.train(ctx, w)
    }
}

/// The replica-group ranks for parallel recovery: the replacement plus
/// the first `d − 1` survivors, sorted.
fn replay_participants(replacement: Rank, survivors: &[Rank], d: usize) -> Vec<Rank> {
    let mut v = vec![replacement];
    v.extend(survivors.iter().copied().take(d.saturating_sub(1)));
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_data::{Batch, BlobsDataset};
    use swift_tensor::CounterRng;

    /// How micro-batches were made before each call generated only its
    /// own examples: the whole batch, sliced in order into `parts` parts of
    /// which the first `n % parts` hold one extra example.
    fn full_batch_split(whole: &Batch, parts: usize) -> Vec<Batch> {
        let (n, dim) = (whole.len(), whole.x.shape().dims()[1]);
        let mut start = 0;
        (0..parts)
            .map(|p| {
                let len = n / parts + usize::from(p < n % parts);
                let rows = start..start + len;
                start += len;
                Batch {
                    x: Tensor::from_vec(
                        [len, dim],
                        whole.x.data()[rows.start * dim..rows.end * dim].to_vec(),
                    ),
                    y: whole.y[rows].to_vec(),
                }
            })
            .collect()
    }

    /// Batch 10 over 4 micro-batches splits 3/3/2/2; every micro-batch's
    /// input, loss and output gradient equal, bit for bit, those of the
    /// full-batch split.
    #[test]
    fn dataset_source_matches_the_full_batch_split() {
        let dataset: Arc<dyn Dataset> = Arc::new(BlobsDataset::new(21, 6, 3, 0.3));
        let source = DatasetSource {
            dataset: dataset.clone(),
            batch_size: 10,
            microbatches: 4,
        };
        for it in [0, 1, 7] {
            let parts = full_batch_split(&dataset.batch(it, 10), 4);
            let sizes: Vec<usize> = parts.iter().map(Batch::len).collect();
            assert_eq!(sizes, [3, 3, 2, 2]);
            for (mb, part) in parts.iter().enumerate() {
                assert!(source.input(it, mb).bit_eq(&part.x), "it {it}, mb {mb}");
                let mut rng = CounterRng::new(it, mb as u64);
                let output = Tensor::randn([part.len(), 3], 0.0, 1.0, &mut rng);
                let (loss, grad) = source.loss(it, mb, &output);
                let (want_loss, want_grad) =
                    softmax_cross_entropy_scaled(&output, &part.y, 1.0 / 10.0);
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "it {it}, mb {mb}");
                assert!(grad.bit_eq(&want_grad), "it {it}, mb {mb}");
            }
        }
    }
}
