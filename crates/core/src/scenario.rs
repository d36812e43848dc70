//! Turn-key failure scenarios: spawn a cluster, train, kill a machine,
//! recover, finish — the orchestration shared by the end-to-end accuracy
//! experiments (paper Fig. 11), the examples, and the integration tests.

use std::sync::Arc;
use std::time::Duration;

use swift_ckpt::CheckpointManager;
use swift_data::{shard_batch, split_microbatches, Dataset};
use swift_dnn::{accuracy, softmax_cross_entropy_scaled, Mode, ModelState, Sequential, StepCtx};
use swift_net::{
    failure_epoch, failure_state, Cluster, CommError, CrashTrigger, FaultPlan, FaultStatsSnapshot,
    KvStore, Rank, RetryPolicy, Topology, Trace, WorkerCtx,
};
use swift_optim::OptimizerKind;
use swift_pipeline::ScheduleKind;
use swift_store::{BlobStore, GlobalStore};
use swift_tensor::Tensor;
use swift_wal::{GroupMap, LogMode, LogPrecision, Logger, WalReader};

use crate::fence::recovery_fence;
use crate::pipeline_ft::{
    pipeline_maybe_checkpoint, pipeline_on_failure_survivor, pipeline_replay,
    pipeline_train_iteration, DataSource, PipelineJob, PipelineWorker, RecoveryRole,
};
use crate::replication::{
    dp_train_step, replication_join_supervised, replication_recover_supervised, CrashPoint,
    DpWorker,
};
use swift_obs::{Epoch, Event, Phase};

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
pub struct DatasetSource {
    /// The dataset.
    pub dataset: Arc<dyn Dataset>,
    /// Global mini-batch size.
    pub batch_size: usize,
    /// Micro-batches per iteration.
    pub microbatches: usize,
}

impl DataSource for DatasetSource {
    fn input(&self, iteration: u64, mb: usize) -> Tensor {
        let batch = self.dataset.batch(iteration, self.batch_size);
        split_microbatches(&batch, self.microbatches)[mb]
            .batch
            .x
            .clone()
    }

    fn loss(&self, iteration: u64, mb: usize, output: &Tensor) -> (f32, Tensor) {
        let batch = self.dataset.batch(iteration, self.batch_size);
        let y = &split_microbatches(&batch, self.microbatches)[mb].batch.y;
        softmax_cross_entropy_scaled(output, y, 1.0 / self.batch_size as f32)
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

/// Configuration of a data-parallel failure scenario.
pub struct DpScenario {
    /// Number of machines (one replica rank per machine).
    pub machines: usize,
    /// Deterministic model factory.
    pub model_fn: ModelFn,
    /// Optimizer configuration.
    pub opt: OptimizerKind,
    /// Training data.
    pub dataset: Arc<dyn Dataset>,
    /// Global mini-batch size.
    pub batch_size: usize,
    /// Iterations to train.
    pub iters: u64,
    /// Optional mid-backward crash: (machine, iteration, after_groups
    /// staged).
    pub crash: Option<(usize, u64, usize)>,
    /// Optional adversarial fault plan installed on the fabric (delay,
    /// reorder, drop/retransmit, duplicate, stall, crash triggers).
    pub faults: Option<FaultPlan>,
    /// Gradient-bucket capacity for the overlapped all-reduce; `None`
    /// keeps [`crate::bucket::DEFAULT_BUCKET_CAP_BYTES`]. Part of the
    /// protocol: every rank (and any replacement) must use the same cap.
    pub bucket_cap_bytes: Option<usize>,
}

impl DpScenario {
    /// Starts building a data-parallel scenario from its two required
    /// ingredients. Defaults: 2 machines, SGD+momentum, batch size 8,
    /// 4 iterations, no crash, no fault plan.
    pub fn builder(model_fn: ModelFn, dataset: Arc<dyn Dataset>) -> DpScenarioBuilder {
        DpScenarioBuilder {
            cfg: DpScenario {
                machines: 2,
                model_fn,
                opt: OptimizerKind::SgdMomentum {
                    lr: 0.05,
                    weight_decay: 0.0,
                    momentum: 0.9,
                    dampening: 0.0,
                },
                dataset,
                batch_size: 8,
                iters: 4,
                crash: None,
                faults: None,
                bucket_cap_bytes: None,
            },
            trace: false,
        }
    }
}

/// Builder for [`DpScenario`]; finish with [`DpScenarioBuilder::run`].
#[must_use = "a scenario builder does nothing until .run()"]
pub struct DpScenarioBuilder {
    cfg: DpScenario,
    trace: bool,
}

impl DpScenarioBuilder {
    /// Sets the number of machines (one replica rank per machine).
    pub fn machines(mut self, n: usize) -> Self {
        self.cfg.machines = n;
        self
    }

    /// Sets the optimizer configuration.
    pub fn opt(mut self, opt: OptimizerKind) -> Self {
        self.cfg.opt = opt;
        self
    }

    /// Sets the global mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Self {
        self.cfg.batch_size = b;
        self
    }

    /// Sets the number of iterations to train.
    pub fn iters(mut self, iters: u64) -> Self {
        self.cfg.iters = iters;
        self
    }

    /// Injects a mid-backward crash on `machine` at `iteration`, right
    /// after `after_groups` parameter groups have been staged into the
    /// overlapped all-reduce (already-shipped buckets fold and apply on
    /// peers; unshipped ones strand them mid-update).
    pub fn crash(mut self, machine: usize, iteration: u64, after_groups: usize) -> Self {
        self.cfg.crash = Some((machine, iteration, after_groups));
        self
    }

    /// Sets the gradient-bucket capacity in bytes for every rank (and
    /// any replacement). Smaller caps split the model into more buckets,
    /// making mid-update crash windows observable on tiny test models.
    pub fn bucket_cap_bytes(mut self, cap: usize) -> Self {
        self.cfg.bucket_cap_bytes = Some(cap);
        self
    }

    /// Installs an adversarial fault plan on the fabric.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Enables the vector-clocked fabric tracer; the snapshot lands in
    /// [`ScenarioResult::trace`].
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Consumes the builder and runs the scenario end to end.
    pub fn run(self) -> ScenarioResult {
        run_dp_scenario_impl(self.cfg, self.trace)
    }
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
    /// Wall-clock recovery phases recorded by the replacement, in order:
    /// `(phase name, milliseconds)`. Empty for failure-free runs.
    pub recovery_trace: Vec<(String, f64)>,
    /// Fault-injector counters (delays, reorders, drops, duplicates,
    /// crashes fired) when a [`FaultPlan`] was installed.
    pub fault_stats: Option<FaultStatsSnapshot>,
    /// The vector-clocked fabric trace, when the scenario was built with
    /// tracing enabled — feed it to `swift-verify`'s race checker.
    pub trace: Option<Trace>,
}

/// One DP replica's steady-state + survivor-recovery loop — the code
/// both backends run: the in-process scenario drives it on cluster
/// threads, the process backend's `swift-worker` binary drives it in a
/// real OS process over the socket transport. Keeping it shared is what
/// makes the two backends bitwise-comparable.
///
/// Each iteration is published to `proc/progress/{rank}` in the KV store
/// so an external supervisor can arm progress-based kill triggers
/// (`CrashTrigger::KillProcess`) without any shared-memory oracle.
pub fn dp_worker_loop(
    mut ctx: WorkerCtx,
    mut w: DpWorker,
    replicas: &[Rank],
    dataset: &dyn Dataset,
    batch: usize,
    iters: u64,
    my_crash: Option<CrashPoint>,
) -> (Option<ModelState>, Vec<f32>) {
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
        if w.iteration >= iters {
            return (Some(w.model.state()), losses);
        }
        let it = w.iteration;
        let b = dataset_shard(dataset, it, batch, ctx.rank(), replicas.len());
        match dp_train_step(
            &mut ctx,
            &mut w,
            replicas,
            &b.0,
            &b.1,
            1.0 / batch as f32,
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

/// A DP replacement's join sequence: announce itself (releasing blocked
/// survivors), then adopt a replica's state by supervised broadcast.
/// Shared by the in-process driver and the `swift-worker` binary.
pub fn dp_replacement_join(
    rctx: &mut WorkerCtx,
    model_fn: &dyn Fn() -> Sequential,
    opt_kind: OptimizerKind,
    replicas: &[Rank],
) -> DpWorker {
    rctx.kv.set("dp/replacement-up", "1");
    let (w, _report) = replication_join_supervised(
        rctx,
        model_fn,
        &|| opt_kind.build(),
        replicas,
        &RetryPolicy::recovery(),
    )
    .expect("replacement join failed");
    w
}

fn run_dp_scenario_impl(cfg: DpScenario, trace: bool) -> ScenarioResult {
    let world = cfg.machines;
    let cluster = Cluster::new(Topology::uniform(world, 1));
    let tracer = trace.then(|| cluster.enable_tracing());
    let fc = cluster.failure_controller();
    let injector = cfg.faults.clone().map(|plan| cluster.install_faults(plan));
    let replicas: Vec<Rank> = (0..world).collect();
    // A machine doomed to die: either the scripted mid-update crash or a
    // crash trigger in the fault plan (the plan is *configuration* — the
    // driver still waits for the failure to be declared before reacting).
    let trigger_victim = cfg.faults.as_ref().and_then(|p| {
        p.crashes.first().map(|t| match t {
            CrashTrigger::AtNthSend { rank, .. }
            | CrashTrigger::AtNthDelivery { rank, .. }
            | CrashTrigger::AtIteration { rank, .. }
            | CrashTrigger::KillProcess { rank, .. } => *rank,
        })
    });
    let doomed = cfg.crash.map(|(mach, _, _)| mach).or(trigger_victim);
    let had_crash = doomed.is_some();

    let model_fn = cfg.model_fn.clone();
    let dataset = cfg.dataset.clone();
    let opt_kind = cfg.opt;
    let batch = cfg.batch_size;
    let iters = cfg.iters;
    let crash = cfg.crash;
    let bucket_cap = cfg.bucket_cap_bytes;
    // The injected crash fires exactly once: the replacement re-runs the
    // same (machine, iteration) coordinates and must not die again.
    let crash_armed = Arc::new(std::sync::atomic::AtomicBool::new(true));

    let worker_loop =
        move |ctx: WorkerCtx, w: DpWorker, replicas: Vec<Rank>| -> (Option<ModelState>, Vec<f32>) {
            let my_crash = crash.and_then(|(mach, it, groups)| {
                (ctx.machine() == mach
                    && crash_armed.swap(false, std::sync::atomic::Ordering::SeqCst))
                .then_some(CrashPoint {
                    iteration: it,
                    after_groups: groups,
                })
            });
            dp_worker_loop(ctx, w, &replicas, &*dataset, batch, iters, my_crash)
        };

    let mut handles = Vec::new();
    for rank in 0..world {
        let wl = worker_loop.clone();
        let mf = model_fn.clone();
        let replicas = replicas.clone();
        handles.push(cluster.spawn(rank, move |ctx| {
            let mut w = DpWorker::new(mf(), opt_kind.build());
            if let Some(cap) = bucket_cap {
                w.bucket_cap_bytes = cap;
            }
            wl(ctx, w, replicas)
        }));
    }

    let mut replacement_handle = None;
    if let Some(mach) = doomed {
        // Wait for the failure to be *declared* in the KV store (the
        // driver has no access to injector ground truth) and for every
        // survivor to ack it before reviving the machine — revival
        // restores links, after which undetected survivors would block.
        let kv = cluster.kv();
        let epoch = wait_declared(&kv);
        for r in (0..world).filter(|&r| r != mach) {
            assert!(
                kv.wait_for(&format!("dp/ack/{epoch}/{r}"), RENDEZVOUS_DEADLINE)
                    .is_some(),
                "survivor never acked the failure"
            );
        }
        fc.replace_machine(mach);
        let mut rctx = cluster.respawn(mach);
        let wl = worker_loop.clone();
        let mf = model_fn.clone();
        let all = replicas.clone();
        replacement_handle = Some(std::thread::spawn(move || {
            let mut w = dp_replacement_join(&mut rctx, &*mf, opt_kind, &all);
            if let Some(cap) = bucket_cap {
                w.bucket_cap_bytes = cap;
            }
            wl(rctx, w, all)
        }));
    }

    let mut states = vec![None; world];
    let mut losses = Vec::new();
    for (rank, h) in handles.into_iter().enumerate() {
        let (state, l) = h.join().expect("worker panicked");
        if rank == 0 && !l.is_empty() {
            losses = l;
        }
        states[rank] = state;
    }
    if let Some(h) = replacement_handle {
        let (state, _) = h.join().expect("replacement panicked");
        states[doomed.unwrap()] = state;
    }
    ScenarioResult {
        states: states
            .into_iter()
            .map(|s| s.expect("missing final state"))
            .collect(),
        losses,
        recovered: had_crash,
        recovery_trace: Vec::new(),
        fault_stats: injector.map(|i| i.stats()),
        trace: tracer.map(|t| t.snapshot()),
    }
}

fn dataset_shard(
    ds: &dyn Dataset,
    it: u64,
    batch: usize,
    rank: Rank,
    world: usize,
) -> (Tensor, Vec<usize>) {
    let b = ds.batch(it, batch);
    let s = shard_batch(&b, rank, world);
    (s.x, s.y)
}

/// Configuration of a pipeline-parallel failure scenario (one stage per
/// machine, one rank per machine).
pub struct PipelineScenario {
    /// Number of stages/machines.
    pub stages: usize,
    /// Deterministic full-model factory (split into stages internally).
    pub model_fn: ModelFn,
    /// Optimizer configuration (per stage).
    pub opt: OptimizerKind,
    /// Training data.
    pub dataset: Arc<dyn Dataset>,
    /// Global mini-batch size.
    pub batch_size: usize,
    /// Micro-batches per iteration.
    pub microbatches: usize,
    /// Checkpoint interval.
    pub ckpt_interval: u64,
    /// Iterations to train.
    pub iters: u64,
    /// Pipeline schedule flavor.
    pub schedule: ScheduleKind,
    /// Logging mode.
    pub log_mode: LogMode,
    /// Logged-payload precision (F16 halves the volume; replay then
    /// carries a bounded quantization error instead of being bitwise).
    pub log_precision: LogPrecision,
    /// Optional crash: (machine, after_iteration). Converted into a
    /// [`CrashTrigger::AtIteration`] on the fault injector — the victim
    /// discovers its death through the fabric, not an oracle flag.
    pub crash: Option<(usize, u64)>,
    /// Optional adversarial fault plan installed on the fabric; the
    /// `crash` trigger (if any) is merged into it.
    pub faults: Option<FaultPlan>,
    /// Parallel-recovery replica count `d` (1 = sequential replay;
    /// assistants are drawn from the lowest-ranked survivors).
    pub parallel_recovery: usize,
}

impl PipelineScenario {
    /// Starts building a pipeline-parallel scenario from its two required
    /// ingredients. Defaults: 2 stages, SGD+momentum, batch size 8,
    /// 2 micro-batches, checkpoint every 2 iterations, 4 iterations,
    /// 1F1B schedule, bubble-async F32 logging, sequential replay,
    /// no crash, no fault plan.
    pub fn builder(model_fn: ModelFn, dataset: Arc<dyn Dataset>) -> PipelineScenarioBuilder {
        PipelineScenarioBuilder {
            cfg: PipelineScenario {
                stages: 2,
                model_fn,
                opt: OptimizerKind::SgdMomentum {
                    lr: 0.05,
                    weight_decay: 0.0,
                    momentum: 0.9,
                    dampening: 0.0,
                },
                dataset,
                batch_size: 8,
                microbatches: 2,
                ckpt_interval: 2,
                iters: 4,
                schedule: ScheduleKind::OneFOneB,
                log_mode: LogMode::BubbleAsync,
                log_precision: LogPrecision::F32,
                crash: None,
                faults: None,
                parallel_recovery: 1,
            },
            trace: false,
        }
    }
}

/// Builder for [`PipelineScenario`]; finish with
/// [`PipelineScenarioBuilder::run`].
#[must_use = "a scenario builder does nothing until .run()"]
pub struct PipelineScenarioBuilder {
    cfg: PipelineScenario,
    trace: bool,
}

impl PipelineScenarioBuilder {
    /// Sets the number of stages/machines.
    pub fn stages(mut self, n: usize) -> Self {
        self.cfg.stages = n;
        self
    }

    /// Sets the optimizer configuration (per stage).
    pub fn opt(mut self, opt: OptimizerKind) -> Self {
        self.cfg.opt = opt;
        self
    }

    /// Sets the global mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Self {
        self.cfg.batch_size = b;
        self
    }

    /// Sets the number of micro-batches per iteration.
    pub fn microbatches(mut self, m: usize) -> Self {
        self.cfg.microbatches = m;
        self
    }

    /// Sets the backstop checkpoint interval.
    pub fn ckpt_interval(mut self, i: u64) -> Self {
        self.cfg.ckpt_interval = i;
        self
    }

    /// Sets the number of iterations to train.
    pub fn iters(mut self, iters: u64) -> Self {
        self.cfg.iters = iters;
        self
    }

    /// Sets the pipeline schedule flavor.
    pub fn schedule(mut self, s: ScheduleKind) -> Self {
        self.cfg.schedule = s;
        self
    }

    /// Sets the logging mode.
    pub fn log_mode(mut self, m: LogMode) -> Self {
        self.cfg.log_mode = m;
        self
    }

    /// Sets the logged-payload precision.
    pub fn log_precision(mut self, p: LogPrecision) -> Self {
        self.cfg.log_precision = p;
        self
    }

    /// Injects a crash on `machine` once it reports `after_iteration`.
    pub fn crash(mut self, machine: usize, after_iteration: u64) -> Self {
        self.cfg.crash = Some((machine, after_iteration));
        self
    }

    /// Installs an adversarial fault plan on the fabric.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Sets the parallel-recovery replica count `d`.
    pub fn parallel_recovery(mut self, d: usize) -> Self {
        self.cfg.parallel_recovery = d.max(1);
        self
    }

    /// Enables the vector-clocked fabric tracer; the snapshot lands in
    /// [`ScenarioResult::trace`].
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Consumes the builder and runs the scenario end to end.
    pub fn run(self) -> ScenarioResult {
        run_pipeline_scenario_impl(self.cfg, self.trace)
    }
}

/// One pipeline stage's steady-state + survivor-recovery loop — like
/// [`dp_worker_loop`], the exact code both the in-process scenario and
/// the process backend's `swift-worker` binary run. Covers training,
/// checkpointing, the survivor side of logging recovery (undo,
/// consensus, log upload, optional assist replay) and the resume fence.
#[allow(clippy::too_many_arguments)]
pub fn pipeline_worker_loop(
    mut ctx: WorkerCtx,
    mut w: PipelineWorker,
    job: &PipelineJob,
    data: &dyn DataSource,
    iters: u64,
    make_stage: &dyn Fn(usize) -> Sequential,
    opt_kind: OptimizerKind,
    d: usize,
) -> (Option<ModelState>, Vec<f32>) {
    let all_ranks = job.stage_ranks.clone();
    let global = w.global.clone();
    let mut losses = Vec::new();
    loop {
        // Progress beacon for external (process) supervisors.
        ctx.kv.set(
            &format!("proc/progress/{}", ctx.rank()),
            w.iteration.to_string(),
        );
        if w.iteration >= iters {
            return (Some(w.model.state()), losses);
        }
        // Report progress to the fault injector; an `AtIteration`
        // crash trigger takes this machine down right here.
        if ctx.note_iteration(w.iteration).is_err() {
            return (None, losses);
        }
        match pipeline_train_iteration(&mut ctx, job, &mut w, data) {
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
                let survivors: Vec<Rank> = all_ranks
                    .iter()
                    .copied()
                    .filter(|&r| r != failed_rank)
                    .collect();
                let consensus = pipeline_on_failure_survivor(&mut ctx, &mut w, &survivors).unwrap();
                let assistants: Vec<Rank> = survivors.iter().copied().take(d - 1).collect();
                if assistants.contains(&ctx.rank()) {
                    assist_replay(
                        &mut ctx,
                        job,
                        &make_stage,
                        &global,
                        opt_kind,
                        data,
                        failed_rank,
                        &assistants,
                        consensus,
                        generation,
                        d,
                    );
                }
                // Rendezvous with the replacement, then resume.
                let me = ctx.rank();
                swift_obs::emit(|| Event::PhaseBegin {
                    rank: me,
                    epoch: generation,
                    phase: Phase::Resume,
                });
                recovery_fence(&mut ctx, generation.fence_channel(2), &all_ranks).unwrap();
                swift_obs::emit(|| Event::PhaseEnd {
                    rank: me,
                    epoch: generation,
                    phase: Phase::Resume,
                });
            }
        }
    }
}

/// The pipeline replacement's recovery sequence before it joins
/// [`pipeline_worker_loop`]: load the latest checkpoint, adopt the
/// survivors' consensus iteration, fence with the replay group, replay
/// the log, and pass the resume fence. Returns with `w` positioned at
/// the consensus iteration. Shared by the in-process driver and the
/// `swift-worker` binary.
pub fn pipeline_replacement_recover(
    rctx: &mut WorkerCtx,
    w: &mut PipelineWorker,
    job: &PipelineJob,
    data: &dyn DataSource,
    d: usize,
) {
    let mach = rctx.rank();
    let stages = job.num_stages();
    let survivors: Vec<Rank> = job
        .stage_ranks
        .iter()
        .copied()
        .filter(|&r| r != mach)
        .collect();
    let trace_t0 = std::time::Instant::now();
    let trace_mark = |kv: &swift_net::KvStore, phase: &str, since: std::time::Instant| {
        kv.incr("trace/seq");
        let seq: i64 = kv.get("trace/seq").unwrap().parse().unwrap();
        kv.set(
            &format!("trace/{seq:04}"),
            format!("{phase}={:.3}", since.elapsed().as_secs_f64() * 1000.0),
        );
    };
    // Load the latest checkpoint from the global store.
    let (from, consensus) = {
        let ckpt = w.ckpt.load_latest().unwrap();
        let from = match ckpt {
            Some(c) => {
                w.model.load_state(&c.model);
                w.opt.load_state(&c.optim);
                c.iteration
            }
            None => 0,
        };
        // Consensus published by the survivors.
        let generation = failure_epoch(&rctx.kv);
        let mut consensus = u64::MAX;
        for &r in &survivors {
            let v = rctx
                .kv
                .wait_for(&format!("consensus/{generation}/{r}"), RENDEZVOUS_DEADLINE)
                .expect("no consensus");
            consensus = consensus.min(v.parse().unwrap());
        }
        (from, consensus)
    };
    w.iteration = from;
    trace_mark(&rctx.kv, "checkpoint-loaded+consensus", trace_t0);
    let generation = failure_epoch(&rctx.kv);
    let replay_ranks = replay_participants(mach, &survivors, d);
    // Fence phase: the replay-group rendezvous. Recorded even when
    // the replacement replays alone (d = 1) so the per-incident
    // breakdown always carries a (possibly empty) fence segment.
    swift_obs::emit(|| Event::PhaseBegin {
        rank: mach,
        epoch: generation,
        phase: Phase::Fence,
    });
    if replay_ranks.len() > 1 {
        recovery_fence(rctx, generation.fence_channel(1), &replay_ranks).unwrap();
    }
    swift_obs::emit(|| Event::PhaseEnd {
        rank: mach,
        epoch: generation,
        phase: Phase::Fence,
    });
    let reader = WalReader::new(w.global.blob().clone());
    let role = RecoveryRole {
        stage: job.stage_of(mach),
        recovered_stages: vec![job.stage_of(mach)],
        group_ranks: vec![mach],
        replica: 0,
        num_replicas: d,
        allreduce_peers: replay_ranks.clone(),
    };
    pipeline_replay(
        rctx,
        job,
        &role,
        &mut w.model,
        &mut *w.opt,
        &reader,
        data,
        from,
        consensus,
    )
    .unwrap();
    w.iteration = consensus;
    trace_mark(&rctx.kv, "replay-done", trace_t0);
    swift_obs::emit(|| Event::PhaseBegin {
        rank: mach,
        epoch: generation,
        phase: Phase::Resume,
    });
    recovery_fence(
        rctx,
        generation.fence_channel(2),
        &(0..stages).collect::<Vec<_>>(),
    )
    .unwrap();
    swift_obs::emit(|| Event::PhaseEnd {
        rank: mach,
        epoch: generation,
        phase: Phase::Resume,
    });
    trace_mark(&rctx.kv, "resume-fence-done", trace_t0);
}

fn run_pipeline_scenario_impl(cfg: PipelineScenario, trace: bool) -> ScenarioResult {
    let stages = cfg.stages;
    let cluster = Cluster::new(Topology::uniform(stages, 1));
    let tracer = trace.then(|| cluster.enable_tracing());
    let fc = cluster.failure_controller();
    // The scripted crash rides on the fault injector: an `AtIteration`
    // trigger kills the machine when the victim reports that iteration
    // (one rank per machine, so rank == machine). Triggers are one-shot,
    // so the replacement re-running the same iteration survives.
    let injector = if cfg.faults.is_some() || cfg.crash.is_some() {
        let mut plan = cfg.faults.clone().unwrap_or_else(|| FaultPlan::new(0));
        if let Some((mach, after)) = cfg.crash {
            plan = plan.with_crash(CrashTrigger::AtIteration {
                rank: mach,
                iteration: after,
            });
        }
        Some(cluster.install_faults(plan))
    } else {
        None
    };
    let global = GlobalStore::new_temp().expect("global store");
    let job = PipelineJob {
        stage_ranks: (0..stages).collect(),
        microbatches: cfg.microbatches,
        kind: cfg.schedule,
        ckpt_interval: cfg.ckpt_interval,
        batch_size: cfg.batch_size,
    };
    // A machine doomed to die: the scripted crash or a crash trigger in
    // the fault plan — either way the driver must respawn a replacement
    // once the failure is declared, or the survivors' recovery fence
    // waits forever for the dead rank's seq.
    let trigger_victim = cfg.faults.as_ref().and_then(|p| {
        p.crashes.first().map(|t| match t {
            CrashTrigger::AtNthSend { rank, .. }
            | CrashTrigger::AtNthDelivery { rank, .. }
            | CrashTrigger::AtIteration { rank, .. }
            | CrashTrigger::KillProcess { rank, .. } => *rank,
        })
    });
    let doomed = cfg.crash.map(|(mach, _)| mach).or(trigger_victim);
    let had_crash = doomed.is_some();
    let d = cfg.parallel_recovery.max(1);

    let model_fn = cfg.model_fn.clone();
    let make_stage = {
        let model_fn = model_fn.clone();
        move |stage: usize| -> Sequential {
            swift_dnn::models::split_stages(model_fn(), stages)
                .into_iter()
                .nth(stage)
                .unwrap()
        }
    };
    let make_worker = {
        let make_stage = make_stage.clone();
        let global = global.clone();
        let opt = cfg.opt;
        let log_mode = cfg.log_mode;
        let log_precision = cfg.log_precision;
        move |stage: usize, topo: &Topology, rank: Rank| -> PipelineWorker {
            let store = BlobStore::new_temp(&format!("scen-m{}", topo.machine_of(rank))).unwrap();
            PipelineWorker {
                stage,
                model: make_stage(stage),
                opt: opt.build(),
                iteration: 0,
                logger: Logger::with_precision(
                    log_mode,
                    topo.clone(),
                    GroupMap::singletons(topo.num_machines()),
                    store,
                    log_precision,
                ),
                ckpt: CheckpointManager::new(global.blob().clone(), rank),
                global: global.clone(),
                last_grads: Vec::new(),
            }
        }
    };
    let data = Arc::new(DatasetSource {
        dataset: cfg.dataset.clone(),
        batch_size: cfg.batch_size,
        microbatches: cfg.microbatches,
    });

    let iters = cfg.iters;

    // Survivor/steady-state loop, shared by original and replacement
    // workers.
    let opt_kind = cfg.opt;
    let worker_loop = {
        let job = job.clone();
        let data = data.clone();
        let make_stage = make_stage.clone();
        move |ctx: WorkerCtx, w: PipelineWorker| -> (Option<ModelState>, Vec<f32>) {
            pipeline_worker_loop(ctx, w, &job, &*data, iters, &make_stage, opt_kind, d)
        }
    };

    let mut handles = Vec::new();
    for rank in 0..stages {
        let wl = worker_loop.clone();
        let mw = make_worker.clone();
        handles.push(cluster.spawn(rank, move |ctx| {
            let topo = ctx.topology.clone();
            let w = mw(ctx.rank(), &topo, ctx.rank());
            wl(ctx, w)
        }));
    }

    let mut replacement_handle = None;
    if let Some(mach) = doomed {
        // Wait for the failure to be *declared* in the KV store and for
        // every survivor to publish its consensus iteration (proof it
        // detected the failure) before reviving the machine.
        let kv = cluster.kv();
        let generation = wait_declared(&kv);
        for r in (0..stages).filter(|&r| r != mach) {
            assert!(
                kv.wait_for(&format!("consensus/{generation}/{r}"), RENDEZVOUS_DEADLINE)
                    .is_some(),
                "survivor never reached consensus"
            );
        }
        fc.replace_machine(mach);
        let mut rctx = cluster.respawn(mach);
        let wl = worker_loop.clone();
        let mw = make_worker.clone();
        let job2 = job.clone();
        let data2 = data.clone();
        replacement_handle = Some(std::thread::spawn(move || {
            let topo = rctx.topology.clone();
            let mut w = mw(mach, &topo, mach);
            pipeline_replacement_recover(&mut rctx, &mut w, &job2, &*data2, d);
            wl(rctx, w)
        }));
    }

    let mut states = vec![None; stages];
    let mut losses = Vec::new();
    for (rank, h) in handles.into_iter().enumerate() {
        let (state, l) = h.join().expect("worker panicked");
        if !l.is_empty() {
            losses = l;
        }
        states[rank] = state;
    }
    if let Some(h) = replacement_handle {
        let (state, l) = h.join().expect("replacement panicked");
        let mach = doomed.unwrap();
        if !l.is_empty() {
            losses = l; // replacement hosted the last stage
        }
        states[mach] = state;
    }
    let mut recovery_trace = Vec::new();
    let kv = cluster.kv();
    if let Some(n) = kv.get("trace/seq").and_then(|v| v.parse::<i64>().ok()) {
        for seq in 1..=n {
            if let Some(entry) = kv.get(&format!("trace/{seq:04}")) {
                if let Some((phase, ms)) = entry.split_once('=') {
                    recovery_trace.push((phase.to_string(), ms.parse().unwrap_or(0.0)));
                }
            }
        }
    }
    ScenarioResult {
        states: states
            .into_iter()
            .map(|s| s.expect("missing final state"))
            .collect(),
        losses,
        recovered: had_crash,
        recovery_trace,
        fault_stats: injector.map(|i| i.stats()),
        trace: tracer.map(|t| t.snapshot()),
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

/// An assisting survivor's side of parallel recovery (Fig. 6c): snapshot
/// own state, adopt the failed stage's checkpoint, replay its share of
/// micro-batches, restore.
#[allow(clippy::too_many_arguments)]
fn assist_replay(
    ctx: &mut WorkerCtx,
    job: &PipelineJob,
    make_stage: &impl Fn(usize) -> Sequential,
    global: &GlobalStore,
    opt_kind: OptimizerKind,
    data: &dyn DataSource,
    failed_rank: Rank,
    assistants: &[Rank],
    consensus: u64,
    epoch: Epoch,
    d: usize,
) {
    let failed_stage = job.stage_of(failed_rank);
    // Step 4: (in-memory) snapshot of own state is implicit — the
    // assistant uses a *separate* model instance, leaving its own intact.
    let mut model = make_stage(failed_stage);
    let ckpt_mgr = CheckpointManager::new(global.blob().clone(), failed_rank);
    // No checkpoint yet (failure before the first interval): start from
    // the deterministic initial state at iteration 0.
    let (mut opt, from) = match ckpt_mgr.load_latest().expect("ckpt io") {
        Some(ckpt) => {
            model.load_state(&ckpt.model);
            let opt = optimizer_from_state(&ckpt.optim);
            (opt, ckpt.iteration)
        }
        None => (opt_kind.build(), 0),
    };
    let survivors_sorted = replay_participants(failed_rank, assistants, d);
    let me = ctx.rank();
    swift_obs::emit(|| Event::PhaseBegin {
        rank: me,
        epoch,
        phase: Phase::Fence,
    });
    recovery_fence(ctx, epoch.fence_channel(1), &survivors_sorted).unwrap();
    swift_obs::emit(|| Event::PhaseEnd {
        rank: me,
        epoch,
        phase: Phase::Fence,
    });
    let my_replica = 1 + assistants.iter().position(|&r| r == ctx.rank()).unwrap();
    let reader = WalReader::new(global.blob().clone());
    let role = RecoveryRole {
        stage: failed_stage,
        recovered_stages: vec![failed_stage],
        group_ranks: vec![ctx.rank()],
        replica: my_replica,
        num_replicas: d,
        allreduce_peers: survivors_sorted.clone(),
    };
    // The assistant replays interior stages only in this scenario (data
    // source unused unless the failed stage is first/last; pass the real
    // one if so — handled by the caller configuration).
    pipeline_replay(
        ctx, job, &role, &mut model, &mut *opt, &reader, data, from, consensus,
    )
    .unwrap();
    // Own state was never touched; nothing to restore.
}

/// Reconstructs a boxed optimizer from a checkpointed
/// [`OptimState`](swift_optim::OptimState)
/// (assistants adopt the failed stage's optimizer this way, Fig. 6c
/// step 5).
pub fn optimizer_from_state(state: &swift_optim::OptimState) -> Box<dyn swift_optim::Optimizer> {
    let get = |k: &str| {
        state
            .scalars
            .iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.first().copied())
            .unwrap_or(0.0)
    };
    let kind = match state.name.as_str() {
        "SGD" => OptimizerKind::Sgd {
            lr: get("lr"),
            weight_decay: get("wd"),
        },
        "SGD-momentum" => OptimizerKind::SgdMomentum {
            lr: get("lr"),
            weight_decay: get("wd"),
            momentum: get("momentum"),
            dampening: get("dampening"),
        },
        "Adam" => OptimizerKind::Adam {
            lr: get("lr"),
            weight_decay: get("wd"),
        },
        "AdamW" => OptimizerKind::AdamW {
            lr: get("lr"),
            weight_decay: get("wd"),
        },
        "LAMB" => OptimizerKind::Lamb {
            lr: get("lr"),
            weight_decay: get("wd"),
        },
        "AMSGrad" => OptimizerKind::AmsGrad {
            lr: get("lr"),
            weight_decay: get("wd"),
        },
        other => panic!("unknown optimizer kind {other}"),
    };
    let mut opt = kind.build();
    opt.load_state(state);
    opt
}
