//! Logging-based recovery for pipeline-parallel training (paper §5).
//!
//! Failure-free path: each training iteration runs the 1F1B schedule with
//! the bubble-time logger attached; the optimizer updates layer-wise after
//! the flush; periodic global checkpoints garbage-collect the logs.
//!
//! Recovery path (Fig. 6b/6c): survivors flush and upload their logs,
//! agree on the consensus pre-failure iteration (undoing any update past
//! it, §4/§6), and the replacement — optionally joined by assisting
//! survivors for parallel recovery (§5.2) — loads the last checkpoint and
//! replays the lost iterations from the logged boundary tensors, through
//! the *same* executor used for training.

use swift_ckpt::{Checkpoint, CheckpointManager};
use swift_dnn::Sequential;
use swift_net::{
    default_chunk_bytes, failure_epoch, failure_state, CommError, Rank, RetryPolicy, WorkerCtx,
};
use swift_obs::IterationId;
use swift_optim::Optimizer;
use swift_pipeline::{run_iteration, run_ops, CommTransport, Op, ScheduleKind, StagePlacement};
use swift_store::GlobalStore;
use swift_tensor::Tensor;
use swift_wal::{
    assign_microbatches, Endpoint, Logger, LoggingObserver, ReplayTransport, WalReader,
};

use crate::consistency::undo_step;
use crate::supervisor::wait_cascade_aware;

/// Static pipeline-job configuration shared by every worker.
#[derive(Debug, Clone)]
pub struct PipelineJob {
    /// Rank hosting each stage, in stage order.
    pub stage_ranks: Vec<Rank>,
    /// Micro-batches per iteration.
    pub microbatches: usize,
    /// Schedule flavor.
    pub kind: ScheduleKind,
    /// Global checkpoint interval (iterations).
    pub ckpt_interval: u64,
    /// Global mini-batch size (for loss scaling).
    pub batch_size: usize,
}

impl PipelineJob {
    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stage_ranks.len()
    }

    /// The stage hosted by `rank`.
    pub fn stage_of(&self, rank: Rank) -> usize {
        self.stage_ranks
            .iter()
            .position(|&r| r == rank)
            .expect("rank not in pipeline")
    }

    /// Placement descriptor for `stage`.
    pub fn placement(&self, stage: usize) -> StagePlacement {
        StagePlacement {
            stage,
            num_stages: self.num_stages(),
            microbatches: self.microbatches,
            kind: self.kind,
        }
    }
}

/// Per-worker pipeline training state with fault tolerance attached.
pub struct PipelineWorker {
    /// This worker's stage.
    pub stage: usize,
    /// The stage model.
    pub model: Sequential,
    /// The stage optimizer.
    pub opt: Box<dyn Optimizer>,
    /// Completed iterations.
    pub iteration: u64,
    /// The machine-local logger.
    pub logger: Logger,
    /// Checkpoint manager writing to the global store (per-rank keys).
    pub ckpt: CheckpointManager,
    /// The cluster-wide global store (the paper's HDFS).
    pub global: GlobalStore,
    /// Cached gradients of the most recent completed step (`g_t`, §4).
    pub last_grads: Vec<Tensor>,
}

/// Supplies deterministic training data: micro-batch inputs for stage 0
/// and loss/gradient for the last stage, re-generatable for any iteration
/// (recovery replays regenerate them — input determinism, §6). Both calls
/// are pure functions of `(iteration, mb)`: a replay sees the bits the
/// failure-free run saw. An implementation should produce only the one
/// micro-batch asked for; [`DatasetSource`](crate::DatasetSource)
/// generates just its examples, or just their labels for the loss.
pub trait DataSource: Send {
    /// Input tensor for `(iteration, microbatch)` (stage 0 only).
    fn input(&self, iteration: u64, mb: usize) -> Tensor;

    /// Loss and output-gradient for `(iteration, microbatch)` given the
    /// last stage's output.
    fn loss(&self, iteration: u64, mb: usize, output: &Tensor) -> (f32, Tensor);
}

/// Runs one fault-tolerant training iteration: 1F1B with bubble-time
/// logging, then the layer-wise update. Returns the loss sum (last stage).
pub fn pipeline_train_iteration(
    ctx: &mut WorkerCtx,
    job: &PipelineJob,
    w: &mut PipelineWorker,
    data: &dyn DataSource,
) -> Result<f32, CommError> {
    let placement = job.placement(w.stage);
    w.model.zero_grads();
    let it = w.iteration;
    let prev = (w.stage > 0).then(|| job.stage_ranks[w.stage - 1]);
    let next = (w.stage + 1 < job.num_stages()).then(|| job.stage_ranks[w.stage + 1]);
    let loss = {
        let mut observer = LoggingObserver {
            rank: ctx.rank(),
            logger: &mut w.logger,
        };
        let mut transport = CommTransport {
            comm: &mut ctx.comm,
            prev,
            next,
            observer: &mut observer,
        };
        let mut input = |mb: usize| data.input(it, mb);
        let mut lossf = |mb: usize, y: &Tensor| data.loss(it, mb, y);
        run_iteration(
            &mut w.model,
            placement,
            it,
            &mut transport,
            &mut input,
            &mut lossf,
            &mut |_| {},
        )?
    };
    // Pipeline flush reached: apply the update layer-wise.
    w.last_grads = w.model.grads_snapshot();
    let n = w.model.num_param_groups();
    w.model.apply_update_with(&mut *w.opt, &w.last_grads, 0, n);
    w.opt.finish_step();
    w.iteration += 1;
    Ok(loss)
}

/// Takes the periodic global checkpoint when due, and garbage-collects
/// logs the checkpoint obsoletes (§5.1). Returns true when taken.
pub fn pipeline_maybe_checkpoint(
    job: &PipelineJob,
    w: &mut PipelineWorker,
) -> std::io::Result<bool> {
    if w.iteration == 0 || !w.iteration.is_multiple_of(job.ckpt_interval) {
        return Ok(false);
    }
    let ckpt = Checkpoint {
        iteration: w.iteration,
        model: w.model.state(),
        optim: w.opt.state(),
    };
    w.ckpt.save(&ckpt)?;
    w.ckpt.gc()?;
    // Flush pending log writes, then GC records the checkpoint covers.
    w.logger.flush();
    w.logger.gc_before(IterationId::new(w.iteration))?;
    Ok(true)
}

/// Survivor-side failure handling (Fig. 6b steps 1–3 plus §4 consensus):
/// abort the in-flight iteration, flush + upload logs, agree on the
/// consensus iteration via the KV store, and undo past it. Returns the
/// consensus iteration. The caller's [`PhaseTracker`] spans it as
/// `Phase::Undo`.
///
/// [`PhaseTracker`]: crate::supervisor::PhaseTracker
pub fn pipeline_on_failure_survivor(
    ctx: &mut WorkerCtx,
    w: &mut PipelineWorker,
    survivors: &[Rank],
) -> Result<u64, CommError> {
    // Abort in-flight micro-batches; partial gradients are discarded.
    w.model.clear_caches();
    w.model.zero_grads();
    // Flush uncommitted logging tasks and upload to the global store.
    w.logger.flush();
    w.global
        .upload_prefix(w.logger.store(), "wal/")
        .expect("log upload failed");
    // Consensus via the KV store (collectives may be skewed mid-failure),
    // namespaced by the *declared* failure epoch — no oracle reads. The
    // waits are cascade-aware: a survivor dying before it reports aborts
    // the consensus so the supervisor can restart under the new epoch.
    let generation = failure_epoch(&ctx.kv);
    let (_, entry_dead) = failure_state(&ctx.kv);
    let policy = RetryPolicy::recovery();
    let me = ctx.rank();
    ctx.kv.set(
        &format!("consensus/{generation}/{me}"),
        w.iteration.to_string(),
    );
    let mut consensus = w.iteration;
    for &r in survivors {
        let v = wait_cascade_aware(
            ctx,
            &format!("consensus/{generation}/{r}"),
            survivors,
            &entry_dead,
            &policy,
        )?;
        consensus = consensus.min(v.parse().expect("bad iteration in kv"));
    }
    // Undo past the consensus (synchronous pipelines stay within 1): the
    // whole finished step, with the gradients it applied.
    assert!(
        w.iteration - consensus <= 1,
        "pipeline flush bounds the skew to one step"
    );
    if w.iteration > consensus {
        let groups: Vec<usize> = (0..w.model.num_param_groups()).collect();
        undo_step(&mut w.model, &mut *w.opt, &w.last_grads, &groups, true)
            .expect("pipeline recovery requires an invertible optimizer");
        w.iteration -= 1;
    }
    Ok(consensus)
}

/// How a recovering stage's boundaries map onto endpoints.
fn recovery_endpoints(
    job: &PipelineJob,
    stage: usize,
    recovered: &[usize],
    replica_rank_of_stage: &dyn Fn(usize) -> Rank,
) -> (Endpoint, Endpoint) {
    let prev = if stage == 0 {
        Endpoint::None
    } else if recovered.contains(&(stage - 1)) {
        Endpoint::Live {
            peer: replica_rank_of_stage(stage - 1),
        }
    } else {
        Endpoint::Logged {
            peer: job.stage_ranks[stage - 1],
        }
    };
    let next = if stage + 1 == job.num_stages() {
        Endpoint::None
    } else if recovered.contains(&(stage + 1)) {
        Endpoint::Live {
            peer: replica_rank_of_stage(stage + 1),
        }
    } else {
        Endpoint::Logged {
            peer: job.stage_ranks[stage + 1],
        }
    };
    (prev, next)
}

/// Parameters of one recovery participation: which stage this worker
/// re-computes, within which replica group.
#[derive(Debug, Clone)]
pub struct RecoveryRole {
    /// The stage being re-computed by this worker.
    pub stage: usize,
    /// All stages being recovered together (the failed machine's
    /// contiguous sub-pipeline).
    pub recovered_stages: Vec<usize>,
    /// Rank executing each recovered stage *within this replica group*.
    pub group_ranks: Vec<Rank>,
    /// This worker's replica index and the total replica count `d`.
    pub replica: usize,
    /// Total data-parallel replica groups.
    pub num_replicas: usize,
    /// Ranks (across all replica groups) recomputing the same stage —
    /// gradient all-reduce peers.
    pub allreduce_peers: Vec<Rank>,
}

/// Replays iterations `from..to` of the recovered stages from the logged
/// boundary tensors (Fig. 6b step 5 / Fig. 6c steps 6–7), applying the
/// optimizer update after each replayed iteration.
///
/// With `num_replicas > 1` this is parallel recovery (§5.2): this worker
/// re-computes only its assigned micro-batches and all-reduces gradients
/// with its peers before updating, which is logically equivalent to the
/// sequential replay. The caller's [`PhaseTracker`] spans it as
/// `Phase::Replay`.
///
/// [`PhaseTracker`]: crate::supervisor::PhaseTracker
#[allow(clippy::too_many_arguments)]
pub fn pipeline_replay(
    ctx: &mut WorkerCtx,
    job: &PipelineJob,
    role: &RecoveryRole,
    model: &mut Sequential,
    opt: &mut dyn Optimizer,
    reader: &WalReader,
    data: &dyn DataSource,
    from: u64,
    to: u64,
) -> Result<(), CommError> {
    let my_stage = role.stage;
    let stage_pos = role
        .recovered_stages
        .iter()
        .position(|&s| s == my_stage)
        .expect("stage not in recovery set");
    let my_group_rank = role.group_ranks[stage_pos];
    assert_eq!(my_group_rank, ctx.rank(), "role/group rank mismatch");
    let group_ranks = role.group_ranks.clone();
    let recovered = role.recovered_stages.clone();
    let rank_of = |s: usize| {
        let pos = recovered.iter().position(|&x| x == s).unwrap();
        group_ranks[pos]
    };
    let (prev, next) = recovery_endpoints(job, my_stage, &recovered, &rank_of);
    let assigned = assign_microbatches(job.microbatches, role.num_replicas, role.replica);
    // Replay schedule: F then B per assigned micro-batch, in order.
    let ops: Vec<Op> = assigned
        .iter()
        .flat_map(|&mb| [Op::Forward { mb }, Op::Backward { mb }])
        .collect();
    let is_first = my_stage == 0;
    let is_last = my_stage + 1 == job.num_stages();
    for it in from..to {
        model.zero_grads();
        let mut transport = ReplayTransport {
            comm: &mut ctx.comm,
            me: job.stage_ranks[my_stage],
            prev,
            next,
            reader,
            dropped_sends: 0,
        };
        let mut input = |mb: usize| data.input(it, mb);
        let mut lossf = |mb: usize, y: &Tensor| data.loss(it, mb, y);
        run_ops(
            model,
            &ops,
            is_first,
            is_last,
            it,
            &mut transport,
            &mut input,
            &mut lossf,
            &mut |_| {},
        )?;
        // Parallel recovery: sum partial gradients across replica groups.
        let mut grads = model.grads_snapshot();
        if role.num_replicas > 1 {
            for g in grads.iter_mut() {
                let mut out = g.clone();
                ctx.comm.allreduce_sum_chunked_into(
                    &role.allreduce_peers,
                    g,
                    &mut out,
                    default_chunk_bytes(),
                )?;
                *g = out;
            }
        }
        let n = model.num_param_groups();
        model.apply_update_with(opt, &grads, 0, n);
        opt.finish_step();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetSource;
    use std::sync::Arc;
    use swift_data::BlobsDataset;
    use swift_dnn::models::{mlp, split_stages};
    use swift_net::Topology;
    use swift_optim::OptimizerKind;
    use swift_store::BlobStore;
    use swift_wal::{GroupMap, LogMode};

    /// Blobs over 6 features and 3 classes; batch 8 over 4 micro-batches.
    fn data() -> DatasetSource {
        DatasetSource {
            dataset: Arc::new(BlobsDataset::new(21, 6, 3, 0.3)),
            batch_size: 8,
            microbatches: 4,
        }
    }

    fn job() -> PipelineJob {
        PipelineJob {
            stage_ranks: vec![0, 1, 2],
            microbatches: 4,
            kind: ScheduleKind::OneFOneB,
            ckpt_interval: 2,
            batch_size: 8,
        }
    }

    fn stage_model(stage: usize) -> Sequential {
        split_stages(mlp("m", &[6, 16, 16, 3], 55), 3)
            .into_iter()
            .nth(stage)
            .unwrap()
    }

    fn make_opt() -> Box<dyn Optimizer> {
        OptimizerKind::SgdMomentum {
            lr: 0.05,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        }
        .build()
    }

    pub(crate) fn make_worker(
        stage: usize,
        topo: &Topology,
        rank: Rank,
        global: &GlobalStore,
        mode: LogMode,
    ) -> PipelineWorker {
        let machine_store =
            BlobStore::new_temp(&format!("pft-m{}", topo.machine_of(rank))).unwrap();
        PipelineWorker {
            stage,
            model: stage_model(stage),
            opt: make_opt(),
            iteration: 0,
            logger: Logger::new(
                mode,
                topo.clone(),
                GroupMap::singletons(topo.num_machines()),
                machine_store,
            ),
            ckpt: CheckpointManager::new(global.blob().clone(), rank),
            global: global.clone(),
            last_grads: Vec::new(),
        }
    }

    /// Failure-free 3-stage pipeline run; returns per-stage model states at
    /// `iters`.
    fn failure_free(iters: u64) -> Vec<swift_dnn::ModelState> {
        let global = GlobalStore::new_temp().unwrap();

        swift_net::Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
            let stage = ctx.rank();
            let topo = ctx.topology.clone();
            let mut w = make_worker(stage, &topo, ctx.rank(), &global, LogMode::BubbleAsync);
            let data = data();
            for _ in 0..iters {
                pipeline_train_iteration(&mut ctx, &job(), &mut w, &data).unwrap();
                pipeline_maybe_checkpoint(&job(), &mut w).unwrap();
            }
            w.model.state()
        })
    }

    #[test]
    fn pipeline_ft_trains_and_checkpoints() {
        let global = GlobalStore::new_temp().unwrap();
        let g2 = global.clone();
        let results = swift_net::Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
            let stage = ctx.rank();
            let topo = ctx.topology.clone();
            let mut w = make_worker(stage, &topo, ctx.rank(), &g2, LogMode::BubbleAsync);
            let data = data();
            let mut losses = Vec::new();
            for _ in 0..5 {
                losses.push(pipeline_train_iteration(&mut ctx, &job(), &mut w, &data).unwrap());
                pipeline_maybe_checkpoint(&job(), &mut w).unwrap();
            }
            (
                w.iteration,
                losses,
                w.ckpt.load_latest().unwrap().map(|c| c.iteration),
            )
        });
        for (it, _, ck) in &results {
            assert_eq!(*it, 5);
            assert_eq!(*ck, Some(4), "checkpoint at the last interval boundary");
        }
        // Loss decreases on the last stage.
        let losses = &results[2].1;
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn logs_capture_boundary_traffic_and_gc_on_checkpoint() {
        let global = GlobalStore::new_temp().unwrap();
        let g2 = global.clone();
        let results = swift_net::Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
            let stage = ctx.rank();
            let topo = ctx.topology.clone();
            let mut w = make_worker(stage, &topo, ctx.rank(), &g2, LogMode::BubbleAsync);
            let data = data();
            for _ in 0..3 {
                pipeline_train_iteration(&mut ctx, &job(), &mut w, &data).unwrap();
                pipeline_maybe_checkpoint(&job(), &mut w).unwrap();
            }
            w.logger.flush();
            w.logger.store().list("wal/").unwrap()
        });
        // Stage 0 logs activations to stage 1; ckpt at it 2 GC'd iterations
        // 0-1, leaving iteration 2 only: 4 micro-batches.
        assert_eq!(results[0].len(), 4);
        assert!(results[0]
            .iter()
            .all(|k| k.contains("it000000000002") && k.contains("act_0to1")));
        // Stage 1 logs both directions (acts to 2, grads to 0).
        assert_eq!(results[1].len(), 8);
        // Stage 2 logs gradients to stage 1.
        assert!(results[2].iter().all(|k| k.contains("grad_2to1")));
    }

    #[test]
    fn single_machine_failure_recovery_is_bitwise_exact() {
        // 3 machines × 1 stage; machine 1 (stage 1) dies right after
        // completing iteration 3; ckpt interval 2 → replacement loads the
        // iteration-2 checkpoint and replays iterations 2 with logs.
        // Post-recovery training continues to iteration 6; all stages must
        // match the failure-free run bitwise (§6 determinism).
        let iters_total = 6u64;
        let kill_after_iter = 3u64;
        let global = GlobalStore::new_temp().unwrap();
        let cluster = swift_net::Cluster::new(Topology::uniform(3, 1));
        let fc = cluster.failure_controller();

        let mut handles = Vec::new();
        for rank in [0usize, 2] {
            let g = global.clone();
            handles.push(cluster.spawn(rank, move |mut ctx| {
                let topo = ctx.topology.clone();
                let stage = ctx.rank();
                let mut w = make_worker(stage, &topo, ctx.rank(), &g, LogMode::BubbleAsync);
                let data = data();
                loop {
                    if w.iteration >= iters_total {
                        return w.model.state();
                    }
                    match pipeline_train_iteration(&mut ctx, &job(), &mut w, &data) {
                        Ok(_) => {
                            pipeline_maybe_checkpoint(&job(), &mut w).unwrap();
                        }
                        Err(CommError::PeerFailed { .. }) => {
                            let consensus =
                                pipeline_on_failure_survivor(&mut ctx, &mut w, &[0, 2]).unwrap();
                            assert_eq!(consensus, kill_after_iter);
                            // Wait for the replacement, then fence and resume.
                            ctx.kv
                                .wait_for(
                                    "pipeline-replacement-done",
                                    std::time::Duration::from_secs(30),
                                )
                                .expect("replacement never finished");
                            let generation = failure_epoch(&ctx.kv).generation();
                            crate::fence::recovery_fence(&mut ctx, generation, &[0, 1, 2]).unwrap();
                        }
                        Err(e) => panic!("survivor {stage}: {e}"),
                    }
                }
            }));
        }
        // The victim: stage 1 on machine 1.
        let g1 = global.clone();
        let hv = cluster.spawn(1, move |mut ctx| {
            let topo = ctx.topology.clone();
            let mut w = make_worker(1, &topo, 1, &g1, LogMode::BubbleAsync);
            let data = data();
            for _ in 0..kill_after_iter {
                pipeline_train_iteration(&mut ctx, &job(), &mut w, &data).unwrap();
                pipeline_maybe_checkpoint(&job(), &mut w).unwrap();
            }
            // Fail-stop: volatile state lost; logs on the *other* machines
            // survive (upstream backup).
            ctx.comm
                .failure_controller()
                .clone()
                .kill_machine(ctx.machine());
        });
        hv.join().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));

        // Driver: replacement machine joins.
        fc.replace_machine(1);
        let mut rctx = cluster.respawn(1);
        let g = global.clone();
        let kv = cluster.kv();
        let hr = std::thread::spawn(move || {
            let topo = rctx.topology.clone();
            let mut w = make_worker(1, &topo, 1, &g, LogMode::BubbleAsync);
            let data = data();
            // Load the latest checkpoint (written to the global store).
            let ckpt = w.ckpt.load_latest().unwrap().expect("no checkpoint");
            w.model.load_state(&ckpt.model);
            w.opt.load_state(&ckpt.optim);
            w.iteration = ckpt.iteration;
            assert_eq!(w.iteration, 2);
            // Download logs (read the global store directly).
            let reader = WalReader::new(w.global.blob().clone());
            let role = RecoveryRole {
                stage: 1,
                recovered_stages: vec![1],
                group_ranks: vec![1],
                replica: 0,
                num_replicas: 1,
                allreduce_peers: vec![1],
            };
            pipeline_replay(
                &mut rctx,
                &job(),
                &role,
                &mut w.model,
                &mut *w.opt,
                &reader,
                &data,
                w.iteration,
                kill_after_iter,
            )
            .unwrap();
            w.iteration = kill_after_iter;
            kv.set("pipeline-replacement-done", "1");
            let generation = failure_epoch(&rctx.kv).generation();
            crate::fence::recovery_fence(&mut rctx, generation, &[0, 1, 2]).unwrap();
            // Resume normal training.
            while w.iteration < iters_total {
                pipeline_train_iteration(&mut rctx, &job(), &mut w, &data).unwrap();
                pipeline_maybe_checkpoint(&job(), &mut w).unwrap();
            }
            w.model.state()
        });

        let s0 = handles.remove(0).join().unwrap();
        let s2 = handles.remove(0).join().unwrap();
        let s1 = hr.join().unwrap();
        let reference = failure_free(iters_total);
        assert!(
            s0.bit_eq(&reference[0]),
            "stage 0 must match failure-free bitwise"
        );
        assert!(
            s1.bit_eq(&reference[1]),
            "recovered stage 1 must match failure-free bitwise"
        );
        assert!(
            s2.bit_eq(&reference[2]),
            "stage 2 must match failure-free bitwise"
        );
    }
}
