//! The user-facing job API (paper §6, "Usage"): *"A user only needs to
//! provide a user-defined function (UDF) to train for one iteration and
//! specify fault tolerance and training configurations. Then fault
//! tolerance is in place … and recovery upon a failure can be
//! automatically run without requiring user involvement."*
//!
//! [`SwiftJob`] is that surface: pick a model factory, an optimizer, a
//! dataset and a parallelism layout; SWIFT selects the recovery strategy
//! (§3) from the job shape and runs training with failures handled
//! transparently. The lower-level pieces (`dp_train_step`,
//! `pipeline_train_iteration`, `pipeline_replay`, …) remain public for
//! users who need custom loops.

use std::sync::Arc;

use swift_data::Dataset;
use swift_net::{FaultPlan, Rank};
use swift_optim::{chain_for, ChainError, OptimizerKind};
use swift_pipeline::ScheduleKind;
use swift_wal::{LogMode, LogPrecision};

use crate::config::{select_strategy, JobShape, Strategy};
use crate::scenario::{run_job, ModelFn, ScenarioResult};

/// How the job is parallelized across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Data parallelism: one full replica per machine.
    Data {
        /// Number of machines / replicas.
        machines: usize,
    },
    /// Pipeline parallelism: one stage per machine.
    Pipeline {
        /// Number of stages / machines.
        stages: usize,
        /// Micro-batches per iteration.
        microbatches: usize,
    },
}

impl Parallelism {
    /// Machines in the layout, one rank each.
    pub(crate) fn machines(self) -> usize {
        match self {
            Parallelism::Data { machines } => machines,
            Parallelism::Pipeline { stages, .. } => stages,
        }
    }

    /// The rank whose losses the job reports: rank 0 for DP, the last
    /// stage for pipelines. Both backends' drivers report this rank's.
    pub(crate) fn loss_owner(self) -> Rank {
        match self {
            Parallelism::Data { .. } => 0,
            Parallelism::Pipeline { stages, .. } => stages - 1,
        }
    }
}

/// Why a job configuration was rejected at plan-build time.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// SWIFT's crash-consistency repair relies on update-undo (§4); an
    /// optimizer whose update chain cannot be inverted symbolically would
    /// fail at the *first* recovery, so it is rejected before training
    /// starts.
    NonInvertibleOptimizer {
        /// What exactly cannot be inverted, from the symbolic derivation.
        error: ChainError,
    },
    /// The layout leaves no replica or pipeline peer on another machine,
    /// so the only strategy is global checkpointing (§3), which
    /// [`SwiftJob::run`] does not execute.
    CheckpointOnly {
        /// The rejected layout.
        parallelism: Parallelism,
    },
    /// Parallel recovery (§5.2) splits the replayed micro-batches over
    /// `replicas` workers, but only the replacement and the `stages − 1`
    /// survivors can replay: some micro-batches would never be
    /// recomputed.
    ReplicasExceedStages {
        /// The requested parallel-recovery replica count `d`.
        replicas: usize,
        /// The pipeline's stage count.
        stages: usize,
    },
    /// The batch has fewer examples than the layout has parts (pipeline
    /// micro-batches or DP replicas), so some part would hold none.
    BatchTooSmall {
        /// The global mini-batch size.
        batch_size: usize,
        /// Micro-batches per iteration, or DP machines.
        parts: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NonInvertibleOptimizer { error } => write!(
                f,
                "optimizer update is not undoable, so crash-consistency \
                 repair (§4) would fail at first recovery: {error}"
            ),
            PlanError::CheckpointOnly { parallelism } => write!(
                f,
                "{parallelism:?} leaves no replica or pipeline peer on another \
                 machine, so the only strategy is global checkpointing (§3), \
                 which this runtime does not execute"
            ),
            PlanError::ReplicasExceedStages { replicas, stages } => write!(
                f,
                "parallel recovery with d = {replicas} needs d ≤ {stages} stages: \
                 only the replacement and the {} survivors replay, so the \
                 micro-batches of the other replicas would never be recomputed",
                stages - 1
            ),
            PlanError::BatchTooSmall { batch_size, parts } => write!(
                f,
                "a batch of {batch_size} examples cannot be split into {parts} \
                 parts (micro-batches or replicas): every part needs at least \
                 one example"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A fault-tolerant training job: the only job description. The
/// in-process driver runs it on threads, and the process backend's
/// workers run the same runners from
/// [`ProcessScenario::job`](crate::ProcessScenario::job). Build with
/// [`SwiftJob::builder`].
pub struct SwiftJob {
    pub(crate) model_fn: ModelFn,
    pub(crate) opt: OptimizerKind,
    pub(crate) dataset: Arc<dyn Dataset>,
    pub(crate) parallelism: Parallelism,
    pub(crate) batch_size: usize,
    pub(crate) ckpt_interval: u64,
    pub(crate) schedule: ScheduleKind,
    pub(crate) log_mode: LogMode,
    pub(crate) log_precision: LogPrecision,
    pub(crate) parallel_recovery: usize,
    pub(crate) bucket_cap_bytes: Option<usize>,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) trace: bool,
}

/// Builder for [`SwiftJob`].
pub struct SwiftJobBuilder {
    job: SwiftJob,
}

impl SwiftJob {
    /// Starts building a job from its three required ingredients.
    /// Defaults: 2 data-parallel machines, batch size 16, a checkpoint
    /// every 100 iterations, the 1F1B schedule, bubble-async F32 logging,
    /// sequential replay, the default bucket cap, no fault plan, no
    /// tracing.
    pub fn builder(
        model_fn: ModelFn,
        opt: OptimizerKind,
        dataset: Arc<dyn Dataset>,
    ) -> SwiftJobBuilder {
        SwiftJobBuilder {
            job: SwiftJob {
                model_fn,
                opt,
                dataset,
                parallelism: Parallelism::Data { machines: 2 },
                batch_size: 16,
                ckpt_interval: 100,
                schedule: ScheduleKind::OneFOneB,
                log_mode: LogMode::BubbleAsync,
                log_precision: LogPrecision::F32,
                parallel_recovery: 1,
                bucket_cap_bytes: None,
                faults: None,
                trace: false,
            },
        }
    }

    /// The strategy SWIFT selects for this job (§3).
    pub fn strategy(&self) -> Strategy {
        let shape = match self.parallelism {
            Parallelism::Data { machines } => JobShape {
                cross_machine_replica: machines >= 2,
                cross_machine_pipeline: false,
                logging_worth_it: false,
            },
            Parallelism::Pipeline { stages, .. } => JobShape {
                cross_machine_replica: false,
                cross_machine_pipeline: stages >= 2,
                // The in-process substrate always has bubble headroom; at
                // testbed scale use `swift_wal::evaluate_usecase` (§5.4).
                logging_worth_it: true,
            },
        };
        select_strategy(shape)
    }

    /// Trains for `iters` iterations, transparently recovering from the
    /// optional injected machine failure or the fault plan's first crash
    /// trigger. Returns the final per-rank model states and the loss
    /// history.
    pub fn run(&self, iters: u64, crash: Option<JobCrash>) -> ScenarioResult {
        run_job(self, iters, crash)
    }
}

/// A failure to inject while the job runs (testing / experiments).
#[derive(Debug, Clone, Copy)]
pub struct JobCrash {
    /// The machine to kill.
    pub machine: usize,
    /// When (iteration boundary for pipelines; mid-update for DP).
    pub iteration: u64,
    /// For DP: parameter groups applied before the crash (≥ 1).
    pub after_groups: usize,
}

impl SwiftJobBuilder {
    /// Sets the parallelism layout.
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.job.parallelism = p;
        self
    }

    /// Sets the global mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Self {
        self.job.batch_size = b;
        self
    }

    /// Sets the backstop checkpoint interval (pipeline jobs; a DP job
    /// keeps no checkpoint, its replicas are its backstop).
    pub fn ckpt_interval(mut self, i: u64) -> Self {
        self.job.ckpt_interval = i;
        self
    }

    /// Sets the pipeline schedule flavor (pipeline jobs; logging recovery
    /// is not limited to 1F1B, §2.1).
    pub fn schedule(mut self, s: ScheduleKind) -> Self {
        self.job.schedule = s;
        self
    }

    /// Sets the logging mode (pipeline jobs).
    pub fn log_mode(mut self, m: LogMode) -> Self {
        self.job.log_mode = m;
        self
    }

    /// Sets the logged-payload precision (pipeline jobs). F16 halves the
    /// volume; replay then carries a bounded quantization error instead
    /// of being bitwise.
    pub fn log_precision(mut self, p: LogPrecision) -> Self {
        self.job.log_precision = p;
        self
    }

    /// Enables parallel recovery with `d` replicas (pipeline jobs);
    /// assistants are drawn from the lowest-ranked survivors.
    pub fn parallel_recovery(mut self, d: usize) -> Self {
        self.job.parallel_recovery = d.max(1);
        self
    }

    /// Sets the gradient-bucket capacity in bytes for every rank and any
    /// replacement (DP jobs). Smaller caps split the model into more
    /// buckets, making mid-update crash windows observable on tiny test
    /// models.
    pub fn bucket_cap_bytes(mut self, cap: usize) -> Self {
        self.job.bucket_cap_bytes = Some(cap);
        self
    }

    /// Installs an adversarial fault plan on the fabric (delay, reorder,
    /// drop/retransmit, duplicate, stall, crash triggers).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.job.faults = Some(plan);
        self
    }

    /// Enables the vector-clocked fabric tracer; the snapshot lands in
    /// [`ScenarioResult::trace`].
    pub fn trace(mut self) -> Self {
        self.job.trace = true;
        self
    }

    /// Finalizes the job, statically validating the plan:
    ///
    /// - the optimizer's update chain must be symbolically invertible
    ///   (undo derivable for every op under its hyperparameters), because
    ///   every recovery strategy leans on update-undo for crash
    ///   consistency (§4). AMSGrad (running max) and AdamW with `η·λ ≥ 1`
    ///   are rejected here, before training starts, instead of failing at
    ///   first undo;
    /// - the layout must leave a peer on another machine to recover from;
    /// - parallel recovery may use at most one replica per stage;
    /// - the batch must hold at least one example per micro-batch (for
    ///   pipelines) or per machine (for DP).
    pub fn build(self) -> Result<SwiftJob, PlanError> {
        let job = self.job;
        chain_for(&job.opt)
            .derive_undo()
            .map_err(|error| PlanError::NonInvertibleOptimizer { error })?;
        if job.strategy() == Strategy::GlobalCheckpointOnly {
            return Err(PlanError::CheckpointOnly {
                parallelism: job.parallelism,
            });
        }
        let parts = match job.parallelism {
            Parallelism::Data { machines } => machines,
            Parallelism::Pipeline {
                stages,
                microbatches,
            } => {
                if job.parallel_recovery > stages {
                    return Err(PlanError::ReplicasExceedStages {
                        replicas: job.parallel_recovery,
                        stages,
                    });
                }
                microbatches
            }
        };
        if job.batch_size < parts {
            return Err(PlanError::BatchTooSmall {
                batch_size: job.batch_size,
                parts,
            });
        }
        Ok(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_data::BlobsDataset;
    use swift_dnn::models::mlp;

    fn base() -> SwiftJobBuilder {
        SwiftJob::builder(
            Arc::new(|| mlp("api", &[6, 16, 16, 3], 11)),
            OptimizerKind::SgdMomentum {
                lr: 0.05,
                weight_decay: 0.0,
                momentum: 0.9,
                dampening: 0.0,
            },
            Arc::new(BlobsDataset::new(3, 6, 3, 0.3)),
        )
    }

    #[test]
    fn dp_job_selects_replication_and_recovers() {
        let job = base()
            .parallelism(Parallelism::Data { machines: 2 })
            .batch_size(12)
            .build()
            .unwrap();
        assert_eq!(job.strategy(), Strategy::Replication);
        let clean = job.run(12, None);
        let failed = job.run(
            12,
            Some(JobCrash {
                machine: 1,
                iteration: 6,
                after_groups: 2,
            }),
        );
        assert!(failed.states[0].bit_eq(&failed.states[1]));
        assert!(clean.states[0].max_abs_diff(&failed.states[0]) < 1e-3);
    }

    #[test]
    fn pipeline_job_selects_logging_and_recovers_bitwise() {
        let job = base()
            .parallelism(Parallelism::Pipeline {
                stages: 3,
                microbatches: 4,
            })
            .batch_size(8)
            .ckpt_interval(4)
            .build()
            .unwrap();
        assert_eq!(job.strategy(), Strategy::Logging);
        let clean = job.run(10, None);
        let failed = job.run(
            10,
            Some(JobCrash {
                machine: 1,
                iteration: 6,
                after_groups: 0,
            }),
        );
        for s in 0..3 {
            assert!(clean.states[s].bit_eq(&failed.states[s]), "stage {s}");
        }
    }

    #[test]
    fn pipeline_job_with_parallel_recovery() {
        let job = base()
            .parallelism(Parallelism::Pipeline {
                stages: 3,
                microbatches: 4,
            })
            .batch_size(8)
            .ckpt_interval(4)
            .parallel_recovery(2)
            .build()
            .unwrap();
        let clean = job.run(10, None);
        let failed = job.run(
            10,
            Some(JobCrash {
                machine: 1,
                iteration: 6,
                after_groups: 0,
            }),
        );
        for s in 0..3 {
            assert!(
                clean.states[s].max_abs_diff(&failed.states[s]) < 1e-3,
                "stage {s}"
            );
        }
    }

    fn with_opt(opt: OptimizerKind) -> SwiftJobBuilder {
        SwiftJob::builder(
            Arc::new(|| mlp("api", &[6, 16, 3], 11)),
            opt,
            Arc::new(BlobsDataset::new(3, 6, 3, 0.3)),
        )
    }

    #[test]
    fn build_rejects_amsgrad_statically() {
        let err = with_opt(OptimizerKind::AmsGrad {
            lr: 1e-3,
            weight_decay: 0.0,
        })
        .build()
        .map(|_| ())
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("AMSGrad"), "got: {msg}");
        assert!(msg.contains("EW-max"), "got: {msg}");
    }

    #[test]
    fn build_rejects_adamw_with_eta_lambda_ge_one() {
        let err = with_opt(OptimizerKind::AdamW {
            lr: 2.0,
            weight_decay: 0.6,
        })
        .build()
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, PlanError::NonInvertibleOptimizer { .. }));
        let msg = err.to_string();
        assert!(msg.contains("η·λ"), "got: {msg}");
    }

    #[test]
    fn build_rejects_single_machine_layouts() {
        for parallelism in [
            Parallelism::Data { machines: 1 },
            Parallelism::Pipeline {
                stages: 1,
                microbatches: 4,
            },
        ] {
            let err = base()
                .parallelism(parallelism)
                .build()
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err, PlanError::CheckpointOnly { parallelism });
            let msg = err.to_string();
            assert!(msg.contains("global checkpointing"), "got: {msg}");
        }
    }

    #[test]
    fn build_rejects_more_recovery_replicas_than_stages() {
        let pipeline = |d| {
            base()
                .parallelism(Parallelism::Pipeline {
                    stages: 3,
                    microbatches: 4,
                })
                .parallel_recovery(d)
                .build()
                .map(|_| ())
        };
        assert!(pipeline(3).is_ok(), "one replica per stage is the limit");
        let err = pipeline(4).unwrap_err();
        assert_eq!(
            err,
            PlanError::ReplicasExceedStages {
                replicas: 4,
                stages: 3
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("d = 4 needs d ≤ 3"), "got: {msg}");
    }

    #[test]
    fn build_rejects_a_batch_the_layout_cannot_split() {
        for (parallelism, parts) in [
            (
                Parallelism::Pipeline {
                    stages: 2,
                    microbatches: 4,
                },
                4,
            ),
            (Parallelism::Data { machines: 3 }, 3),
        ] {
            let build = |batch_size| {
                base()
                    .parallelism(parallelism)
                    .batch_size(batch_size)
                    .build()
                    .map(|_| ())
            };
            let err = build(2).unwrap_err();
            assert_eq!(
                err,
                PlanError::BatchTooSmall {
                    batch_size: 2,
                    parts
                }
            );
            let msg = err.to_string();
            assert!(msg.contains("batch of 2 examples"), "got: {msg}");
            assert_eq!(
                build(parts - 1).unwrap_err(),
                PlanError::BatchTooSmall {
                    batch_size: parts - 1,
                    parts
                }
            );
            assert!(build(parts).is_ok(), "one example per part is the limit");
        }
    }

    /// At the boundary, one example per part, the job also runs.
    #[test]
    fn one_example_per_part_runs() {
        let pipeline = base()
            .parallelism(Parallelism::Pipeline {
                stages: 2,
                microbatches: 4,
            })
            .batch_size(4)
            .build()
            .unwrap();
        assert_eq!(pipeline.run(2, None).losses.len(), 2);
        let dp = base()
            .parallelism(Parallelism::Data { machines: 3 })
            .batch_size(3)
            .build()
            .unwrap();
        assert_eq!(dp.run(2, None).states.len(), 3);
    }

    #[test]
    fn build_accepts_adamw_with_small_decay() {
        assert!(with_opt(OptimizerKind::AdamW {
            lr: 1e-3,
            weight_decay: 0.01,
        })
        .build()
        .is_ok());
    }
}
