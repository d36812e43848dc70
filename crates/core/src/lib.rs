//! # swift-core
//!
//! The SWIFT runtime: the job API and its two drivers (threads and real
//! processes), the replication, logging and sharded recovery protocols
//! and the update-undo repair they share.

pub mod api;
pub mod bucket;
pub mod config;
pub mod consistency;
pub mod elastic;
pub mod fence;
pub mod fsdp;
pub mod fsm;
pub mod pipeline_ft;
pub mod plan;
pub mod process;
pub mod replication;
pub mod scenario;
pub mod supervisor;
mod transfer;

pub use api::{JobCrash, Parallelism, PlanError, SwiftJob, SwiftJobBuilder};
pub use bucket::{BucketedAllreduce, GradBucketer, DEFAULT_BUCKET_CAP_BYTES};
pub use config::{select_strategy, JobShape, Strategy};
pub use consistency::{repair_partial_update, UpdateTracker};
pub use elastic::{
    elastic_join, elastic_leave, elastic_transition_incumbent, elastic_transition_scale_in,
    Membership,
};
pub use fence::recovery_fence;
pub use fsdp::{
    free_unstored, fsdp_join_supervised, fsdp_recover_supervised, fsdp_train_step,
    gather_full_params, FsdpWorker, ShardMap,
};
pub use fsm::{recovery_fsm, EdgeKind, FsmState, Transition, TransitionTable};
pub use pipeline_ft::{
    pipeline_maybe_checkpoint, pipeline_on_failure_survivor, pipeline_replay,
    pipeline_train_iteration, DataSource, PipelineJob, PipelineWorker, RecoveryRole,
};
pub use plan::{ParallelismPlan, PlacementPolicy};
pub use process::{
    run_process_scenario, worker_main, ProcessError, ProcessOutcome, ProcessScenario, RunLayout,
};
pub use replication::{
    dp_train_step, replication_join, replication_join_supervised, replication_recover_supervised,
    replication_recover_survivor, CrashPoint, DpWorker,
};
pub use scenario::{evaluate_state, DatasetSource, ModelFn, ScenarioResult};
pub use supervisor::{supervise, wait_cascade_aware, PhaseTracker, RecoveryReport};
