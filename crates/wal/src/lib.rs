//! # swift-wal
//!
//! SWIFT's logging substrate (paper §5) — to our knowledge the first
//! logging-based failure-recovery design for distributed DNN training:
//!
//! - [`record`]: boundary-tensor log records with `(sender, receiver,
//!   iteration, micro-batch)` timestamps fixing replay order;
//! - [`logger`]: upstream backup with three modes — synchronous
//!   (baseline), asynchronous, and **bubble-time asynchronous** (the
//!   paper's off-critical-path design) — plus flush-on-failure and
//!   post-checkpoint garbage collection;
//! - [`grouping`]: selective logging (§5.3) — the greedy ΔR/ΔM machine-
//!   grouping planner trading recovery time for storage;
//! - [`replay`]: the log-backed [`Transport`](swift_pipeline::Transport)
//!   that re-runs the *normal* pipeline executor over recorded tensors,
//!   and the §5.2 parallel-recovery micro-batch assignment;
//! - [`usecase`]: the §5.4 worthiness test (bubble-time PCIe budget).

pub mod grouping;
pub mod logger;
pub mod record;
pub mod replay;
pub mod usecase;

pub use grouping::{plan_groups, sweep_storage_caps, GroupMap, Plan, PlannerInput};
pub use logger::{LogMode, LogPrecision, LogStats, Logger, LoggingObserver};
pub use record::{LogRecord, LogStamp, MsgKindCode, WalError};
pub use replay::{assign_microbatches, Endpoint, LogAudit, ReplayTransport, WalReader};
pub use usecase::{cnn_pipeline_profile, evaluate as evaluate_usecase, UseCaseReport};
