//! # swift-net
//!
//! An in-process "cluster" runtime standing in for the paper's
//! multi-machine GPU cluster with PyTorch/NCCL:
//!
//! - one OS thread per worker rank, crossbeam channels as the network;
//! - [`Comm`]: point-to-point sends/receives plus deterministic
//!   collectives (tree and ring all-reduce, broadcast, barriers,
//!   `all_gather_u64` for pre-failure-iteration consensus), with
//!   sequence-numbered, generation-stamped streams that survive injected
//!   reordering, drops, duplicates and cross-recovery stragglers;
//! - [`FaultPlan`]/[`FaultInjector`]: a deterministic, seeded adversary
//!   woven into the fabric — per-link delay/jitter, reordering, transient
//!   drops with retransmission, duplicate delivery, rank stalls, and
//!   crash triggers that fire on the Nth message or Kth iteration;
//! - [`FailureController`]: the fail-stop *mechanism* (kill a machine).
//!   Detection is strictly observable: severed fabric links surface as
//!   `PeerFailed` at blocked callers, victims observe `SelfKilled` and
//!   unwind, losing their volatile state exactly as a crashed machine
//!   would;
//! - [`Heartbeat`]/[`HeartbeatMonitor`]: lease-based suspicion layered on
//!   the KV store (§6) — workers act on suspicion, and a falsely
//!   suspected rank fences itself out;
//! - [`KvStore`]: the rank-0 key-value store holding the failure state;
//! - [`RetryPolicy`]: the single bounded-backoff schedule every recovery
//!   wait goes through;
//! - [`Topology`]: the rank↔machine map that decides which traffic is
//!   *inter-machine* and therefore logged (§5.1).
//!
//! The substitution argument (see DESIGN.md): SWIFT's protocols are
//! interleaving- and failure-semantics properties, which threads +
//! channels reproduce; wall-clock performance is modeled separately in
//! `swift-sim`.

pub mod clock;
pub mod cluster;
pub mod comm;
pub mod detector;
pub mod failure;
pub mod faults;
pub mod kv;
pub mod kv_remote;
pub mod retry;
pub mod socket;
pub mod topology;
pub mod trace;
pub mod transport;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use cluster::{Cluster, ClusterBuilder, ClusterError, WorkerCtx};
pub use comm::{
    build_comms, bytemuck_f32, check_frame_len, default_chunk_bytes, default_shard_bytes,
    f32_from_bytes, respawn_comm, Comm, CommError, Fabric, COLLECTIVE_BIT,
};
pub use detector::{
    declare_failed, declare_recovered, failure_epoch, failure_state, Heartbeat, HeartbeatConfig,
    HeartbeatMonitor, LeaseTable, HEARTBEAT_MS_ENV, LEASE_MS_ENV,
};
pub use failure::FailureController;
pub use faults::{CrashTrigger, FaultInjector, FaultPlan, FaultStatsSnapshot, SendFate, StallSpec};
pub use kv::KvStore;
pub use kv_remote::KvServer;
pub use retry::RetryPolicy;
pub use socket::SocketTransport;
pub use topology::{MachineId, Rank, Topology};
pub use trace::{vc_join, vc_le, EventKind, Trace, TraceEvent, Tracer, VectorClock};
pub use transport::{ChannelTransport, Frame, RecvEvent, TransmitOutcome, Transport};
