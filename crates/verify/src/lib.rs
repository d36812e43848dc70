//! `swift-verify`: static and trace-replay analyzers for SWIFT's recovery
//! protocol.
//!
//! Three analyzers, each checking an invariant the paper's correctness
//! argument leans on:
//!
//! - [`race`] — replays [`swift_net::Trace`] event logs (vector-clocked
//!   sends, deliveries, epoch bumps, purges, fence marks) and flags
//!   generation-fencing violations (§5): a stale-epoch message accepted,
//!   a receive concurrent with an epoch bump on the same rank, or a fence
//!   exit that does not happen-after every participant's purge.
//! - [`fsm`] — analyzes the declarative recovery transition table
//!   ([`swift_core::recovery_fsm`]): reachability, terminal states with no
//!   exits, a failure edge from every non-terminal phase back to the
//!   restart state, and no cycles outside backoff-bounded restart edges.
//! - [`invert`] — round-trips the optimizers that train: for every
//!   configuration [`swift_optim::OptimizerKind::check_undoable`] accepts,
//!   the built optimizer's `undo_one` must restore the parameters and
//!   every slot after a `step_one` (`undo ∘ step = id`). AMSGrad and
//!   SGD/AdamW with `η·λ ≥ 1` must be *rejected*, and AMSGrad's own
//!   `undo_one` must refuse.
//!
//! The `swift-verify` binary (driven by `cargo xtask verify` and CI) runs
//! all three against live traced executions, the real transition table
//! and the real optimizers, exiting nonzero on any violation.

pub mod fsm;
pub mod invert;
pub mod race;

/// One analyzer finding. An analyzer returning no violations certifies
/// the artifact it examined, not the whole system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which analyzer found it (`"race"`, `"fsm"`, `"invert"`).
    pub analyzer: &'static str,
    /// What invariant broke, with concrete evidence.
    pub detail: String,
}

impl Violation {
    pub(crate) fn new(analyzer: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            analyzer,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.analyzer, self.detail)
    }
}
