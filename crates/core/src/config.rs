//! Fault-tolerance strategy selection (paper §3).
//!
//! SWIFT picks the strategy before training starts:
//!
//! 1. replicas available (data parallelism across machines) →
//!    **replication-based recovery** (lowest overhead on both paths);
//! 2. else pipeline parallelism and logging worth doing (§5.4) →
//!    **logging-based recovery**;
//! 3. else → **global checkpointing only**.
//!
//! Global checkpointing runs periodically in every case as the
//! catastrophic-failure backstop.

/// The recovery strategy SWIFT runs with.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Exploit model-state replicas in data parallelism; repair crash
    /// consistency with update-undo and broadcast a surviving replica.
    Replication,
    /// Log inter-machine (inter-group) boundary tensors and replay the
    /// failed sub-pipeline.
    Logging,
    /// Checkpoint/restart only.
    GlobalCheckpointOnly,
}

/// Static facts about the job that drive selection.
#[derive(Debug, Clone, Copy)]
pub struct JobShape {
    /// Does at least one full model-state replica live on another
    /// machine? (Data parallelism across machines; *not* the Fig. 2 case
    /// where replicas share a machine.)
    pub cross_machine_replica: bool,
    /// Is pipeline parallelism used across machines?
    pub cross_machine_pipeline: bool,
    /// §5.4 verdict: can logging stay off the critical path and on disk?
    pub logging_worth_it: bool,
}

/// Applies the §3 decision procedure.
pub fn select_strategy(shape: JobShape) -> Strategy {
    if shape.cross_machine_replica {
        Strategy::Replication
    } else if shape.cross_machine_pipeline && shape.logging_worth_it {
        Strategy::Logging
    } else {
        Strategy::GlobalCheckpointOnly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_wins_over_everything() {
        let s = select_strategy(JobShape {
            cross_machine_replica: true,
            cross_machine_pipeline: true,
            logging_worth_it: true,
        });
        assert_eq!(s, Strategy::Replication);
    }

    #[test]
    fn pipeline_plus_worthy_logging_selects_logging() {
        let s = select_strategy(JobShape {
            cross_machine_replica: false,
            cross_machine_pipeline: true,
            logging_worth_it: true,
        });
        assert_eq!(s, Strategy::Logging);
    }

    #[test]
    fn unworthy_logging_falls_back_to_checkpointing() {
        let s = select_strategy(JobShape {
            cross_machine_replica: false,
            cross_machine_pipeline: true,
            logging_worth_it: false,
        });
        assert_eq!(s, Strategy::GlobalCheckpointOnly);
        let s2 = select_strategy(JobShape {
            cross_machine_replica: false,
            cross_machine_pipeline: false,
            logging_worth_it: true,
        });
        assert_eq!(s2, Strategy::GlobalCheckpointOnly);
    }
}
