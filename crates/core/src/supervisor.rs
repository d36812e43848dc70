//! The recovery supervisor: drives undo → fence → (broadcast | replay) →
//! resume as an idempotent, re-entrant state machine.
//!
//! The paper's Appendix B observes that failures cascade: a second
//! machine can die while the survivors are mid-recovery from the first.
//! A recovery written as straight-line code deadlocks there — some
//! participant is gone, so a fence `wait_for` or a state broadcast blocks
//! forever. The supervisor instead treats one *recovery attempt* as a
//! restartable transaction keyed by the failure epoch it started under:
//!
//! - every phase inside an attempt must be **idempotent** (undo is
//!   guarded by the update tracker, fences are namespaced by epoch,
//!   synchronization rebuilds state from scratch), so an attempt may be
//!   abandoned at any point and re-run;
//! - when an attempt fails with [`CommError::PeerFailed`] — a cascading
//!   failure, observed either as a comm error or as a mid-fence death
//!   declaration — the supervisor backs off exponentially
//!   ([`RetryPolicy`]) and restarts from the top under the *new* epoch;
//! - restarts are bounded ([`RetryPolicy::max_restarts`]); a
//!   [`CommError::SelfKilled`] (including false-suspicion self-fencing)
//!   always unwinds immediately — a dead worker must not retry.
//!
//! Convergence argument: each restart re-reads the declared failure
//! epoch, which is monotone, and all participants' fences abort on newly
//! declared deaths, so after the last failure is declared every
//! participant runs its final attempt under the same epoch and the same
//! (kv-derived) survivor set.

use swift_net::{failure_epoch, failure_state, CommError, Rank, RetryPolicy, WorkerCtx};
use swift_obs::{Counter, Epoch, Event, Phase};

/// Enters the recovery phases of one rank's recovery, emitting each as a
/// [`swift_obs::Phase`] span: the one place recovery spans come from.
/// [`supervise`] hands one to every attempt closure; recovery paths that
/// never restart (pipeline logging recovery) build their own.
///
/// Every entry is validated against the declarative transition table
/// ([`crate::fsm::recovery_fsm`]): within an attempt, phases must follow
/// the table's `Advance` edges, and an attempt may only begin at a phase
/// the start phase advances to. A violation is a protocol bug in the
/// recovery code and fails loudly.
#[derive(Debug)]
pub struct PhaseTracker {
    attempt: u32,
    /// The rank running this recovery, stamped onto emitted spans.
    rank: Rank,
    /// The failure epoch of the current attempt, stamped onto spans.
    epoch: Epoch,
    /// Last phase entered in the current attempt (reset per attempt).
    current: Option<Phase>,
    /// The phase whose span is still open, if any.
    open: Option<Phase>,
    table: crate::fsm::TransitionTable,
    log: Vec<(u32, Phase)>,
}

impl PhaseTracker {
    /// A tracker for `rank`'s recovery from the failure declared at
    /// `epoch`.
    pub(crate) fn new(rank: Rank, epoch: Epoch) -> Self {
        PhaseTracker {
            attempt: 0,
            rank,
            epoch,
            current: None,
            open: None,
            table: crate::fsm::recovery_fsm(),
            log: Vec::new(),
        }
    }

    fn begin_attempt(&mut self, attempt: u32, epoch: Epoch) {
        self.attempt = attempt;
        self.epoch = epoch;
        self.current = None;
        self.open = None;
    }

    /// Declares entry into `phase` for the current attempt, rejecting
    /// transitions the static table does not license. Emits the
    /// observability span boundary: the open span (if any) ends where
    /// the next begins.
    pub fn enter(&mut self, phase: Phase) {
        match self.current {
            None => assert!(
                self.table.entry_allowed(phase),
                "recovery FSM: attempt may not begin at phase {phase}"
            ),
            Some(prev) => assert!(
                self.table.advance_allowed(prev, phase),
                "recovery FSM: illegal transition {prev} -> {phase}"
            ),
        }
        self.close();
        let (rank, epoch) = (self.rank, self.epoch);
        swift_obs::emit(|| Event::PhaseBegin { rank, epoch, phase });
        self.current = Some(phase);
        self.open = Some(phase);
        self.log.push((self.attempt, phase));
    }

    /// Ends the open span, if any, so work between phases stays outside
    /// both. The phase stays current: the next [`enter`](Self::enter) is
    /// still checked as an advance from it. The supervisor also closes
    /// when an attempt completes or is abandoned (cascade restart,
    /// terminal error), so the event stream never carries an unbalanced
    /// span.
    pub(crate) fn close(&mut self) {
        if let Some(phase) = self.open.take() {
            let (rank, epoch) = (self.rank, self.epoch);
            swift_obs::emit(|| Event::PhaseEnd { rank, epoch, phase });
        }
    }

    /// The failure epoch this recovery runs under.
    pub(crate) fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The `(attempt, phase)` entries recorded so far.
    pub fn log(&self) -> &[(u32, Phase)] {
        &self.log
    }
}

/// What a completed supervised recovery looked like.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The failure epoch the successful attempt ran under.
    pub epoch: Epoch,
    /// How many restarts were needed (0 = first attempt succeeded).
    pub restarts: u32,
    /// Phase entries per attempt.
    pub phases: Vec<(u32, Phase)>,
}

/// Waits for a KV rendezvous `key` published by one of `participants`,
/// aborting with [`CommError::PeerFailed`] if any participant that was
/// not in `entry_dead` is declared dead mid-wait — the waited-for rank
/// may be the victim, in which case the key will never come. Panics only
/// when the policy deadline expires with *no* new failure declared,
/// which indicates a protocol bug rather than a crash.
///
/// The wait is event-driven: every KV write and every fail-stop
/// transition bumps the store's revision, which wakes it to re-check.
pub fn wait_cascade_aware(
    ctx: &WorkerCtx,
    key: &str,
    participants: &[Rank],
    entry_dead: &[Rank],
    policy: &RetryPolicy,
) -> Result<String, CommError> {
    let outcome = ctx.kv.wait_until(policy.deadline, || {
        // Fail-stop applies to waiters too: a worker whose machine was
        // killed while it sat here must unwind (in a real deployment the
        // process would simply be gone), not keep publishing rendezvous
        // keys as a zombie.
        if let Err(e) = ctx.comm.check_self() {
            return Some(Err(e));
        }
        if let Some(v) = ctx.kv.get(key) {
            return Some(Ok(v));
        }
        let (_, dead) = failure_state(&ctx.kv);
        dead.iter()
            .find(|r| participants.contains(r) && !entry_dead.contains(r))
            .map(|&rank| Err(CommError::PeerFailed { rank }))
    });
    let Some(outcome) = outcome else {
        panic!("recovery wait: {key} never arrived and no failure was declared");
    };
    outcome
}

/// Runs `attempt` until it succeeds, restarting on cascading failures
/// under the policy's backoff schedule and
/// [`RetryPolicy::max_restarts`] budget.
///
/// Each attempt receives the failure epoch read at its start — the
/// namespace for its fences and rendezvous keys — and the shared
/// [`PhaseTracker`]. The closure must re-derive *all* of its
/// per-attempt inputs (survivor sets, roots, checkpoints) from the epoch
/// and the KV state, never from a previous attempt.
pub fn supervise<T>(
    ctx: &mut WorkerCtx,
    policy: &RetryPolicy,
    mut attempt: impl FnMut(&mut WorkerCtx, Epoch, &mut PhaseTracker) -> Result<T, CommError>,
) -> Result<(T, RecoveryReport), CommError> {
    let mut tracker = PhaseTracker::new(ctx.rank(), Epoch::new(0));
    let mut restarts = 0u32;
    loop {
        let epoch = failure_epoch(&ctx.kv);
        tracker.begin_attempt(restarts, epoch);
        match attempt(ctx, epoch, &mut tracker) {
            Ok(v) => {
                tracker.close();
                let report = RecoveryReport {
                    epoch,
                    restarts,
                    phases: std::mem::take(&mut tracker.log),
                };
                return Ok((v, report));
            }
            Err(CommError::PeerFailed { .. }) if restarts < policy.max_restarts => {
                // Cascading failure mid-recovery. Close the abandoned
                // span, back off, then restart from the top: by the time
                // we retry, the new death is declared (the error path
                // that got us here declares before returning), so the
                // next attempt reads a fresh epoch and a fresh survivor
                // set.
                tracker.close();
                swift_obs::add(Counter::Restarts, 1);
                // lint:sleep-ok — restart backoff, not a rendezvous.
                std::thread::sleep(policy.delay_for(restarts));
                restarts += 1;
            }
            Err(e) => {
                tracker.close();
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_net::{declare_failed, Cluster, Rank, Topology};

    #[test]
    fn first_attempt_success_reports_no_restarts() {
        let cluster = Cluster::new(Topology::uniform(1, 1));
        let mut ctx = cluster.take_ctx(0);
        let (v, report) = supervise(&mut ctx, &RetryPolicy::recovery(), |_, epoch, t| {
            t.enter(Phase::Undo);
            t.enter(Phase::Fence);
            Ok(epoch)
        })
        .unwrap();
        assert_eq!(v, Epoch::new(0));
        assert_eq!(report.restarts, 0);
        assert_eq!(report.phases, vec![(0, Phase::Undo), (0, Phase::Fence)]);
    }

    #[test]
    fn standalone_tracker_checks_transitions_across_closed_spans() {
        // Pipeline recovery's shape: spans closed between phases so the
        // work in between stays outside them, each entry still checked.
        let mut t = PhaseTracker::new(2, Epoch::new(1));
        for p in [Phase::Undo, Phase::Fence, Phase::Replay, Phase::Resume] {
            t.enter(p);
            t.close();
        }
        let phases: Vec<Phase> = t.log().iter().map(|&(_, p)| p).collect();
        assert_eq!(
            phases,
            [Phase::Undo, Phase::Fence, Phase::Replay, Phase::Resume]
        );
        let out_of_order = std::panic::catch_unwind(move || t.enter(Phase::Fence));
        assert!(out_of_order.is_err(), "resume -> fence must be rejected");
    }

    #[test]
    fn peer_failure_restarts_under_new_epoch() {
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let mut ctx = cluster.take_ctx(0);
        let mut seen_epochs: Vec<Epoch> = Vec::new();
        let (_, report) = supervise(&mut ctx, &RetryPolicy::recovery(), |ctx, epoch, t| {
            t.enter(Phase::Undo);
            seen_epochs.push(epoch);
            if seen_epochs.len() == 1 {
                // A cascading failure strikes mid-attempt: rank 1 is
                // declared dead, and this attempt aborts the way a fence
                // or comm op would.
                declare_failed(&ctx.kv, &[1]);
                return Err(CommError::PeerFailed { rank: 1 });
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(report.restarts, 1);
        assert_eq!(
            seen_epochs,
            vec![Epoch::new(0), Epoch::new(1)],
            "restart must observe the bumped epoch"
        );
        assert_eq!(report.epoch, Epoch::new(1));
        // Both attempts logged their phase entries.
        assert_eq!(report.phases, vec![(0, Phase::Undo), (1, Phase::Undo)]);
    }

    #[test]
    fn self_kill_propagates_immediately() {
        let cluster = Cluster::new(Topology::uniform(1, 1));
        let mut ctx = cluster.take_ctx(0);
        let mut calls = 0u32;
        let r: Result<((), RecoveryReport), _> =
            supervise(&mut ctx, &RetryPolicy::recovery(), |_, _, _| {
                calls += 1;
                Err(CommError::SelfKilled)
            });
        assert_eq!(r.unwrap_err(), CommError::SelfKilled);
        assert_eq!(calls, 1, "a dead worker must not retry");
    }

    #[test]
    fn rank_killed_mid_wait_unwinds_at_once() {
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let fc = cluster.failure_controller();
        let waiter = cluster.spawn(0, |ctx| {
            let policy = RetryPolicy::recovery();
            let t0 = std::time::Instant::now();
            let r = wait_cascade_aware(&ctx, "never", &[0, 1], &[], &policy);
            (r, t0.elapsed())
        });
        let _ctx1 = cluster.take_ctx(1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        fc.kill_machine(0);
        let (r, waited) = waiter.join().unwrap();
        assert_eq!(r, Err(CommError::SelfKilled));
        assert!(
            waited < std::time::Duration::from_secs(5),
            "the kill must wake the wait long before its 30 s deadline, took {waited:?}"
        );
    }

    #[test]
    fn restarts_are_bounded() {
        let cluster = Cluster::new(Topology::uniform(2, 1));
        let mut ctx = cluster.take_ctx(0);
        let policy = RetryPolicy::recovery()
            .with_deadline(std::time::Duration::from_millis(50))
            .with_max_restarts(2);
        let mut calls = 0u32;
        let r: Result<((), RecoveryReport), _> = supervise(&mut ctx, &policy, |_, _, _| {
            calls += 1;
            Err(CommError::PeerFailed { rank: 1 as Rank })
        });
        assert!(matches!(r.unwrap_err(), CommError::PeerFailed { rank: 1 }));
        assert_eq!(calls, 3, "1 attempt + max_restarts retries");
    }
}
