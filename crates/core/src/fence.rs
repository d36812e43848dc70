//! The recovery fence: re-aligns communicators after a failure.
//!
//! Three problems arise when survivors and a fresh replacement resume
//! collective communication:
//!
//! 1. **Sequence skew** — collectives match by a per-communicator sequence
//!    number; survivors' sequences have advanced (and may differ from each
//!    other, since the failure interrupted them at different points) while
//!    the replacement starts at zero.
//! 2. **Stale traffic** — pre-failure in-flight messages must not satisfy
//!    post-recovery receives.
//! 3. **Rendezvous** — nobody may resume sending until everyone has
//!    purged.
//!
//! The fence solves all three through the rank-0 key-value store (the
//! paper's §6 coordination channel): each participant publishes its
//! sequence under the failure generation, waits for all, jumps every
//! sequence to a common value past the maximum, purges, and barriers.
//!
//! A fourth problem is *cascading* failure (Appendix B): a participant
//! can die while the others are already waiting for it inside the fence.
//! Every fence wait therefore watches the declared dead set and aborts
//! with [`CommError::PeerFailed`] the moment a participant that was alive
//! at fence entry is declared dead — the supervisor then restarts
//! recovery under the new epoch instead of deadlocking until a timeout.

use swift_net::{
    declare_recovered, failure_epoch, failure_state, CommError, Rank, RetryPolicy, WorkerCtx,
};
use swift_obs::Generation;

use crate::supervisor::wait_cascade_aware as fence_wait;

/// Runs the recovery fence. Every participant (survivors + replacements)
/// must call this with the same `generation` namespace (derived from the
/// declared failure epoch via [`swift_obs::Epoch::generation`] or
/// [`swift_obs::Epoch::fence_channel`]) and the same participant set.
/// Waits wake on every KV write, are bounded by the
/// [`RetryPolicy::recovery`] deadline, and abort early if a participant
/// dies mid-fence.
///
/// On success the caller is removed from the declared dead set: a
/// replacement that completes the fence has rejoined, and leaving it
/// listed would make the *next* failure declaration fence it out again.
pub fn recovery_fence(
    ctx: &mut WorkerCtx,
    generation: Generation,
    participants: &[Rank],
) -> Result<(), CommError> {
    let policy = RetryPolicy::recovery();
    let me = ctx.rank();
    ctx.comm.trace_mark("fence-enter");
    let (_, entry_dead) = failure_state(&ctx.kv);
    ctx.kv.set(
        &format!("fence/{generation}/seq/{me}"),
        ctx.comm.coll_seq().to_string(),
    );
    let mut max_seq = 0u64;
    for &r in participants {
        let v = fence_wait(
            ctx,
            &format!("fence/{generation}/seq/{r}"),
            participants,
            &entry_dead,
            &policy,
        )?;
        let seq: u64 = v.parse().map_err(|_| CommError::Protocol {
            detail: format!("fence/{generation}/seq/{r}: unparsable sequence {v:?}"),
        })?;
        max_seq = max_seq.max(seq);
    }
    // Jump well past any sequence in use, synchronize to the declared
    // failure epoch (older-generation stragglers are fenced on receipt
    // from here on), then purge stale traffic.
    ctx.comm.set_coll_seq(max_seq + 16);
    ctx.comm.set_generation(failure_epoch(&ctx.kv));
    ctx.comm.purge();
    // Second phase: nobody may send (even the barrier's own messages!)
    // until *everyone* has purged — otherwise a fast participant's barrier
    // arrival could itself be purged by a slow one.
    ctx.kv.set(&format!("fence/{generation}/purged/{me}"), "1");
    for &r in participants {
        fence_wait(
            ctx,
            &format!("fence/{generation}/purged/{r}"),
            participants,
            &entry_dead,
            &policy,
        )?;
    }
    ctx.comm.barrier_among(participants)?;
    // The exit mark happens-after the post-purge barrier, i.e. after every
    // participant's purge — the invariant the race checker verifies. The
    // label carries the participant set so the checker knows exactly whose
    // purges this exit must dominate.
    let plist = participants
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join(",");
    ctx.comm.trace_mark(&format!("fence-exit:{plist}"));
    declare_recovered(&ctx.kv, &[me]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_net::{declare_failed, Cluster, Topology};
    use swift_tensor::Tensor;

    #[test]
    fn fence_aligns_skewed_sequences() {
        let results = Cluster::run_all(Topology::uniform(3, 1), |mut ctx| {
            // Skew the sequences: rank r does r solo-collectives.
            for _ in 0..ctx.rank() {
                let me = [ctx.rank()];
                ctx.comm.barrier_among(&me).unwrap();
            }
            recovery_fence(&mut ctx, Generation::new(1), &[0, 1, 2]).unwrap();
            // Post-fence, a world collective must succeed.
            let t = Tensor::full([2], 1.0);
            ctx.comm
                .allreduce_sum_chunked_among(&[0, 1, 2], &t, usize::MAX)
                .unwrap()
                .sum()
        });
        assert_eq!(results, vec![6.0, 6.0, 6.0]);
    }

    #[test]
    fn fence_purges_stale_messages() {
        let results = Cluster::run_all(Topology::uniform(2, 1), |mut ctx| {
            if ctx.rank() == 0 {
                // Stale pre-failure message with a user tag.
                ctx.comm.send_tensor(1, 99, &Tensor::scalar(-1.0)).unwrap();
            }
            recovery_fence(&mut ctx, Generation::new(7), &[0, 1]).unwrap();
            if ctx.rank() == 0 {
                ctx.comm.send_tensor(1, 99, &Tensor::scalar(42.0)).unwrap();
                0.0
            } else {
                // Must see the fresh value, not the stale one.
                ctx.comm.recv_tensor(0, 99).unwrap().item()
            }
        });
        assert_eq!(results[1], 42.0);
    }

    #[test]
    fn fence_is_reentrant_across_generations() {
        let results = Cluster::run_all(Topology::uniform(2, 1), |mut ctx| {
            recovery_fence(&mut ctx, Generation::new(1), &[0, 1]).unwrap();
            recovery_fence(&mut ctx, Generation::new(2), &[0, 1]).unwrap();
            ctx.comm
                .allreduce_sum_chunked_among(&[0, 1], &Tensor::scalar(1.0), usize::MAX)
                .unwrap()
                .item()
        });
        assert_eq!(results, vec![2.0, 2.0]);
    }

    #[test]
    fn fence_aborts_when_participant_dies_mid_fence() {
        // Rank 1 never enters the fence; instead it is declared dead after
        // rank 0 is already waiting. Rank 0's wait must abort with
        // PeerFailed rather than time out.
        let results = Cluster::run_all(Topology::uniform(2, 1), |mut ctx| {
            if ctx.rank() == 0 {
                let r = recovery_fence(&mut ctx, Generation::new(3), &[0, 1]);
                matches!(r, Err(CommError::PeerFailed { rank: 1 }))
            } else {
                // Wait until rank 0 has published its fence key, then get
                // declared dead (simulating a mid-fence crash being
                // detected elsewhere).
                RetryPolicy::poll().wait_until(|| ctx.kv.get("fence/3/seq/0").is_some());
                declare_failed(&ctx.kv, &[1]);
                true
            }
        });
        assert!(results[0], "rank 0 must observe the mid-fence death");
        assert!(results[1]);
    }
}
