//! Elastic training (paper §8, "Elastic training"): workers join and
//! leave a data-parallel job *without* checkpoint-restart.
//!
//! Most elastic systems fall back to checkpoint/restart to avoid the
//! crash-consistency problem; SWIFT instead (a) keeps updates undoable, so
//! membership changes at any boundary are safe, and (b) admits a joiner by
//! transferring a surviving replica's state — the same primitive as
//! replication-based recovery, minus the failure.
//!
//! Protocol (all coordinated through the KV store):
//! - **scale-out**: incumbents and joiners fence on the new epoch; the
//!   lowest incumbent transfers `(iteration, model, optimizer)` with
//!   [`crate::transfer`] — joiners receive in place, the other incumbents
//!   stage and install it whole; everyone re-shards the batch over the
//!   new world.
//! - **scale-in** (graceful): the leaver departs at an iteration boundary;
//!   remaining members fence on the new epoch and re-shard. No state
//!   moves — every member already has a replica.
//! - **preemption** (abrupt): identical to a failure; the replication
//!   recovery path handles it.

use swift_net::{default_chunk_bytes, CommError, Rank, WorkerCtx};
use swift_obs::Generation;

use crate::fence::recovery_fence;
use crate::replication::DpWorker;
use crate::transfer::{transfer_replica, Landing};

/// A membership epoch: which ranks participate from this epoch on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Monotonic epoch number (bump on every change).
    pub epoch: u64,
    /// Participating ranks, ascending.
    pub members: Vec<Rank>,
}

impl Membership {
    /// Creates a membership; ranks are sorted and must be non-empty.
    pub fn new(epoch: u64, mut members: Vec<Rank>) -> Self {
        assert!(!members.is_empty());
        members.sort_unstable();
        members.dedup();
        Membership { epoch, members }
    }

    /// This rank's shard index within the membership.
    pub fn shard_of(&self, rank: Rank) -> usize {
        self.members
            .iter()
            .position(|&r| r == rank)
            .expect("rank not a member")
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.members.len()
    }

    /// Publishes this membership in the KV store (driver/scheduler side).
    pub fn publish(&self, kv: &swift_net::KvStore) {
        let list = self
            .members
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(",");
        kv.set(&format!("elastic/members/{}", self.epoch), list);
        kv.set("elastic/epoch", self.epoch.to_string());
    }

    /// Reads the currently published membership, if any.
    pub fn current(kv: &swift_net::KvStore) -> Option<Membership> {
        let epoch: u64 = kv.get("elastic/epoch")?.parse().ok()?;
        let raw = kv.get(&format!("elastic/members/{epoch}"))?;
        let members = raw.split(',').filter_map(|s| s.parse().ok()).collect();
        Some(Membership::new(epoch, members))
    }
}

/// Fence tag namespace for elastic transitions (distinct from failure
/// recovery fences).
fn elastic_fence_gen(epoch: u64) -> Generation {
    Generation::new(epoch.wrapping_mul(1000) + 3)
}

/// The incumbent whose state a scale-out hands to the joiners: the lowest
/// rank in both memberships.
fn transfer_root(old: &Membership, new: &Membership) -> Rank {
    *old.members
        .iter()
        .filter(|r| new.members.contains(r))
        .min()
        .expect("no incumbent remains")
}

/// Incumbent side of a membership change: fence on the new epoch; if the
/// change added members, the lowest incumbent transfers its state so
/// joiners (and the other incumbents) start bit-identical. Call at an
/// iteration boundary.
pub fn elastic_transition_incumbent(
    ctx: &mut WorkerCtx,
    w: &mut DpWorker,
    old: &Membership,
    new: &Membership,
) -> Result<(), CommError> {
    recovery_fence(ctx, elastic_fence_gen(new.epoch), &new.members)?;
    if new.members.iter().any(|r| !old.members.contains(r)) {
        let root = transfer_root(old, new);
        transfer_replica(
            ctx,
            w,
            &[root],
            &new.members,
            default_chunk_bytes(),
            Landing::Staged,
        )?;
    }
    Ok(())
}

/// Joiner side: fence on the new epoch and receive the lowest
/// incumbent's state straight into a fresh worker.
pub fn elastic_join(
    ctx: &mut WorkerCtx,
    model_template: swift_dnn::Sequential,
    opt_template: Box<dyn swift_optim::Optimizer>,
    old: &Membership,
    new: &Membership,
) -> Result<DpWorker, CommError> {
    let mut w = DpWorker::new(model_template, opt_template);
    recovery_fence(ctx, elastic_fence_gen(new.epoch), &new.members)?;
    let root = transfer_root(old, new);
    transfer_replica(
        ctx,
        &mut w,
        &[root],
        &new.members,
        default_chunk_bytes(),
        Landing::InPlace,
    )?;
    Ok(w)
}

/// Graceful leaver side: fence with the *new* membership plus itself so
/// everyone agrees on the boundary, then depart. (The leaver joins the
/// fence so incumbents don't wait on a ghost.)
pub fn elastic_leave(
    ctx: &mut WorkerCtx,
    old: &Membership,
    new: &Membership,
) -> Result<(), CommError> {
    // Leaver participates in the epoch fence alongside the remaining
    // members — the fence set is old ∪ new = old (leaver ⊂ old).
    let _ = new;
    recovery_fence(ctx, elastic_fence_gen(new.epoch), &old.members)
}

/// Remaining-member side of a graceful scale-in: fence with the old set
/// (including the leaver), then continue with the new membership.
pub fn elastic_transition_scale_in(
    ctx: &mut WorkerCtx,
    old: &Membership,
    new: &Membership,
) -> Result<(), CommError> {
    recovery_fence(ctx, elastic_fence_gen(new.epoch), &old.members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::dp_train_step;
    use swift_data::{shard_batch, BlobsDataset, Dataset};
    use swift_dnn::models::mlp;
    use swift_net::{Cluster, Topology};
    use swift_optim::OptimizerKind;

    const SGDM: OptimizerKind = OptimizerKind::SgdMomentum {
        lr: 0.05,
        weight_decay: 0.0,
        momentum: 0.9,
        dampening: 0.0,
    };

    fn worker() -> DpWorker {
        DpWorker::new(mlp("e", &[6, 12, 3], 23), SGDM.build())
    }

    #[test]
    fn membership_publish_round_trip() {
        let kv = swift_net::KvStore::new();
        let m = Membership::new(3, vec![2, 0, 1, 1]);
        assert_eq!(m.members, vec![0, 1, 2]);
        m.publish(&kv);
        assert_eq!(Membership::current(&kv), Some(m));
        assert_eq!(Membership::current(&kv).unwrap().shard_of(1), 1);
    }

    #[test]
    fn scale_out_joiner_becomes_bit_identical() {
        // 2 workers train 4 iterations; a 3rd joins; all train 4 more.
        let cluster = Cluster::new(Topology::uniform(3, 1));
        let old = Membership::new(0, vec![0, 1]);
        let new = Membership::new(1, vec![0, 1, 2]);
        let mut handles = Vec::new();
        for rank in 0..2usize {
            let (old, new) = (old.clone(), new.clone());
            handles.push(cluster.spawn(rank, move |mut ctx| {
                let ds = BlobsDataset::new(6, 6, 3, 0.3);
                let mut w = worker();
                for it in 0..4u64 {
                    let b = ds.batch(it, 12);
                    let s = shard_batch(&b, old.shard_of(ctx.rank()), 2);
                    dp_train_step(&mut ctx, &mut w, &old.members, &s.x, &s.y, 1.0 / 12.0, None)
                        .unwrap();
                }
                elastic_transition_incumbent(&mut ctx, &mut w, &old, &new).unwrap();
                for it in 4..8u64 {
                    let b = ds.batch(it, 12);
                    let s = shard_batch(&b, new.shard_of(ctx.rank()), 3);
                    dp_train_step(&mut ctx, &mut w, &new.members, &s.x, &s.y, 1.0 / 12.0, None)
                        .unwrap();
                }
                w.model.state()
            }));
        }
        let (oldj, newj) = (old.clone(), new.clone());
        let joiner = cluster.spawn(2, move |mut ctx| {
            let ds = BlobsDataset::new(6, 6, 3, 0.3);
            let mut w = elastic_join(
                &mut ctx,
                mlp("e", &[6, 12, 3], 23),
                SGDM.build(),
                &oldj,
                &newj,
            )
            .unwrap();
            assert_eq!(w.iteration, 4, "joiner starts at the incumbents' iteration");
            for it in 4..8u64 {
                let b = ds.batch(it, 12);
                let s = shard_batch(&b, newj.shard_of(ctx.rank()), 3);
                dp_train_step(
                    &mut ctx,
                    &mut w,
                    &newj.members,
                    &s.x,
                    &s.y,
                    1.0 / 12.0,
                    None,
                )
                .unwrap();
            }
            w.model.state()
        });
        let s0 = handles.remove(0).join().unwrap();
        let s1 = handles.remove(0).join().unwrap();
        let s2 = joiner.join().unwrap();
        assert!(
            s0.bit_eq(&s1) && s0.bit_eq(&s2),
            "all three replicas identical after scale-out"
        );
    }

    #[test]
    fn scale_in_continues_without_state_transfer() {
        let cluster = Cluster::new(Topology::uniform(3, 1));
        let old = Membership::new(0, vec![0, 1, 2]);
        let new = Membership::new(1, vec![0, 1]);
        let mut handles = Vec::new();
        for rank in 0..2usize {
            let (old, new) = (old.clone(), new.clone());
            handles.push(cluster.spawn(rank, move |mut ctx| {
                let ds = BlobsDataset::new(6, 6, 3, 0.3);
                let mut w = worker();
                for it in 0..3u64 {
                    let b = ds.batch(it, 12);
                    let s = shard_batch(&b, old.shard_of(ctx.rank()), 3);
                    dp_train_step(&mut ctx, &mut w, &old.members, &s.x, &s.y, 1.0 / 12.0, None)
                        .unwrap();
                }
                elastic_transition_scale_in(&mut ctx, &old, &new).unwrap();
                for it in 3..6u64 {
                    let b = ds.batch(it, 12);
                    let s = shard_batch(&b, new.shard_of(ctx.rank()), 2);
                    dp_train_step(&mut ctx, &mut w, &new.members, &s.x, &s.y, 1.0 / 12.0, None)
                        .unwrap();
                }
                Some(w.model.state())
            }));
        }
        let (oldl, newl) = (old.clone(), new.clone());
        let leaver = cluster.spawn(2, move |mut ctx| {
            let ds = BlobsDataset::new(6, 6, 3, 0.3);
            let mut w = worker();
            for it in 0..3u64 {
                let b = ds.batch(it, 12);
                let s = shard_batch(&b, oldl.shard_of(ctx.rank()), 3);
                dp_train_step(
                    &mut ctx,
                    &mut w,
                    &oldl.members,
                    &s.x,
                    &s.y,
                    1.0 / 12.0,
                    None,
                )
                .unwrap();
            }
            elastic_leave(&mut ctx, &oldl, &newl).unwrap();
            None::<swift_dnn::ModelState>
        });
        assert!(leaver.join().unwrap().is_none());
        let s0 = handles.remove(0).join().unwrap().unwrap();
        let s1 = handles.remove(0).join().unwrap().unwrap();
        assert!(
            s0.bit_eq(&s1),
            "remaining replicas stay identical after scale-in"
        );
    }

    #[test]
    fn scale_out_then_in_round_trip() {
        // 2 → 3 → 2 members; survivors end identical and training works
        // throughout.
        let cluster = Cluster::new(Topology::uniform(3, 1));
        let m0 = Membership::new(0, vec![0, 1]);
        let m1 = Membership::new(1, vec![0, 1, 2]);
        let m2 = Membership::new(2, vec![0, 1]);
        let mut handles = Vec::new();
        for rank in 0..2usize {
            let (m0, m1, m2) = (m0.clone(), m1.clone(), m2.clone());
            handles.push(cluster.spawn(rank, move |mut ctx| {
                let ds = BlobsDataset::new(6, 6, 3, 0.3);
                let mut w = worker();
                let step = |ctx: &mut swift_net::WorkerCtx, w: &mut DpWorker, m: &Membership| {
                    let b = ds.batch(w.iteration, 12);
                    let s = shard_batch(&b, m.shard_of(ctx.rank()), m.world());
                    dp_train_step(ctx, w, &m.members, &s.x, &s.y, 1.0 / 12.0, None).unwrap();
                };
                for _ in 0..2 {
                    step(&mut ctx, &mut w, &m0);
                }
                elastic_transition_incumbent(&mut ctx, &mut w, &m0, &m1).unwrap();
                for _ in 0..2 {
                    step(&mut ctx, &mut w, &m1);
                }
                elastic_transition_scale_in(&mut ctx, &m1, &m2).unwrap();
                for _ in 0..2 {
                    step(&mut ctx, &mut w, &m2);
                }
                w.model.state()
            }));
        }
        let (m0j, m1j, m2j) = (m0.clone(), m1.clone(), m2.clone());
        let transient = cluster.spawn(2, move |mut ctx| {
            let ds = BlobsDataset::new(6, 6, 3, 0.3);
            let mut w = elastic_join(
                &mut ctx,
                mlp("e", &[6, 12, 3], 23),
                SGDM.build(),
                &m0j,
                &m1j,
            )
            .unwrap();
            for _ in 0..2 {
                let b = ds.batch(w.iteration, 12);
                let s = shard_batch(&b, m1j.shard_of(ctx.rank()), 3);
                dp_train_step(&mut ctx, &mut w, &m1j.members, &s.x, &s.y, 1.0 / 12.0, None)
                    .unwrap();
            }
            elastic_leave(&mut ctx, &m1j, &m2j).unwrap();
            w.iteration
        });
        assert_eq!(transient.join().unwrap(), 4);
        let s0 = handles.remove(0).join().unwrap();
        let s1 = handles.remove(0).join().unwrap();
        assert!(s0.bit_eq(&s1));
    }
}
