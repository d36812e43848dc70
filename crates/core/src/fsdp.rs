//! Sharded data parallelism with replicated shards (paper §8, "Large-scale
//! DNN training"): the FSDP extension SWIFT proposes — *"we can maintain
//! two copies of each piece of the sharded model state for failure
//! resilience"*.
//!
//! Each parameter group has an **owner** rank and a **backup** rank (the
//! next rank, ring-wise). Between iterations a rank stores only the groups
//! it owns or backs up (plus their optimizer slots); forward/backward
//! gathers the full parameters transiently, exactly like FSDP. The step is
//! the data-parallel step ([`crate::replication`]) with the update applied
//! only to the stored groups: the owner and the backup apply the same
//! reduced gradient to bit-identical copies, so the copies stay
//! bit-identical without any synchronization.
//!
//! Recovery is replication recovery at shard granularity: survivors undo
//! any partially applied update with the data-parallel undo, fence, and
//! one `transfer_state` lands every lost shard in place on the
//! replacement — its owned groups sent by their backups, its backed-up
//! groups by their owners. Undo leaves a floating-point residue, so a
//! group both of whose holders survived stays bit-identical across them
//! only if both applied it or neither did — which holds whenever every
//! other replica finished its backward before the death was declared.
//! The next gather re-aligns the parameters either way.

use std::ops::Range;

use swift_dnn::Sequential;
use swift_net::{default_chunk_bytes, failure_state, CommError, Rank, RetryPolicy, WorkerCtx};
use swift_obs::Phase;
use swift_optim::Optimizer;
use swift_tensor::Tensor;

use crate::fence::recovery_fence;
use crate::replication::{repair_dp_consistency, train_step, CrashPoint, DpWorker};
use crate::supervisor::{supervise, RecoveryReport};
use crate::transfer::{transfer_state, Landing, SourceRange};

/// Shard assignment: contiguous blocks of parameter groups per rank.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// `owner[g]` = rank owning group `g`.
    owner: Vec<Rank>,
    world: usize,
}

impl ShardMap {
    /// Splits `num_groups` parameter groups into `world` contiguous
    /// shards (group counts differ by at most one).
    pub fn new(num_groups: usize, world: usize) -> Self {
        assert!(world >= 2, "sharded replication needs at least two ranks");
        let owner = (0..num_groups)
            .map(|g| g * world / num_groups.max(1))
            .collect();
        ShardMap { owner, world }
    }

    /// The rank owning group `g`.
    pub fn owner(&self, g: usize) -> Rank {
        self.owner[g]
    }

    /// The rank holding the backup copy of group `g` (ring successor of
    /// the owner).
    pub fn backup(&self, g: usize) -> Rank {
        (self.owner[g] + 1) % self.world
    }

    /// Whether `rank` stores group `g` between iterations.
    pub fn stores(&self, rank: Rank, g: usize) -> bool {
        self.owner(g) == rank || self.backup(g) == rank
    }

    /// Groups owned by `rank`.
    pub fn owned_groups(&self, rank: Rank) -> Vec<usize> {
        (0..self.owner.len())
            .filter(|&g| self.owner(g) == rank)
            .collect()
    }

    /// Groups this rank stores (owned + backed up).
    pub fn stored_groups(&self, rank: Rank) -> Vec<usize> {
        (0..self.owner.len())
            .filter(|&g| self.stores(rank, g))
            .collect()
    }

    /// [`stored_groups`](Self::stored_groups) as contiguous ranges.
    pub fn stored_ranges(&self, rank: Rank) -> Vec<Range<usize>> {
        let mut out: Vec<Range<usize>> = Vec::new();
        for g in self.stored_groups(rank) {
            match out.last_mut() {
                Some(r) if r.end == g => r.end = g + 1,
                _ => out.push(g..g + 1),
            }
        }
        out
    }

    /// What `failed`'s replacement receives: each group it stores, sent
    /// by the group's surviving holder (the backup of a group it owns,
    /// the owner of a group it backs up), as contiguous ranges.
    fn recovery_plan(&self, failed: Rank) -> Vec<SourceRange> {
        let mut plan: Vec<SourceRange> = Vec::new();
        for g in self.stored_groups(failed) {
            let holder = if self.owner(g) == failed {
                self.backup(g)
            } else {
                self.owner(g)
            };
            match plan.last_mut() {
                Some(r) if r.groups.end == g && r.sources == [holder] => r.groups.end = g + 1,
                _ => plan.push(SourceRange {
                    groups: g..g + 1,
                    sources: vec![holder],
                }),
            }
        }
        plan
    }
}

/// A sharded-replication worker: a data-parallel replica whose model
/// holds live values between iterations only in the groups this rank
/// stores (the others are NaN garbage the next gather overwrites), and
/// whose optimizer has slots only for them.
pub struct FsdpWorker {
    /// Model, optimizer, update tracker, iteration and cached gradients.
    pub dp: DpWorker,
    /// Shard assignment.
    pub shards: ShardMap,
}

impl FsdpWorker {
    /// Wraps a freshly built model: every rank starts with identical full
    /// parameters (deterministic factory), which trivially satisfies the
    /// shard-consistency invariant.
    pub fn new(model: Sequential, opt: Box<dyn Optimizer>, world: usize) -> Self {
        let shards = ShardMap::new(model.num_param_groups(), world);
        FsdpWorker {
            dp: DpWorker::new(model, opt),
            shards,
        }
    }

    /// Bytes of parameter state this rank durably stores (owned + backup
    /// groups only) — the FSDP memory saving.
    pub fn stored_bytes(&self, rank: Rank) -> usize {
        self.dp
            .model
            .params()
            .enumerate()
            .filter(|&(g, _)| self.shards.stores(rank, g))
            .map(|(_, p)| p.byte_size())
            .sum()
    }
}

/// All-gather the full parameter set: each group's owner broadcasts its
/// authoritative copy (FSDP's pre-forward gather). Every other rank's
/// copy is overwritten — which also *repairs* any garbage left by the
/// post-update free.
pub fn gather_full_params(
    ctx: &mut WorkerCtx,
    w: &mut FsdpWorker,
    ranks: &[Rank],
) -> Result<(), CommError> {
    for (g, p) in w.dp.model.params_mut().enumerate() {
        // Chunked streaming broadcast: receivers install the owner's
        // copy while later chunks are still in flight.
        let owner = w.shards.owner(g);
        ctx.comm
            .broadcast_tensor_chunked_into(ranks, owner, p, default_chunk_bytes())?;
    }
    Ok(())
}

/// Frees parameter groups this rank does not store (post-update), leaving
/// NaN garbage the next gather overwrites, so accidental use is loud.
/// Returns how many groups were freed.
pub fn free_unstored(w: &mut FsdpWorker, rank: Rank) -> usize {
    let mut freed = 0;
    for (g, p) in w.dp.model.params_mut().enumerate() {
        if !w.shards.stores(rank, g) {
            p.data_mut().fill(f32::NAN);
            freed += 1;
        }
    }
    freed
}

/// One sharded-replication training step: gather, then the data-parallel
/// step on this rank's data shard applying only the groups this rank
/// stores, then free the unstored groups. `crash` kills this rank
/// mid-backward exactly as in [`crate::dp_train_step`].
pub fn fsdp_train_step(
    ctx: &mut WorkerCtx,
    w: &mut FsdpWorker,
    ranks: &[Rank],
    x: &Tensor,
    y: &[usize],
    example_weight: f32,
    crash: Option<CrashPoint>,
) -> Result<f32, CommError> {
    gather_full_params(ctx, w, ranks)?;
    let me = ctx.rank();
    let stored = w.shards.stored_ranges(me);
    let loss = train_step(ctx, &mut w.dp, ranks, x, y, example_weight, crash, &stored)?;
    free_unstored(w, me);
    Ok(loss)
}

/// Survivor-side recovery under the [`supervise`] state machine: undo,
/// fence, then send this rank's share of the failed rank's shards. The
/// failed rank is re-derived per attempt from the *declared* dead set
/// (never from injector ground truth), and every phase is idempotent so
/// a cascading failure restarts cleanly from the top. Sharded recovery
/// handles one failure per epoch — the shard math keeps exactly two
/// copies, so a second concurrent loss within the same group is
/// unrecoverable by design.
pub fn fsdp_recover_supervised(
    ctx: &mut WorkerCtx,
    w: &mut FsdpWorker,
    group: &[Rank],
    policy: &RetryPolicy,
) -> Result<RecoveryReport, CommError> {
    let (_, report) = supervise(ctx, policy, |ctx, epoch, phases| {
        phases.enter(Phase::Undo);
        repair_dp_consistency(&mut w.dp);
        let (_, dead) = failure_state(&ctx.kv);
        let Some(&failed) = group.iter().find(|r| dead.contains(r)) else {
            return Err(CommError::Protocol {
                detail: format!("sharded recovery: no declared failure in {group:?}"),
            });
        };
        phases.enter(Phase::Fence);
        recovery_fence(ctx, epoch.fence_channel(7), group)?;
        phases.enter(Phase::Broadcast);
        restore_shards(ctx, w, failed)?;
        phases.enter(Phase::Resume);
        Ok(())
    })?;
    Ok(report)
}

/// Replacement-side recovery under the [`supervise`] state machine. The
/// worker is rebuilt from the factories on every attempt, and its shards
/// land in place, so an aborted attempt leaves no partial state behind.
pub fn fsdp_join_supervised(
    ctx: &mut WorkerCtx,
    model_fn: &dyn Fn() -> Sequential,
    opt_fn: &dyn Fn() -> Box<dyn Optimizer>,
    world: usize,
    group: &[Rank],
    policy: &RetryPolicy,
) -> Result<(FsdpWorker, RecoveryReport), CommError> {
    supervise(ctx, policy, |ctx, epoch, phases| {
        phases.enter(Phase::Undo);
        let mut w = FsdpWorker::new(model_fn(), opt_fn(), world);
        phases.enter(Phase::Fence);
        recovery_fence(ctx, epoch.fence_channel(7), group)?;
        phases.enter(Phase::Broadcast);
        let me = ctx.rank();
        restore_shards(ctx, &mut w, me)?;
        phases.enter(Phase::Resume);
        Ok(w)
    })
}

/// The transfer every rank of the group runs after the fence: `failed`'s
/// stored groups land in place on it, each from its surviving holder.
fn restore_shards(ctx: &mut WorkerCtx, w: &mut FsdpWorker, failed: Rank) -> Result<(), CommError> {
    let plan = w.shards.recovery_plan(failed);
    transfer_state(
        ctx,
        &mut w.dp,
        &plan,
        &[failed],
        default_chunk_bytes(),
        Landing::InPlace,
    )?;
    free_unstored(w, ctx.rank());
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};
    use std::thread::{self, ThreadId};

    use super::*;
    use crate::transfer::tests::{group, same_group, GroupCopy};
    use swift_data::{shard_batch, BlobsDataset, Dataset};
    use swift_dnn::models::mlp;
    use swift_dnn::ModelState;
    use swift_net::{Cluster, Topology};
    use swift_obs::{Counter, Event, Recorder};
    use swift_optim::OptimizerKind;

    const SGDM: OptimizerKind = OptimizerKind::SgdMomentum {
        lr: 0.05,
        weight_decay: 0.0,
        momentum: 0.9,
        dampening: 0.0,
    };

    fn make_worker(world: usize) -> FsdpWorker {
        FsdpWorker::new(mlp("f", &[6, 16, 16, 3], 88), SGDM.build(), world)
    }

    #[test]
    fn shard_map_covers_all_groups_twice() {
        let m = ShardMap::new(6, 3);
        for g in 0..6 {
            assert_ne!(m.owner(g), m.backup(g));
            let holders = (0..3).filter(|&r| m.stores(r, g)).count();
            assert_eq!(holders, 2, "every group has exactly two copies");
        }
        // Ownership is balanced.
        for r in 0..3 {
            assert_eq!(m.owned_groups(r).len(), 2);
        }
    }

    #[test]
    fn recovery_plan_sends_each_lost_group_from_its_surviving_holder() {
        let plan = |groups, world, failed| {
            ShardMap::new(groups, world)
                .recovery_plan(failed)
                .into_iter()
                .map(|r| (r.groups, r.sources))
                .collect::<Vec<_>>()
        };
        // 6 groups on 3 ranks: rank 1 owns {2, 3} (backup 2) and backs
        // up {0, 1} (owner 0).
        assert_eq!(plan(6, 3, 1), [(0..2, vec![0]), (2..4, vec![2])]);
        // Rank 0 backs up rank 2's {4, 5}: the ranges wrap.
        assert_eq!(plan(6, 3, 0), [(0..2, vec![1]), (4..6, vec![2])]);
        // 4 ranks: rank 3 owns {5} (backup 0), backs up {3, 4} (owner 2).
        assert_eq!(plan(6, 4, 3), [(3..5, vec![2]), (5..6, vec![0])]);
        // 2 ranks: the survivor holds everything, as one range.
        assert_eq!(plan(6, 2, 1), [(0..6, vec![0])]);
        assert_eq!(ShardMap::new(6, 3).stored_ranges(0), [0..2, 4..6]);
    }

    #[test]
    fn training_matches_plain_dp() {
        // Sharded replication must produce exactly the same trajectory as
        // plain (unsharded) synchronous DP: the sharding only changes
        // *where* state lives.
        let iters = 5u64;
        let fsdp_states = Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
            let ds = BlobsDataset::new(8, 6, 3, 0.3);
            let mut w = make_worker(3);
            for it in 0..iters {
                let b = ds.batch(it, 12);
                let s = shard_batch(&b, ctx.rank(), 3);
                fsdp_train_step(&mut ctx, &mut w, &[0, 1, 2], &s.x, &s.y, 1.0 / 12.0, None)
                    .unwrap();
            }
            // Gather the final full state for comparison.
            gather_full_params(&mut ctx, &mut w, &[0, 1, 2]).unwrap();
            w.dp.model.state()
        });
        // Plain DP reference with the same deterministic ingredients.
        let dp_states = Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
            let ds = BlobsDataset::new(8, 6, 3, 0.3);
            let mut w = DpWorker::new(mlp("f", &[6, 16, 16, 3], 88), SGDM.build());
            for it in 0..iters {
                let b = ds.batch(it, 12);
                let s = shard_batch(&b, ctx.rank(), 3);
                crate::replication::dp_train_step(
                    &mut ctx,
                    &mut w,
                    &[0, 1, 2],
                    &s.x,
                    &s.y,
                    1.0 / 12.0,
                    None,
                )
                .unwrap();
            }
            w.model.state()
        });
        assert!(
            fsdp_states[0].bit_eq(&dp_states[0]),
            "sharded trajectory must equal plain DP bitwise"
        );
    }

    #[test]
    fn unstored_groups_are_freed_between_iterations() {
        let results = Cluster::run_all(Topology::uniform(3, 1), |mut ctx| {
            let ds = BlobsDataset::new(8, 6, 3, 0.3);
            let mut w = make_worker(3);
            let b = ds.batch(0, 12);
            let s = shard_batch(&b, ctx.rank(), 3);
            fsdp_train_step(&mut ctx, &mut w, &[0, 1, 2], &s.x, &s.y, 1.0 / 12.0, None).unwrap();
            // After the step, exactly the non-stored groups are garbage.
            let me = ctx.rank();
            let mut garbage = 0;
            for (g, p) in w.dp.model.params().enumerate() {
                let is_nan = p.data().iter().all(|v| v.is_nan());
                if w.shards.stores(me, g) {
                    assert!(!is_nan, "stored group {g} must stay live");
                } else {
                    assert!(is_nan, "unstored group {g} must be freed");
                    garbage += 1;
                }
            }
            garbage
        });
        // 6 groups, each rank stores 4 (2 owned + 2 backed up) → 2 freed.
        assert!(results.iter().all(|&g| g == 2));
    }

    #[test]
    fn stored_bytes_smaller_than_full_model() {
        let w = make_worker(3);
        let full = w.dp.model.byte_size();
        let stored = w.stored_bytes(0);
        assert!(
            stored < full,
            "sharding must save memory: {stored} vs {full}"
        );
    }

    /// Sums `UndoneUpdates` per thread: tests in this binary run in
    /// parallel on one process-global recorder, and only the survivors of
    /// the run that asks may count.
    #[derive(Default)]
    struct UndoneByThread(Mutex<Vec<(ThreadId, u64)>>);

    impl Recorder for UndoneByThread {
        fn record(&self, _at_ns: u64, _event: Event) {}
        fn add(&self, counter: Counter, delta: u64) {
            if counter == Counter::UndoneUpdates {
                self.0.lock().unwrap().push((thread::current().id(), delta));
            }
        }
    }

    impl UndoneByThread {
        fn on_this_thread(&self) -> u64 {
            let me = thread::current().id();
            let seen = self.0.lock().unwrap();
            seen.iter().filter(|(t, _)| *t == me).map(|(_, d)| d).sum()
        }
    }

    /// What one rank of a run reports: its stored groups right after
    /// recovery (before any gather), the groups it undid, and its final
    /// full state after a last gather.
    struct Outcome {
        recovered: Vec<(usize, GroupCopy)>,
        undone: u64,
        state: ModelState,
    }

    fn stored_copies(w: &FsdpWorker, rank: Rank) -> Vec<(usize, GroupCopy)> {
        w.shards
            .stored_groups(rank)
            .into_iter()
            .map(|g| (g, group(&w.dp, g)))
            .collect()
    }

    /// Seven sharded steps on `world` ranks with a bucket cap that splits
    /// the 6 groups into buckets {4,5} {3} {2} {1} {0}. With `crash`, the
    /// highest rank dies in iteration 3 right after staging 5 groups:
    /// four buckets fold and apply on every survivor, the last strands
    /// them mid-update. The victim is the highest rank, so the root blocks
    /// on it — and declares the death — only after every other survivor
    /// staged its last group and is waiting for results, so every
    /// survivor applied the same buckets.
    fn sharded_run(
        kind: OptimizerKind,
        world: usize,
        crash: bool,
        undone: Arc<UndoneByThread>,
    ) -> Vec<Outcome> {
        let iters = 7u64;
        let ranks: Vec<Rank> = (0..world).collect();
        let victim = world - 1;
        let build = move || {
            let mut w = FsdpWorker::new(mlp("f", &[6, 16, 16, 3], 88), kind.build(), world);
            w.dp.bucket_cap_bytes = 256;
            w
        };
        let train = move |ctx: &mut WorkerCtx, w: &mut FsdpWorker, crash: Option<CrashPoint>| {
            let ds = BlobsDataset::new(8, 6, 3, 0.3);
            while w.dp.iteration < iters {
                let b = ds.batch(w.dp.iteration, 12);
                let s = shard_batch(&b, ctx.rank(), world);
                let ranks: Vec<Rank> = (0..world).collect();
                fsdp_train_step(ctx, w, &ranks, &s.x, &s.y, 1.0 / 12.0, crash)?;
            }
            Ok::<(), CommError>(())
        };
        let cluster = Cluster::new(Topology::uniform(world, 1));
        let fc = cluster.failure_controller();
        let kv = cluster.kv();
        let mut handles = Vec::new();
        for rank in 0..world {
            let (ranks, undone) = (ranks.clone(), undone.clone());
            handles.push(cluster.spawn(rank, move |mut ctx| {
                let mut w = build();
                let mut recovered = Vec::new();
                let crash = (crash && rank == victim).then_some(CrashPoint {
                    iteration: 3,
                    after_groups: 5,
                });
                loop {
                    match train(&mut ctx, &mut w, crash) {
                        Ok(()) => break,
                        Err(CommError::SelfKilled) => return None,
                        Err(e @ CommError::Protocol { .. }) => panic!("protocol bug: {e}"),
                        Err(CommError::PeerFailed { .. }) => {
                            let gen = swift_net::failure_epoch(&ctx.kv);
                            ctx.kv.set(&format!("fsdp/ack/{gen}/{}", ctx.rank()), "1");
                            let deadline = RetryPolicy::recovery().deadline;
                            assert!(ctx.kv.wait_for("fsdp/replacement", deadline).is_some());
                            fsdp_recover_supervised(
                                &mut ctx,
                                &mut w,
                                &ranks,
                                &RetryPolicy::recovery(),
                            )
                            .unwrap();
                            recovered = stored_copies(&w, ctx.rank());
                        }
                    }
                }
                gather_full_params(&mut ctx, &mut w, &ranks).unwrap();
                Some(Outcome {
                    recovered,
                    undone: undone.on_this_thread(),
                    state: w.dp.model.state(),
                })
            }));
        }
        let mut replacement = None;
        if crash {
            // The driver learns of the failure from the *declared* state
            // in the KV store, not the injector's ground truth.
            let deadline = RetryPolicy::recovery().deadline;
            let declared = kv.wait_until(deadline, || {
                (!swift_net::failure_state(&kv).1.is_empty()).then_some(())
            });
            assert!(declared.is_some(), "failure never declared");
            for r in (0..world).filter(|&r| r != victim) {
                let ack = kv.wait_for(&format!("fsdp/ack/1/{r}"), deadline);
                assert!(ack.is_some(), "survivor {r} never acked");
            }
            fc.replace_machine(victim);
            let mut rctx = cluster.respawn(victim);
            let kv2 = kv.clone();
            replacement = Some(thread::spawn(move || {
                kv2.set("fsdp/replacement", "1");
                let (mut w, report) = fsdp_join_supervised(
                    &mut rctx,
                    &|| mlp("f", &[6, 16, 16, 3], 88),
                    &|| kind.build(),
                    world,
                    &ranks,
                    &RetryPolicy::recovery(),
                )
                .unwrap();
                assert_eq!(report.restarts, 0);
                assert_eq!(w.dp.iteration, 3, "resumes at the undone iteration");
                w.dp.bucket_cap_bytes = 256;
                let recovered = stored_copies(&w, victim);
                train(&mut rctx, &mut w, None).unwrap();
                gather_full_params(&mut rctx, &mut w, &ranks).unwrap();
                Outcome {
                    recovered,
                    undone: 0,
                    state: w.dp.model.state(),
                }
            }));
        }
        let mut out: Vec<Option<Outcome>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        if let Some(h) = replacement {
            out[victim] = Some(h.join().unwrap());
        }
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn shard_failure_recovery_end_to_end() {
        // For each optimizer and world size: survivors undo a partial
        // update, the replacement's shards land from their surviving
        // copies, every group's owner and backup hold bit-equal
        // parameters, slots and trust ratio right after recovery, and
        // training ends within undo error of the failure-free run.
        let undone = Arc::new(UndoneByThread::default());
        swift_obs::install(undone.clone());
        let kinds = [
            SGDM,
            OptimizerKind::Adam {
                lr: 1e-2,
                weight_decay: 0.001,
            },
            OptimizerKind::Lamb {
                lr: 1e-2,
                weight_decay: 0.01,
            },
        ];
        for kind in kinds {
            for world in [3, 4] {
                let at = format!("{kind:?} on {world} ranks");
                let clean = sharded_run(kind, world, false, undone.clone());
                let failed = sharded_run(kind, world, true, undone.clone());
                let most = failed.iter().map(|o| o.undone).max().unwrap();
                assert!(most >= 1, "{at}: no survivor undid a group");
                let shards = ShardMap::new(6, world);
                let copy = |rank: Rank, g: usize| {
                    failed[rank]
                        .recovered
                        .iter()
                        .find(|(h, _)| *h == g)
                        .map(|(_, c)| c)
                        .unwrap_or_else(|| panic!("{at}: rank {rank} reported no group {g}"))
                };
                for g in 0..6 {
                    let (owner, backup) = (shards.owner(g), shards.backup(g));
                    assert!(
                        same_group(copy(owner, g), copy(backup, g)),
                        "{at}: group {g} differs between owner {owner} and backup {backup}"
                    );
                }
                for r in 0..world {
                    let drift = clean[r].state.max_abs_diff(&failed[r].state);
                    assert!(drift < 1e-4, "{at}: rank {r} drift {drift}");
                    assert!(
                        failed[r].state.bit_eq(&failed[0].state),
                        "{at}: rank {r} diverged"
                    );
                }
            }
        }
        swift_obs::uninstall();
    }
}
