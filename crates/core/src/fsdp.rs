//! Sharded data parallelism with replicated shards (paper §8, "Large-scale
//! DNN training"): the FSDP extension SWIFT proposes — *"we can maintain
//! two copies of each piece of the sharded model state for failure
//! resilience"*.
//!
//! Each parameter group has an **owner** rank and a **backup** rank (the
//! next rank, ring-wise). Between iterations a rank stores only the groups
//! it owns or backs up (plus their optimizer slots); forward/backward
//! gathers the full parameters transiently, exactly like FSDP. Updates are
//! applied deterministically by both the owner and the backup, so the two
//! copies stay bit-identical without any synchronization.
//!
//! On a machine failure, every lost shard still has one surviving copy:
//! the replacement pulls shard `r` from its backup and shard
//! `r.backup_of` from its owner — replication-based recovery at shard
//! granularity, with update-undo repairing any partially-applied update.

use bytes::Bytes;
use swift_dnn::{softmax_cross_entropy_scaled, Mode, Sequential, StepCtx};
use swift_net::{
    bytemuck_f32, default_chunk_bytes, default_shard_bytes, f32_from_bytes, failure_epoch,
    failure_state, CommError, Rank, RetryPolicy, WorkerCtx,
};
use swift_obs::Phase;
use swift_optim::Optimizer;
use swift_tensor::{Shape, Tensor};

use crate::bucket::{fit_grad_buffers, BucketedAllreduce};
use crate::consistency::UpdateTracker;
use crate::fence::recovery_fence;
use crate::supervisor::{supervise, RecoveryReport};

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

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.owner.len()
    }
}

/// A sharded-replication worker.
pub struct FsdpWorker {
    /// Full model structure; only stored groups hold live values between
    /// iterations (others are freed — zero-length placeholder shapes are
    /// avoided by keeping the tensor but treating it as garbage).
    pub model: Sequential,
    /// Optimizer with slots only for stored groups.
    pub opt: Box<dyn Optimizer>,
    /// Shard assignment.
    pub shards: ShardMap,
    /// Update-progress marks (crash-consistency window).
    pub tracker: UpdateTracker,
    /// Completed iterations.
    pub iteration: u64,
    /// Reduced gradients of the most recent step (`g_t`).
    pub last_grads: Vec<Tensor>,
    /// Gradient-bucket capacity for the overlapped all-reduce.
    pub bucket_cap_bytes: usize,
    /// Cached overlapped all-reduce, rebuilt only when the rank set,
    /// bucket cap, or model geometry changes (see `DpWorker`).
    reducer: Option<BucketedAllreduce>,
}

impl FsdpWorker {
    /// Wraps a freshly built model: every rank starts with identical full
    /// parameters (deterministic factory), which trivially satisfies the
    /// shard-consistency invariant.
    pub fn new(model: Sequential, opt: Box<dyn Optimizer>, world: usize) -> Self {
        let shards = ShardMap::new(model.num_param_groups(), world);
        FsdpWorker {
            model,
            opt,
            shards,
            tracker: UpdateTracker::new(),
            iteration: 0,
            last_grads: Vec::new(),
            bucket_cap_bytes: crate::bucket::DEFAULT_BUCKET_CAP_BYTES,
            reducer: None,
        }
    }

    /// Bytes of parameter state this rank durably stores (owned + backup
    /// groups only) — the FSDP memory saving.
    pub fn stored_bytes(&self, rank: Rank) -> usize {
        let params = self.model.params_snapshot();
        self.shards
            .stored_groups(rank)
            .into_iter()
            .map(|g| params[g].byte_size())
            .sum()
    }
}

/// All-gather the full parameter set: each group's owner broadcasts its
/// authoritative copy (FSDP's pre-forward gather). Non-stored groups on
/// every rank are overwritten — which also *repairs* any garbage left by
/// the post-update free.
pub fn gather_full_params(
    ctx: &mut WorkerCtx,
    w: &mut FsdpWorker,
    ranks: &[Rank],
) -> Result<(), CommError> {
    let n = w.shards.num_groups();
    let mut gathered = Vec::with_capacity(n);
    {
        let params = w.model.params_snapshot();
        #[allow(clippy::needless_range_loop)] // g is the global group index
        for g in 0..n {
            let owner = w.shards.owner(g);
            let mine = (ctx.rank() == owner).then(|| params[g].clone());
            // Chunked streaming broadcast: receivers start installing the
            // owner's copy while later chunks are still in flight.
            let t = ctx.comm.broadcast_tensor_chunked_among(
                ranks,
                owner,
                mine.as_ref(),
                params[g].shape().dims(),
                default_chunk_bytes(),
            )?;
            gathered.push(t);
        }
    }
    // Install gathered parameters.
    let state = w.model.state();
    let entries: Vec<(String, Tensor)> = state
        .entries
        .iter()
        .zip(gathered)
        .map(|((name, _), t)| (name.clone(), t))
        .collect();
    w.model.load_state(&swift_dnn::ModelState { entries });
    Ok(())
}

/// Frees parameter groups this rank does not store (post-update), leaving
/// garbage the next gather overwrites. Returns how many groups were freed.
pub fn free_unstored(w: &mut FsdpWorker, rank: Rank) -> usize {
    let n = w.shards.num_groups();
    let stored: std::collections::HashSet<usize> =
        w.shards.stored_groups(rank).into_iter().collect();
    // Overwrite with NaN garbage so accidental use is loud.
    let mut state = w.model.state();
    let mut freed = 0;
    for g in (0..n).filter(|g| !stored.contains(g)) {
        let t = &mut state.entries[g].1;
        *t = Tensor::full(*t.shape(), f32::NAN);
        freed += 1;
    }
    w.model.load_state(&state);
    freed
}

/// One sharded-replication training step: gather → forward/backward on
/// this rank's data shard → gradient all-reduce → owner+backup update →
/// free unstored groups.
#[allow(clippy::too_many_arguments)]
pub fn fsdp_train_step(
    ctx: &mut WorkerCtx,
    w: &mut FsdpWorker,
    ranks: &[Rank],
    x: &Tensor,
    y: &[usize],
    example_weight: f32,
    crash_after_groups: Option<usize>,
) -> Result<f32, CommError> {
    gather_full_params(ctx, w, ranks)?;
    let step_ctx = StepCtx::new(w.iteration, 0);
    w.model.zero_grads();
    let out = w.model.forward(step_ctx, x, Mode::Train);
    let (loss, grad) = softmax_cross_entropy_scaled(&out, y, example_weight);

    // Bucketed backward overlap: identical reduction schedule to
    // replication's `dp_train_step`, so results stay bitwise equal to the
    // per-group monolithic all-reduce. Updates are applied after the full
    // drain (owner+backup only), so the callback is a no-op.
    let me = ctx.rank();
    let reuse = w.reducer.as_ref().is_some_and(|r| {
        r.built_for(me, ranks, w.bucket_cap_bytes) && w.model.group_numels_match(r.numels())
    });
    if reuse {
        w.reducer.as_mut().expect("cached reducer").reset();
    } else {
        let numels = w.model.group_numels();
        w.reducer = Some(BucketedAllreduce::new(
            me,
            ranks,
            &numels,
            w.bucket_cap_bytes,
        ));
    }
    fit_grad_buffers(&w.model, &mut w.last_grads);
    let reducer = w.reducer.as_mut().expect("reducer just installed");
    let reduced = &mut w.last_grads;
    let comm = &mut ctx.comm;
    let mut stage_err: Option<CommError> = None;
    w.model.backward_with(step_ctx, &grad, &mut |range, grads| {
        if stage_err.is_some() {
            return;
        }
        for (g, t) in range.zip(grads.iter()).rev() {
            if let Err(e) = reducer.stage(comm, g, t, reduced) {
                stage_err = Some(e);
                return;
            }
        }
    });
    if let Some(e) = stage_err {
        return Err(e);
    }
    reducer.finish(&mut ctx.comm, reduced, &mut |_, _| Ok(()))?;

    // Owner and backup both apply the (deterministic) update to their
    // copies; everyone else skips the group.
    let mut applied = 0usize;
    for g in w.shards.stored_groups(me) {
        w.model
            .apply_update_range(&mut *w.opt, &w.last_grads, g, g + 1);
        w.tracker.mark(g);
        applied += 1;
        if crash_after_groups == Some(applied) {
            let fc = ctx.comm.failure_controller().clone();
            fc.kill_machine(ctx.machine());
            return Err(CommError::SelfKilled);
        }
    }
    w.opt.finish_step();
    w.tracker.reset();
    w.iteration += 1;
    free_unstored(w, me);
    Ok(loss)
}

/// Survivor-side shard recovery: undo any partial update, fence, then for
/// every group the failed rank stored, the surviving copy-holder sends it
/// (parameters; optimizer slots are rebuilt by the replacement from the
/// sender's slots) to the replacement.
pub fn fsdp_recover_survivor(
    ctx: &mut WorkerCtx,
    w: &mut FsdpWorker,
    failed: Rank,
    participants: &[Rank],
) -> Result<(), CommError> {
    fsdp_repair_consistency(w);
    let generation = failure_epoch(&ctx.kv);
    recovery_fence(ctx, generation.fence_channel(7), participants)?;
    fsdp_ship_shards(ctx, w, failed)
}

/// Local crash-consistency repair: drop caches and undo any partially
/// applied update. Guarded by the update tracker, so re-entering after a
/// completed undo is a no-op.
fn fsdp_repair_consistency(w: &mut FsdpWorker) {
    w.model.clear_caches();
    let undone = w.tracker.updated().len();
    if undone > 0 {
        // Disjoint field borrows read the cached gradients in place.
        w.model
            .undo_update_with(&mut *w.opt, &w.last_grads, w.tracker.updated())
            .expect("sharded recovery requires an invertible optimizer");
        swift_obs::add(swift_obs::Counter::UndoneUpdates, undone as u64);
        w.tracker.reset();
    }
}

/// Ships surviving copies of the failed rank's stored groups, plus the
/// iteration counter and optimizer state from one designated peer.
///
/// Parameter data goes out as raw little-endian `f32` chunks of
/// [`default_shard_bytes`] (shapes are static job configuration, so no
/// header is needed): the replacement starts decoding a group while its
/// later chunks — and other survivors' groups — are still in flight.
fn fsdp_ship_shards(ctx: &mut WorkerCtx, w: &FsdpWorker, failed: Rank) -> Result<(), CommError> {
    let me = ctx.rank();
    let chunk = default_shard_bytes().max(4);
    let params = w.model.params_snapshot();
    for g in w.shards.stored_groups(failed) {
        let sender = surviving_copy_holder(&w.shards, g, failed);
        if sender == me {
            let data = bytemuck_f32(params[g].data());
            let mut off = 0;
            while off < data.len() {
                let hi = (off + chunk).min(data.len());
                ctx.comm.send_bytes(
                    failed,
                    shard_tag(g),
                    Bytes::copy_from_slice(&data[off..hi]),
                )?;
                off = hi;
            }
        }
    }
    // Every survivor ships its full optimizer snapshot; the replacement
    // merges the slots of exactly the groups each sender authoritatively
    // holds. The ring predecessor also sends the iteration counter.
    let state = w.opt.state();
    ctx.comm
        .send_bytes(failed, shard_tag((1 << 21) + me), state.encode())?;
    let designated = (failed + w.shards.world - 1) % w.shards.world;
    if me == designated {
        ctx.comm.send_bytes(
            failed,
            shard_tag((1 << 20) + 1),
            bytes::Bytes::copy_from_slice(&w.iteration.to_le_bytes()),
        )?;
    }
    Ok(())
}

/// Survivor-side recovery under the [`supervise`] state machine: the
/// failed rank is re-derived per attempt from the *declared* dead set
/// (never from injector ground truth), and every phase is idempotent so a
/// cascading failure restarts cleanly from the top. Sharded recovery
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
        let (_, dead) = failure_state(&ctx.kv);
        let failed = *group
            .iter()
            .find(|r| dead.contains(r))
            .expect("supervised shard recovery: no declared failure in group");
        phases.enter(Phase::Undo);
        fsdp_repair_consistency(w);
        phases.enter(Phase::Fence);
        recovery_fence(ctx, epoch.fence_channel(7), group)?;
        phases.enter(Phase::Broadcast);
        fsdp_ship_shards(ctx, w, failed)?;
        phases.enter(Phase::Resume);
        Ok(())
    })?;
    Ok(report)
}

/// Replacement-side recovery under the [`supervise`] state machine. The
/// worker is rebuilt from the factories on every attempt (the fence and
/// receive phases of an aborted attempt leave no partial state behind).
pub fn fsdp_join_supervised(
    ctx: &mut WorkerCtx,
    model_fn: &dyn Fn() -> Sequential,
    opt_fn: &dyn Fn() -> Box<dyn Optimizer>,
    world: usize,
    group: &[Rank],
    policy: &RetryPolicy,
) -> Result<(FsdpWorker, RecoveryReport), CommError> {
    supervise(ctx, policy, |ctx, _epoch, phases| {
        // `fsdp_join` runs the fence and the shard synchronization
        // back-to-back; the phase entries bracket the whole call.
        phases.enter(Phase::Fence);
        phases.enter(Phase::Broadcast);
        let w = fsdp_join(ctx, model_fn(), opt_fn(), world, group)?;
        phases.enter(Phase::Resume);
        Ok(w)
    })
}

/// Replacement-side shard recovery: fence, receive every stored group
/// from its surviving copy-holder, adopt the optimizer state for the
/// groups this rank stores, resume.
pub fn fsdp_join(
    ctx: &mut WorkerCtx,
    model_template: Sequential,
    opt_template: Box<dyn Optimizer>,
    world: usize,
    participants: &[Rank],
) -> Result<FsdpWorker, CommError> {
    let mut w = FsdpWorker::new(model_template, opt_template, world);
    let me = ctx.rank();
    let generation = failure_epoch(&ctx.kv);
    recovery_fence(ctx, generation.fence_channel(7), participants)?;
    let mut state = w.model.state();
    for g in w.shards.stored_groups(me) {
        // Raw chunked stream from the surviving copy-holder (see
        // [`fsdp_ship_shards`]): the expected geometry comes from the
        // static job configuration, and each chunk decodes on arrival
        // while the rest — and other survivors' groups — are in flight.
        let holder = surviving_copy_holder(&w.shards, g, me);
        let dims = state.entries[g].1.shape().dims().to_vec();
        let numel = state.entries[g].1.numel();
        let mut vals: Vec<f32> = Vec::with_capacity(numel);
        while vals.len() < numel {
            let chunk = ctx.comm.recv_bytes(holder, shard_tag(g))?;
            debug_assert!(!chunk.is_empty(), "empty shard chunk would never terminate");
            vals.extend(f32_from_bytes(&chunk));
        }
        debug_assert_eq!(
            vals.len(),
            numel,
            "shard chunks must tile the group exactly"
        );
        state.entries[g].1 = Tensor::from_vec(Shape::new(&dims), vals);
    }
    w.model.load_state(&state);
    // Collect the survivors' optimizer snapshots and merge: slot `g` (and
    // the per-group scalar vectors, e.g. LAMB's saved trust ratios) come
    // from the surviving copy-holder of `g`.
    let mut survivor_states = std::collections::HashMap::new();
    for &r in participants.iter().filter(|&&r| r != me) {
        let mut raw = ctx.comm.recv_bytes(r, shard_tag((1 << 21) + r))?;
        let st = swift_optim::OptimState::decode(&mut raw)
            .expect("bad optimizer state in shard recovery");
        survivor_states.insert(r, st);
    }
    let designated = (me + world - 1) % world;
    let mut merged = survivor_states[&designated].clone();
    for g in w.shards.stored_groups(me) {
        let holder = surviving_copy_holder(&w.shards, g, me);
        let src = &survivor_states[&holder];
        for (name, slots) in &mut merged.slots {
            let from = src.slots.iter().find(|(n, _)| n == name).map(|(_, v)| v);
            if let Some(from) = from {
                if slots.len() <= g {
                    slots.resize(g + 1, None);
                }
                slots[g] = from.get(g).cloned().flatten();
            }
        }
        for (name, vals) in &mut merged.scalars {
            let from = src.scalars.iter().find(|(n, _)| n == name).map(|(_, v)| v);
            if let (Some(from), true) = (from, name == "saved_ratio") {
                if let Some(v) = from.get(g) {
                    if vals.len() <= g {
                        vals.resize(g + 1, 1.0);
                    }
                    vals[g] = *v;
                }
            }
        }
    }
    w.opt.load_state(&merged);
    let it_raw = ctx.comm.recv_bytes(designated, shard_tag((1 << 20) + 1))?;
    w.iteration = u64::from_le_bytes(it_raw[..8].try_into().unwrap());
    free_unstored(&mut w, me);
    Ok(w)
}

/// The surviving holder of group `g` when `failed` is down: the owner if
/// it survives, else the backup.
fn surviving_copy_holder(shards: &ShardMap, g: usize, failed: Rank) -> Rank {
    if shards.owner(g) != failed {
        shards.owner(g)
    } else {
        shards.backup(g)
    }
}

fn shard_tag(g: usize) -> u64 {
    (7u64 << 32) | g as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_data::{shard_batch, BlobsDataset, Dataset};
    use swift_dnn::models::mlp;
    use swift_net::{Cluster, RetryPolicy, Topology};
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
            w.model.state()
        });
        // Plain DP reference with the same deterministic ingredients.
        let dp_states = Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
            let ds = BlobsDataset::new(8, 6, 3, 0.3);
            let mut w =
                crate::replication::DpWorker::new(mlp("f", &[6, 16, 16, 3], 88), SGDM.build());
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
            let params = w.model.params_snapshot();
            let me = ctx.rank();
            let mut garbage = 0;
            for (g, p) in params.iter().enumerate() {
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
        let full = w.model.byte_size();
        let stored = w.stored_bytes(0);
        assert!(
            stored < full,
            "sharding must save memory: {stored} vs {full}"
        );
    }

    #[test]
    fn shard_failure_recovery_end_to_end() {
        // Rank 1 dies mid-update at iteration 3; its owned shard survives
        // on rank 2 (backup) and its backup shard survives on its owner.
        // Training resumes and matches the failure-free run bitwise after
        // a final gather (undo error is exactly zero here because the
        // failure interrupts rank 1 *before* any surviving rank applied a
        // conflicting partial update... survivors undo their own marks).
        let iters = 7u64;
        let run = |crash: bool| -> Vec<swift_dnn::ModelState> {
            let cluster = Cluster::new(Topology::uniform(3, 1));
            let fc = cluster.failure_controller();
            let kv = cluster.kv();
            let mut handles = Vec::new();
            for rank in 0..3usize {
                handles.push(cluster.spawn(rank, move |mut ctx| {
                    let ds = BlobsDataset::new(8, 6, 3, 0.3);
                    let mut w = make_worker(3);
                    loop {
                        if w.iteration >= iters {
                            gather_full_params(&mut ctx, &mut w, &[0, 1, 2]).unwrap();
                            return Some(w.model.state());
                        }
                        let b = ds.batch(w.iteration, 12);
                        let s = shard_batch(&b, ctx.rank(), 3);
                        let crash_now =
                            (crash && ctx.rank() == 1 && w.iteration == 3).then_some(2usize);
                        match fsdp_train_step(
                            &mut ctx,
                            &mut w,
                            &[0, 1, 2],
                            &s.x,
                            &s.y,
                            1.0 / 12.0,
                            crash_now,
                        ) {
                            Ok(_) => {}
                            Err(CommError::SelfKilled) => return None,
                            Err(e @ CommError::Protocol { .. }) => panic!("protocol bug: {e}"),
                            Err(CommError::PeerFailed { .. }) => {
                                let gen = swift_net::failure_epoch(&ctx.kv);
                                ctx.kv.set(&format!("fsdp/ack/{gen}/{}", ctx.rank()), "1");
                                assert!(
                                    ctx.kv
                                        .wait_for(
                                            "fsdp/replacement",
                                            RetryPolicy::recovery().deadline
                                        )
                                        .is_some(),
                                    "no replacement"
                                );
                                fsdp_recover_supervised(
                                    &mut ctx,
                                    &mut w,
                                    &[0, 1, 2],
                                    &RetryPolicy::recovery(),
                                )
                                .unwrap();
                            }
                        }
                    }
                }));
            }
            let mut replacement = None;
            if crash {
                // The driver learns of the failure from the *declared*
                // state in the KV store, not the injector's ground truth.
                let deadline = RetryPolicy::recovery().deadline;
                let declared = kv.wait_until(deadline, || {
                    (!swift_net::failure_state(&kv).1.is_empty()).then_some(())
                });
                assert!(declared.is_some(), "failure never declared");
                for r in [0usize, 2] {
                    assert!(
                        kv.wait_for(&format!("fsdp/ack/1/{r}"), deadline).is_some(),
                        "survivor ack"
                    );
                }
                fc.replace_machine(1);
                let mut rctx = cluster.respawn(1);
                let kv2 = kv.clone();
                replacement = Some(std::thread::spawn(move || {
                    kv2.set("fsdp/replacement", "1");
                    let (mut w, report) = fsdp_join_supervised(
                        &mut rctx,
                        &|| mlp("f", &[6, 16, 16, 3], 88),
                        &|| SGDM.build(),
                        3,
                        &[0, 1, 2],
                        &RetryPolicy::recovery(),
                    )
                    .unwrap();
                    assert_eq!(report.restarts, 0);
                    let ds = BlobsDataset::new(8, 6, 3, 0.3);
                    while w.iteration < iters {
                        let b = ds.batch(w.iteration, 12);
                        let s = shard_batch(&b, rctx.rank(), 3);
                        fsdp_train_step(
                            &mut rctx,
                            &mut w,
                            &[0, 1, 2],
                            &s.x,
                            &s.y,
                            1.0 / 12.0,
                            None,
                        )
                        .unwrap();
                    }
                    gather_full_params(&mut rctx, &mut w, &[0, 1, 2]).unwrap();
                    w.model.state()
                }));
            }
            let mut states: Vec<Option<swift_dnn::ModelState>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            if let Some(h) = replacement {
                states[1] = Some(h.join().unwrap());
            }
            states.into_iter().map(|s| s.unwrap()).collect()
        };
        let clean = run(false);
        let failed = run(true);
        for r in 0..3 {
            let drift = clean[r].max_abs_diff(&failed[r]);
            assert!(drift < 1e-4, "rank {r} drift {drift}");
        }
        // All ranks agree with each other exactly.
        assert!(failed[0].bit_eq(&failed[1]) && failed[0].bit_eq(&failed[2]));
    }
}
