//! Replica state transfer: the one primitive that hands a data-parallel
//! replica's model and optimizer state to the ranks that need it —
//! replacements and re-aligning survivors in replication recovery (paper
//! §3, Fig. 5), joiners and incumbents in elastic scale-out (§8).
//!
//! The sources walk their parameters, then their present optimizer-slot
//! tensors, in [`Sequential::state`]/[`Optimizer::state`] order as one
//! flat `f32` sequence, cut at fixed offsets into chunks of
//! `chunk_bytes` rounded down to whole `f32`s (at least one): chunk *i*
//! is sent by sorted source *i mod n*, so the schedule is a pure function
//! of the state size, the chunk size and the source set. Before any
//! tensor data, the lowest source sends every receiver one header: the
//! iteration, every parameter's name and dims, and the optimizer's name,
//! counters, scalars and per-slot presence mask. The receiver checks the
//! header against its own layout before it writes a byte, shapes its
//! slots to the masks, and copies every chunk straight into pre-shaped
//! tensors. No snapshot, encoded image or reassembly buffer exists on
//! either side; chunks span tensor boundaries, so a tiny state is one
//! header plus one data message per receiver.
//!
//! A receiver lands the stream one of two ways ([`Landing`]): in place,
//! when it is rebuilt from its factories on every attempt (a replacement,
//! an elastic joiner), or staged, when its state must outlive a failed
//! transfer (a non-root survivor, an elastic incumbent) — chunks then
//! land in scratch tensors installed only after the last one, so a source
//! dying mid-stream never leaves a torn mix of two states behind.
//!
//! [`Sequential::state`]: swift_dnn::Sequential::state
//! [`Optimizer::state`]: swift_optim::Optimizer::state

use bytes::{BufMut, Bytes, BytesMut};
use swift_net::{bytemuck_f32, f32_from_bytes, CommError, Rank, WorkerCtx};
use swift_optim::OptimState;
use swift_tensor::Tensor;

use crate::replication::DpWorker;

/// Where a receiving rank writes the incoming state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Landing {
    /// Straight into the worker's own parameters.
    InPlace,
    /// Into scratch tensors, installed only once the last chunk landed.
    Staged,
}

/// Moves `sources`' state to every other rank of `participants`, which
/// must all call this collectively. Every source must hold bit-identical
/// state (a single source trivially does). On success every participant
/// holds the sources' state at the sources' iteration, with the tracker
/// reset, caches cleared and `needs_resync` cleared. Gradients are left
/// as they are: the next `dp_train_step` zeroes them where it starts.
///
/// A receiver whose model layout or optimizer kind differs from the
/// sources' fails with [`CommError::Protocol`] naming the first
/// mismatching entry, before touching any tensor.
pub(crate) fn transfer_state(
    ctx: &mut WorkerCtx,
    w: &mut DpWorker,
    sources: &[Rank],
    participants: &[Rank],
    chunk_bytes: usize,
    landing: Landing,
) -> Result<(), CommError> {
    let tag = ctx.comm.next_coll_tag();
    let chunk = (chunk_bytes / 4).max(1);
    let mut sources = sources.to_vec();
    sources.sort_unstable();
    sources.dedup();
    assert!(!sources.is_empty(), "state transfer needs a source");
    let mut receivers: Vec<Rank> = participants
        .iter()
        .copied()
        .filter(|r| sources.binary_search(r).is_err())
        .collect();
    receivers.sort_unstable();
    receivers.dedup();
    match sources.iter().position(|&r| r == ctx.rank()) {
        Some(pos) => send_state(ctx, w, tag, pos, &sources, &receivers, chunk)?,
        None => receive_state(ctx, w, tag, &sources, chunk, landing)?,
    }
    w.tracker.reset();
    w.model.clear_caches();
    w.needs_resync = false;
    Ok(())
}

/// A source's half: the header (lowest source only), then its chunks.
fn send_state(
    ctx: &mut WorkerCtx,
    w: &DpWorker,
    tag: u64,
    pos: usize,
    sources: &[Rank],
    receivers: &[Rank],
    chunk: usize,
) -> Result<(), CommError> {
    if pos == 0 {
        let header = Header::of(w).encode();
        for &r in receivers {
            ctx.comm.send_bytes(r, tag, header.clone())?;
        }
    }
    let params: Vec<&Tensor> = w.model.params().collect();
    let mut walk: Vec<&[f32]> = params.iter().map(|p| p.data()).collect();
    for (name, slots) in w.opt.slots() {
        for (idx, slot) in slots.iter().enumerate() {
            if let Some(t) = slot {
                assert!(
                    params.get(idx).is_some_and(|p| p.shape() == t.shape()),
                    "optimizer slot {name}[{idx}] is not shaped like its parameter"
                );
                walk.push(t.data());
            }
        }
    }
    let starts = starts(walk.iter().map(|s| s.len()));
    let total = starts[walk.len()];
    let mut buf: Vec<u8> = Vec::with_capacity(4 * chunk.min(total));
    for i in (pos..total.div_ceil(chunk)).step_by(sources.len()) {
        let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(total));
        buf.clear();
        for_each_piece(&starts, lo, hi, |t, range| {
            buf.extend_from_slice(bytemuck_f32(&walk[t][range]))
        });
        let piece = Bytes::copy_from_slice(&buf);
        for &r in receivers {
            ctx.comm.send_bytes(r, tag, piece.clone())?;
        }
    }
    Ok(())
}

/// A receiver's half: check the header, then land every chunk. Returns
/// only after the state is fully installed; on any error the worker's
/// state is untouched when staged.
fn receive_state(
    ctx: &mut WorkerCtx,
    w: &mut DpWorker,
    tag: u64,
    sources: &[Rank],
    chunk: usize,
    landing: Landing,
) -> Result<(), CommError> {
    let header = Header::decode(&ctx.comm.recv_bytes(sources[0], tag)?)?;
    header.check_against(w)?;
    // Slots always come fresh, shaped to the header's masks: a missing
    // slot is allocated like its parameter, an extra one is dropped.
    let shapes: Vec<_> = w.model.params().map(|p| *p.shape()).collect();
    let mut slots: Vec<Vec<Option<Tensor>>> = header
        .masks
        .iter()
        .map(|(_, mask)| {
            mask.iter()
                .zip(&shapes)
                .map(|(&present, &shape)| present.then(|| Tensor::zeros(shape)))
                .collect()
        })
        .collect();
    let mut staged: Vec<Tensor> = match landing {
        Landing::Staged => shapes.iter().map(|&shape| Tensor::zeros(shape)).collect(),
        Landing::InPlace => Vec::new(),
    };
    {
        let mut walk: Vec<&mut [f32]> = match landing {
            Landing::Staged => staged.iter_mut().map(Tensor::data_mut).collect(),
            Landing::InPlace => w.model.params_mut().map(Tensor::data_mut).collect(),
        };
        walk.extend(slots.iter_mut().flatten().flatten().map(Tensor::data_mut));
        let starts = starts(walk.iter().map(|s| s.len()));
        let total = starts[walk.len()];
        for i in 0..total.div_ceil(chunk) {
            let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(total));
            let piece = ctx.comm.recv_bytes(sources[i % sources.len()], tag)?;
            if piece.len() != 4 * (hi - lo) {
                return Err(protocol(format!(
                    "state chunk {i} carries {} bytes, expected {}",
                    piece.len(),
                    4 * (hi - lo)
                )));
            }
            let mut values = f32_from_bytes(&piece);
            for_each_piece(&starts, lo, hi, |t, range| {
                for (d, v) in walk[t][range].iter_mut().zip(&mut values) {
                    *d = v;
                }
            });
        }
    }
    // The last chunk landed: install.
    if landing == Landing::Staged {
        for (p, s) in w.model.params_mut().zip(&mut staged) {
            std::mem::swap(p, s);
        }
    }
    for ((_, dst), src) in w.opt.slots_mut().into_iter().zip(slots) {
        *dst = src;
    }
    w.opt.load_scalar_state(&header.optim);
    w.iteration = header.iteration;
    Ok(())
}

/// Flat offsets at which each walked tensor starts, plus the total.
fn starts(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut out = vec![0];
    for len in lens {
        out.push(out[out.len() - 1] + len);
    }
    out
}

/// Visits the flat range `[lo, hi)` tensor by tensor as `(tensor index,
/// range within that tensor)`. `lo < hi <= total`.
fn for_each_piece(
    starts: &[usize],
    lo: usize,
    hi: usize,
    mut f: impl FnMut(usize, std::ops::Range<usize>),
) {
    let mut t = starts.partition_point(|&s| s <= lo) - 1;
    let mut pos = lo;
    while pos < hi {
        let end = hi.min(starts[t + 1]);
        if end > pos {
            f(t, pos - starts[t]..end - starts[t]);
        }
        pos = end;
        t += 1;
    }
}

fn protocol(detail: String) -> CommError {
    CommError::Protocol { detail }
}

/// What the lowest source tells every receiver before any tensor data.
struct Header {
    iteration: u64,
    /// `(state() entry name, dims)` per parameter, in global group order.
    params: Vec<(String, Vec<usize>)>,
    /// The optimizer's name, counters and scalars; `slots` is empty.
    optim: OptimState,
    /// `(slot name, presence per parameter group)` in `state()` order.
    masks: Vec<(String, Vec<bool>)>,
}

impl Header {
    fn of(w: &DpWorker) -> Self {
        Header {
            iteration: w.iteration,
            params: w
                .model
                .named_params()
                .map(|(name, p)| (name, p.shape().dims().to_vec()))
                .collect(),
            optim: w.opt.scalar_state(),
            masks: w
                .opt
                .slots()
                .into_iter()
                .map(|(name, slots)| {
                    (
                        name.to_string(),
                        slots.iter().map(Option::is_some).collect(),
                    )
                })
                .collect(),
        }
    }

    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.iteration);
        buf.put_u32_le(self.params.len() as u32);
        for (name, dims) in &self.params {
            put_str(&mut buf, name);
            buf.put_u32_le(dims.len() as u32);
            for &d in dims {
                buf.put_u64_le(d as u64);
            }
        }
        put_str(&mut buf, &self.optim.name);
        buf.put_u64_le(self.optim.t);
        buf.put_f32_le(self.optim.last_lr);
        buf.put_u32_le(self.optim.scalars.len() as u32);
        for (name, vals) in &self.optim.scalars {
            put_str(&mut buf, name);
            buf.put_u32_le(vals.len() as u32);
            for &v in vals {
                buf.put_f32_le(v);
            }
        }
        buf.put_u32_le(self.masks.len() as u32);
        for (name, mask) in &self.masks {
            put_str(&mut buf, name);
            buf.put_u32_le(mask.len() as u32);
            for &present in mask {
                buf.put_u8(present as u8);
            }
        }
        buf.freeze()
    }

    fn decode(mut bytes: &[u8]) -> Result<Self, CommError> {
        let r = &mut bytes;
        let iteration = get_u64(r)?;
        let mut params = Vec::new();
        for _ in 0..get_u32(r)? {
            let name = get_str(r)?;
            let mut dims = Vec::new();
            for _ in 0..get_u32(r)? {
                dims.push(get_u64(r)? as usize);
            }
            params.push((name, dims));
        }
        let mut optim = OptimState {
            name: get_str(r)?,
            t: get_u64(r)?,
            last_lr: f32::from_bits(get_u32(r)? as u32),
            ..OptimState::default()
        };
        for _ in 0..get_u32(r)? {
            let name = get_str(r)?;
            let mut vals = Vec::new();
            for _ in 0..get_u32(r)? {
                vals.push(f32::from_bits(get_u32(r)? as u32));
            }
            optim.scalars.push((name, vals));
        }
        let mut masks = Vec::new();
        for _ in 0..get_u32(r)? {
            let name = get_str(r)?;
            let n = get_u32(r)?;
            masks.push((name, take(r, n)?.iter().map(|&b| b != 0).collect()));
        }
        if !r.is_empty() {
            return Err(protocol(format!(
                "state header has {} trailing bytes",
                r.len()
            )));
        }
        Ok(Header {
            iteration,
            params,
            optim,
            masks,
        })
    }

    /// Checks that `w` can hold the announced state, naming the first
    /// entry that it cannot.
    fn check_against(&self, w: &DpWorker) -> Result<(), CommError> {
        let mut own = w.model.named_params();
        for (name, dims) in &self.params {
            let Some((own_name, p)) = own.next() else {
                return Err(protocol(format!(
                    "state layout mismatch at `{name}`: the receiver has no such parameter"
                )));
            };
            let own_dims = p.shape().dims();
            if own_name != *name || own_dims != dims.as_slice() {
                return Err(protocol(format!(
                    "state layout mismatch at `{name}`: source {dims:?}, \
                     receiver `{own_name}` {own_dims:?}"
                )));
            }
        }
        if let Some((own_name, _)) = own.next() {
            return Err(protocol(format!(
                "state layout mismatch at `{own_name}`: the source has no such parameter"
            )));
        }
        if self.optim.name != w.opt.name() {
            return Err(protocol(format!(
                "optimizer mismatch: source `{}`, receiver `{}`",
                self.optim.name,
                w.opt.name()
            )));
        }
        let own_slots: Vec<&str> = w.opt.slots().into_iter().map(|(name, _)| name).collect();
        let theirs: Vec<&str> = self.masks.iter().map(|(name, _)| name.as_str()).collect();
        if own_slots != theirs {
            return Err(protocol(format!(
                "optimizer `{}` slot mismatch: source {theirs:?}, receiver {own_slots:?}",
                self.optim.name
            )));
        }
        if let Some((name, mask)) = self.masks.iter().find(|(_, m)| m.len() > self.params.len()) {
            return Err(protocol(format!(
                "optimizer slot `{name}` covers {} groups, the model has {}",
                mask.len(),
                self.params.len()
            )));
        }
        Ok(())
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Takes `n` bytes off the front of `r`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], CommError> {
    if r.len() < n {
        return Err(protocol("state header truncated".into()));
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

fn get_u32(r: &mut &[u8]) -> Result<usize, CommError> {
    let b = take(r, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
}

fn get_u64(r: &mut &[u8]) -> Result<u64, CommError> {
    let mut b = [0u8; 8];
    b.copy_from_slice(take(r, 8)?);
    Ok(u64::from_le_bytes(b))
}

fn get_str(r: &mut &[u8]) -> Result<String, CommError> {
    let n = get_u32(r)?;
    String::from_utf8(take(r, n)?.to_vec()).map_err(|e| protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::{replication_join, replication_recover_survivor};
    use crate::supervisor::supervise;
    use swift_data::{BlobsDataset, Dataset};
    use swift_dnn::models::mlp;
    use swift_dnn::{softmax_cross_entropy_scaled, Mode, ModelState, StepCtx};
    use swift_net::{Cluster, CrashTrigger, FaultPlan, RetryPolicy, Topology};
    use swift_optim::OptimizerKind;
    use swift_tensor::tensor::without_init_draws;

    const SGDM: OptimizerKind = OptimizerKind::SgdMomentum {
        lr: 0.05,
        weight_decay: 0.001,
        momentum: 0.9,
        dampening: 0.0,
    };

    const KINDS: [OptimizerKind; 6] = [
        OptimizerKind::Sgd {
            lr: 0.05,
            weight_decay: 0.001,
        },
        SGDM,
        OptimizerKind::Adam {
            lr: 1e-2,
            weight_decay: 0.001,
        },
        OptimizerKind::AdamW {
            lr: 1e-2,
            weight_decay: 0.01,
        },
        OptimizerKind::AmsGrad {
            lr: 1e-2,
            weight_decay: 0.0,
        },
        OptimizerKind::Lamb {
            lr: 1e-2,
            weight_decay: 0.01,
        },
    ];

    /// Splits tensors (and, at 1 f32, every element); then one chunk
    /// larger than the whole state.
    const CHUNKS: [usize; 3] = [6, 20, 1 << 30];

    /// A fresh replica of the `[5, 7, 3]` test model after `steps` local
    /// optimizer steps.
    fn trained(kind: OptimizerKind, width: usize, steps: u64) -> DpWorker {
        let mut w = DpWorker::new(mlp("t", &[5, width, 3], 41), kind.build());
        let ds = BlobsDataset::new(3, 5, 3, 0.3);
        for it in 0..steps {
            let batch = ds.batch(it, 4);
            let ctx = StepCtx::new(it, 0);
            let out = w.model.forward(ctx, &batch.x, Mode::Train);
            let (_, grad) = softmax_cross_entropy_scaled(&out, &batch.y, 0.25);
            w.model.backward(ctx, &grad);
            w.model.optimizer_step(&mut *w.opt);
            w.model.zero_grads();
            w.iteration += 1;
        }
        w
    }

    /// A fresh `[5, width, 3]` replica built without initialization
    /// draws — what a replacement joins with.
    fn shape_only(kind: OptimizerKind, width: usize) -> DpWorker {
        DpWorker::new(
            without_init_draws(|| mlp("t", &[5, width, 3], 41)),
            kind.build(),
        )
    }

    /// What every receiver must hold: a fresh replica that loaded the
    /// source's snapshots.
    fn reference(kind: OptimizerKind, steps: u64) -> (u64, ModelState, OptimState) {
        let src = trained(kind, 7, steps);
        let mut w = trained(kind, 7, 0);
        w.model.load_state(&src.model.state());
        w.opt.load_state(&src.opt.state());
        (src.iteration, w.model.state(), w.opt.state())
    }

    type Outcome = (u64, bool, ModelState, OptimState);

    /// One 4-rank transfer from `sources`: rank 1 starts `rank1_steps`
    /// in (staged when it receives), rank 2 fresh and rank 3 built
    /// without draws (both in place), rank 0 `steps` in.
    fn run(
        kind: OptimizerKind,
        steps: u64,
        rank1_steps: u64,
        sources: &'static [Rank],
        chunk_bytes: usize,
    ) -> Vec<Outcome> {
        Cluster::run_all(Topology::uniform(4, 1), move |mut ctx| {
            let (mut w, landing) = match ctx.rank() {
                0 => (trained(kind, 7, steps), Landing::Staged),
                1 => (trained(kind, 7, rank1_steps), Landing::Staged),
                2 => (trained(kind, 7, 0), Landing::InPlace),
                _ => (shape_only(kind, 7), Landing::InPlace),
            };
            w.needs_resync = ctx.rank() == 1 && rank1_steps != steps;
            transfer_state(
                &mut ctx,
                &mut w,
                sources,
                &[0, 1, 2, 3],
                chunk_bytes,
                landing,
            )
            .unwrap();
            (w.iteration, w.needs_resync, w.model.state(), w.opt.state())
        })
    }

    /// The same four ranks through the consensus guard: survivors 0 and
    /// 1 recover (rank 1 flagged for resync when it diverged), ranks 2
    /// (seeded) and 3 (built without draws) join. Chunk and shard sizes
    /// come from the environment, which the CI determinism matrices sweep.
    fn run_guarded(kind: OptimizerKind, steps: u64, rank1_steps: u64) -> Vec<Outcome> {
        Cluster::run_all(Topology::uniform(4, 1), move |mut ctx| {
            let all = &[0, 1, 2, 3];
            let w = if ctx.rank() < 2 {
                let mine = if ctx.rank() == 0 { steps } else { rank1_steps };
                let mut w = trained(kind, 7, mine);
                w.needs_resync = mine != steps;
                replication_recover_survivor(&mut ctx, &mut w, &[0, 1], all).unwrap();
                w
            } else {
                let fresh = if ctx.rank() == 2 {
                    trained(kind, 7, 0)
                } else {
                    shape_only(kind, 7)
                };
                replication_join(&mut ctx, fresh.model, fresh.opt, &[0, 1], all).unwrap()
            };
            (w.iteration, w.needs_resync, w.model.state(), w.opt.state())
        })
    }

    fn assert_all_hold(outcomes: &[Outcome], expected: &(u64, ModelState, OptimState), what: &str) {
        for (rank, (it, resync, model, opt)) in outcomes.iter().enumerate() {
            assert_eq!(*it, expected.0, "{what}: rank {rank} iteration");
            assert!(!resync, "{what}: rank {rank} still flagged for resync");
            assert!(model.bit_eq(&expected.1), "{what}: rank {rank} model state");
            assert_eq!(opt, &expected.2, "{what}: rank {rank} optimizer state");
        }
    }

    #[test]
    fn receivers_match_load_state_for_every_optimizer() {
        for kind in KINDS {
            for steps in [0, 1, 3] {
                let expected = reference(kind, steps);
                for chunk in CHUNKS {
                    let what = format!("{kind:?} after {steps} steps, {chunk}-byte chunks");
                    // Bit-identical survivors 0 and 1 both stream to the
                    // replacement.
                    let out = run(kind, steps, steps, &[0, 1], chunk);
                    assert_all_hold(&out, &expected, &format!("{what}, two sources"));
                    // After an undo: root 0 alone re-aligns diverged
                    // survivor 1 (staged) and fills the replacement.
                    let out = run(kind, steps, steps + 2, &[0], chunk);
                    assert_all_hold(&out, &expected, &format!("{what}, one root"));
                }
                let what = format!("{kind:?} after {steps} steps, consensus guard");
                let out = run_guarded(kind, steps, steps);
                assert_all_hold(&out, &expected, &format!("{what}, identical survivors"));
                let out = run_guarded(kind, steps, steps + 2);
                assert_all_hold(&out, &expected, &format!("{what}, after an undo"));
            }
        }
    }

    #[test]
    fn root_death_mid_stream_leaves_staged_survivor_untouched() {
        // Root 0 streams 16-byte chunks (4 f32s) of a 3-step state to
        // survivor 1 (staged, 5 steps in) and replacement 2 (in place),
        // and dies on the wire after both headers and three chunks to
        // each: survivor 1 holds 3 of the 33 chunks in scratch when the
        // stream breaks.
        let cluster = Cluster::new(Topology::uniform(3, 1));
        cluster.install_faults(FaultPlan::new(0).with_crash(CrashTrigger::AtNthSend {
            rank: 0,
            n: 2 + 2 * 3 + 1,
        }));
        let all: &[Rank] = &[0, 1, 2];
        let h0 = cluster.spawn(0, move |mut ctx| {
            let mut w = trained(SGDM, 7, 3);
            transfer_state(&mut ctx, &mut w, &[0], all, 16, Landing::Staged)
        });
        let h1 = cluster.spawn(1, move |mut ctx| {
            let mut w = trained(SGDM, 7, 5);
            w.needs_resync = true;
            let before = (w.model.state(), w.opt.state());
            let err = transfer_state(&mut ctx, &mut w, &[0], all, 16, Landing::Staged).unwrap_err();
            assert_eq!(err, CommError::PeerFailed { rank: 0 });
            assert!(w.model.state().bit_eq(&before.0), "torn model state");
            assert_eq!(w.opt.state(), before.1, "torn optimizer state");
            assert!(w.iteration == 5 && w.needs_resync);
            // Supervised retry: survivor 1 is the root now.
            supervise(&mut ctx, &RetryPolicy::recovery(), |ctx, _, _| {
                replication_recover_survivor(ctx, &mut w, &[1], &[1, 2])
            })
            .unwrap();
            assert!(w.model.state().bit_eq(&before.0));
            (w.model.state(), w.opt.state())
        });
        let h2 = cluster.spawn(2, move |mut ctx| {
            let mut w = trained(SGDM, 7, 0);
            let err = transfer_state(&mut ctx, &mut w, &[0], all, 16, Landing::InPlace);
            assert_eq!(err, Err(CommError::PeerFailed { rank: 0 }));
            let (w, _) = supervise(&mut ctx, &RetryPolicy::recovery(), |ctx, _, _| {
                replication_join(ctx, trained(SGDM, 7, 0).model, SGDM.build(), &[1], &[1, 2])
            })
            .unwrap();
            assert_eq!(w.iteration, 5);
            (w.model.state(), w.opt.state())
        });
        assert_eq!(h0.join().unwrap(), Err(CommError::SelfKilled));
        let (m1, o1) = h1.join().unwrap();
        let (m2, o2) = h2.join().unwrap();
        assert!(m1.bit_eq(&m2), "replicas diverged after the retry");
        assert_eq!(o1, o2);
    }

    /// Streams a 1-step SGD-momentum `[5, 7, 3]` replica into two
    /// `[5, width, 3]` receivers with optimizer `kind` — rank 1 trained 2
    /// steps, rank 2 built without draws — and returns their (equal)
    /// rejection, after checking that both receivers' states survived it.
    /// (The source may see a rejecting receiver exit mid-stream; its
    /// outcome is not checked.)
    fn mismatched(kind: OptimizerKind, width: usize) -> String {
        let out = Cluster::run_all(Topology::uniform(3, 1), move |mut ctx| {
            let (mut w, landing) = match ctx.rank() {
                0 => (trained(SGDM, 7, 1), Landing::Staged),
                1 => (trained(kind, width, 2), Landing::InPlace),
                _ => (shape_only(kind, width), Landing::InPlace),
            };
            let before = (w.model.state(), w.opt.state());
            let result = transfer_state(&mut ctx, &mut w, &[0], &[0, 1, 2], 20, landing);
            let untouched = w.model.state().bit_eq(&before.0) && w.opt.state() == before.1;
            (result, untouched)
        });
        let detail = |rank: usize| {
            assert!(out[rank].1, "rejected receiver {rank} must keep its state");
            match &out[rank].0 {
                Err(CommError::Protocol { detail }) => detail.clone(),
                other => panic!("receiver {rank}: expected a protocol error, got {other:?}"),
            }
        };
        assert_eq!(
            detail(1),
            detail(2),
            "both receivers name the same mismatch"
        );
        detail(1)
    }

    #[test]
    fn layout_mismatch_names_the_first_differing_parameter() {
        let detail = mismatched(SGDM, 6);
        assert!(
            detail.contains("`0:fc0.0`") && detail.contains("[7, 5]") && detail.contains("[6, 5]"),
            "{detail}"
        );
    }

    #[test]
    fn optimizer_mismatch_is_rejected_before_any_write() {
        let detail = mismatched(
            OptimizerKind::Adam {
                lr: 1e-2,
                weight_decay: 0.0,
            },
            7,
        );
        assert!(
            detail.contains("`SGD-momentum`") && detail.contains("`Adam`"),
            "{detail}"
        );
    }
}
