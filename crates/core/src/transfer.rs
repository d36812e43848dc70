//! Replica state transfer: the one primitive that hands model and
//! optimizer state to the ranks that need it — replacements and
//! re-aligning survivors in replication recovery (paper §3, Fig. 5),
//! joiners and incumbents in elastic scale-out (§8), and a sharded
//! replacement's shards in FSDP recovery (§8).
//!
//! What moves is described by a *plan*: contiguous ranges of parameter
//! groups, each naming the ranks that send it ([`SourceRange`]). Every
//! receiver receives every range. For one range, its sources walk the
//! range's parameters, then the range's present optimizer-slot tensors, in
//! [`Sequential::state`]/[`Optimizer::state`] order as one flat `f32`
//! sequence, cut at fixed offsets into chunks of `chunk_bytes` rounded
//! down to whole `f32`s (at least one): chunk *i* of the range is sent by
//! its sorted source *i mod n*, so the schedule is a pure function of the
//! range's state size, the chunk size and the range's source set. Before
//! any tensor data, each range's lowest source sends every receiver one
//! header: the iteration, the name and dims of every parameter in the
//! range, and the optimizer's name, counters, scalars and per-slot
//! presence mask over the range. The receiver checks every header against
//! its own layout before it writes a byte, shapes its slots to the masks,
//! and copies every chunk straight into pre-shaped tensors. No snapshot,
//! encoded image or reassembly buffer exists on either side; chunks span
//! tensor boundaries, so a tiny state is one header plus one data message
//! per range and receiver. Replication and elastic scale-out move a whole
//! replica as one range ([`transfer_replica`]).
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

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};
use swift_net::{bytemuck_f32, check_frame_len, f32_from_bytes, CommError, Rank, WorkerCtx};
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

/// One range of a transfer plan: contiguous parameter groups and the
/// ranks that send them. Every source must hold the range bit-identically
/// (a single source trivially does). A range reaching past a worker's
/// last group stops there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SourceRange {
    pub groups: Range<usize>,
    pub sources: Vec<Rank>,
}

/// Every parameter group of any model.
pub(crate) const EVERY_GROUP: Range<usize> = 0..usize::MAX;

/// Moves a whole replica's state from `sources` to every other rank of
/// `participants`, which must all call this collectively: a
/// [`transfer_state`] with one range covering every group.
pub(crate) fn transfer_replica(
    ctx: &mut WorkerCtx,
    w: &mut DpWorker,
    sources: &[Rank],
    participants: &[Rank],
    chunk_bytes: usize,
    landing: Landing,
) -> Result<(), CommError> {
    let receivers: Vec<Rank> = participants
        .iter()
        .copied()
        .filter(|r| !sources.contains(r))
        .collect();
    let plan = [SourceRange {
        groups: EVERY_GROUP,
        sources: sources.to_vec(),
    }];
    transfer_state(ctx, w, &plan, &receivers, chunk_bytes, landing)
}

/// Moves the state `plan` describes to every rank of `receivers`. Every
/// participant calls this collectively with the same plan and receivers:
/// a participant that neither sends nor receives only allocates the tag,
/// so collective sequences stay aligned. No receiver may be a source. On
/// success every receiver holds each range's sources' copy of it at the
/// sources' iteration, and every participant has its tracker reset,
/// caches cleared and `needs_resync` cleared. Gradients are left as they
/// are: the next `dp_train_step` zeroes them where it starts.
///
/// A receiver whose layout or optimizer kind differs from any range's
/// header fails with [`CommError::Protocol`] naming the first mismatching
/// entry, before touching any tensor.
pub(crate) fn transfer_state(
    ctx: &mut WorkerCtx,
    w: &mut DpWorker,
    plan: &[SourceRange],
    receivers: &[Rank],
    chunk_bytes: usize,
    landing: Landing,
) -> Result<(), CommError> {
    let tag = ctx.comm.next_coll_tag();
    let chunk = (chunk_bytes / 4).max(1);
    let n = w.model.num_param_groups();
    let plan: Vec<SourceRange> = plan
        .iter()
        .map(|range| {
            let mut sources = range.sources.clone();
            sources.sort_unstable();
            sources.dedup();
            assert!(!sources.is_empty(), "state transfer needs a source");
            SourceRange {
                groups: range.groups.start.min(n)..range.groups.end.min(n),
                sources,
            }
        })
        .collect();
    let me = ctx.rank();
    if receivers.contains(&me) {
        receive_state(ctx, w, tag, &plan, chunk, landing)?;
    } else if plan.iter().any(|range| range.sources.contains(&me)) {
        let mut receivers = receivers.to_vec();
        receivers.sort_unstable();
        receivers.dedup();
        send_state(ctx, w, tag, &plan, &receivers, chunk)?;
    }
    w.tracker.reset();
    w.model.clear_caches();
    w.needs_resync = false;
    Ok(())
}

/// A source's half: a header for every range it leads, then its chunks of
/// every range it sends, in plan order.
fn send_state(
    ctx: &mut WorkerCtx,
    w: &DpWorker,
    tag: u64,
    plan: &[SourceRange],
    receivers: &[Rank],
    chunk: usize,
) -> Result<(), CommError> {
    let me = ctx.rank();
    for range in plan.iter().filter(|range| range.sources[0] == me) {
        let header = Header::of(w, range.groups.clone()).encode();
        for &r in receivers {
            ctx.comm.send_bytes(r, tag, header.clone())?;
        }
    }
    let params: Vec<&Tensor> = w.model.params().collect();
    let slots = w.opt.slots();
    let mut buf: Vec<u8> = Vec::new();
    for range in plan {
        let Some(pos) = range.sources.iter().position(|&s| s == me) else {
            continue;
        };
        let groups = range.groups.clone();
        let mut walk: Vec<&[f32]> = params[groups.clone()].iter().map(|p| p.data()).collect();
        for (name, slots) in &slots {
            for idx in groups.clone() {
                if let Some(Some(t)) = slots.get(idx) {
                    assert!(
                        params[idx].shape() == t.shape(),
                        "optimizer slot {name}[{idx}] is not shaped like its parameter"
                    );
                    walk.push(t.data());
                }
            }
        }
        let starts = starts(walk.iter().map(|s| s.len()));
        let total = starts[walk.len()];
        for i in (pos..total.div_ceil(chunk)).step_by(range.sources.len()) {
            let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(total));
            buf.clear();
            for_each_piece(&starts, lo, hi, |t, piece| {
                buf.extend_from_slice(bytemuck_f32(&walk[t][piece]))
            });
            let piece = Bytes::copy_from_slice(&buf);
            for &r in receivers {
                ctx.comm.send_bytes(r, tag, piece.clone())?;
            }
        }
    }
    Ok(())
}

/// A receiver's half: check every range's header, then land every chunk.
/// Returns only after the state is fully installed; on any error the
/// worker's state is untouched when staged.
fn receive_state(
    ctx: &mut WorkerCtx,
    w: &mut DpWorker,
    tag: u64,
    plan: &[SourceRange],
    chunk: usize,
    landing: Landing,
) -> Result<(), CommError> {
    let mut headers: Vec<Header> = Vec::with_capacity(plan.len());
    for range in plan {
        let header = Header::decode(&ctx.comm.recv_bytes(range.sources[0], tag)?)?;
        header.check_against(w, range.groups.clone())?;
        if let Some(first) = headers.first().filter(|h| h.iteration != header.iteration) {
            return Err(protocol(format!(
                "ranges disagree on the iteration: {} and {}",
                first.iteration, header.iteration
            )));
        }
        headers.push(header);
    }
    // Slots always come fresh, shaped to each range's masks: a missing
    // slot is allocated like its parameter, an extra one is dropped.
    let shapes: Vec<_> = w.model.params().map(|p| *p.shape()).collect();
    let mut fresh: Vec<Vec<Vec<Option<Tensor>>>> = plan
        .iter()
        .zip(&headers)
        .map(|(range, header)| {
            header
                .masks
                .iter()
                .map(|(_, mask)| {
                    mask.iter()
                        .zip(&shapes[range.groups.clone()])
                        .map(|(&present, &shape)| present.then(|| Tensor::zeros(shape)))
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut staged: Vec<Vec<Tensor>> = plan
        .iter()
        .map(|range| match landing {
            Landing::Staged => shapes[range.groups.clone()]
                .iter()
                .map(|&shape| Tensor::zeros(shape))
                .collect(),
            Landing::InPlace => Vec::new(),
        })
        .collect();
    {
        let mut own: Vec<&mut Tensor> = match landing {
            Landing::Staged => Vec::new(),
            Landing::InPlace => w.model.params_mut().collect(),
        };
        for ((range, staged), fresh) in plan.iter().zip(&mut staged).zip(&mut fresh) {
            let mut walk: Vec<&mut [f32]> = match landing {
                Landing::Staged => staged.iter_mut().map(Tensor::data_mut).collect(),
                Landing::InPlace => own[range.groups.clone()]
                    .iter_mut()
                    .map(|p| p.data_mut())
                    .collect(),
            };
            walk.extend(fresh.iter_mut().flatten().flatten().map(Tensor::data_mut));
            let starts = starts(walk.iter().map(|s| s.len()));
            let total = starts[walk.len()];
            for i in 0..total.div_ceil(chunk) {
                let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(total));
                let piece = ctx
                    .comm
                    .recv_bytes(range.sources[i % range.sources.len()], tag)?;
                check_frame_len("state chunk", &piece, 4 * (hi - lo))?;
                let mut values = f32_from_bytes(&piece);
                for_each_piece(&starts, lo, hi, |t, piece| {
                    for (d, v) in walk[t][piece].iter_mut().zip(&mut values) {
                        *d = v;
                    }
                });
            }
        }
    }
    // The last chunk landed: install.
    if landing == Landing::Staged {
        let mut own: Vec<&mut Tensor> = w.model.params_mut().collect();
        for (range, staged) in plan.iter().zip(&mut staged) {
            for (p, s) in own[range.groups.clone()].iter_mut().zip(staged) {
                std::mem::swap(*p, s);
            }
        }
    }
    let mut slots = w.opt.slots_mut();
    for (range, fresh) in plan.iter().zip(fresh) {
        for ((_, dst), src) in slots.iter_mut().zip(fresh) {
            splice_slots(dst, range.groups.clone(), src);
        }
    }
    // Counters and scalars come from the first range's header, except
    // that entry g of a scalar vector (LAMB's per-group trust ratio) comes
    // from the header of the range that holds group g.
    let mut headers = headers.into_iter();
    let Some(first) = headers.next() else {
        return Ok(());
    };
    let mut optim = first.optim;
    for (range, header) in plan.iter().skip(1).zip(headers) {
        for (name, theirs) in &header.optim.scalars {
            if let Some((_, dst)) = optim.scalars.iter_mut().find(|(n, _)| n == name) {
                let hi = range.groups.end.min(theirs.len());
                if dst.len() < hi {
                    dst.extend_from_slice(&theirs[dst.len()..hi]);
                }
                let lo = range.groups.start.min(hi);
                dst[lo..hi].copy_from_slice(&theirs[lo..hi]);
            }
        }
    }
    w.opt.load_scalar_state(&optim);
    w.iteration = first.iteration;
    Ok(())
}

/// Makes `dst` hold a range's slot entries: `src` holds the source's
/// entries from the range's first group on, and ends where the source's
/// vector does. Entries of the range past that end become absent, and
/// when nothing of `dst` lies past the range, `dst` ends there too — so a
/// range covering every group leaves exactly the source's vector.
fn splice_slots(dst: &mut Vec<Option<Tensor>>, groups: Range<usize>, src: Vec<Option<Tensor>>) {
    let end = groups.start + src.len();
    if dst.len() <= groups.end {
        dst.truncate(end);
    } else {
        dst[end..groups.end].fill(None);
    }
    if !src.is_empty() && dst.len() < end {
        dst.resize(end, None);
    }
    for (d, s) in dst[groups.start..end].iter_mut().zip(src) {
        *d = s;
    }
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
fn for_each_piece(starts: &[usize], lo: usize, hi: usize, mut f: impl FnMut(usize, Range<usize>)) {
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

/// What a range's lowest source tells every receiver before any tensor
/// data.
struct Header {
    iteration: u64,
    /// `(state() entry name, dims)` per parameter of the range.
    params: Vec<(String, Vec<usize>)>,
    /// The optimizer's name, counters and scalars; `slots` is empty.
    optim: OptimState,
    /// `(slot name, presence per group of the range)` in `state()`
    /// order, ending where the source's slot vector does.
    masks: Vec<(String, Vec<bool>)>,
}

impl Header {
    fn of(w: &DpWorker, groups: Range<usize>) -> Self {
        Header {
            iteration: w.iteration,
            params: w
                .model
                .named_params()
                .skip(groups.start)
                .take(groups.len())
                .map(|(name, p)| (name, p.shape().dims().to_vec()))
                .collect(),
            optim: w.opt.scalar_state(),
            masks: w
                .opt
                .slots()
                .into_iter()
                .map(|(name, slots)| {
                    let held = groups.start.min(slots.len())..groups.end.min(slots.len());
                    (
                        name.to_string(),
                        slots[held].iter().map(Option::is_some).collect(),
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

    /// Checks that `w` can hold the announced state of `groups`, naming
    /// the first entry that it cannot.
    fn check_against(&self, w: &DpWorker, groups: Range<usize>) -> Result<(), CommError> {
        let mut own = w.model.named_params().skip(groups.start).take(groups.len());
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
                "optimizer slot `{name}` covers {} groups, the range has {}",
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
pub(crate) mod tests {
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
            transfer_replica(
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
            transfer_replica(&mut ctx, &mut w, &[0], all, 16, Landing::Staged)
        });
        let h1 = cluster.spawn(1, move |mut ctx| {
            let mut w = trained(SGDM, 7, 5);
            w.needs_resync = true;
            let before = (w.model.state(), w.opt.state());
            let err =
                transfer_replica(&mut ctx, &mut w, &[0], all, 16, Landing::Staged).unwrap_err();
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
            let err = transfer_replica(&mut ctx, &mut w, &[0], all, 16, Landing::InPlace);
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
            let result = transfer_replica(&mut ctx, &mut w, &[0], &[0, 1, 2], 20, landing);
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

    const LAMB: OptimizerKind = OptimizerKind::Lamb {
        lr: 1e-2,
        weight_decay: 0.01,
    };

    /// Every parameter, then every present slot in `state()` order: the
    /// flat walk a whole-replica transfer streams.
    fn flat_walk(w: &DpWorker) -> Vec<f32> {
        let mut flat: Vec<f32> = w.model.params().flat_map(|p| p.data().to_vec()).collect();
        for (_, slots) in w.opt.slots() {
            flat.extend(slots.iter().flatten().flat_map(|t| t.data().to_vec()));
        }
        flat
    }

    #[test]
    fn one_range_plan_sends_the_single_source_list_schedule() {
        // A whole-replica transfer is the schedule it had before plans
        // had ranges: the whole flat walk cut every `chunk_bytes / 4`
        // f32s, chunk i from sorted source i mod n, and nothing else but
        // the lowest source's header. The last rank receives the stream
        // raw: each source's byte count first (so a wrong schedule fails
        // instead of hanging), then every chunk from the expected source
        // with the expected bounds and contents.
        let kind = OptimizerKind::Adam {
            lr: 1e-2,
            weight_decay: 0.001,
        };
        for (sources, chunk_bytes) in [
            (&[0usize][..], 20usize),
            (&[0, 1][..], 20),
            (&[0, 1, 2][..], 6),
            (&[0, 1][..], 1 << 30),
        ] {
            let world = sources.len() + 1;
            let all: Vec<Rank> = (0..world).collect();
            Cluster::run_all(Topology::uniform(world, 1), move |mut ctx| {
                let me = ctx.rank();
                let mut w = trained(kind, 7, 3);
                if me < sources.len() {
                    transfer_replica(
                        &mut ctx,
                        &mut w,
                        sources,
                        &all,
                        chunk_bytes,
                        Landing::Staged,
                    )
                    .unwrap();
                    ctx.kv
                        .set(&format!("sent/{me}"), ctx.comm.bytes_sent().to_string());
                    return;
                }
                let tag = ctx.comm.next_coll_tag();
                let flat = flat_walk(&w);
                let chunk = chunk_bytes / 4;
                let bounds = |i: usize| (i * chunk, ((i + 1) * chunk).min(flat.len()));
                let count = flat.len().div_ceil(chunk);
                let header = ctx.comm.recv_bytes(0, tag).unwrap();
                for (pos, &s) in sources.iter().enumerate() {
                    let sent = ctx
                        .kv
                        .wait_for(&format!("sent/{s}"), RetryPolicy::recovery().deadline)
                        .unwrap();
                    let chunks: usize = (pos..count)
                        .step_by(sources.len())
                        .map(|i| 4 * (bounds(i).1 - bounds(i).0))
                        .sum();
                    let expected = chunks + if pos == 0 { header.len() } else { 0 };
                    assert_eq!(sent, expected.to_string(), "{sources:?}, source {s}");
                }
                for i in 0..count {
                    let (lo, hi) = bounds(i);
                    let piece = ctx
                        .comm
                        .recv_bytes(sources[i % sources.len()], tag)
                        .unwrap();
                    assert_eq!(
                        &piece[..],
                        bytemuck_f32(&flat[lo..hi]),
                        "{sources:?}, chunk {i}"
                    );
                }
            });
        }
    }

    /// A `[5, width, out]` replica `steps` in, its every parameter, slot
    /// and per-group scalar then shifted by `shift` — distinct content at
    /// the same iteration.
    fn shifted(kind: OptimizerKind, dims: [usize; 3], steps: u64, shift: f32) -> DpWorker {
        let mut w = DpWorker::new(mlp("t", &dims, 41), kind.build());
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
        let bump = |t: &mut Tensor| t.data_mut().iter_mut().for_each(|v| *v += shift);
        w.model.params_mut().for_each(bump);
        for (_, slots) in w.opt.slots_mut() {
            slots.iter_mut().flatten().for_each(bump);
        }
        let mut scalars = w.opt.scalar_state();
        for (name, vals) in &mut scalars.scalars {
            if name == "saved_ratio" {
                vals.iter_mut().for_each(|v| *v += shift);
            }
        }
        w.opt.load_scalar_state(&scalars);
        w
    }

    /// Group `g` of a worker: its parameter, its slot of every name and
    /// its LAMB trust ratio.
    pub(crate) type GroupCopy = (Tensor, Vec<Option<Tensor>>, Option<f32>);

    pub(crate) fn group(w: &DpWorker, g: usize) -> GroupCopy {
        let param = w.model.params().nth(g).unwrap().clone();
        let slots = w
            .opt
            .slots()
            .iter()
            .map(|(_, s)| s.get(g).cloned().flatten())
            .collect();
        let scalars = w.opt.scalar_state().scalars;
        let ratio = scalars.iter().find(|(n, _)| n == "saved_ratio");
        (param, slots, ratio.and_then(|(_, v)| v.get(g).copied()))
    }

    /// Whether two copies of a group are bit-equal.
    pub(crate) fn same_group(a: &GroupCopy, b: &GroupCopy) -> bool {
        let slots_eq = a.1.len() == b.1.len()
            && a.1.iter().zip(&b.1).all(|(x, y)| match (x, y) {
                (Some(x), Some(y)) => x.bit_eq(y),
                (None, None) => true,
                _ => false,
            });
        a.0.bit_eq(&b.0) && slots_eq && a.2.map(f32::to_bits) == b.2.map(f32::to_bits)
    }

    #[test]
    fn two_range_plan_lands_each_range_from_its_own_sources() {
        // Groups 0..2 come from rank 0, groups 2..4 from rank 1, which
        // holds different values at the same iteration. Rank 2 receives
        // in place; rank 3 (staged) and rank 4 (in place) have a wider
        // last layer, so only the second range's header mismatches —
        // both must reject before any byte lands and keep their state;
        // rank 5 is a bystander. Every rank ends on a barrier, so no
        // receiver exits while the sources still stream.
        let plan = [
            SourceRange {
                groups: 0..2,
                sources: vec![0],
            },
            SourceRange {
                groups: 2..usize::MAX,
                sources: vec![1],
            },
        ];
        let out = Cluster::run_all(Topology::uniform(6, 1), move |mut ctx| {
            let me = ctx.rank();
            let (mut w, landing) = match me {
                0 => (shifted(LAMB, [5, 7, 3], 3, 0.0), Landing::InPlace),
                1 => (shifted(LAMB, [5, 7, 3], 3, 0.5), Landing::InPlace),
                2 => (shape_only(LAMB, 7), Landing::InPlace),
                3 => (shifted(LAMB, [5, 7, 4], 2, 0.0), Landing::Staged),
                4 => (shifted(LAMB, [5, 7, 4], 1, 0.0), Landing::InPlace),
                _ => (shifted(LAMB, [5, 7, 3], 2, 0.25), Landing::InPlace),
            };
            let before = (w.model.state(), w.opt.state(), w.iteration);
            let result = transfer_state(&mut ctx, &mut w, &plan, &[2, 3, 4], 20, landing);
            ctx.comm.barrier_among(&[0, 1, 2, 3, 4, 5]).unwrap();
            let kept = w.model.state().bit_eq(&before.0)
                && w.opt.state() == before.1
                && w.iteration == before.2;
            let groups: Vec<_> = (0..w.model.num_param_groups())
                .map(|g| group(&w, g))
                .collect();
            (result, kept, groups, w.iteration)
        });
        for rank in [0, 1, 5] {
            assert_eq!(out[rank].0, Ok(()), "rank {rank}");
            assert!(out[rank].1, "rank {rank} only sends or stands by");
        }
        let (result, _, groups, iteration) = &out[2];
        assert_eq!(*result, Ok(()));
        assert_eq!(*iteration, 3);
        for (g, got) in groups.iter().enumerate() {
            let source = if g < 2 { 0 } else { 1 };
            assert!(
                same_group(got, &out[source].2[g]),
                "group {g} from rank {source}"
            );
        }
        assert!(
            !same_group(&out[0].2[3], &out[1].2[3]),
            "the sources differ"
        );
        for rank in [3, 4] {
            match &out[rank].0 {
                Err(CommError::Protocol { detail }) => {
                    assert!(detail.contains("`2:fc1.0`"), "rank {rank}: {detail}")
                }
                other => panic!("rank {rank}: expected a protocol error, got {other:?}"),
            }
            assert!(out[rank].1, "rank {rank} must keep its state");
        }
    }
}
