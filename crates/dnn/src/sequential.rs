//! A sequential stack of layers, with flat parameter-group indexing for
//! layer-wise optimizer updates and binary-serializable model state.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use swift_optim::{Optimizer, UndoError};
use swift_tensor::{
    decode_from as decode_tensor, encode_into as encode_tensor_into,
    encoded_size as encoded_tensor_size, Tensor,
};

use crate::layer::{Layer, Mode, StepCtx};

/// An ordered stack of layers executed front to back.
///
/// Parameter groups are numbered globally across layers in declaration
/// order; this index keys the optimizer's per-group slots, so the same
/// model structure always maps to the same slot layout (a requirement for
/// checkpoint compatibility).
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    /// Global parameter-group offset of each layer (prefix sums, one extra
    /// trailing entry = total group count). Group counts are static per
    /// layer, so this is computed once at construction — `backward_with`
    /// and the update paths stay allocation-free in steady state.
    group_offsets: Vec<usize>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sequential({}, {} layers, {} params)",
            self.name,
            self.layers.len(),
            self.param_count()
        )
    }
}

impl Sequential {
    /// Creates a named sequential model.
    pub fn new(name: impl Into<String>, layers: Vec<Box<dyn Layer>>) -> Self {
        let mut group_offsets = Vec::with_capacity(layers.len() + 1);
        let mut acc = 0usize;
        for l in &layers {
            group_offsets.push(acc);
            acc += l.params().len();
        }
        group_offsets.push(acc);
        Sequential {
            name: name.into(),
            layers,
            group_offsets,
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total parameter elements.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Total parameter bytes (the "model state size" of the paper's §2.2,
    /// excluding optimizer slots).
    pub fn byte_size(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Number of parameter groups (tensors) across all layers.
    pub fn num_param_groups(&self) -> usize {
        self.group_offsets[self.layers.len()]
    }

    /// Element counts of every parameter group, globally ordered (the
    /// geometry gradient bucketing is planned from — no tensor clones).
    pub fn group_numels(&self) -> Vec<usize> {
        self.params().map(Tensor::numel).collect()
    }

    /// True when `numels` matches this model's per-group element counts —
    /// the allocation-free validity check for state planned from the group
    /// geometry (e.g. a cached gradient-bucketing reducer).
    pub fn group_numels_match(&self, numels: &[usize]) -> bool {
        self.params().map(Tensor::numel).eq(numels.iter().copied())
    }

    /// Every parameter, borrowed, in global group order.
    pub fn params(&self) -> impl Iterator<Item = &Tensor> + '_ {
        self.layers.iter().flat_map(|l| l.params())
    }

    /// Every parameter, mutably, in global group order.
    pub fn params_mut(&mut self) -> impl Iterator<Item = &mut Tensor> + '_ {
        self.layers.iter_mut().flat_map(|l| l.params_mut())
    }

    /// Every parameter with its [`state`](Self::state) entry name,
    /// borrowed, in global group order.
    pub fn named_params(&self) -> impl Iterator<Item = (String, &Tensor)> + '_ {
        self.layers.iter().enumerate().flat_map(|(li, layer)| {
            let lname = layer.name();
            layer
                .params()
                .iter()
                .enumerate()
                .map(move |(pi, p)| (format!("{li}:{lname}.{pi}"), p))
        })
    }

    /// Forward through all layers.
    pub fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(ctx, &x, mode);
        }
        x
    }

    /// Backward through all layers (reverse order), accumulating parameter
    /// gradients; returns the gradient w.r.t. the model input.
    pub fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor {
        self.backward_with(ctx, grad_out, &mut |_, _| {})
    }

    /// [`backward`](Sequential::backward) with a per-layer completion
    /// hook: after each layer's backward finishes, `on_layer_done`
    /// receives the layer's global parameter-group range and its freshly
    /// accumulated gradients (in global group order). Layers complete in
    /// *reverse* order — the overlap seam gradient bucketing launches
    /// bucket all-reduces from while earlier layers are still computing.
    pub fn backward_with(
        &mut self,
        ctx: StepCtx,
        grad_out: &Tensor,
        on_layer_done: &mut dyn FnMut(std::ops::Range<usize>, &[Tensor]),
    ) -> Tensor {
        let offsets = &self.group_offsets;
        let mut g = grad_out.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            g = layer.backward(ctx, &g);
            let grads = layer.grads();
            if !grads.is_empty() {
                on_layer_done(offsets[i]..offsets[i + 1], grads);
            }
        }
        g
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Drops all in-flight activation caches (post-failure cleanup).
    pub fn clear_caches(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// Clones the current gradients, globally ordered.
    pub fn grads_snapshot(&self) -> Vec<Tensor> {
        self.layers
            .iter()
            .flat_map(|l| l.grads().iter().cloned())
            .collect()
    }

    /// Clones the current parameters, globally ordered.
    pub fn params_snapshot(&self) -> Vec<Tensor> {
        self.params().cloned().collect()
    }

    /// Applies the optimizer update to parameter groups
    /// `[from_group, to_group)` in global order (the layer-wise wait-free
    /// update), reading `grads` — globally indexed like
    /// [`grads_snapshot`](Self::grads_snapshot), e.g. a snapshot or the
    /// all-reduced gradients of data parallelism. Call `opt.finish_step()`
    /// after updating every group. The caller keeps `grads`: they are the
    /// cached `g_t` an undo of this update must read (paper §4).
    pub fn apply_update_with(
        &mut self,
        opt: &mut dyn Optimizer,
        grads: &[Tensor],
        from_group: usize,
        to_group: usize,
    ) {
        assert_eq!(grads.len(), self.num_param_groups());
        let mut idx = 0usize;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                if idx >= from_group && idx < to_group {
                    opt.step_one(idx, p, &grads[idx]);
                }
                idx += 1;
            }
        }
    }

    /// Undoes the most recent update of exactly the given global parameter
    /// groups (the crash-consistency repair of paper §4), reading the
    /// gradients that update read.
    pub fn undo_update_with(
        &mut self,
        opt: &mut dyn Optimizer,
        grads: &[Tensor],
        groups: &[usize],
    ) -> Result<(), UndoError> {
        assert_eq!(grads.len(), self.num_param_groups());
        let set: std::collections::HashSet<usize> = groups.iter().copied().collect();
        let mut idx = 0usize;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                if set.contains(&idx) {
                    opt.undo_one(idx, p, &grads[idx])?;
                }
                idx += 1;
            }
        }
        Ok(())
    }

    /// Convenience: a full step from the accumulated gradients — snapshot
    /// them, update every group, `finish_step`.
    pub fn optimizer_step(&mut self, opt: &mut dyn Optimizer) {
        let grads = self.grads_snapshot();
        self.apply_update_with(opt, &grads, 0, self.num_param_groups());
        opt.finish_step();
    }

    /// Decomposes the model into its name and layer stack.
    pub fn into_parts(self) -> (String, Vec<Box<dyn Layer>>) {
        (self.name, self.layers)
    }

    /// Snapshot of all parameters as named tensors.
    pub fn state(&self) -> ModelState {
        ModelState {
            entries: self
                .named_params()
                .map(|(name, p)| (name, p.clone()))
                .collect(),
        }
    }

    /// Restores all parameters from a snapshot.
    ///
    /// # Panics
    /// Panics on structure mismatch (different layer stack).
    pub fn load_state(&mut self, state: &ModelState) {
        let mut it = state.entries.iter();
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let lname = layer.name();
            for (pi, p) in layer.params_mut().iter_mut().enumerate() {
                let (name, tensor) = it
                    .next()
                    .unwrap_or_else(|| panic!("model state too short at layer {li}"));
                assert_eq!(
                    name,
                    &format!("{li}:{lname}.{pi}"),
                    "model state entry mismatch"
                );
                assert_eq!(
                    p.shape(),
                    tensor.shape(),
                    "parameter shape mismatch at {name}"
                );
                *p = tensor.clone();
            }
        }
        assert!(it.next().is_none(), "model state has extra entries");
    }
}

/// A named-tensor snapshot of model parameters, with a stable binary
/// encoding for checkpoints and replication broadcasts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelState {
    /// `(qualified name, parameter tensor)` in global group order.
    pub entries: Vec<(String, Tensor)>,
}

impl ModelState {
    /// Total payload bytes.
    pub fn byte_size(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.byte_size()).sum()
    }

    /// Maximum absolute difference against another state (∞ on mismatch).
    pub fn max_abs_diff(&self, other: &ModelState) -> f32 {
        if self.entries.len() != other.entries.len() {
            return f32::INFINITY;
        }
        self.entries
            .iter()
            .zip(other.entries.iter())
            .map(|((_, a), (_, b))| a.max_abs_diff(b))
            .fold(0.0, f32::max)
    }

    /// True when bitwise identical to another state.
    pub fn bit_eq(&self, other: &ModelState) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(other.entries.iter())
                .all(|((na, a), (nb, b))| na == nb && a.bit_eq(b))
    }

    /// Encodes to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_size());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes, appending to any [`BufMut`] (a `BytesMut` or a pooled
    /// staging buffer) instead of allocating a fresh one.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.entries.len() as u32);
        for (name, t) in &self.entries {
            buf.put_u32_le(name.len() as u32);
            buf.put_slice(name.as_bytes());
            encode_tensor_into(t, buf);
        }
    }

    /// Exact number of bytes [`encode`](ModelState::encode) will produce —
    /// computed arithmetically, without encoding anything.
    pub fn encoded_size(&self) -> usize {
        4 + self
            .entries
            .iter()
            .map(|(name, t)| 4 + name.len() + encoded_tensor_size(t))
            .sum::<usize>()
    }

    /// Decodes from the front of any [`Buf`] (a `Bytes` or a plain byte
    /// slice), advancing it.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, String> {
        if buf.remaining() < 4 {
            return Err("model state truncated".into());
        }
        let n = buf.get_u32_le() as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            if buf.remaining() < 4 {
                return Err("model state truncated".into());
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err("model state truncated".into());
            }
            let mut raw = vec![0u8; len];
            buf.copy_to_slice(&mut raw);
            let name = String::from_utf8(raw).map_err(|e| e.to_string())?;
            let t = decode_tensor(buf).map_err(|e| e.to_string())?;
            entries.push((name, t));
        }
        Ok(ModelState { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::linear::Linear;
    use swift_optim::OptimizerKind;
    use swift_tensor::CounterRng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = CounterRng::new(seed, 0);
        Sequential::new(
            "tiny",
            vec![
                Box::new(Linear::new("fc1", 4, 8, &mut rng)),
                Box::new(Activation::relu("relu")),
                Box::new(Linear::new("fc2", 8, 3, &mut rng)),
            ],
        )
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = tiny_model(0);
        let ctx = StepCtx::new(0, 0);
        let x = Tensor::ones([5, 4]);
        let y = m.forward(ctx, &x, Mode::Train);
        assert_eq!(y.shape().dims(), &[5, 3]);
        let dx = m.backward(ctx, &Tensor::ones([5, 3]));
        assert_eq!(dx.shape().dims(), &[5, 4]);
        assert_eq!(m.num_param_groups(), 4);
    }

    #[test]
    fn full_step_and_undo_round_trip() {
        let mut m = tiny_model(1);
        let mut opt = OptimizerKind::SgdMomentum {
            lr: 0.1,
            weight_decay: 0.01,
            momentum: 0.9,
            dampening: 0.0,
        }
        .build();
        let ctx = StepCtx::new(0, 0);
        let x = Tensor::ones([2, 4]);
        let y = m.forward(ctx, &x, Mode::Train);
        m.backward(ctx, &y.scale(0.1));
        let before = m.state();
        let grads = m.grads_snapshot();
        let every: Vec<usize> = (0..m.num_param_groups()).collect();
        m.apply_update_with(opt.as_mut(), &grads, 0, every.len());
        opt.finish_step();
        assert!(m.state().max_abs_diff(&before) > 0.0);
        m.undo_update_with(opt.as_mut(), &grads, &every).unwrap();
        opt.rollback_step();
        assert!(m.state().max_abs_diff(&before) < 1e-5);
    }

    #[test]
    fn partial_update_then_undo_restores_consistency() {
        // Crash mid-update: only the first 2 groups were updated.
        let mut m = tiny_model(2);
        let mut opt = OptimizerKind::Adam {
            lr: 1e-2,
            weight_decay: 0.0,
        }
        .build();
        let ctx = StepCtx::new(0, 0);
        let x = Tensor::ones([2, 4]);
        let y = m.forward(ctx, &x, Mode::Train);
        m.backward(ctx, &y.scale(0.1));
        let before = m.state();
        let grads = m.grads_snapshot();
        m.apply_update_with(opt.as_mut(), &grads, 0, 2);
        // groups 2,3 untouched; undo exactly the updated ones.
        m.undo_update_with(opt.as_mut(), &grads, &[0, 1]).unwrap();
        assert!(m.state().max_abs_diff(&before) < 1e-5);
    }

    #[test]
    fn state_encode_decode_round_trip() {
        let m = tiny_model(3);
        let state = m.state();
        let mut bytes = state.encode();
        let back = ModelState::decode(&mut bytes).unwrap();
        assert!(back.bit_eq(&state));
        assert_eq!(state.byte_size(), m.byte_size());
    }

    #[test]
    fn load_state_transfers_parameters() {
        let src = tiny_model(4);
        let mut dst = tiny_model(5);
        assert!(dst.state().max_abs_diff(&src.state()) > 0.0);
        dst.load_state(&src.state());
        assert!(dst.state().bit_eq(&src.state()));
    }

    #[test]
    #[should_panic(expected = "entry mismatch")]
    fn load_state_detects_structure_mismatch() {
        let src = tiny_model(6);
        let mut state = src.state();
        state.entries.swap(0, 2);
        let mut dst = tiny_model(6);
        dst.load_state(&state);
    }

    #[test]
    fn grads_snapshot_matches_group_count() {
        let mut m = tiny_model(7);
        let ctx = StepCtx::new(0, 0);
        let y = m.forward(ctx, &Tensor::ones([1, 4]), Mode::Train);
        m.backward(ctx, &y);
        let grads = m.grads_snapshot();
        assert_eq!(grads.len(), m.num_param_groups());
        assert!(grads.iter().any(|g| g.sum_sq() > 0.0));
        m.zero_grads();
        assert!(m.grads_snapshot().iter().all(|g| g.sum_sq() == 0.0));
    }
}
