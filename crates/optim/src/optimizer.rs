//! The optimizer abstraction with layer-wise `step` / `undo` (paper §4).
//!
//! Updates are applied *per parameter group* ("layer-wise wait-free
//! update", paper Fig. 4): a group is updated as soon as its gradient is
//! ready. A crash between group updates leaves survivors in an
//! inconsistent state; they repair it by calling [`Optimizer::undo_one`] on
//! exactly the groups that were updated — the paper's *update-undo*.
//!
//! Undo only ever targets the most recent update, and it needs the gradient
//! `g_t` that produced it. Mainstream frameworks already cache the latest
//! gradients (paper §4), so no extra memory is required.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use swift_tensor::{
    decode_from as decode_tensor, encode_into as encode_tensor_into,
    encoded_size as encoded_tensor_size, Tensor,
};

/// Why an update could not be undone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoError {
    /// The optimizer's update rule contains a non-invertible operator
    /// (e.g. AMSGrad's element-wise max).
    NotInvertible(&'static str),
    /// No update has been applied to this parameter group yet.
    NothingToUndo { param: usize },
}

impl std::fmt::Display for UndoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UndoError::NotInvertible(name) => {
                write!(f, "optimizer {name} has a non-invertible update rule")
            }
            UndoError::NothingToUndo { param } => {
                write!(f, "parameter group {param} has no update to undo")
            }
        }
    }
}

impl std::error::Error for UndoError {}

/// A stochastic optimizer with an (optionally) invertible update rule.
///
/// The step protocol is:
/// 1. call [`step_one`](Optimizer::step_one) for each parameter group as
///    its gradient becomes ready (any order);
/// 2. call [`finish_step`](Optimizer::finish_step) once all groups are
///    updated, advancing the iteration counter.
///
/// The undo protocol mirrors it: [`undo_one`](Optimizer::undo_one) for each
/// group that *was* updated, then [`rollback_step`](Optimizer::rollback_step)
/// only if `finish_step` had been reached.
pub trait Optimizer: Send {
    /// Optimizer name as it appears in the paper's Table 1.
    fn name(&self) -> &'static str;

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Sets the learning rate (η_t schedules are driven externally).
    fn set_lr(&mut self, lr: f32);

    /// Number of completed optimization steps.
    fn iteration(&self) -> u64;

    /// Applies the update for one parameter group. `idx` identifies the
    /// group across calls (slot state is keyed by it).
    fn step_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor);

    /// Marks the step complete, advancing the iteration counter.
    fn finish_step(&mut self);

    /// Reverts the most recent `step_one` for a group, restoring both the
    /// parameter and the optimizer slots (momentum etc.).
    fn undo_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) -> Result<(), UndoError>;

    /// Reverts `finish_step` (decrements the iteration counter). Call once
    /// after undoing every group of a completed step.
    fn rollback_step(&mut self);

    /// The scalar part of [`state`](Optimizer::state): name, step counter,
    /// last learning rate and named scalars, with `slots` left empty.
    fn scalar_state(&self) -> OptimState;

    /// Restores what [`scalar_state`](Optimizer::scalar_state) captures,
    /// leaving the slot tensors untouched.
    fn load_scalar_state(&mut self, state: &OptimState);

    /// The slot vectors, borrowed: `(name, one entry per parameter
    /// group)` in the order [`state`](Optimizer::state) lists them. A
    /// present slot is shaped like its parameter group.
    fn slots(&self) -> Vec<(&'static str, &[Option<Tensor>])>;

    /// The same slot vectors, mutably and in the same order.
    fn slots_mut(&mut self) -> Vec<(&'static str, &mut Vec<Option<Tensor>>)>;

    /// Serializable snapshot of all optimizer state (slots + counters).
    fn state(&self) -> OptimState {
        let mut state = self.scalar_state();
        state.slots = self
            .slots()
            .into_iter()
            .map(|(name, slots)| (name.to_string(), slots.to_vec()))
            .collect();
        state
    }

    /// Restores optimizer state from a snapshot. Slot vectors the
    /// snapshot does not name keep their contents.
    fn load_state(&mut self, state: &OptimState) {
        self.load_scalar_state(state);
        for (name, dst) in self.slots_mut() {
            if let Some((_, src)) = state.slots.iter().find(|(n, _)| n == name) {
                *dst = src.clone();
            }
        }
    }

    /// Updates all groups and finishes the step.
    fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len());
        for (i, (p, g)) in params.iter_mut().zip(grads.iter()).enumerate() {
            self.step_one(i, p, g);
        }
        self.finish_step();
    }

    /// Undoes all groups of the most recent (completed) step.
    fn undo(&mut self, params: &mut [Tensor], grads: &[Tensor]) -> Result<(), UndoError> {
        assert_eq!(params.len(), grads.len());
        for (i, (p, g)) in params.iter_mut().zip(grads.iter()).enumerate() {
            self.undo_one(i, p, g)?;
        }
        self.rollback_step();
        Ok(())
    }
}

/// A serializable snapshot of optimizer state: iteration counter, saved
/// scalars (e.g. LAMB trust ratios) and named per-group slot tensors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptimState {
    /// Optimizer name (integrity check on load).
    pub name: String,
    /// Completed steps.
    pub t: u64,
    /// Learning rate used by the most recent step (needed by undo).
    pub last_lr: f32,
    /// Named scalar vectors (one entry per parameter group where used).
    pub scalars: Vec<(String, Vec<f32>)>,
    /// Named slot tensor vectors; `None` where a group has no state yet.
    pub slots: Vec<(String, Vec<Option<Tensor>>)>,
}

impl OptimState {
    /// Encodes the snapshot into a byte buffer (used by checkpoints).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_size());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes the snapshot, appending to any [`BufMut`].
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        put_str(buf, &self.name);
        buf.put_u64_le(self.t);
        buf.put_f32_le(self.last_lr);
        buf.put_u32_le(self.scalars.len() as u32);
        for (name, vals) in &self.scalars {
            put_str(buf, name);
            buf.put_u32_le(vals.len() as u32);
            for &v in vals {
                buf.put_f32_le(v);
            }
        }
        buf.put_u32_le(self.slots.len() as u32);
        for (name, tensors) in &self.slots {
            put_str(buf, name);
            buf.put_u32_le(tensors.len() as u32);
            for t in tensors {
                match t {
                    Some(t) => {
                        buf.put_u8(1);
                        encode_tensor_into(t, buf);
                    }
                    None => buf.put_u8(0),
                }
            }
        }
    }

    /// Exact number of bytes [`encode`](OptimState::encode) will produce —
    /// computed arithmetically, without encoding anything.
    pub fn encoded_size(&self) -> usize {
        let mut n = 4 + self.name.len() + 8 + 4 + 4;
        for (sname, vals) in &self.scalars {
            n += 4 + sname.len() + 4 + 4 * vals.len();
        }
        n += 4;
        for (sname, tensors) in &self.slots {
            n += 4 + sname.len() + 4;
            for t in tensors {
                n += 1 + t.as_ref().map_or(0, encoded_tensor_size);
            }
        }
        n
    }

    /// Decodes a snapshot produced by [`encode`](OptimState::encode) from
    /// the front of any [`Buf`] (a `Bytes` or a plain byte slice).
    pub fn decode(buf: &mut impl Buf) -> Result<Self, String> {
        let name = get_str(buf)?;
        if buf.remaining() < 12 {
            return Err("optim state truncated".into());
        }
        let t = buf.get_u64_le();
        let last_lr = buf.get_f32_le();
        let n_scalars = buf.get_u32_le() as usize;
        let mut scalars = Vec::with_capacity(n_scalars);
        for _ in 0..n_scalars {
            let sname = get_str(buf)?;
            if buf.remaining() < 4 {
                return Err("optim state truncated".into());
            }
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < 4 * n {
                return Err("optim state truncated".into());
            }
            let vals = (0..n).map(|_| buf.get_f32_le()).collect();
            scalars.push((sname, vals));
        }
        if buf.remaining() < 4 {
            return Err("optim state truncated".into());
        }
        let n_slots = buf.get_u32_le() as usize;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let sname = get_str(buf)?;
            if buf.remaining() < 4 {
                return Err("optim state truncated".into());
            }
            let n = buf.get_u32_le() as usize;
            let mut tensors = Vec::with_capacity(n);
            for _ in 0..n {
                if buf.remaining() < 1 {
                    return Err("optim state truncated".into());
                }
                match buf.get_u8() {
                    0 => tensors.push(None),
                    1 => tensors.push(Some(decode_tensor(buf).map_err(|e| e.to_string())?)),
                    b => return Err(format!("bad slot tag {b}")),
                }
            }
            slots.push((sname, tensors));
        }
        Ok(OptimState {
            name,
            t,
            last_lr,
            scalars,
            slots,
        })
    }

    /// Total payload bytes held in slot tensors.
    pub fn byte_size(&self) -> usize {
        self.slots
            .iter()
            .flat_map(|(_, ts)| ts.iter())
            .filter_map(|t| t.as_ref().map(Tensor::byte_size))
            .sum()
    }
}

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut impl Buf) -> Result<String, String> {
    if buf.remaining() < 4 {
        return Err("string header truncated".into());
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return Err("string payload truncated".into());
    }
    let mut raw = vec![0u8; n];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|e| e.to_string())
}

/// Grows a slot vector and returns the slot for `idx`, initializing it to
/// zeros of `like`'s shape on first touch.
pub(crate) fn slot<'a>(
    slots: &'a mut Vec<Option<Tensor>>,
    idx: usize,
    like: &Tensor,
) -> &'a mut Tensor {
    if slots.len() <= idx {
        slots.resize(idx + 1, None);
    }
    slots[idx].get_or_insert_with(|| Tensor::zeros(*like.shape()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optim_state_round_trip() {
        let state = OptimState {
            name: "Adam".into(),
            t: 42,
            last_lr: 1e-3,
            scalars: vec![("ratio".into(), vec![1.0, 0.5])],
            slots: vec![
                ("m".into(), vec![Some(Tensor::ones([3])), None]),
                (
                    "v".into(),
                    vec![Some(Tensor::full([2, 2], 0.25)), Some(Tensor::zeros([1]))],
                ),
            ],
        };
        let mut bytes = state.encode();
        let back = OptimState::decode(&mut bytes).unwrap();
        assert_eq!(back, state);
        assert!(bytes.is_empty());
    }

    #[test]
    fn decode_rejects_truncation() {
        let state = OptimState {
            name: "SGD".into(),
            ..Default::default()
        };
        let full = state.encode();
        let mut cut = full.slice(0..full.len() - 1);
        assert!(OptimState::decode(&mut cut).is_err());
    }

    #[test]
    fn byte_size_counts_slots_only() {
        let state = OptimState {
            name: "x".into(),
            slots: vec![("m".into(), vec![Some(Tensor::zeros([10])), None])],
            ..Default::default()
        };
        assert_eq!(state.byte_size(), 40);
    }

    #[test]
    fn slot_grows_and_zero_initializes() {
        let mut slots: Vec<Option<Tensor>> = Vec::new();
        let like = Tensor::ones([4]);
        {
            let s = slot(&mut slots, 2, &like);
            assert_eq!(s.numel(), 4);
            assert_eq!(s.sum(), 0.0);
            s.data_mut()[0] = 5.0;
        }
        assert_eq!(slots.len(), 3);
        assert!(slots[0].is_none() && slots[1].is_none());
        assert_eq!(slot(&mut slots, 2, &like).data()[0], 5.0);
    }
}
