//! Crash-consistency repair: update-undo coordination (paper §4, §6).
//!
//! With layer-wise wait-free updates, a crash mid-update strands survivors
//! with a partially-applied optimizer step. [`UpdateTracker`] records which
//! parameter groups of the current step have been applied — the "marked
//! updated" set — so the survivor can undo exactly those. (In pipeline
//! parallelism, stages update at different times; survivors agree on the
//! *consensus pre-failure iteration* through the KV store, and workers
//! ahead of it undo their whole last step: `pipeline_on_failure_survivor`.)
//!
//! Every undo runs through one function, [`undo_step`], with the gradients
//! the step applied: the partial step [`repair_partial_update`] reverts
//! (data parallelism's and FSDP's repair), and the pipeline's finished
//! step past the consensus.

use swift_dnn::Sequential;
use swift_optim::{Optimizer, UndoError};
use swift_tensor::Tensor;

/// Tracks the progress of one layer-wise optimizer step. Reset it when the
/// step finishes, so marks always describe a step that never reached
/// `finish_step`.
#[derive(Debug, Clone, Default)]
pub struct UpdateTracker {
    updated: Vec<usize>,
}

impl UpdateTracker {
    /// Fresh tracker (no groups updated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `group` as updated (call right after the group's kernels
    /// complete — the paper marks after the CUDA events fire).
    pub fn mark(&mut self, group: usize) {
        self.updated.push(group);
    }

    /// Groups updated so far in this step.
    pub fn updated(&self) -> &[usize] {
        &self.updated
    }

    /// Resets for the next step.
    pub fn reset(&mut self) {
        self.updated.clear();
    }
}

/// Undoes `groups` of the most recent optimizer step with `grads`, the
/// gradients that step applied (§4), and puts the optimizer's step
/// counter back where it was before the step. `finished` says whether the
/// step reached `finish_step`; a step that did not still read the counter
/// of the step in progress (Adam, AdamW and LAMB bias-correct with it), so
/// the counter advances for the undo and rolls back with it.
pub(crate) fn undo_step(
    model: &mut Sequential,
    opt: &mut dyn Optimizer,
    grads: &[Tensor],
    groups: &[usize],
    finished: bool,
) -> Result<(), UndoError> {
    if !finished {
        opt.finish_step();
    }
    model.undo_update_with(opt, grads, groups)?;
    opt.rollback_step();
    swift_obs::add(swift_obs::Counter::UndoneUpdates, groups.len() as u64);
    Ok(())
}

/// Undoes exactly the tracked partial update on a survivor, with the
/// gradients it applied, restoring the pre-step state (§4). No-op when
/// nothing was applied.
pub fn repair_partial_update(
    model: &mut Sequential,
    opt: &mut dyn Optimizer,
    grads: &[Tensor],
    tracker: &mut UpdateTracker,
) -> Result<(), UndoError> {
    if !tracker.updated.is_empty() {
        undo_step(model, opt, grads, &tracker.updated, false)?;
    }
    tracker.reset();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_dnn::models::mlp;
    use swift_dnn::{Mode, StepCtx};
    use swift_optim::OptimizerKind;

    /// Fresh gradients of `m` at iteration `it`, globally ordered.
    fn backprop(m: &mut Sequential, it: u64) -> Vec<Tensor> {
        let ctx = StepCtx::new(it, 0);
        m.zero_grads();
        let x = Tensor::full([2, 4], 1.0 + it as f32);
        let y = m.forward(ctx, &x, Mode::Train);
        m.backward(ctx, &y.scale(0.1));
        m.grads_snapshot()
    }

    /// Parameters and every optimizer slot, for comparing against the
    /// pre-step state. LAMB's saved trust ratio is left out: it is the
    /// ratio of the latest update, which the undo reads and leaves in
    /// place, and the next update overwrites it before reading it.
    fn snapshot(m: &Sequential, opt: &dyn Optimizer) -> Vec<Option<Tensor>> {
        let mut all: Vec<Option<Tensor>> = m.params().cloned().map(Some).collect();
        for (_, slots) in opt.slots() {
            all.extend(slots.iter().cloned());
        }
        all
    }

    fn max_diff(a: &[Option<Tensor>], b: &[Option<Tensor>]) -> f32 {
        assert_eq!(a.len(), b.len(), "slot layout changed");
        a.iter()
            .zip(b)
            .map(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => a.max_abs_diff(b),
                (None, None) => 0.0,
                _ => f32::INFINITY,
            })
            .fold(0.0, f32::max)
    }

    #[test]
    fn undo_restores_the_pre_step_state_for_every_optimizer() {
        // Each row warms up with one finished step, so the step undone is
        // the second: Adam, AdamW and LAMB bias-correct it with counter 2,
        // which a partial step never advanced to. A partial step (2 of 4
        // groups, no `finish_step`) is what a data-parallel survivor holds
        // after a peer dies mid-drain; a finished step is what the
        // pipeline's consensus undo reverts.
        let kinds = [
            OptimizerKind::SgdMomentum {
                lr: 0.1,
                weight_decay: 0.01,
                momentum: 0.9,
                dampening: 0.0,
            },
            OptimizerKind::Adam {
                lr: 1e-2,
                weight_decay: 0.01,
            },
            OptimizerKind::AdamW {
                lr: 1e-2,
                weight_decay: 0.05,
            },
            OptimizerKind::Lamb {
                lr: 1e-2,
                weight_decay: 0.01,
            },
        ];
        let mut failures = Vec::new();
        for kind in kinds {
            for finished in [false, true] {
                let mut m = mlp("m", &[4, 8, 2], 4);
                let mut opt = kind.build();
                let warmup = backprop(&mut m, 0);
                m.apply_update_with(opt.as_mut(), &warmup, 0, 4);
                opt.finish_step();
                let before = snapshot(&m, opt.as_ref());
                let grads = backprop(&mut m, 1);
                let row = format!(
                    "{} {}",
                    opt.name(),
                    if finished { "finished" } else { "partial" }
                );
                if finished {
                    m.apply_update_with(opt.as_mut(), &grads, 0, 4);
                    opt.finish_step();
                    undo_step(&mut m, opt.as_mut(), &grads, &[0, 1, 2, 3], true).unwrap();
                } else {
                    let mut tracker = UpdateTracker::new();
                    m.apply_update_with(opt.as_mut(), &grads, 0, 2);
                    tracker.mark(0);
                    tracker.mark(1);
                    repair_partial_update(&mut m, opt.as_mut(), &grads, &mut tracker).unwrap();
                    assert!(tracker.updated().is_empty(), "{row}: tracker not reset");
                }
                let diff = max_diff(&snapshot(&m, opt.as_ref()), &before);
                if diff >= 1e-5 {
                    failures.push(format!("{row}: state off by {diff:e}"));
                }
                if opt.iteration() != 1 {
                    failures.push(format!("{row}: counter at {}", opt.iteration()));
                }
            }
        }
        assert!(failures.is_empty(), "undo failed: {failures:#?}");
    }

    #[test]
    fn tracker_lifecycle() {
        let mut t = UpdateTracker::new();
        assert!(t.updated().is_empty());
        t.mark(0);
        t.mark(1);
        assert_eq!(t.updated(), &[0, 1]);
        t.reset();
        assert!(t.updated().is_empty());
    }

    #[test]
    fn repair_with_nothing_updated_is_noop() {
        let mut m = mlp("m", &[4, 8, 2], 3);
        let mut opt = OptimizerKind::SgdMomentum {
            lr: 0.1,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        }
        .build();
        let grads = backprop(&mut m, 0);
        let before = m.state();
        let mut tracker = UpdateTracker::new();
        repair_partial_update(&mut m, opt.as_mut(), &grads, &mut tracker).unwrap();
        assert!(m.state().bit_eq(&before));
        assert_eq!(opt.iteration(), 0);
    }
}
