//! Crash-consistency repair: update-undo coordination (paper §4, §6).
//!
//! With layer-wise wait-free updates, a crash mid-update strands survivors
//! with a partially-applied optimizer step. [`UpdateTracker`] records which
//! parameter groups of the current step have been applied — the "marked
//! updated" set — so the survivor can undo exactly those. (In pipeline
//! parallelism, stages update at different times; survivors agree on the
//! *consensus pre-failure iteration* through the KV store, and workers
//! ahead of it undo their whole last step: `pipeline_on_failure_survivor`.)

use swift_dnn::Sequential;
use swift_optim::{Optimizer, UndoError};

/// Tracks the progress of one layer-wise optimizer step.
#[derive(Debug, Clone, Default)]
pub struct UpdateTracker {
    updated: Vec<usize>,
    step_finished: bool,
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

    /// Marks the whole step finished (`finish_step` was called).
    pub fn finish(&mut self) {
        self.step_finished = true;
    }

    /// Groups updated so far in this step.
    pub fn updated(&self) -> &[usize] {
        &self.updated
    }

    /// Whether the step completed.
    pub fn finished(&self) -> bool {
        self.step_finished
    }

    /// Resets for the next step.
    pub fn reset(&mut self) {
        self.updated.clear();
        self.step_finished = false;
    }

    /// Whether the state is mid-update (some but maybe not all groups
    /// applied, step not finished).
    pub fn is_partial(&self) -> bool {
        !self.updated.is_empty() && !self.step_finished
    }
}

/// Undoes exactly the tracked partial update on a survivor, restoring the
/// pre-step state (§4). No-op when nothing was applied. Leaves the
/// optimizer's step counter where it was before the step.
pub fn repair_partial_update(
    model: &mut Sequential,
    opt: &mut dyn Optimizer,
    tracker: &mut UpdateTracker,
) -> Result<(), UndoError> {
    if !tracker.updated.is_empty() {
        // The undo reads the counter of the step it reverts, which only
        // `finish_step` advances.
        if !tracker.step_finished {
            opt.finish_step();
        }
        model.undo_update(opt, &tracker.updated)?;
        opt.rollback_step();
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
    use swift_tensor::Tensor;

    fn trained_model(seed: u64) -> (Sequential, Box<dyn Optimizer>) {
        let mut m = mlp("m", &[4, 8, 2], seed);
        let opt = OptimizerKind::SgdMomentum {
            lr: 0.1,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        }
        .build();
        let ctx = StepCtx::new(0, 0);
        let y = m.forward(ctx, &Tensor::ones([2, 4]), Mode::Train);
        m.backward(ctx, &y.scale(0.1));
        (m, opt)
    }

    #[test]
    fn tracker_lifecycle() {
        let mut t = UpdateTracker::new();
        assert!(!t.is_partial());
        t.mark(0);
        t.mark(1);
        assert!(t.is_partial());
        assert_eq!(t.updated(), &[0, 1]);
        t.finish();
        assert!(!t.is_partial());
        t.reset();
        assert!(t.updated().is_empty() && !t.finished());
    }

    #[test]
    fn repair_restores_pre_step_state() {
        let (mut m, mut opt) = trained_model(1);
        let before = m.state();
        let mut tracker = UpdateTracker::new();
        // Partial update: groups 0 and 1 of 4, then "crash".
        for g in m.apply_update(opt.as_mut(), 0, 2) {
            tracker.mark(g);
        }
        assert!(m.state().max_abs_diff(&before) > 0.0);
        repair_partial_update(&mut m, opt.as_mut(), &mut tracker).unwrap();
        assert!(m.state().max_abs_diff(&before) < 1e-5);
        assert_eq!(opt.iteration(), 0);
        assert!(tracker.updated().is_empty());
    }

    #[test]
    fn repair_after_finished_step_rolls_back_counter() {
        let (mut m, mut opt) = trained_model(2);
        let before = m.state();
        let mut tracker = UpdateTracker::new();
        let n = m.num_param_groups();
        for g in m.apply_update(opt.as_mut(), 0, n) {
            tracker.mark(g);
        }
        opt.finish_step();
        tracker.finish();
        assert_eq!(opt.iteration(), 1);
        repair_partial_update(&mut m, opt.as_mut(), &mut tracker).unwrap();
        assert_eq!(opt.iteration(), 0);
        assert!(m.state().max_abs_diff(&before) < 1e-5);
    }

    #[test]
    fn repair_of_a_partial_adam_step_bias_corrects_for_that_step() {
        // Adam bias-corrects with the counter of the step in progress,
        // which a partial step never advanced; the undo must use it too.
        let (mut m, _) = trained_model(4);
        let mut opt = OptimizerKind::Adam {
            lr: 1e-2,
            weight_decay: 0.0,
        }
        .build();
        m.optimizer_step(opt.as_mut());
        let before = m.state();
        let mut tracker = UpdateTracker::new();
        for g in m.apply_update(opt.as_mut(), 0, 2) {
            tracker.mark(g);
        }
        repair_partial_update(&mut m, opt.as_mut(), &mut tracker).unwrap();
        let diff = m.state().max_abs_diff(&before);
        assert!(diff < 1e-6, "partial Adam step not undone: {diff}");
        assert_eq!(opt.iteration(), 1);
    }

    #[test]
    fn repair_with_nothing_updated_is_noop() {
        let (mut m, mut opt) = trained_model(3);
        let before = m.state();
        let mut tracker = UpdateTracker::new();
        repair_partial_update(&mut m, opt.as_mut(), &mut tracker).unwrap();
        assert!(m.state().bit_eq(&before));
    }
}
