//! The layer abstraction: stateful forward/backward with per-micro-batch
//! activation caches.
//!
//! Pipeline parallelism (1F1B) keeps several micro-batches in flight per
//! stage, so a layer caches its forward activations *per micro-batch tag*
//! and `backward` consumes the matching cache. Gradients accumulate across
//! micro-batches until [`Layer::zero_grads`].

use std::collections::HashMap;

use swift_tensor::Tensor;

/// Identifies one forward/backward execution: which training iteration and
/// which micro-batch within it. Doubles as the RNG stream key for
/// deterministic dropout (paper §6) and as the activation-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepCtx {
    /// Training iteration (0-based).
    pub iteration: u64,
    /// Micro-batch index within the iteration.
    pub microbatch: u64,
}

impl StepCtx {
    /// Context for iteration `iteration`, micro-batch `microbatch`.
    pub fn new(iteration: u64, microbatch: u64) -> Self {
        StepCtx {
            iteration,
            microbatch,
        }
    }

    /// Collapses to a single stream id for RNG keying.
    pub fn stream(&self, layer: u64, op: u64) -> u64 {
        swift_tensor::stream_id(self.iteration, self.microbatch, layer, op)
    }
}

/// Execution mode: training (dropout active, caches kept for backward) or
/// evaluation (pure inference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: caches activations, applies dropout.
    Train,
    /// Evaluation: no caching, no dropout.
    Eval,
}

/// A differentiable layer with hand-written backward.
pub trait Layer: Send {
    /// Human-readable layer name (used in state serialization).
    fn name(&self) -> String;

    /// Forward pass. In [`Mode::Train`] the layer caches whatever it needs
    /// to run `backward` for the same `ctx` later.
    fn forward(&mut self, ctx: StepCtx, input: &Tensor, mode: Mode) -> Tensor;

    /// Backward pass for micro-batch `ctx`: consumes the cached
    /// activations, accumulates parameter gradients, and returns the
    /// gradient with respect to the layer input.
    fn backward(&mut self, ctx: StepCtx, grad_out: &Tensor) -> Tensor;

    /// The layer's parameters (possibly none). Layers store parameters
    /// contiguously so this is a borrow, not a per-call allocation.
    fn params(&self) -> &[Tensor];

    /// Mutable parameter access, aligned with [`Layer::params`].
    fn params_mut(&mut self) -> &mut [Tensor];

    /// Accumulated parameter gradients, aligned with [`Layer::params`].
    fn grads(&self) -> &[Tensor];

    /// Mutable gradient access, aligned with [`Layer::params`].
    fn grads_mut(&mut self) -> &mut [Tensor];

    /// Split borrow of mutable parameters alongside shared gradients —
    /// the optimizer-step path ([`Sequential::apply_update`]) reads each
    /// gradient while updating the matching parameter, and this accessor
    /// lets it do so without cloning the gradients first.
    ///
    /// [`Sequential::apply_update`]: crate::sequential::Sequential::apply_update
    fn params_and_grads_mut(&mut self) -> (&mut [Tensor], &[Tensor]);

    /// Clears accumulated gradients to +0.0 — overwritten, not scaled, so
    /// a NaN or ±∞ left by an aborted backward is cleared too.
    fn zero_grads(&mut self) {
        for g in self.grads_mut() {
            g.data_mut().fill(0.0);
        }
    }

    /// Drops all cached activations (e.g. after a failure aborts in-flight
    /// micro-batches).
    fn clear_cache(&mut self);

    /// Total parameter element count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }
}

/// A per-micro-batch activation cache used by layer implementations.
#[derive(Debug, Clone, Default)]
pub struct ActivationCache {
    entries: HashMap<StepCtx, Tensor>,
}

impl ActivationCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores the activation for `ctx`, replacing any previous entry.
    pub fn put(&mut self, ctx: StepCtx, t: Tensor) {
        self.entries.insert(ctx, t);
    }

    /// Removes and returns the activation for `ctx`.
    ///
    /// # Panics
    /// Panics when no activation was cached for `ctx` — calling `backward`
    /// without the matching `forward` is a schedule bug.
    pub fn take(&mut self, ctx: StepCtx) -> Tensor {
        self.entries
            .remove(&ctx)
            .unwrap_or_else(|| panic!("no cached activation for {ctx:?}"))
    }

    /// Peeks at the activation for `ctx` without removing it.
    pub fn get(&self, ctx: StepCtx) -> Option<&Tensor> {
        self.entries.get(&ctx)
    }

    /// Number of in-flight cached activations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_round_trip() {
        let mut c = ActivationCache::new();
        let ctx = StepCtx::new(3, 1);
        c.put(ctx, Tensor::ones([2]));
        assert_eq!(c.len(), 1);
        assert!(c.get(ctx).is_some());
        let t = c.take(ctx);
        assert_eq!(t.sum(), 2.0);
        assert!(c.is_empty());
    }

    #[test]
    fn cache_distinguishes_microbatches() {
        let mut c = ActivationCache::new();
        c.put(StepCtx::new(0, 0), Tensor::full([1], 1.0));
        c.put(StepCtx::new(0, 1), Tensor::full([1], 2.0));
        assert_eq!(c.take(StepCtx::new(0, 1)).item(), 2.0);
        assert_eq!(c.take(StepCtx::new(0, 0)).item(), 1.0);
    }

    #[test]
    #[should_panic(expected = "no cached activation")]
    fn take_missing_panics() {
        ActivationCache::new().take(StepCtx::new(0, 0));
    }

    #[test]
    fn stream_ids_differ_per_microbatch() {
        let a = StepCtx::new(5, 0).stream(2, 0);
        let b = StepCtx::new(5, 1).stream(2, 0);
        assert_ne!(a, b);
    }
}
