//! Adam, AdamW and AMSGrad with update-undo where mathematically possible
//! (paper Algorithms 5–8 and Table 1).
//!
//! Adam and AdamW use only invertible element-wise operators, so the most
//! recent update can be undone from the cached gradient and the current
//! first/second moments. AMSGrad's running `max` destroys information and
//! cannot be undone (Table 1) — its [`undo_one`](crate::Optimizer::undo_one)
//! returns [`UndoError::NotInvertible`].
//!
//! Rounding note: recovering `v_{t−1} = (v_t − (1−β₂) g²) / β₂` can produce
//! tiny negative values from floating-point cancellation even though the
//! true value is non-negative; we clamp at zero so the subsequent
//! `sqrt` never sees a negative input.

use swift_tensor::Tensor;

use crate::ops::fused;
use crate::optimizer::{slot, OptimState, Optimizer, UndoError};

/// Shared Adam-family hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamParams {
    /// Learning rate η.
    pub lr: f32,
    /// Decoupled (AdamW) or coupled (Adam) weight decay λ.
    pub weight_decay: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability term ε.
    pub eps: f32,
}

impl Default for AdamParams {
    fn default() -> Self {
        AdamParams {
            lr: 1e-3,
            weight_decay: 0.0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl AdamParams {
    fn validate(&self) {
        assert!(self.lr > 0.0);
        assert!((0.0..1.0).contains(&self.beta1));
        assert!((0.0..1.0).contains(&self.beta2));
        assert!(
            self.beta1 > 0.0 && self.beta2 > 0.0,
            "zero betas make moments unrecoverable"
        );
        assert!(self.eps > 0.0);
        assert!(self.weight_decay >= 0.0);
    }
}

// The bias-corrected direction element is `m̂ / (√v̂ + ε)` with the inverse
// corrections precomputed — `(m·(1/bc₁)) / (√(v·(1/bc₂)) + ε)` — realized
// by the `adam_dir_*` kernels in [`fused`], which all share that one
// rounding sequence.
fn inv_bias_corrections(t: u64, p: &AdamParams) -> (f32, f32) {
    (
        1.0 / (1.0 - p.beta1.powi(t as i32)),
        1.0 / (1.0 - p.beta2.powi(t as i32)),
    )
}

/// Fused `x ← x + α · m̂/(√v̂ + ε)` (bias correction at step `t`) — one pass
/// over the parameter, no direction temporary.
pub(crate) fn apply_direction(
    param: &mut Tensor,
    m: &Tensor,
    v: &Tensor,
    t: u64,
    alpha: f32,
    p: &AdamParams,
) {
    let (inv_bc1, inv_bc2) = inv_bias_corrections(t, p);
    fused::adam_dir_axpy(param, m, v, alpha, inv_bc1, inv_bc2, p.eps);
}

/// Advances moments in place: `m ← β₁m + (1−β₁)g'`, `v ← β₂v + (1−β₂)g'²`,
/// with `g' = g + λx` when `decay_x` carries the parameter (coupled decay)
/// and `g' = g` otherwise. Fused: no `g'` or `g'²` temporaries. The
/// per-element rounding sequence is exactly the unfused
/// scale/axpy chain, so results are bit-identical to the reference form.
pub(crate) fn advance_moments(
    m: &mut Tensor,
    v: &mut Tensor,
    g: &Tensor,
    decay_x: Option<(&Tensor, f32)>,
    p: &AdamParams,
) {
    let (b1, mix1) = (p.beta1, 1.0 - p.beta1);
    let (b2, mix2) = (p.beta2, 1.0 - p.beta2);
    match decay_x {
        None => {
            fused::axpby(m, g, b1, mix1);
            fused::sq_axpby(v, g, b2, mix2);
        }
        Some((x, wd)) => {
            fused::eff_axpby(m, g, x, b1, mix1, wd);
            fused::eff_sq_axpby(v, g, x, b2, mix2, wd);
        }
    }
}

/// Reverts moments in place (inverse of [`advance_moments`]), clamping the
/// second moment at zero against rounding-induced negatives.
pub(crate) fn revert_moments(
    m: &mut Tensor,
    v: &mut Tensor,
    g: &Tensor,
    decay_x: Option<(&Tensor, f32)>,
    p: &AdamParams,
) {
    let (inv_b1, mix1) = (1.0 / p.beta1, 1.0 - p.beta1);
    let (inv_b2, mix2) = (1.0 / p.beta2, 1.0 - p.beta2);
    match decay_x {
        None => {
            fused::add_scale(m, g, -mix1, inv_b1);
            fused::sq_add_scale_clamp0(v, g, -mix2, inv_b2);
        }
        Some((x, wd)) => {
            fused::eff_add_scale(m, g, x, -mix1, inv_b1, wd);
            fused::eff_sq_add_scale_clamp0(v, g, x, -mix2, inv_b2, wd);
        }
    }
}

/// Adam with coupled weight decay (paper Algorithm 5; undo is Algorithm 6).
///
/// Per step: `g' = g + λx`, moments advance on `g'`, and
/// `x_{t+1} = x_t − η · m̂/(√v̂ + ε)`.
#[derive(Debug, Clone)]
pub struct Adam {
    params: AdamParams,
    t: u64,
    last_lr: f32,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates an Adam optimizer.
    pub fn new(params: AdamParams) -> Self {
        params.validate();
        Adam {
            params,
            t: 0,
            last_lr: params.lr,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// First-moment buffer for a group, if initialized.
    pub fn moment1(&self, idx: usize) -> Option<&Tensor> {
        self.m.get(idx).and_then(|t| t.as_ref())
    }

    /// Second-moment buffer for a group, if initialized.
    pub fn moment2(&self, idx: usize) -> Option<&Tensor> {
        self.v.get(idx).and_then(|t| t.as_ref())
    }
}

impl Optimizer for Adam {
    fn name(&self) -> &'static str {
        "Adam"
    }

    fn lr(&self) -> f32 {
        self.params.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.params.lr = lr;
    }

    fn iteration(&self) -> u64 {
        self.t
    }

    fn step_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) {
        self.last_lr = self.params.lr;
        let p = self.params;
        let step_t = self.t + 1;
        let m = slot(&mut self.m, idx, param);
        let v = slot(&mut self.v, idx, param);
        // g' = g + λ x_t (coupled decay), fused into the moment advance.
        let decay_x = (p.weight_decay != 0.0).then_some((&*param, p.weight_decay));
        advance_moments(m, v, grad, decay_x, &p);
        apply_direction(param, m, v, step_t, -p.lr, &p);
    }

    fn finish_step(&mut self) {
        self.t += 1;
    }

    fn undo_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) -> Result<(), UndoError> {
        if self.m.get(idx).map(|m| m.is_none()).unwrap_or(true) {
            return Err(UndoError::NothingToUndo { param: idx });
        }
        let p = self.params;
        let eta = self.last_lr;
        let step_t = self.t.max(1); // t of the update being undone
        {
            let m = self.m[idx].as_ref().unwrap();
            let v = self.v[idx].as_ref().unwrap();
            // x_t = x_{t+1} + η · m̂/(√v̂ + ε)  (Algorithm 6, line 4)
            apply_direction(param, m, v, step_t, eta, &p);
        }
        // g' = g + λ x_t with the recovered x_t (Algorithm 6, line 5),
        // fused into the moment reversal.
        let m = self.m[idx].as_mut().unwrap();
        let v = self.v[idx].as_mut().unwrap();
        let decay_x = (p.weight_decay != 0.0).then_some((&*param, p.weight_decay));
        revert_moments(m, v, grad, decay_x, &p);
        Ok(())
    }

    fn rollback_step(&mut self) {
        self.t = self.t.saturating_sub(1);
    }

    fn scalar_state(&self) -> OptimState {
        adam_scalar_state(self.name(), self.t, self.last_lr, &self.params)
    }

    fn load_scalar_state(&mut self, state: &OptimState) {
        assert_eq!(state.name, self.name(), "optimizer kind mismatch");
        self.t = state.t;
        self.last_lr = state.last_lr;
        load_adam_scalars(&mut self.params, state);
    }

    fn slots(&self) -> Vec<(&'static str, &[Option<Tensor>])> {
        vec![("m", &self.m), ("v", &self.v)]
    }

    fn slots_mut(&mut self) -> Vec<(&'static str, &mut Vec<Option<Tensor>>)> {
        vec![("m", &mut self.m), ("v", &mut self.v)]
    }
}

/// AdamW with decoupled weight decay (paper Algorithm 7; undo is
/// Algorithm 8).
///
/// Moments advance on the raw gradient; the update is
/// `x_{t+1} = (1 − ηλ) x_t − η · m̂/(√v̂ + ε)`.
#[derive(Debug, Clone)]
pub struct AdamW {
    params: AdamParams,
    t: u64,
    last_lr: f32,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl AdamW {
    /// Creates an AdamW optimizer.
    pub fn new(params: AdamParams) -> Self {
        params.validate();
        assert!(
            params.lr * params.weight_decay < 1.0,
            "η·λ ≥ 1 makes the decoupled decay non-invertible"
        );
        AdamW {
            params,
            t: 0,
            last_lr: params.lr,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for AdamW {
    fn name(&self) -> &'static str {
        "AdamW"
    }

    fn lr(&self) -> f32 {
        self.params.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.params.lr = lr;
    }

    fn iteration(&self) -> u64 {
        self.t
    }

    fn step_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) {
        self.last_lr = self.params.lr;
        let p = self.params;
        let step_t = self.t + 1;
        let m = slot(&mut self.m, idx, param);
        let v = slot(&mut self.v, idx, param);
        advance_moments(m, v, grad, None, &p);
        // x ← (1 − ηλ) x − η·dir, fused into one pass.
        let (inv_bc1, inv_bc2) = inv_bias_corrections(step_t, &p);
        let decay = 1.0 - p.lr * p.weight_decay;
        fused::adam_dir_axpby(param, m, v, decay, -p.lr, inv_bc1, inv_bc2, p.eps);
    }

    fn finish_step(&mut self) {
        self.t += 1;
    }

    fn undo_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) -> Result<(), UndoError> {
        if self.m.get(idx).map(|m| m.is_none()).unwrap_or(true) {
            return Err(UndoError::NothingToUndo { param: idx });
        }
        let p = self.params;
        let eta = self.last_lr;
        let step_t = self.t.max(1);
        {
            let m = self.m[idx].as_ref().unwrap();
            let v = self.v[idx].as_ref().unwrap();
            // x_t = (x_{t+1} + η·dir) / (1 − ηλ)   (Algorithm 8, line 4)
            let (inv_bc1, inv_bc2) = inv_bias_corrections(step_t, &p);
            let inv_decay = 1.0 / (1.0 - eta * p.weight_decay);
            fused::adam_dir_add_scale(param, m, v, eta, inv_decay, inv_bc1, inv_bc2, p.eps);
        }
        let m = self.m[idx].as_mut().unwrap();
        let v = self.v[idx].as_mut().unwrap();
        revert_moments(m, v, grad, None, &p);
        Ok(())
    }

    fn rollback_step(&mut self) {
        self.t = self.t.saturating_sub(1);
    }

    fn scalar_state(&self) -> OptimState {
        adam_scalar_state(self.name(), self.t, self.last_lr, &self.params)
    }

    fn load_scalar_state(&mut self, state: &OptimState) {
        assert_eq!(state.name, self.name(), "optimizer kind mismatch");
        self.t = state.t;
        self.last_lr = state.last_lr;
        load_adam_scalars(&mut self.params, state);
    }

    fn slots(&self) -> Vec<(&'static str, &[Option<Tensor>])> {
        vec![("m", &self.m), ("v", &self.v)]
    }

    fn slots_mut(&mut self) -> Vec<(&'static str, &mut Vec<Option<Tensor>>)> {
        vec![("m", &mut self.m), ("v", &mut self.v)]
    }
}

/// AMSGrad (paper Table 1, rightmost column): Adam with a running maximum
/// of the bias-corrected second moment. The `max` operator is not
/// invertible, so update-undo is unsupported; SWIFT falls back to
/// checkpoint/snapshot-based consistency for this optimizer.
#[derive(Debug, Clone)]
pub struct AmsGrad {
    params: AdamParams,
    t: u64,
    last_lr: f32,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
    v_max: Vec<Option<Tensor>>,
}

impl AmsGrad {
    /// Creates an AMSGrad optimizer.
    pub fn new(params: AdamParams) -> Self {
        params.validate();
        AmsGrad {
            params,
            t: 0,
            last_lr: params.lr,
            m: Vec::new(),
            v: Vec::new(),
            v_max: Vec::new(),
        }
    }
}

impl Optimizer for AmsGrad {
    fn name(&self) -> &'static str {
        "AMSGrad"
    }

    fn lr(&self) -> f32 {
        self.params.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.params.lr = lr;
    }

    fn iteration(&self) -> u64 {
        self.t
    }

    fn step_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) {
        self.last_lr = self.params.lr;
        let p = self.params;
        let step_t = self.t + 1;
        let (inv_bc1, inv_bc2) = inv_bias_corrections(step_t, &p);
        let m = slot(&mut self.m, idx, param);
        let v = slot(&mut self.v, idx, param);
        let decay_x = (p.weight_decay != 0.0).then_some((&*param, p.weight_decay));
        advance_moments(m, v, grad, decay_x, &p);
        // v_max ← max(v_max, v̂): the max absorbs the bias correction at
        // write time, so the direction divides by √v_max directly
        // (c2 = 1 in the kernel; ×1.0 is bitwise exact).
        let v_max = slot(&mut self.v_max, idx, param);
        fused::scale_max(v_max, v, inv_bc2);
        fused::adam_dir_axpy(param, m, v_max, -p.lr, inv_bc1, 1.0, p.eps);
    }

    fn finish_step(&mut self) {
        self.t += 1;
    }

    fn undo_one(
        &mut self,
        _idx: usize,
        _param: &mut Tensor,
        _grad: &Tensor,
    ) -> Result<(), UndoError> {
        Err(UndoError::NotInvertible("AMSGrad"))
    }

    fn rollback_step(&mut self) {
        self.t = self.t.saturating_sub(1);
    }

    fn scalar_state(&self) -> OptimState {
        adam_scalar_state(self.name(), self.t, self.last_lr, &self.params)
    }

    fn load_scalar_state(&mut self, state: &OptimState) {
        assert_eq!(state.name, self.name(), "optimizer kind mismatch");
        self.t = state.t;
        self.last_lr = state.last_lr;
        load_adam_scalars(&mut self.params, state);
    }

    fn slots(&self) -> Vec<(&'static str, &[Option<Tensor>])> {
        vec![("m", &self.m), ("v", &self.v), ("v_max", &self.v_max)]
    }

    fn slots_mut(&mut self) -> Vec<(&'static str, &mut Vec<Option<Tensor>>)> {
        vec![
            ("m", &mut self.m),
            ("v", &mut self.v),
            ("v_max", &mut self.v_max),
        ]
    }
}

fn adam_scalar_state(name: &str, t: u64, last_lr: f32, p: &AdamParams) -> OptimState {
    OptimState {
        name: name.into(),
        t,
        last_lr,
        scalars: vec![
            ("lr".into(), vec![p.lr]),
            ("wd".into(), vec![p.weight_decay]),
            ("beta1".into(), vec![p.beta1]),
            ("beta2".into(), vec![p.beta2]),
            ("eps".into(), vec![p.eps]),
        ],
        slots: Vec::new(),
    }
}

fn load_adam_scalars(p: &mut AdamParams, state: &OptimState) {
    for (name, vals) in &state.scalars {
        match name.as_str() {
            "lr" => p.lr = vals[0],
            "wd" => p.weight_decay = vals[0],
            "beta1" => p.beta1 = vals[0],
            "beta2" => p.beta2 = vals[0],
            "eps" => p.eps = vals[0],
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_tensor::CounterRng;

    fn rand_pair(n: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = CounterRng::new(seed, 0);
        (
            Tensor::randn([n], 0.0, 1.0, &mut rng),
            Tensor::randn([n], 0.0, 0.1, &mut rng),
        )
    }

    /// Runs k steps, undoes the last, and checks params + moments match the
    /// state after k−1 steps.
    fn check_undo<O: Optimizer>(mut opt: O, k: usize, tol: f32) {
        let (p0, _) = rand_pair(64, 10);
        let grads: Vec<Tensor> = (0..k).map(|i| rand_pair(64, 20 + i as u64).1).collect();
        let mut p = p0.clone();
        for g in grads.iter().take(k - 1) {
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(g));
        }
        let p_ref = p.clone();
        let state_ref = opt.state();
        opt.step(
            std::slice::from_mut(&mut p),
            std::slice::from_ref(&grads[k - 1]),
        );
        opt.undo(
            std::slice::from_mut(&mut p),
            std::slice::from_ref(&grads[k - 1]),
        )
        .unwrap();
        assert!(
            p.max_abs_diff(&p_ref) < tol,
            "param undo error {}",
            p.max_abs_diff(&p_ref)
        );
        let state_now = opt.state();
        assert_eq!(state_now.t, state_ref.t);
        for ((name_a, slots_a), (_, slots_b)) in state_now.slots.iter().zip(state_ref.slots.iter())
        {
            for (a, b) in slots_a.iter().zip(slots_b.iter()) {
                if let (Some(a), Some(b)) = (a, b) {
                    assert!(a.max_abs_diff(b) < tol, "slot {name_a} undo error");
                }
            }
        }
    }

    #[test]
    fn adam_undo_after_first_step() {
        check_undo(
            Adam::new(AdamParams {
                lr: 1e-2,
                ..Default::default()
            }),
            1,
            1e-4,
        );
    }

    #[test]
    fn adam_undo_after_many_steps() {
        check_undo(
            Adam::new(AdamParams {
                lr: 1e-2,
                ..Default::default()
            }),
            7,
            1e-4,
        );
    }

    #[test]
    fn adam_undo_with_weight_decay() {
        check_undo(
            Adam::new(AdamParams {
                lr: 1e-2,
                weight_decay: 0.01,
                ..Default::default()
            }),
            4,
            1e-4,
        );
    }

    #[test]
    fn adamw_undo_after_many_steps() {
        check_undo(
            AdamW::new(AdamParams {
                lr: 1e-2,
                weight_decay: 0.05,
                ..Default::default()
            }),
            5,
            1e-4,
        );
    }

    #[test]
    fn amsgrad_undo_rejected() {
        let mut opt = AmsGrad::new(AdamParams::default());
        let (mut p, g) = rand_pair(8, 1);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        assert_eq!(
            opt.undo_one(0, &mut p, &g),
            Err(UndoError::NotInvertible("AMSGrad"))
        );
    }

    #[test]
    fn amsgrad_vmax_monotone() {
        let mut opt = AmsGrad::new(AdamParams::default());
        let (mut p, _) = rand_pair(8, 2);
        let mut prev_max = Tensor::zeros([8]);
        for i in 0..5 {
            let (_, g) = rand_pair(8, 30 + i);
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
            let cur = opt.v_max[0].as_ref().unwrap().clone();
            for (c, pm) in cur.data().iter().zip(prev_max.data().iter()) {
                assert!(c >= pm, "v_max must be non-decreasing");
            }
            prev_max = cur;
        }
    }

    #[test]
    fn second_moment_never_negative_after_undo() {
        let mut opt = Adam::new(AdamParams {
            lr: 1e-2,
            beta2: 0.9,
            ..Default::default()
        });
        // Tiny gradients provoke cancellation in (v_t − (1−β2)g²)/β2.
        let mut p = Tensor::full([16], 1.0);
        let g = Tensor::full([16], 1e-20);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
            .unwrap();
        let v = opt.moment2(0).unwrap();
        assert!(v.data().iter().all(|&x| x >= 0.0));
        // And another step after undo must not produce NaNs.
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        assert!(p.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn adam_state_round_trip_continues_identically() {
        let (p0, g) = rand_pair(16, 3);
        let mut opt = Adam::new(AdamParams {
            lr: 5e-3,
            weight_decay: 0.01,
            ..Default::default()
        });
        let mut p = p0.clone();
        for _ in 0..3 {
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        }
        let mut bytes = opt.state().encode();
        let state = OptimState::decode(&mut bytes).unwrap();
        let mut opt2 = Adam::new(AdamParams::default());
        opt2.load_state(&state);
        let mut pa = p.clone();
        let mut pb = p.clone();
        opt.step(std::slice::from_mut(&mut pa), std::slice::from_ref(&g));
        opt2.step(std::slice::from_mut(&mut pb), std::slice::from_ref(&g));
        assert!(pa.bit_eq(&pb));
    }

    #[test]
    fn undo_unstepped_group_errors() {
        let mut opt = Adam::new(AdamParams::default());
        let (mut p, g) = rand_pair(4, 4);
        assert_eq!(
            opt.undo_one(3, &mut p, &g),
            Err(UndoError::NothingToUndo { param: 3 })
        );
    }
}
