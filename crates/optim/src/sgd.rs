//! SGD and SGD-with-momentum with exact update-undo
//! (paper Algorithms 1–4).

use swift_tensor::Tensor;

use crate::ops::fused;
use crate::optimizer::{slot, OptimState, Optimizer, UndoError};

/// Plain SGD with weight decay (paper Algorithm 3).
///
/// Update: `x_{t+1} = x_t − η_t (g_t + λ x_t) = (1 − η_t λ) x_t − η_t g_t`.
/// Undo (Algorithm 4): `x_t = (x_{t+1} + η_t g_t) / (1 − η_t λ)`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
    t: u64,
    last_lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(weight_decay >= 0.0);
        assert!(
            lr * weight_decay < 1.0,
            "η·λ ≥ 1 makes the update non-invertible"
        );
        Sgd {
            lr,
            weight_decay,
            t: 0,
            last_lr: lr,
        }
    }
}

impl Optimizer for Sgd {
    fn name(&self) -> &'static str {
        "SGD"
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn iteration(&self) -> u64 {
        self.t
    }

    fn step_one(&mut self, _idx: usize, param: &mut Tensor, grad: &Tensor) {
        self.last_lr = self.lr;
        let decay = 1.0 - self.lr * self.weight_decay;
        // Fused (1 − ηλ)x − ηg: one SIMD-dispatched pass, no temporary;
        // same per-element rounding as the scale-then-axpy chain.
        fused::axpby(param, grad, decay, -self.lr);
    }

    fn finish_step(&mut self) {
        self.t += 1;
    }

    fn undo_one(
        &mut self,
        _idx: usize,
        param: &mut Tensor,
        grad: &Tensor,
    ) -> Result<(), UndoError> {
        let eta = self.last_lr;
        let inv_decay = 1.0 / (1.0 - eta * self.weight_decay);
        fused::add_scale(param, grad, eta, inv_decay);
        Ok(())
    }

    fn rollback_step(&mut self) {
        self.t = self.t.saturating_sub(1);
    }

    fn scalar_state(&self) -> OptimState {
        OptimState {
            name: self.name().into(),
            t: self.t,
            last_lr: self.last_lr,
            scalars: vec![
                ("lr".into(), vec![self.lr]),
                ("wd".into(), vec![self.weight_decay]),
            ],
            slots: Vec::new(),
        }
    }

    fn load_scalar_state(&mut self, state: &OptimState) {
        assert_eq!(state.name, self.name(), "optimizer kind mismatch");
        self.t = state.t;
        self.last_lr = state.last_lr;
        for (name, vals) in &state.scalars {
            match name.as_str() {
                "lr" => self.lr = vals[0],
                "wd" => self.weight_decay = vals[0],
                _ => {}
            }
        }
    }

    fn slots(&self) -> Vec<(&'static str, &[Option<Tensor>])> {
        Vec::new()
    }

    fn slots_mut(&mut self) -> Vec<(&'static str, &mut Vec<Option<Tensor>>)> {
        Vec::new()
    }
}

/// SGD with momentum and dampening (paper Algorithm 1).
///
/// Update:
/// `m_t = μ m_{t−1} + (1 − τ)(g_t + λ x_t)`,
/// `x_{t+1} = x_t − η_t m_t`.
///
/// Undo (Algorithm 2):
/// `x_t = x_{t+1} + η_t m_t`,
/// `m_{t−1} = (m_t − (1 − τ)(g_t + λ x_t)) / μ` (zero when `μ = 0`, since
/// the momentum is then memoryless).
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    lr: f32,
    weight_decay: f32,
    momentum: f32,
    dampening: f32,
    t: u64,
    last_lr: f32,
    m: Vec<Option<Tensor>>,
}

impl SgdMomentum {
    /// Creates SGD with momentum. `momentum` ∈ [0, 1], `dampening` ∈ [0, 1).
    pub fn new(lr: f32, weight_decay: f32, momentum: f32, dampening: f32) -> Self {
        assert!(lr > 0.0);
        assert!((0.0..=1.0).contains(&momentum));
        assert!((0.0..1.0).contains(&dampening));
        SgdMomentum {
            lr,
            weight_decay,
            momentum,
            dampening,
            t: 0,
            last_lr: lr,
            m: Vec::new(),
        }
    }

    /// The momentum buffer for a parameter group, if it exists yet.
    pub fn momentum_buffer(&self, idx: usize) -> Option<&Tensor> {
        self.m.get(idx).and_then(|t| t.as_ref())
    }
}

impl Optimizer for SgdMomentum {
    fn name(&self) -> &'static str {
        "SGD-momentum"
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn iteration(&self) -> u64 {
        self.t
    }

    fn step_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) {
        self.last_lr = self.lr;
        let (mu, mix, wd) = (self.momentum, 1.0 - self.dampening, self.weight_decay);
        let m = slot(&mut self.m, idx, param);
        // m = μ m + (1 − τ)(g + λx), fused — the effective gradient is
        // never materialized. The wd == 0 branch avoids `g + 0·x`, which
        // is not a bitwise no-op for −0/∞/NaN parameters.
        if wd == 0.0 {
            fused::axpby(m, grad, mu, mix);
        } else {
            fused::eff_axpby(m, grad, param, mu, mix, wd);
        }
        // x = x − η m
        param.axpy(-self.lr, m);
    }

    fn finish_step(&mut self) {
        self.t += 1;
    }

    fn undo_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) -> Result<(), UndoError> {
        let m_exists = self.m.get(idx).map(|m| m.is_some()).unwrap_or(false);
        if !m_exists {
            return Err(UndoError::NothingToUndo { param: idx });
        }
        let eta = self.last_lr;
        let (mu, mix, wd) = (self.momentum, 1.0 - self.dampening, self.weight_decay);
        let m = slot(&mut self.m, idx, param);
        // x_t = x_{t+1} + η m_t
        param.axpy(eta, m);
        if mu == 0.0 {
            // Memoryless momentum: m_{t−1} is never read again; zero it.
            m.scale_inplace(0.0);
        } else {
            // m_{t−1} = (m_t − (1 − τ)(g + λ x_t)) / μ with the *recovered*
            // x_t (matching Algorithm 2), fused into one pass.
            let inv_mu = 1.0 / mu;
            if wd == 0.0 {
                fused::add_scale(m, grad, -mix, inv_mu);
            } else {
                fused::eff_add_scale(m, grad, param, -mix, inv_mu, wd);
            }
        }
        Ok(())
    }

    fn rollback_step(&mut self) {
        self.t = self.t.saturating_sub(1);
    }

    fn scalar_state(&self) -> OptimState {
        OptimState {
            name: self.name().into(),
            t: self.t,
            last_lr: self.last_lr,
            scalars: vec![
                ("lr".into(), vec![self.lr]),
                ("wd".into(), vec![self.weight_decay]),
                ("momentum".into(), vec![self.momentum]),
                ("dampening".into(), vec![self.dampening]),
            ],
            slots: Vec::new(),
        }
    }

    fn load_scalar_state(&mut self, state: &OptimState) {
        assert_eq!(state.name, self.name(), "optimizer kind mismatch");
        self.t = state.t;
        self.last_lr = state.last_lr;
        for (name, vals) in &state.scalars {
            match name.as_str() {
                "lr" => self.lr = vals[0],
                "wd" => self.weight_decay = vals[0],
                "momentum" => self.momentum = vals[0],
                "dampening" => self.dampening = vals[0],
                _ => {}
            }
        }
    }

    fn slots(&self) -> Vec<(&'static str, &[Option<Tensor>])> {
        vec![("m", &self.m)]
    }

    fn slots_mut(&mut self) -> Vec<(&'static str, &mut Vec<Option<Tensor>>)> {
        vec![("m", &mut self.m)]
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

    #[test]
    fn sgd_step_matches_formula() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut p = Tensor::from_vec([2], vec![1.0, 2.0]);
        let g = Tensor::from_vec([2], vec![0.5, -0.5]);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        assert_eq!(p.data(), &[0.95, 2.05]);
        assert_eq!(opt.iteration(), 1);
    }

    #[test]
    fn sgd_undo_restores_exactly_without_decay() {
        // Without weight decay the undo is a pure axpy inverse; error stays
        // within one ulp.
        let (p0, g) = rand_pair(100, 1);
        let mut p = p0.clone();
        let mut opt = Sgd::new(0.05, 0.0);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
            .unwrap();
        assert!(p.max_abs_diff(&p0) < 1e-6);
        assert_eq!(opt.iteration(), 0);
    }

    #[test]
    fn sgd_undo_with_weight_decay() {
        let (p0, g) = rand_pair(100, 2);
        let mut p = p0.clone();
        let mut opt = Sgd::new(0.05, 0.01);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
            .unwrap();
        assert!(p.max_abs_diff(&p0) < 1e-5);
    }

    #[test]
    fn momentum_two_steps_undo_one() {
        let (p0, g1) = rand_pair(50, 3);
        let (_, g2) = rand_pair(50, 4);
        let mut opt = SgdMomentum::new(0.1, 0.005, 0.9, 0.0);
        let mut p = p0.clone();
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g1));
        let p_after_1 = p.clone();
        let m_after_1 = opt.momentum_buffer(0).unwrap().clone();
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g2));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g2))
            .unwrap();
        assert!(p.max_abs_diff(&p_after_1) < 1e-5, "param undo error");
        assert!(
            opt.momentum_buffer(0).unwrap().max_abs_diff(&m_after_1) < 1e-5,
            "momentum undo error"
        );
        assert_eq!(opt.iteration(), 1);
    }

    #[test]
    fn momentum_undo_first_step_restores_zero_momentum() {
        let (p0, g) = rand_pair(20, 5);
        let mut opt = SgdMomentum::new(0.1, 0.0, 0.9, 0.1);
        let mut p = p0.clone();
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
            .unwrap();
        assert!(p.max_abs_diff(&p0) < 1e-5);
        let m = opt.momentum_buffer(0).unwrap();
        assert!(m.max_abs_diff(&Tensor::zeros([20])) < 1e-6);
    }

    #[test]
    fn momentum_zero_mu_undo() {
        let (p0, g) = rand_pair(20, 6);
        let mut opt = SgdMomentum::new(0.1, 0.0, 0.0, 0.0);
        let mut p = p0.clone();
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
            .unwrap();
        assert!(p.max_abs_diff(&p0) < 1e-6);
    }

    #[test]
    fn undo_before_step_errors() {
        let mut opt = SgdMomentum::new(0.1, 0.0, 0.9, 0.0);
        let mut p = Tensor::ones([3]);
        let g = Tensor::ones([3]);
        assert_eq!(
            opt.undo_one(0, &mut p, &g),
            Err(UndoError::NothingToUndo { param: 0 })
        );
    }

    #[test]
    fn partial_update_undo_layerwise() {
        // The crash-consistency scenario: 3 groups, only groups 0 and 1 were
        // updated before the crash; survivor undoes exactly those two.
        let mut opt = SgdMomentum::new(0.1, 0.0, 0.9, 0.0);
        let mut params: Vec<Tensor> = (0..3).map(|i| Tensor::full([4], i as f32 + 1.0)).collect();
        let grads: Vec<Tensor> = (0..3).map(|_| Tensor::full([4], 0.5)).collect();
        let before = params.clone();
        opt.step_one(0, &mut params[0], &grads[0]);
        opt.step_one(1, &mut params[1], &grads[1]);
        // crash here — group 2 never updated, finish_step never reached
        opt.undo_one(0, &mut params[0], &grads[0]).unwrap();
        opt.undo_one(1, &mut params[1], &grads[1]).unwrap();
        for (p, b) in params.iter().zip(before.iter()) {
            assert!(p.max_abs_diff(b) < 1e-6);
        }
        assert_eq!(opt.iteration(), 0);
    }

    #[test]
    fn state_round_trip_preserves_momentum() {
        let (p0, g) = rand_pair(10, 7);
        let mut opt = SgdMomentum::new(0.2, 0.01, 0.9, 0.0);
        let mut p = p0.clone();
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        let mut bytes = opt.state().encode();
        let state = OptimState::decode(&mut bytes).unwrap();
        let mut opt2 = SgdMomentum::new(0.1, 0.0, 0.5, 0.0);
        opt2.load_state(&state);
        assert_eq!(opt2.iteration(), 1);
        assert!(opt2
            .momentum_buffer(0)
            .unwrap()
            .bit_eq(opt.momentum_buffer(0).unwrap()));
        // Continued training from restored state matches.
        let mut p_a = p.clone();
        let mut p_b = p.clone();
        opt.step(std::slice::from_mut(&mut p_a), std::slice::from_ref(&g));
        opt2.step(std::slice::from_mut(&mut p_b), std::slice::from_ref(&g));
        assert!(p_a.bit_eq(&p_b));
    }

    #[test]
    #[should_panic(expected = "non-invertible")]
    fn degenerate_decay_rejected() {
        Sgd::new(1.0, 1.0);
    }
}
