//! LAMB with update-undo via saved trust-ratio scalars (paper §4).
//!
//! LAMB scales the Adam direction by a layer-wise *trust ratio*
//! `r = ‖x_t‖ / ‖m̂/(√v̂+ε) + λx_t‖`. The norm is a non-invertible reduction
//! (Table 1's `sum` row), but it collapses to a single scalar per layer —
//! so, exactly as the paper prescribes, we *save that scalar* during the
//! update and use it to undo:
//!
//! ```text
//! step:  x_{t+1} = x_t − η r (m̂/(√v̂+ε) + λ x_t)
//!                = (1 − η r λ) x_t − η r · m̂/(√v̂+ε)
//! undo:  x_t = (x_{t+1} + η r · m̂/(√v̂+ε)) / (1 − η r λ)
//! ```
//! followed by the Adam-style moment reversal.

use swift_tensor::Tensor;

use crate::adam::{advance_moments, revert_moments, AdamParams};
use crate::ops::fused;
use crate::optimizer::{slot, OptimState, Optimizer, UndoError};

/// The LAMB optimizer (You et al., ICLR'20) with saved-scalar undo.
#[derive(Debug, Clone)]
pub struct Lamb {
    params: AdamParams,
    t: u64,
    last_lr: f32,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
    /// Trust ratio of the most recent update, per parameter group — the
    /// auxiliary scalar that makes the non-invertible norm undoable.
    saved_ratio: Vec<f32>,
}

impl Lamb {
    /// Creates a LAMB optimizer.
    pub fn new(params: AdamParams) -> Self {
        params.validate_lamb();
        Lamb {
            params,
            t: 0,
            last_lr: params.lr,
            m: Vec::new(),
            v: Vec::new(),
            saved_ratio: Vec::new(),
        }
    }

    /// The trust ratio saved by the most recent step for a group.
    pub fn saved_ratio(&self, idx: usize) -> Option<f32> {
        self.saved_ratio.get(idx).copied()
    }

    fn direction(&self, idx: usize, step_t: u64) -> Tensor {
        let p = &self.params;
        let inv_bc1 = 1.0 / (1.0 - p.beta1.powi(step_t as i32));
        let inv_bc2 = 1.0 / (1.0 - p.beta2.powi(step_t as i32));
        // One pooled clone for the direction (the trust-ratio norm needs
        // it materialized); the hat computation itself is one fused pass.
        let mut dir = self.m[idx].as_ref().unwrap().clone();
        fused::hat(
            &mut dir,
            self.v[idx].as_ref().unwrap(),
            inv_bc1,
            inv_bc2,
            p.eps,
        );
        dir
    }
}

trait LambValidate {
    fn validate_lamb(&self);
}

impl LambValidate for AdamParams {
    fn validate_lamb(&self) {
        assert!(self.lr > 0.0);
        assert!((0.0..1.0).contains(&self.beta1) && self.beta1 > 0.0);
        assert!((0.0..1.0).contains(&self.beta2) && self.beta2 > 0.0);
        assert!(self.eps > 0.0);
        assert!(self.weight_decay >= 0.0);
    }
}

impl Optimizer for Lamb {
    fn name(&self) -> &'static str {
        "LAMB"
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
        {
            let m = slot(&mut self.m, idx, param);
            let v = slot(&mut self.v, idx, param);
            advance_moments(m, v, grad, None, &p);
        }
        let dir = self.direction(idx, step_t);
        // ‖u‖ with u = dir + λ x_t; skip the temporary when λ = 0.
        let u_norm = if p.weight_decay != 0.0 {
            let mut u = dir.clone();
            u.axpy(p.weight_decay, param);
            u.l2_norm()
        } else {
            dir.l2_norm()
        };
        let x_norm = param.l2_norm();
        let ratio = if x_norm > 0.0 && u_norm > 0.0 {
            x_norm / u_norm
        } else {
            1.0
        };
        if self.saved_ratio.len() <= idx {
            self.saved_ratio.resize(idx + 1, 1.0);
        }
        self.saved_ratio[idx] = ratio;
        // x ← (1 − η r λ) x − η r · dir, fused into one pass.
        let scale = 1.0 - p.lr * ratio * p.weight_decay;
        let eta_r = p.lr * ratio;
        fused::axpby(param, &dir, scale, -eta_r);
    }

    fn finish_step(&mut self) {
        self.t += 1;
    }

    fn undo_one(&mut self, idx: usize, param: &mut Tensor, grad: &Tensor) -> Result<(), UndoError> {
        if self.m.get(idx).map(|m| m.is_none()).unwrap_or(true) || idx >= self.saved_ratio.len() {
            return Err(UndoError::NothingToUndo { param: idx });
        }
        let p = self.params;
        let eta = self.last_lr;
        let step_t = self.t.max(1);
        let ratio = self.saved_ratio[idx];
        let dir = self.direction(idx, step_t);
        // x_t = (x_{t+1} + η r · dir) / (1 − η r λ), fused into one pass.
        let eta_r = eta * ratio;
        let inv_scale = 1.0 / (1.0 - eta * ratio * p.weight_decay);
        fused::add_scale(param, &dir, eta_r, inv_scale);
        // Moment reversal (moments advanced on the raw gradient).
        let m = self.m[idx].as_mut().unwrap();
        let v = self.v[idx].as_mut().unwrap();
        revert_moments(m, v, grad, None, &p);
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
                ("lr".into(), vec![self.params.lr]),
                ("wd".into(), vec![self.params.weight_decay]),
                ("beta1".into(), vec![self.params.beta1]),
                ("beta2".into(), vec![self.params.beta2]),
                ("eps".into(), vec![self.params.eps]),
                ("saved_ratio".into(), self.saved_ratio.clone()),
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
                "lr" => self.params.lr = vals[0],
                "wd" => self.params.weight_decay = vals[0],
                "beta1" => self.params.beta1 = vals[0],
                "beta2" => self.params.beta2 = vals[0],
                "eps" => self.params.eps = vals[0],
                "saved_ratio" => self.saved_ratio = vals.clone(),
                _ => {}
            }
        }
    }

    fn slots(&self) -> Vec<(&'static str, &[Option<Tensor>])> {
        vec![("m", &self.m), ("v", &self.v)]
    }

    fn slots_mut(&mut self) -> Vec<(&'static str, &mut Vec<Option<Tensor>>)> {
        vec![("m", &mut self.m), ("v", &mut self.v)]
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
    fn step_saves_ratio() {
        let mut opt = Lamb::new(AdamParams {
            lr: 1e-2,
            weight_decay: 0.01,
            ..Default::default()
        });
        let (mut p, g) = rand_pair(32, 1);
        assert!(opt.saved_ratio(0).is_none());
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        let r = opt.saved_ratio(0).unwrap();
        assert!(r > 0.0 && r.is_finite());
    }

    #[test]
    fn undo_restores_params_and_moments() {
        let mut opt = Lamb::new(AdamParams {
            lr: 1e-2,
            weight_decay: 0.01,
            ..Default::default()
        });
        let (p0, _) = rand_pair(64, 2);
        let mut p = p0.clone();
        for i in 0..4 {
            let (_, g) = rand_pair(64, 10 + i);
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        }
        let p_ref = p.clone();
        let m_ref = opt.m[0].as_ref().unwrap().clone();
        let v_ref = opt.v[0].as_ref().unwrap().clone();
        let (_, g) = rand_pair(64, 99);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
            .unwrap();
        assert!(
            p.max_abs_diff(&p_ref) < 1e-4,
            "param err {}",
            p.max_abs_diff(&p_ref)
        );
        assert!(opt.m[0].as_ref().unwrap().max_abs_diff(&m_ref) < 1e-5);
        assert!(opt.v[0].as_ref().unwrap().max_abs_diff(&v_ref) < 1e-5);
        assert_eq!(opt.iteration(), 4);
    }

    #[test]
    fn zero_param_norm_uses_unit_ratio() {
        let mut opt = Lamb::new(AdamParams {
            lr: 1e-2,
            ..Default::default()
        });
        let mut p = Tensor::zeros([8]);
        let g = Tensor::ones([8]);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        assert_eq!(opt.saved_ratio(0), Some(1.0));
        assert!(p.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn state_round_trip_includes_ratio() {
        let mut opt = Lamb::new(AdamParams {
            lr: 1e-2,
            weight_decay: 0.02,
            ..Default::default()
        });
        let (mut p, g) = rand_pair(16, 3);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        let mut bytes = opt.state().encode();
        let state = OptimState::decode(&mut bytes).unwrap();
        let mut opt2 = Lamb::new(AdamParams::default());
        opt2.load_state(&state);
        assert_eq!(opt2.saved_ratio(0), opt.saved_ratio(0));
        // Undo on the restored optimizer works.
        let mut p2 = p.clone();
        opt2.undo(std::slice::from_mut(&mut p2), std::slice::from_ref(&g))
            .unwrap();
        let mut p1 = p.clone();
        opt.undo(std::slice::from_mut(&mut p1), std::slice::from_ref(&g))
            .unwrap();
        assert!(p1.bit_eq(&p2));
    }

    #[test]
    fn undo_before_step_errors() {
        let mut opt = Lamb::new(AdamParams::default());
        let (mut p, g) = rand_pair(4, 4);
        assert!(matches!(
            opt.undo_one(0, &mut p, &g),
            Err(UndoError::NothingToUndo { .. })
        ));
    }
}
