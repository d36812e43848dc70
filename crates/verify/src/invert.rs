//! The undo checker: certifies, per optimizer configuration, that the
//! optimizer that trains undoes its own update (`undo ∘ step = id`, paper
//! §4) — and that the configurations the job builder rejects stay
//! rejected.
//!
//! For a configuration [`OptimizerKind::check_undoable`] accepts, the
//! checker builds the real optimizer ([`OptimizerKind::build`]), warms it
//! up with finished steps so that every slot is non-zero, and round-trips
//! one more step: `step_one` on every parameter group and `finish_step`,
//! then `undo_one` on every group and `rollback_step`. The parameters,
//! every slot and the step counter must come back to their values before
//! that step.

use swift_optim::{OpKind, OptimizerKind, UndoError};
use swift_tensor::{CounterRng, Tensor};

use crate::Violation;

fn v(detail: String) -> Violation {
    Violation::new("invert", detail)
}

/// Element counts of the round trip's parameter groups: several groups,
/// so per-group state (LAMB's saved trust ratio) is exercised, with odd
/// lengths for the SIMD kernels' remainder tails.
const GROUPS: [usize; 3] = [32, 17, 5];

/// Largest parameter or slot error a round trip may leave: a few ulps of
/// unit-scale values, amplified by the undo's divisions by `1 − η·λ`,
/// `μ`, `β` and `√v̂ + ε`.
const TOL: f32 = 1e-5;

/// Checks one optimizer configuration that is *expected to be
/// undoable*: the check must accept it, and the built optimizer must
/// round-trip a step after 1, 2 and 3 warm-up steps. One violation per
/// configuration reports the largest error and where it sits.
pub fn check_invertible(kind: &OptimizerKind) -> Vec<Violation> {
    if let Err(e) = kind.check_undoable() {
        return vec![v(format!("expected an undoable update, but {e}"))];
    }
    let mut rng = CounterRng::new(0x5357_4946_5400_0001, 0);
    let mut errors = Vec::new();
    for warm in 1..=3 {
        if let Err(e) = round_trip(kind, warm, &mut rng, &mut errors) {
            return vec![v(format!(
                "{}: undo after {warm} warm-up steps failed: {e}",
                kind.name()
            ))];
        }
    }
    match errors.into_iter().max_by(|a, b| a.0.total_cmp(&b.0)) {
        Some((err, at)) if err > TOL || err.is_nan() => vec![v(format!(
            "{}: undo ∘ step ≠ id: largest error {err:e} ({at}) exceeds {TOL:e}",
            kind.name()
        ))],
        _ => Vec::new(),
    }
}

/// Builds `kind`, runs `warm` finished steps, then steps and undoes one
/// more. Pushes onto `errors` how far each parameter group, each slot and
/// the step counter ended from their values before that step.
fn round_trip(
    kind: &OptimizerKind,
    warm: usize,
    rng: &mut CounterRng,
    errors: &mut Vec<(f32, String)>,
) -> Result<(), UndoError> {
    let mut opt = kind.build();
    let mut draw = || -> Vec<Tensor> {
        GROUPS
            .iter()
            .map(|&n| Tensor::randn([n], 0.0, 1.0, rng))
            .collect()
    };
    let mut params = draw();
    for _ in 0..warm {
        opt.step(&mut params, &draw());
    }
    let (params_before, state_before) = (params.clone(), opt.state());
    let grads = draw();
    opt.step(&mut params, &grads);
    opt.undo(&mut params, &grads)?;

    let after = format!("after {warm} warm-up steps");
    for (i, (p, p0)) in params.iter().zip(&params_before).enumerate() {
        errors.push((max_err(p, p0), format!("parameter group {i} {after}")));
    }
    let state = opt.state();
    for ((name, slots), (_, slots_before)) in state.slots.iter().zip(&state_before.slots) {
        for (i, (s, s0)) in slots.iter().zip(slots_before).enumerate() {
            let err = match (s, s0) {
                (Some(s), Some(s0)) => max_err(s, s0),
                _ => f32::INFINITY,
            };
            errors.push((err, format!("slot `{name}` of group {i} {after}")));
        }
    }
    if state.t != state_before.t {
        let at = format!("step counter {} (was {}) {after}", state.t, state_before.t);
        errors.push((f32::INFINITY, at));
    }
    Ok(())
}

/// Largest element-wise `|a − b|`, NaN if any difference is NaN
/// (`Tensor::max_abs_diff` skips NaN).
fn max_err(a: &Tensor, b: &Tensor) -> f32 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .max_by(f32::total_cmp)
        .unwrap_or(0.0)
}

/// Checks one configuration that is *expected to be rejected* (AMSGrad,
/// SGD or AdamW with `η·λ ≥ 1`, …). The violation here is the check *not*
/// rejecting it. An update rejected for EW-max must also be refused by
/// the built optimizer's `undo_one`; configurations rejected for their
/// hyperparameters are never built (the constructors assert them).
pub fn check_rejected(kind: &OptimizerKind) -> Vec<Violation> {
    match kind.check_undoable() {
        Ok(()) => vec![v(format!(
            "{}: expected the check to reject this configuration, but it \
             accepts it — a non-invertible update would be silently accepted",
            kind.name()
        ))],
        Err(e) if e.op == OpKind::EwMax => {
            let mut opt = kind.build();
            let mut params = vec![Tensor::ones([4])];
            let grads = vec![Tensor::full([4], 0.1)];
            opt.step(&mut params, &grads);
            match opt.undo_one(0, &mut params[0], &grads[0]) {
                Err(UndoError::NotInvertible(_)) => Vec::new(),
                other => vec![v(format!(
                    "{}: the check rejects `EW-max`, but the optimizer's \
                     undo_one returned {other:?}",
                    kind.name()
                ))],
            }
        }
        Err(_) => Vec::new(),
    }
}

/// The default certification sweep: every invertible optimizer family at
/// representative hyperparameters must pass, and the known-bad
/// configurations must be rejected.
pub fn check_all() -> Vec<Violation> {
    let invertible = [
        OptimizerKind::Sgd {
            lr: 0.05,
            weight_decay: 0.01,
        },
        OptimizerKind::SgdMomentum {
            lr: 0.05,
            weight_decay: 0.01,
            momentum: 0.9,
            dampening: 0.1,
        },
        OptimizerKind::Adam {
            lr: 1e-3,
            weight_decay: 0.01,
        },
        OptimizerKind::AdamW {
            lr: 1e-3,
            weight_decay: 0.01,
        },
        OptimizerKind::Lamb {
            lr: 1e-3,
            weight_decay: 0.01,
        },
    ];
    let rejected = [
        OptimizerKind::AmsGrad {
            lr: 1e-3,
            weight_decay: 0.0,
        },
        // η·λ ≥ 1 flips the sign of the coupled-decay scale.
        OptimizerKind::Sgd {
            lr: 2.0,
            weight_decay: 0.6,
        },
        OptimizerKind::AdamW {
            lr: 2.0,
            weight_decay: 0.6,
        },
    ];
    let mut out = Vec::new();
    for k in &invertible {
        out.extend(check_invertible(k));
    }
    for k in &rejected {
        out.extend(check_rejected(k));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_is_clean() {
        let vs = check_all();
        assert!(vs.is_empty(), "{vs:?}");
    }

    /// Seeded violation: AMSGrad treated as invertible must be caught.
    #[test]
    fn amsgrad_fails_invertibility() {
        let vs = check_invertible(&OptimizerKind::AmsGrad {
            lr: 1e-3,
            weight_decay: 0.0,
        });
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("AMSGrad"), "{}", vs[0]);
        assert!(vs[0].detail.contains("EW-max"), "{}", vs[0]);
    }

    /// Seeded violation: AdamW at η·λ ≥ 1 accepted as invertible.
    #[test]
    fn adamw_eta_lambda_ge_one_fails_invertibility() {
        let vs = check_invertible(&OptimizerKind::AdamW {
            lr: 2.0,
            weight_decay: 0.6,
        });
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("η·λ"), "{}", vs[0]);
    }

    /// Seeded violation on the expectation side: a perfectly invertible
    /// SGD must NOT pass `check_rejected`.
    #[test]
    fn check_rejected_flags_invertible_configs() {
        let vs = check_rejected(&OptimizerKind::Sgd {
            lr: 0.05,
            weight_decay: 0.0,
        });
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("silently accepted"), "{}", vs[0]);
    }
}
