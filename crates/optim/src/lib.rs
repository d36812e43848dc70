//! # swift-optim
//!
//! Invertible optimizers implementing the paper's *update-undo* mechanism
//! (§4, Algorithms 1–8, Table 1).
//!
//! The crash-consistency problem: with layer-wise wait-free updates, a
//! worker crash mid-update leaves survivors with some parameter groups
//! updated and others not. Instead of snapshotting (CheckFreq, Elastic
//! Horovod) or adding an update barrier, SWIFT *undoes* the applied
//! updates, exploiting the mathematical invertibility of most optimizer
//! update rules. This crate provides:
//!
//! - [`Optimizer`]: layer-wise `step_one` / `undo_one` protocol,
//! - [`Sgd`], [`SgdMomentum`], [`Adam`], [`AdamW`], [`Lamb`] — invertible
//!   (LAMB via a saved trust-ratio scalar),
//! - [`AmsGrad`] — not invertible (element-wise max), returns
//!   [`UndoError::NotInvertible`],
//! - [`OptimizerKind`]: which optimizer to build. Its
//!   [`operators`](OptimizerKind::operators) and
//!   [`check_undoable`](OptimizerKind::check_undoable) state the paper's
//!   Table 1 once; the job builder, `swift-verify` and the Table-1 report
//!   all read them,
//! - [`OptimState`]: binary-serializable optimizer state for checkpoints.

pub mod adam;
pub mod lamb;
pub mod ops;
pub mod optimizer;
pub mod schedule;
pub mod sgd;

pub use adam::{Adam, AdamParams, AdamW, AmsGrad};
pub use lamb::Lamb;
pub use ops::OpKind;
pub use optimizer::{OptimState, Optimizer, UndoError};
pub use schedule::LrSchedule;
pub use sgd::{Sgd, SgdMomentum};

/// Which optimizer to build — mirrors the models in the paper's Table 2
/// (SGD-momentum for Wide-ResNet-50 / ViT, Adam for BERT).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum OptimizerKind {
    /// Plain SGD with weight decay.
    Sgd { lr: f32, weight_decay: f32 },
    /// SGD with momentum and dampening.
    SgdMomentum {
        lr: f32,
        weight_decay: f32,
        momentum: f32,
        dampening: f32,
    },
    /// Adam (coupled weight decay).
    Adam { lr: f32, weight_decay: f32 },
    /// AdamW (decoupled weight decay).
    AdamW { lr: f32, weight_decay: f32 },
    /// LAMB (layer-wise trust ratio).
    Lamb { lr: f32, weight_decay: f32 },
    /// AMSGrad (non-invertible; undo unsupported).
    AmsGrad { lr: f32, weight_decay: f32 },
}

impl OptimizerKind {
    /// Builds a boxed optimizer of this kind.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::Sgd { lr, weight_decay } => Box::new(Sgd::new(lr, weight_decay)),
            OptimizerKind::SgdMomentum {
                lr,
                weight_decay,
                momentum,
                dampening,
            } => Box::new(SgdMomentum::new(lr, weight_decay, momentum, dampening)),
            OptimizerKind::Adam { lr, weight_decay } => Box::new(Adam::new(AdamParams {
                lr,
                weight_decay,
                ..Default::default()
            })),
            OptimizerKind::AdamW { lr, weight_decay } => Box::new(AdamW::new(AdamParams {
                lr,
                weight_decay,
                ..Default::default()
            })),
            OptimizerKind::Lamb { lr, weight_decay } => Box::new(Lamb::new(AdamParams {
                lr,
                weight_decay,
                ..Default::default()
            })),
            OptimizerKind::AmsGrad { lr, weight_decay } => Box::new(AmsGrad::new(AdamParams {
                lr,
                weight_decay,
                ..Default::default()
            })),
        }
    }

    /// The five optimizers of the paper's Table 1, in its column order;
    /// every one but AMSGrad at hyperparameters its update can be undone
    /// under.
    pub const TABLE1: [OptimizerKind; 5] = [
        OptimizerKind::Sgd {
            lr: 0.1,
            weight_decay: 0.0,
        },
        OptimizerKind::Adam {
            lr: 1e-3,
            weight_decay: 0.0,
        },
        OptimizerKind::AdamW {
            lr: 1e-3,
            weight_decay: 0.01,
        },
        OptimizerKind::Lamb {
            lr: 1e-3,
            weight_decay: 0.01,
        },
        OptimizerKind::AmsGrad {
            lr: 1e-3,
            weight_decay: 0.0,
        },
    ];

    /// The optimizer's name, as the built optimizer's [`Optimizer::name`]
    /// reports it.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Sgd { .. } => "SGD",
            OptimizerKind::SgdMomentum { .. } => "SGD-momentum",
            OptimizerKind::Adam { .. } => "Adam",
            OptimizerKind::AdamW { .. } => "AdamW",
            OptimizerKind::Lamb { .. } => "LAMB",
            OptimizerKind::AmsGrad { .. } => "AMSGrad",
        }
    }

    /// The paper's Table-1 operators the update uses.
    pub fn operators(&self) -> &'static [OpKind] {
        use OpKind::*;
        match self {
            OptimizerKind::Sgd { .. } | OptimizerKind::SgdMomentum { .. } => &[EwAdd, ScalarMul],
            OptimizerKind::Adam { .. } | OptimizerKind::AdamW { .. } => {
                &[EwAdd, ScalarMul, EwMul, EwSqrt, EwDiv]
            }
            OptimizerKind::Lamb { .. } => &[EwAdd, ScalarMul, EwMul, EwSqrt, EwDiv, Sum],
            OptimizerKind::AmsGrad { .. } => &[EwAdd, ScalarMul, EwMul, EwSqrt, EwDiv, EwMax],
        }
    }

    /// Whether a partially applied update can be undone (§4), which every
    /// recovery strategy's crash-consistency repair relies on.
    ///
    /// Every operator but EW-max has an inverse or, like LAMB's norm, a
    /// saved scalar, so the verdict turns on EW-max and on the factors an
    /// undo divides by: SGD's and AdamW's decay `1 − η·λ` and
    /// SGD-momentum's `μ`. Adam folds its decay into the gradient, so its
    /// undo divides by no such factor. LAMB's undo divides by
    /// `1 − η·r·λ`, whose trust ratio `r` exists only inside a step; LAMB
    /// is accepted at every `η·λ`, and nothing checks that factor.
    pub fn check_undoable(&self) -> Result<(), NotUndoable> {
        let reject = |op, reason| {
            Err(NotUndoable {
                optimizer: self.name(),
                op,
                reason,
            })
        };
        if self.operators().contains(&OpKind::EwMax) {
            return reject(
                OpKind::EwMax,
                "the running max(v_max, v̂) discards the smaller operand, and no \
                 saved scalar can recover it (paper Table 1)"
                    .into(),
            );
        }
        match *self {
            OptimizerKind::Sgd { lr, weight_decay } | OptimizerKind::AdamW { lr, weight_decay } => {
                let decay = 1.0 - lr * weight_decay;
                if decay > 0.0 {
                    Ok(())
                } else {
                    reject(
                        OpKind::ScalarMul,
                        format!(
                            "the decay factor 1 − η·λ = 1 − {lr}·{weight_decay} = {decay} ≤ 0 \
                             destroys or flips the parameter; require η·λ < 1"
                        ),
                    )
                }
            }
            OptimizerKind::SgdMomentum { momentum, .. } => {
                if (0.0..1.0).contains(&momentum) {
                    Ok(())
                } else {
                    reject(
                        OpKind::ScalarMul,
                        format!("the momentum μ = {momentum} must lie in [0, 1)"),
                    )
                }
            }
            _ => Ok(()),
        }
    }
}

/// Why an optimizer configuration's update cannot be undone
/// ([`OptimizerKind::check_undoable`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NotUndoable {
    /// The optimizer's name.
    pub optimizer: &'static str,
    /// The Table-1 operator whose inverse is missing.
    pub op: OpKind,
    /// Why, with the offending values.
    pub reason: String,
}

impl std::fmt::Display for NotUndoable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: `{}` cannot be undone: {}",
            self.optimizer,
            self.op.name(),
            self.reason
        )
    }
}

impl std::error::Error for NotUndoable {}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_tensor::Tensor;

    #[test]
    fn factory_builds_all_kinds() {
        let kinds = [
            OptimizerKind::Sgd {
                lr: 0.1,
                weight_decay: 0.0,
            },
            OptimizerKind::SgdMomentum {
                lr: 0.1,
                weight_decay: 0.0,
                momentum: 0.9,
                dampening: 0.0,
            },
            OptimizerKind::Adam {
                lr: 1e-3,
                weight_decay: 0.0,
            },
            OptimizerKind::AdamW {
                lr: 1e-3,
                weight_decay: 0.01,
            },
            OptimizerKind::Lamb {
                lr: 1e-3,
                weight_decay: 0.01,
            },
            OptimizerKind::AmsGrad {
                lr: 1e-3,
                weight_decay: 0.0,
            },
        ];
        let mut names = Vec::new();
        for k in kinds {
            let mut opt = k.build();
            let mut p = Tensor::ones([4]);
            let g = Tensor::full([4], 0.1);
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
            assert_eq!(opt.iteration(), 1);
            assert_eq!(opt.name(), k.name());
            names.push(opt.name());
        }
        assert_eq!(
            names,
            ["SGD", "SGD-momentum", "Adam", "AdamW", "LAMB", "AMSGrad"]
        );
    }

    /// One row per verdict edge of `check_undoable`, plus the job
    /// builder's everyday configurations. A rejection names the optimizer
    /// and the reason's key symbol.
    #[test]
    fn check_undoable_verdict_edges() {
        let sgd = |lr, weight_decay| OptimizerKind::Sgd { lr, weight_decay };
        let adam = |lr, weight_decay| OptimizerKind::Adam { lr, weight_decay };
        let adamw = |lr, weight_decay| OptimizerKind::AdamW { lr, weight_decay };
        let lamb = |lr, weight_decay| OptimizerKind::Lamb { lr, weight_decay };
        let momentum = |momentum| OptimizerKind::SgdMomentum {
            lr: 0.1,
            weight_decay: 0.01,
            momentum,
            dampening: 0.1,
        };
        let just_below_one = 1.0 - f32::EPSILON / 2.0;
        let rows = [
            // η·λ just below 1, at 1 and above 1.
            (sgd(just_below_one, 1.0), None),
            (sgd(1.0, 1.0), Some("η·λ")),
            (sgd(2.0, 0.6), Some("η·λ")),
            (adamw(just_below_one, 1.0), None),
            (adamw(1.0, 1.0), Some("η·λ")),
            (adamw(2.0, 0.6), Some("η·λ")),
            // The ends of the momentum range [0, 1).
            (momentum(0.0), None),
            (momentum(0.999), None),
            (momentum(1.0), Some("μ")),
            (momentum(-0.1), Some("μ")),
            // Adam and LAMB have no decay factor to check.
            (adam(2.0, 0.6), None),
            (lamb(2.0, 0.6), None),
            // EW-max is rejected at every setting.
            (
                OptimizerKind::AmsGrad {
                    lr: 1e-3,
                    weight_decay: 0.0,
                },
                Some("EW-max"),
            ),
            // Everyday configurations.
            (sgd(0.1, 0.01), None),
            (momentum(0.9), None),
            (adam(1e-3, 0.01), None),
            (adamw(1e-3, 0.01), None),
            (lamb(1e-3, 0.01), None),
        ];
        for (kind, rejection) in rows {
            match (kind.check_undoable(), rejection) {
                (Ok(()), None) => {}
                (Err(e), Some(symbol)) => {
                    let msg = e.to_string();
                    assert_eq!(e.optimizer, kind.name(), "{kind:?}");
                    assert!(msg.contains(kind.name()), "{kind:?}: {msg}");
                    assert!(msg.contains(symbol), "{kind:?}: {msg}");
                }
                (got, want) => panic!("{kind:?}: got {got:?}, want a rejection naming {want:?}"),
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use swift_tensor::{CounterRng, Tensor};

    fn run_undo_property(kind: OptimizerKind, seed: u64, steps: usize, tol: f32) {
        let mut opt = kind.build();
        let mut rng = CounterRng::new(seed, 0);
        let mut p = Tensor::randn([32], 0.0, 1.0, &mut rng);
        for _ in 0..steps.saturating_sub(1) {
            let g = Tensor::randn([32], 0.0, 0.1, &mut rng);
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        }
        let p_ref = p.clone();
        let g = Tensor::randn([32], 0.0, 0.1, &mut rng);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
            .unwrap();
        let err = p.max_abs_diff(&p_ref);
        assert!(err < tol, "undo error {err} for {kind:?}");
    }

    // Hyperparameter ranges for the random-hyperparameter undo property.
    // lr·λ stays well below 1 (the documented invertibility constraint for
    // the decayed optimizers), and tolerances are f32 round-trip bounds:
    // the undo recomputes the same expressions in reverse, so error is a
    // few ulps amplified by division by (1−ηλ), β, and √v̂ — 1e-3 on
    // unit-scale parameters covers the worst drawn corner.
    fn lr_strategy() -> impl Strategy<Value = f32> {
        1e-4f32..5e-2
    }

    fn wd_strategy() -> impl Strategy<Value = f32> {
        // Snap small draws to exactly 0 so the no-decay path is exercised.
        (0.0f32..0.5).prop_map(|w| if w < 0.01 { 0.0 } else { w })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sgd_undo_is_near_exact(
            seed in 0u64..1000, steps in 1usize..6,
            lr in lr_strategy(), wd in wd_strategy(),
        ) {
            run_undo_property(OptimizerKind::Sgd { lr, weight_decay: wd }, seed, steps, 1e-3);
        }

        #[test]
        fn momentum_undo_is_near_exact(
            seed in 0u64..1000, steps in 1usize..6,
            lr in lr_strategy(), wd in wd_strategy(),
            momentum in 0.0f32..0.99, dampening in 0.0f32..0.9,
        ) {
            run_undo_property(
                OptimizerKind::SgdMomentum { lr, weight_decay: wd, momentum, dampening },
                seed, steps, 1e-3,
            );
        }

        #[test]
        fn adam_undo_is_near_exact(
            seed in 0u64..1000, steps in 1usize..6,
            lr in lr_strategy(), wd in wd_strategy(),
        ) {
            run_undo_property(OptimizerKind::Adam { lr, weight_decay: wd }, seed, steps, 1e-3);
        }

        #[test]
        fn adamw_undo_is_near_exact(
            seed in 0u64..1000, steps in 1usize..6,
            lr in lr_strategy(), wd in wd_strategy(),
        ) {
            run_undo_property(OptimizerKind::AdamW { lr, weight_decay: wd }, seed, steps, 1e-3);
        }

        #[test]
        fn lamb_undo_is_near_exact(
            seed in 0u64..1000, steps in 1usize..6,
            lr in lr_strategy(), wd in wd_strategy(),
        ) {
            run_undo_property(OptimizerKind::Lamb { lr, weight_decay: wd }, seed, steps, 1e-3);
        }

        #[test]
        fn amsgrad_undo_always_errors(
            seed in 0u64..1000, steps in 1usize..6,
            lr in lr_strategy(), wd in wd_strategy(),
        ) {
            // The running max is non-invertible at *every* hyperparameter
            // setting — undo must refuse, never silently corrupt.
            let mut opt = OptimizerKind::AmsGrad { lr, weight_decay: wd }.build();
            let mut rng = CounterRng::new(seed, 3);
            let mut p = Tensor::randn([16], 0.0, 1.0, &mut rng);
            for _ in 0..steps {
                let g = Tensor::randn([16], 0.0, 0.1, &mut rng);
                opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
            }
            let g = Tensor::randn([16], 0.0, 0.1, &mut rng);
            let err = opt
                .undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
                .unwrap_err();
            prop_assert!(matches!(err, UndoError::NotInvertible("AMSGrad")));
        }

        #[test]
        fn undo_then_redo_converges_to_same_point(seed in 0u64..500) {
            // After undo, re-applying the same gradient must land within
            // float noise of the original post-step state — the property
            // that makes recovery resume exactly where training left off.
            let mut opt = OptimizerKind::Adam { lr: 1e-2, weight_decay: 0.0 }.build();
            let mut rng = CounterRng::new(seed, 7);
            let mut p = Tensor::randn([16], 0.0, 1.0, &mut rng);
            let g = Tensor::randn([16], 0.0, 0.1, &mut rng);
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
            let p_stepped = p.clone();
            opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g)).unwrap();
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
            prop_assert!(p.max_abs_diff(&p_stepped) < 1e-4);
        }
    }
}
