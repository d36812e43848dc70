//! Update-undo deep dive (paper §4, Algorithms 1–8).
//!
//! Shows, at the optimizer level, how SWIFT repairs the crash-consistency
//! problem without snapshots: each optimizer's update is mathematically
//! inverted using only the cached gradient, including the partial
//! (layer-wise) case where a crash interrupts the update half-way.
//!
//! Run with: `cargo run --example data_parallel_undo`

use swift_core::{repair_partial_update, UpdateTracker};
use swift_dnn::models::mlp;
use swift_dnn::{Mode, StepCtx};
use swift_optim::{OptimizerKind, UndoError};
use swift_tensor::{CounterRng, Tensor};

fn main() {
    // --- 1. Table 1: which optimizers are undoable, as the job builder
    // checks it.
    println!("optimizer invertibility (paper Table 1):");
    for kind in OptimizerKind::TABLE1 {
        println!(
            "  {:<8} ops {:?} → undoable: {}",
            kind.name(),
            kind.operators()
                .iter()
                .map(|o| o.name())
                .collect::<Vec<_>>(),
            kind.check_undoable().is_ok()
        );
    }

    // --- 2. Step + undo round-trips for every invertible optimizer.
    println!("\nstep → undo round-trip error (max |Δ| on 4096 params, 5 steps):");
    let kinds = [
        OptimizerKind::Sgd {
            lr: 0.05,
            weight_decay: 0.01,
        },
        OptimizerKind::SgdMomentum {
            lr: 0.05,
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
    for kind in kinds {
        let mut opt = kind.build();
        let mut rng = CounterRng::new(1, 0);
        let mut p = Tensor::randn([4096], 0.0, 1.0, &mut rng);
        for _ in 0..4 {
            let g = Tensor::randn([4096], 0.0, 0.1, &mut rng);
            opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        }
        let before = p.clone();
        let g = Tensor::randn([4096], 0.0, 0.1, &mut rng);
        opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
        opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&g))
            .unwrap();
        println!("  {:<14} {:.2e}", opt.name(), p.max_abs_diff(&before));
    }

    // AMSGrad cannot be undone (element-wise max destroys information).
    let mut ams = OptimizerKind::AmsGrad {
        lr: 1e-3,
        weight_decay: 0.0,
    }
    .build();
    let mut p = Tensor::ones([4]);
    let g = Tensor::full([4], 0.1);
    ams.step(std::slice::from_mut(&mut p), std::slice::from_ref(&g));
    assert_eq!(
        ams.undo_one(0, &mut p, &g),
        Err(UndoError::NotInvertible("AMSGrad"))
    );
    println!(
        "  AMSGrad        rejected: {:?}",
        UndoError::NotInvertible("AMSGrad")
    );

    // --- 3. The crash-consistency scenario (paper Fig. 4/5): a model's
    // update is interrupted after 2 of 4 parameter groups.
    let mut model = mlp("m", &[8, 16, 4], 9);
    let mut opt = OptimizerKind::SgdMomentum {
        lr: 0.1,
        weight_decay: 0.0,
        momentum: 0.9,
        dampening: 0.0,
    }
    .build();
    let ctx = StepCtx::new(0, 0);
    let y = model.forward(ctx, &Tensor::ones([4, 8]), Mode::Train);
    model.backward(ctx, &y.scale(0.05));
    let consistent = model.state();

    // The cached gradients g_t: the update reads them, and so does the undo.
    let grads = model.grads_snapshot();
    let mut tracker = UpdateTracker::new();
    for group in 0..2 {
        model.apply_update_with(opt.as_mut(), &grads, group, group + 1);
        tracker.mark(group); // …crash happens here, groups 2..4 never run
    }
    println!(
        "\ncrash mid-update: groups {:?} updated, model drifted by {:.2e}",
        tracker.updated(),
        model.state().max_abs_diff(&consistent)
    );
    repair_partial_update(&mut model, opt.as_mut(), &grads, &mut tracker).unwrap();
    println!(
        "after update-undo: drift {:.2e} (consistent again, no snapshot needed)",
        model.state().max_abs_diff(&consistent)
    );
    assert!(model.state().max_abs_diff(&consistent) < 1e-5);
    println!("OK");
}
