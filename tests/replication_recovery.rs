//! Integration: replication-based recovery across crates — real DP
//! training on the in-process cluster with mid-update crash injection
//! (paper §3–4, Fig. 5).

use std::sync::Arc;

use swift::core::{evaluate_state, JobCrash, ModelFn, Parallelism, SwiftJob};
use swift::data::BlobsDataset;
use swift::dnn::models::mlp;
use swift::optim::OptimizerKind;

/// A 2-machine DP job on `model_fn` and `dataset` at `batch_size`,
/// run for `iters` iterations with an optional mid-update crash
/// `(machine, iteration, after_groups)`.
fn run_dp(
    model_fn: ModelFn,
    dataset: BlobsDataset,
    opt: OptimizerKind,
    batch_size: usize,
    crash: Option<(usize, u64, usize)>,
    iters: u64,
) -> swift::core::ScenarioResult {
    let crash = crash.map(|(machine, iteration, after_groups)| JobCrash {
        machine,
        iteration,
        after_groups,
    });
    SwiftJob::builder(model_fn, opt, Arc::new(dataset))
        .parallelism(Parallelism::Data { machines: 2 })
        .batch_size(batch_size)
        .build()
        .unwrap()
        .run(iters, crash)
}

fn scenario(
    opt: OptimizerKind,
    crash: Option<(usize, u64, usize)>,
    iters: u64,
) -> swift::core::ScenarioResult {
    let model_fn: ModelFn = Arc::new(|| mlp("it", &[6, 24, 3], 77));
    run_dp(
        model_fn,
        BlobsDataset::new(5, 6, 3, 0.3),
        opt,
        16,
        crash,
        iters,
    )
}

const SGDM: OptimizerKind = OptimizerKind::SgdMomentum {
    lr: 0.05,
    weight_decay: 0.001,
    momentum: 0.9,
    dampening: 0.0,
};

#[test]
fn recovered_run_matches_failure_free_trajectory() {
    let clean = scenario(SGDM, None, 40);
    let failed = scenario(SGDM, Some((1, 20, 2)), 40);
    assert!(failed.recovered);
    // Replicas bit-identical after recovery.
    assert!(failed.states[0].bit_eq(&failed.states[1]));
    // Trajectory matches failure-free within the floating-point undo error.
    let drift = clean.states[0].max_abs_diff(&failed.states[0]);
    assert!(drift < 1e-3, "drift {drift}");
}

#[test]
fn recovery_works_with_adam() {
    let opt = OptimizerKind::Adam {
        lr: 5e-3,
        weight_decay: 0.01,
    };
    let clean = scenario(opt, None, 30);
    let failed = scenario(opt, Some((0, 15, 1)), 30);
    assert!(failed.states[0].bit_eq(&failed.states[1]));
    let drift = clean.states[0].max_abs_diff(&failed.states[0]);
    assert!(drift < 1e-3, "drift {drift}");
}

#[test]
fn accuracy_unaffected_by_failure() {
    // The paper's Fig. 11a claim: update-undo does not change final model
    // quality.
    let model_fn: ModelFn = Arc::new(|| mlp("it", &[6, 24, 3], 77));
    let ds = BlobsDataset::new(5, 6, 3, 0.3);
    let clean = scenario(SGDM, None, 60);
    let failed = scenario(SGDM, Some((1, 30, 3)), 60);
    let a_clean = evaluate_state(&model_fn, &clean.states[0], &ds, 64, 8);
    let a_failed = evaluate_state(&model_fn, &failed.states[0], &ds, 64, 8);
    assert!(a_clean > 0.9, "baseline learns: {a_clean}");
    assert!((a_clean - a_failed).abs() < 0.03, "{a_clean} vs {a_failed}");
}

#[test]
fn crash_at_first_group_and_last_group() {
    // Edge positions of the crash window.
    for after_groups in [1usize, 4] {
        let failed = scenario(SGDM, Some((1, 10, after_groups)), 20);
        assert!(
            failed.states[0].bit_eq(&failed.states[1]),
            "after_groups={after_groups}"
        );
    }
}

#[test]
fn losses_continue_decreasing_after_recovery() {
    let failed = scenario(SGDM, Some((1, 20, 2)), 60);
    let early: f32 = failed.losses[2..6].iter().sum::<f32>() / 4.0;
    let late: f32 = failed.losses[failed.losses.len() - 4..].iter().sum::<f32>() / 4.0;
    assert!(
        late < early,
        "loss should keep decreasing: early {early} late {late}"
    );
}

#[test]
fn cnn_model_recovery_through_conv_layers() {
    // The Wide-ResNet stand-in (real Conv2d forward/backward) through the
    // full crash-consistency + replication path.
    use swift::dnn::models::wide_resnet_tiny;
    let model_fn: ModelFn = Arc::new(|| wide_resnet_tiny("wrn", 6, 8, 3, 13));
    let run = |crash: Option<(usize, u64, usize)>| {
        let ds = BlobsDataset::new(19, 3 * 6 * 6, 3, 0.5);
        run_dp(model_fn.clone(), ds, SGDM, 8, crash, 10)
    };
    let clean = run(None);
    let failed = run(Some((1, 5, 3)));
    assert!(failed.states[0].bit_eq(&failed.states[1]));
    let drift = clean.states[0].max_abs_diff(&failed.states[0]);
    assert!(drift < 1e-3, "CNN recovery drift {drift}");
}
