//! Integration: logging-based recovery across crates — real pipeline
//! training with bubble-time logging, machine kill, checkpoint load, and
//! deterministic replay (paper §5–6).

use std::sync::Arc;

use swift::core::{JobCrash, ModelFn, Parallelism, ScenarioResult, SwiftJob, SwiftJobBuilder};
use swift::data::BlobsDataset;
use swift::dnn::models::mlp;
use swift::optim::OptimizerKind;
use swift::wal::{LogMode, LogPrecision};

const SGDM: OptimizerKind = OptimizerKind::SgdMomentum {
    lr: 0.05,
    weight_decay: 0.0,
    momentum: 0.9,
    dampening: 0.0,
};

/// A 3-stage pipeline job, 4 micro-batches of a size-8 batch.
fn pipeline(
    model_fn: ModelFn,
    opt: OptimizerKind,
    dataset: BlobsDataset,
    ckpt_interval: u64,
) -> SwiftJobBuilder {
    SwiftJob::builder(model_fn, opt, Arc::new(dataset))
        .parallelism(Parallelism::Pipeline {
            stages: 3,
            microbatches: 4,
        })
        .batch_size(8)
        .ckpt_interval(ckpt_interval)
}

/// Runs `job` for `iters` iterations, killing `machine` once it reports
/// `iteration` when `crash` is `Some((machine, iteration))`.
fn run(job: SwiftJobBuilder, iters: u64, crash: Option<(usize, u64)>) -> ScenarioResult {
    let crash = crash.map(|(machine, iteration)| JobCrash {
        machine,
        iteration,
        after_groups: 0,
    });
    job.build().unwrap().run(iters, crash)
}

fn scenario(
    crash: Option<(usize, u64)>,
    d: usize,
    log_mode: LogMode,
    iters: u64,
) -> ScenarioResult {
    scenario_precision(crash, d, log_mode, iters, LogPrecision::F32)
}

fn scenario_precision(
    crash: Option<(usize, u64)>,
    d: usize,
    log_mode: LogMode,
    iters: u64,
    log_precision: LogPrecision,
) -> ScenarioResult {
    let model_fn: ModelFn = Arc::new(|| mlp("pl", &[8, 24, 24, 3], 43));
    let job = pipeline(model_fn, SGDM, BlobsDataset::new(9, 8, 3, 0.3), 10)
        .log_mode(log_mode)
        .log_precision(log_precision)
        .parallel_recovery(d);
    run(job, iters, crash)
}

#[test]
fn middle_stage_recovery_is_bitwise_exact() {
    let clean = scenario(None, 1, LogMode::BubbleAsync, 30);
    let failed = scenario(Some((1, 15)), 1, LogMode::BubbleAsync, 30);
    for s in 0..3 {
        assert!(
            clean.states[s].bit_eq(&failed.states[s]),
            "stage {s} must match failure-free bitwise (deterministic replay, §6)"
        );
    }
}

#[test]
fn first_stage_recovery_regenerates_inputs() {
    // Recovering stage 0 exercises the dataset-determinism path: inputs
    // are regenerated, gradients come from the log.
    let clean = scenario(None, 1, LogMode::BubbleAsync, 24);
    let failed = scenario(Some((0, 12)), 1, LogMode::BubbleAsync, 24);
    for s in 0..3 {
        assert!(clean.states[s].bit_eq(&failed.states[s]), "stage {s}");
    }
}

#[test]
fn last_stage_recovery_regenerates_loss() {
    let clean = scenario(None, 1, LogMode::BubbleAsync, 24);
    let failed = scenario(Some((2, 12)), 1, LogMode::BubbleAsync, 24);
    for s in 0..3 {
        assert!(clean.states[s].bit_eq(&failed.states[s]), "stage {s}");
    }
}

#[test]
fn sync_logging_recovers_identically() {
    // The logging mode changes *when* records hit disk, never *what* is
    // recorded: recovery outcomes are identical.
    let bubble = scenario(Some((1, 12)), 1, LogMode::BubbleAsync, 24);
    let sync = scenario(Some((1, 12)), 1, LogMode::Sync, 24);
    let asyn = scenario(Some((1, 12)), 1, LogMode::Async, 24);
    for s in 0..3 {
        assert!(bubble.states[s].bit_eq(&sync.states[s]), "stage {s} sync");
        assert!(bubble.states[s].bit_eq(&asyn.states[s]), "stage {s} async");
    }
}

#[test]
fn parallel_recovery_tracks_sequential() {
    let clean = scenario(None, 1, LogMode::BubbleAsync, 30);
    let parallel = scenario(Some((1, 15)), 2, LogMode::BubbleAsync, 30);
    // Parallel replay reorders the micro-batch gradient sum — logically
    // equivalent, numerically within float reassociation error (§5.2).
    for s in 0..3 {
        let drift = clean.states[s].max_abs_diff(&parallel.states[s]);
        assert!(drift < 1e-3, "stage {s} drift {drift}");
    }
}

#[test]
fn crash_right_after_checkpoint_replays_nothing() {
    // Failure lands exactly on a checkpoint boundary: zero iterations to
    // replay; the replacement just loads and resumes.
    let clean = scenario(None, 1, LogMode::BubbleAsync, 24);
    let failed = scenario(Some((1, 10)), 1, LogMode::BubbleAsync, 24);
    for s in 0..3 {
        assert!(clean.states[s].bit_eq(&failed.states[s]), "stage {s}");
    }
}

#[test]
fn crash_long_after_checkpoint_replays_many() {
    // 9 iterations of replay (checkpoint at 10, crash at 19).
    let clean = scenario(None, 1, LogMode::BubbleAsync, 26);
    let failed = scenario(Some((1, 19)), 1, LogMode::BubbleAsync, 26);
    for s in 0..3 {
        assert!(clean.states[s].bit_eq(&failed.states[s]), "stage {s}");
    }
}

#[test]
fn f16_logging_recovers_with_bounded_quantization_drift() {
    // Half-precision logs halve the volume (§8); replayed activations are
    // quantized, so the recovered state is no longer bitwise but must stay
    // within the f16 rounding envelope of the failure-free trajectory.
    // The crash must land while gradients are still non-zero (an
    // early-training window on a noisy task), else the replayed updates
    // are no-ops and quantization is invisible.
    let hard = |crash: Option<(usize, u64)>, prec| {
        let model_fn: ModelFn = Arc::new(|| mlp("plq", &[8, 24, 24, 6], 47));
        let opt = OptimizerKind::SgdMomentum {
            lr: 0.02,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        };
        let job = pipeline(model_fn, opt, BlobsDataset::new(13, 8, 6, 1.0), 4).log_precision(prec);
        run(job, 12, crash)
    };
    let clean = hard(None, LogPrecision::F32);
    let failed = hard(Some((1, 6)), LogPrecision::F16);
    for s in 0..3 {
        let drift = clean.states[s].max_abs_diff(&failed.states[s]);
        assert!(drift < 5e-2, "stage {s} drift {drift}");
    }
    assert!(
        !clean.states[1].bit_eq(&failed.states[1]),
        "f16 replay should not be bitwise identical while gradients are live"
    );
    // Control: the same crash with F32 logs *is* bitwise.
    let exact = hard(Some((1, 6)), LogPrecision::F32);
    assert!(clean.states[1].bit_eq(&exact.states[1]));
}

#[test]
fn gpipe_schedule_recovery_is_bitwise_exact() {
    // The logging/replay machinery is schedule-agnostic (§2.1: "our
    // approach is not limited to 1F1B"): the same failure under GPipe
    // recovers bitwise too.
    let gpipe = |crash: Option<(usize, u64)>| {
        let model_fn: ModelFn = Arc::new(|| mlp("gp", &[8, 24, 24, 3], 43));
        let job = pipeline(model_fn, SGDM, BlobsDataset::new(9, 8, 3, 0.3), 10)
            .schedule(swift::pipeline::ScheduleKind::GPipe);
        run(job, 24, crash)
    };
    let clean = gpipe(None);
    let failed = gpipe(Some((1, 13)));
    for s in 0..3 {
        assert!(clean.states[s].bit_eq(&failed.states[s]), "stage {s}");
    }
}

#[test]
fn adam_pipeline_recovery_is_bitwise_exact() {
    // Adam's moments are part of the checkpoint and the replayed updates;
    // recovery must restore them exactly too.
    let adam = |crash: Option<(usize, u64)>| {
        let model_fn: ModelFn = Arc::new(|| mlp("ad", &[8, 24, 24, 3], 51));
        let opt = OptimizerKind::Adam {
            lr: 5e-3,
            weight_decay: 0.01,
        };
        run(
            pipeline(model_fn, opt, BlobsDataset::new(9, 8, 3, 0.3), 10),
            24,
            crash,
        )
    };
    let clean = adam(None);
    let failed = adam(Some((1, 13)));
    for s in 0..3 {
        assert!(clean.states[s].bit_eq(&failed.states[s]), "stage {s}");
    }
}

#[test]
fn transformer_with_dropout_recovers_bitwise() {
    // The full §6 determinism story end-to-end: a ViT-tiny pipeline with
    // *active dropout* (counter-based masks keyed by iteration/microbatch/
    // layer) is killed mid-training; the replayed micro-batches regenerate
    // the identical masks and the recovered state is bitwise equal.
    use swift::dnn::models::vit_tiny;
    let vit = |crash: Option<(usize, u64)>| {
        let model_fn: ModelFn = Arc::new(|| vit_tiny("vt", 4, 6, 8, 3, 3, 0.1, 71));
        run(
            pipeline(model_fn, SGDM, BlobsDataset::new(33, 24, 3, 0.3), 4),
            10,
            crash,
        )
    };
    let clean = vit(None);
    let failed = vit(Some((1, 6)));
    for s in 0..3 {
        assert!(
            clean.states[s].bit_eq(&failed.states[s]),
            "stage {s}: dropout masks must regenerate identically during replay"
        );
    }
}
