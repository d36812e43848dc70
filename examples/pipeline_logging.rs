//! Logging-based recovery for pipeline parallelism (paper §5).
//!
//! A 3-stage pipeline trains with bubble-time logging of inter-machine
//! activations/gradients. The middle machine is killed; the replacement
//! loads the last checkpoint, downloads the logs and *replays* the lost
//! iterations — landing bit-identically on the pre-failure trajectory
//! thanks to end-to-end determinism (§6). A second run demonstrates
//! parallel recovery (§5.2) with a surviving machine assisting.
//!
//! Run with: `cargo run --example pipeline_logging`

use std::sync::Arc;

use swift::core::{JobCrash, ModelFn, Parallelism, ScenarioResult, SwiftJob};
use swift::obs::{reconstruct, MemoryRecorder};
use swift_data::BlobsDataset;
use swift_dnn::models::mlp;
use swift_optim::OptimizerKind;

fn scenario(crash: Option<(usize, u64)>, d: usize) -> ScenarioResult {
    let model_fn: ModelFn = Arc::new(|| mlp("pipe", &[8, 24, 24, 3], 43));
    let opt = OptimizerKind::SgdMomentum {
        lr: 0.05,
        weight_decay: 0.0,
        momentum: 0.9,
        dampening: 0.0,
    };
    let crash = crash.map(|(machine, iteration)| JobCrash {
        machine,
        iteration,
        after_groups: 0,
    });
    SwiftJob::builder(model_fn, opt, Arc::new(BlobsDataset::new(9, 8, 3, 0.3)))
        .parallelism(Parallelism::Pipeline {
            stages: 3,
            microbatches: 4,
        })
        .batch_size(8)
        .ckpt_interval(10)
        .parallel_recovery(d)
        .build()
        .expect("valid plan")
        .run(40, crash)
}

fn main() {
    println!("running failure-free reference (3-stage 1F1B pipeline, 40 iterations)…");
    let clean = scenario(None, 1);

    println!("running with machine 1 killed at iteration 20, sequential replay…");
    let recorder = Arc::new(MemoryRecorder::new());
    swift::obs::install(recorder.clone());
    let failed = scenario(Some((1, 20)), 1);
    swift::obs::uninstall();

    for stage in 0..3 {
        let bit = clean.states[stage].bit_eq(&failed.states[stage]);
        println!("  stage {stage}: recovered state bitwise identical to failure-free: {bit}");
        assert!(bit, "logging replay must be deterministic (§6)");
    }
    println!(
        "  loss trajectory: failure-free last {:.4}, recovered last {:.4}",
        clean.losses.last().unwrap(),
        failed.losses.last().unwrap()
    );
    println!("  recovery breakdown (every rank's phase spans, §6):");
    let timeline = reconstruct(&recorder.events()).expect("valid recovery timeline");
    for line in timeline.render_text().lines() {
        println!("    {line}");
    }

    println!("running with machine 1 killed at iteration 20, parallel recovery (d = 2)…");
    let parallel = scenario(Some((1, 20)), 2);
    let drift = clean.states[1].max_abs_diff(&parallel.states[1]);
    println!(
        "  stage 1 drift vs failure-free: {drift:.2e} \
         (parallel replay reorders the gradient sum — logically equivalent, §5.2)"
    );
    assert!(
        drift < 1e-3,
        "parallel recovery must track the sequential trajectory"
    );
    println!("OK");
}
