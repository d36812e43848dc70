//! Quickstart: fault-tolerant data-parallel training with SWIFT.
//!
//! Trains a small classifier on two simulated machines, kills one of them
//! *mid-optimizer-update* (the crash-consistency window of paper §2.3),
//! and lets SWIFT recover it: the survivor undoes its partial update (§4)
//! and broadcasts its replica to the replacement. Training finishes as if
//! nothing happened.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use swift::core::{
    evaluate_state, select_strategy, JobCrash, JobShape, Parallelism, Strategy, SwiftJob,
};
use swift_data::BlobsDataset;
use swift_dnn::models::mlp;
use swift_optim::OptimizerKind;

fn main() {
    // 1. SWIFT picks the recovery strategy from the job shape (§3):
    //    data parallelism across machines → replication-based recovery.
    let strategy = select_strategy(JobShape {
        cross_machine_replica: true,
        cross_machine_pipeline: false,
        logging_worth_it: false,
    });
    assert_eq!(strategy, Strategy::Replication);
    println!("strategy selected: {strategy:?}");

    // 2. Define the job: model factory, optimizer, dataset.
    let model_fn: swift::core::ModelFn = Arc::new(|| mlp("quickstart", &[8, 32, 3], 42));
    let dataset = Arc::new(BlobsDataset::new(7, 8, 3, 0.3));
    let opt = OptimizerKind::SgdMomentum {
        lr: 0.05,
        weight_decay: 0.001,
        momentum: 0.9,
        dampening: 0.0,
    };

    // 3. Train 80 iterations on 2 machines; machine 1 dies at iteration 40
    //    after updating only 2 of its parameter groups.
    let job = SwiftJob::builder(model_fn.clone(), opt, dataset.clone())
        .parallelism(Parallelism::Data { machines: 2 })
        .batch_size(16)
        .build()
        .expect("valid plan");
    let crash = JobCrash {
        machine: 1,
        iteration: 40,
        after_groups: 2,
    };
    let result = job.run(80, Some(crash));

    println!(
        "trained {} iterations; failure injected and recovered: {}",
        result.losses.len(),
        result.recovered
    );
    println!(
        "loss: first {:.3} → last {:.3}",
        result.losses.first().unwrap(),
        result.losses.last().unwrap()
    );

    // 4. Both replicas end bit-identical, and the model learned the task.
    assert!(
        result.states[0].bit_eq(&result.states[1]),
        "replicas must be bit-identical after recovery"
    );
    let acc = evaluate_state(&model_fn, &result.states[0], &*dataset, 64, 8);
    println!("held-out accuracy after failure + recovery: {acc:.3}");
    assert!(acc > 0.9, "model should learn the task despite the failure");
    println!("OK");
}
