//! An in-process pipeline job removes the stores it creates: its global
//! store (checkpoints, uploaded logs) and every worker's machine-local
//! log store, the replacement's included. This file holds one test, so no
//! other job of this process creates stores while it lists them.

use std::sync::Arc;

use swift::core::{JobCrash, ModelFn, Parallelism, SwiftJob};
use swift::data::BlobsDataset;
use swift::dnn::models::mlp;
use swift::optim::OptimizerKind;

/// The temp-dir entries this process's stores are named by
/// (`swift-<label>-<pid>-<n>`).
fn stores_of_this_process() -> Vec<String> {
    let tag = format!("-{}-", std::process::id());
    let mut names: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("swift-") && n.contains(&tag))
        .collect();
    names.sort();
    names
}

#[test]
fn pipeline_runs_leave_no_store_behind() {
    let before = stores_of_this_process();
    let model_fn: ModelFn = Arc::new(|| mlp("st", &[8, 16, 3], 5));
    let job = SwiftJob::builder(
        model_fn,
        OptimizerKind::Sgd {
            lr: 0.05,
            weight_decay: 0.0,
        },
        Arc::new(BlobsDataset::new(9, 8, 3, 0.3)),
    )
    .parallelism(Parallelism::Pipeline {
        stages: 2,
        microbatches: 2,
    })
    .batch_size(8)
    .ckpt_interval(3)
    .build()
    .unwrap();
    let clean = job.run(8, None);
    let killed = job.run(
        8,
        Some(JobCrash {
            machine: 0,
            iteration: 5,
            after_groups: 0,
        }),
    );
    assert!(killed.recovered);
    for (c, k) in clean.states.iter().zip(&killed.states) {
        assert!(
            c.bit_eq(k),
            "the killed run must restore the clean run's bits"
        );
    }
    assert_eq!(stores_of_this_process(), before);
}
