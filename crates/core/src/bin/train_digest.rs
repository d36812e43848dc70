//! Prints hex digests of model parameters after fixed training runs, one
//! line per run:
//!
//! 1. a two-replica data-parallel run (forward, backward, bucketed
//!    all-reduce, fused Adam update) at 16 rows per replica;
//! 2. the same at 4 rows: a single matmul row block (≤ `MR`), so this
//!    line covers the small-batch kernel paths;
//! 3. a two-stage pipeline `SwiftJob` (a small Wide-ResNet, so both conv
//!    passes run; batch 10 over an uneven 3/3/2/2 micro-batch split,
//!    Adam, a checkpoint every 2 iterations), trained once failure-free
//!    and once with stage 0 killed inside a checkpoint interval, so that
//!    it regenerates its inputs and replays from the log. Both runs must
//!    end bitwise equal; the line is the digest of both stages' final
//!    parameters.
//!
//! CI's dispatch-determinism matrix runs this binary under every
//! `SWIFT_SIMD` tier × `RAYON_NUM_THREADS` combination and asserts every
//! cell prints the same lines — the cross-process half of the
//! determinism contract (DESIGN.md). The in-process half, which pins
//! tiers inside one process, lives in `tests/tier_digest.rs`.

use std::sync::Arc;

use swift_core::{dp_train_step, DpWorker, JobCrash, Parallelism, SwiftJob};
use swift_data::BlobsDataset;
use swift_dnn::models::{mlp, wide_resnet_tiny};
use swift_dnn::ModelState;
use swift_net::{Cluster, Topology};
use swift_optim::OptimizerKind;
use swift_tensor::{simd, CounterRng, Tensor};

/// FNV-1a over rank 0's parameter names and exact bit patterns after
/// 8 steps of `rows` rows per replica.
fn digest(rows: usize) -> u64 {
    let states = Cluster::run_all(Topology::uniform(2, 1), move |mut ctx| {
        let mut w = DpWorker::new(
            mlp("digest", &[32, 64, 64, 10], 11),
            OptimizerKind::Adam {
                lr: 1e-3,
                weight_decay: 0.01,
            }
            .build(),
        );
        // Each rank draws its own shard; the all-reduce makes replicas
        // converge to identical parameters regardless.
        let mut rng = CounterRng::new(0xD16E57, ctx.rank() as u64);
        for it in 0..8u64 {
            let x = Tensor::randn([rows, 32], 0.0, 1.0, &mut rng);
            let y: Vec<usize> = (0..rows).map(|i| (it as usize * 7 + i) % 10).collect();
            let weight = 1.0 / rows as f32;
            dp_train_step(&mut ctx, &mut w, &[0, 1], &x, &y, weight, None).unwrap();
        }
        w.model.state()
    });
    assert!(
        states[0].bit_eq(&states[1]),
        "replicas diverged within one run"
    );
    fnv1a(&states[..1])
}

/// The digest of a two-stage pipeline job's final parameters after 6
/// iterations, asserting first that killing stage 0 at iteration 3 (one
/// iteration past the checkpoint at 2) ends on the same bits.
fn pipeline_digest() -> u64 {
    let (size, width, classes) = (8, 4, 4);
    let job = SwiftJob::builder(
        Arc::new(move || wide_resnet_tiny("digest-pp", size, width, classes, 17)),
        OptimizerKind::Adam {
            lr: 1e-3,
            weight_decay: 0.01,
        },
        Arc::new(BlobsDataset::new(0xD16E57, 3 * size * size, classes, 0.3)),
    )
    .parallelism(Parallelism::Pipeline {
        stages: 2,
        microbatches: 4,
    })
    .batch_size(10)
    .ckpt_interval(2)
    .build()
    .expect("valid pipeline job");
    let clean = job.run(6, None);
    let failed = job.run(
        6,
        Some(JobCrash {
            machine: 0,
            iteration: 3,
            after_groups: 0,
        }),
    );
    assert!(failed.recovered, "stage 0 was never killed");
    for (stage, (a, b)) in clean.states.iter().zip(&failed.states).enumerate() {
        assert!(a.bit_eq(b), "stage {stage} diverged after recovery");
    }
    fnv1a(&clean.states)
}

/// FNV-1a over the states' parameter names and exact bit patterns, in
/// order.
fn fnv1a(states: &[ModelState]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for state in states {
        for (name, t) in &state.entries {
            for b in name.bytes() {
                mix(b);
            }
            for x in t.data() {
                for b in x.to_bits().to_le_bytes() {
                    mix(b);
                }
            }
        }
    }
    h
}

fn main() {
    eprintln!("train_digest: tier={}", simd::active_tier().name());
    for rows in [16, 4] {
        println!("{:016x}", digest(rows));
    }
    println!("{:016x}", pipeline_digest());
}
