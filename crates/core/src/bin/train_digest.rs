//! Prints hex digests of the model parameters after a fixed two-replica
//! data-parallel training run (forward, backward, bucketed all-reduce,
//! fused Adam update), one line per batch size: 16 rows per replica,
//! then 4. At 4 rows the batch is a single matmul row block (≤ `MR`), so
//! the second line covers the small-batch kernel paths.
//!
//! CI's dispatch-determinism matrix runs this binary under every
//! `SWIFT_SIMD` tier × `RAYON_NUM_THREADS` combination and asserts every
//! cell prints the same lines — the cross-process half of the
//! determinism contract (DESIGN.md). The in-process half, which pins
//! tiers inside one process, lives in `tests/tier_digest.rs`.

use swift_core::{dp_train_step, DpWorker};
use swift_dnn::models::mlp;
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

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (name, t) in &states[0].entries {
        for b in name.bytes() {
            mix(b);
        }
        for x in t.data() {
            for b in x.to_bits().to_le_bytes() {
                mix(b);
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
}
