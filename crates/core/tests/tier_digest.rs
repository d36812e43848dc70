//! In-process half of the dispatch-determinism matrix (DESIGN.md): the
//! same short data-parallel training run — forward, backward, bucketed
//! all-reduce, fused optimizer update — must land on bitwise-identical
//! parameters under every SIMD tier available on this host, for every
//! fused-kernel family (SGD-momentum's mul/add chain, Adam's sqrt/div
//! direction, LAMB's dot-product trust ratio).
//!
//! Each run happens at two batch sizes: 8 rows per replica, two matmul
//! row blocks, and 4, a single partial row block (≤ `MR`), the
//! small-batch shape of every kernel.
//!
//! CI's `simd-determinism` job re-runs this test *and* diffs the
//! `train_digest` binary's output across the full `SWIFT_SIMD` ×
//! `RAYON_NUM_THREADS` matrix, extending the same assertion across
//! processes and thread counts.

use swift_core::{dp_train_step, DpWorker};
use swift_dnn::models::mlp;
use swift_dnn::ModelState;
use swift_net::{Cluster, Topology};
use swift_optim::OptimizerKind;
use swift_tensor::simd::{self, SimdTier};
use swift_tensor::{CounterRng, Tensor};

/// Rows per replica per step.
const ROWS_PER_REPLICA: [usize; 2] = [8, 4];

/// Runs 2-replica DP training for 6 iterations of `rows` rows per replica
/// under `tier` and returns rank 0's final parameters.
fn train(tier: SimdTier, opt: OptimizerKind, rows: usize) -> ModelState {
    simd::with_tier(tier, || {
        let states = Cluster::run_all(Topology::uniform(2, 1), move |mut ctx| {
            let mut w = DpWorker::new(mlp("tiers", &[24, 48, 48, 8], 13), opt.build());
            let mut rng = CounterRng::new(0x7137, ctx.rank() as u64);
            for it in 0..6u64 {
                let x = Tensor::randn([rows, 24], 0.0, 1.0, &mut rng);
                let y: Vec<usize> = (0..rows).map(|i| (it as usize * 5 + i) % 8).collect();
                let weight = 1.0 / rows as f32;
                dp_train_step(&mut ctx, &mut w, &[0, 1], &x, &y, weight, None).unwrap();
            }
            w.model.state()
        });
        assert!(states[0].bit_eq(&states[1]), "replicas diverged in-run");
        states.into_iter().next().unwrap()
    })
}

fn assert_tier_independent(opt: OptimizerKind) {
    for rows in ROWS_PER_REPLICA {
        let reference = train(SimdTier::Scalar, opt, rows);
        for &tier in simd::available_tiers() {
            assert!(
                train(tier, opt, rows).bit_eq(&reference),
                "tier {} diverged from scalar under {opt:?} at {rows} rows per replica",
                tier.name()
            );
        }
    }
}

#[test]
fn sgd_momentum_train_digest_is_tier_independent() {
    assert_tier_independent(OptimizerKind::SgdMomentum {
        lr: 0.05,
        weight_decay: 0.001,
        momentum: 0.9,
        dampening: 0.0,
    });
}

#[test]
fn adam_train_digest_is_tier_independent() {
    assert_tier_independent(OptimizerKind::Adam {
        lr: 1e-3,
        weight_decay: 0.01,
    });
}

#[test]
fn lamb_train_digest_is_tier_independent() {
    assert_tier_independent(OptimizerKind::Lamb {
        lr: 1e-3,
        weight_decay: 0.01,
    });
}
