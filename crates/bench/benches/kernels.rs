//! Criterion micro-benchmarks of SWIFT's hot paths: tensor kernels,
//! collectives, optimizer step/undo, logging enqueue+flush, schedule
//! generation, and the selective-logging planner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use swift_dnn::profile::{bert_128, TESTBED};
use swift_net::{default_chunk_bytes, Cluster, Topology};
use swift_optim::OptimizerKind;
use swift_pipeline::one_f_one_b;
use swift_store::BlobStore;
use swift_tensor::{matmul, CounterRng, Tensor};
use swift_wal::{plan_groups, GroupMap, LogMode, Logger, PlannerInput};

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for n in [64usize, 256] {
        let mut rng = CounterRng::new(0, 0);
        let a = Tensor::randn([n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([n, n], 0.0, 1.0, &mut rng);
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| matmul(&a, &b))
        });
    }
    g.finish();
}

fn bench_optimizer_step_undo(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer");
    let n = 1 << 16;
    for kind in [
        OptimizerKind::SgdMomentum {
            lr: 0.1,
            weight_decay: 0.01,
            momentum: 0.9,
            dampening: 0.0,
        },
        OptimizerKind::Adam {
            lr: 1e-3,
            weight_decay: 0.01,
        },
        OptimizerKind::Lamb {
            lr: 1e-3,
            weight_decay: 0.01,
        },
    ] {
        let mut opt = kind.build();
        let mut rng = CounterRng::new(1, 0);
        let mut p = Tensor::randn([n], 0.0, 1.0, &mut rng);
        let grad = Tensor::randn([n], 0.0, 0.1, &mut rng);
        let name = opt.name();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(BenchmarkId::new("step", name), |bench| {
            bench.iter(|| {
                opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&grad));
            })
        });
        g.bench_function(BenchmarkId::new("step+undo", name), |bench| {
            bench.iter(|| {
                opt.step(std::slice::from_mut(&mut p), std::slice::from_ref(&grad));
                opt.undo(std::slice::from_mut(&mut p), std::slice::from_ref(&grad))
                    .unwrap();
            })
        });
    }
    g.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce-4workers");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    for n in [1usize << 12, 1 << 16] {
        g.throughput(Throughput::Bytes((n * 4) as u64));
        // The chain all-reduce at the default chunk size and with one
        // whole-tensor message per hop.
        for (label, chunk) in [("chunked", default_chunk_bytes()), ("whole", usize::MAX)] {
            g.bench_with_input(BenchmarkId::new(label, n), &n, |bench, &n| {
                bench.iter(|| {
                    Cluster::run_all(Topology::uniform(4, 1), move |mut ctx| {
                        let t = Tensor::full([n], ctx.rank() as f32);
                        ctx.comm
                            .allreduce_sum_chunked_among(&[0, 1, 2, 3], &t, chunk)
                            .unwrap()
                            .sum()
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_logging(c: &mut Criterion) {
    let mut g = c.benchmark_group("logging");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(3));
    let topo = Topology::uniform(2, 1);
    // One store for the whole group: record keys repeat across iterations,
    // so writes overwrite in place instead of littering the filesystem.
    let store = BlobStore::new_temp("bench-logging").unwrap();
    for (name, mode) in [
        ("sync", LogMode::Sync),
        ("bubble-async", LogMode::BubbleAsync),
    ] {
        let store = store.clone();
        g.bench_function(name, |bench| {
            bench.iter_with_setup(
                || Logger::new(mode, topo.clone(), GroupMap::singletons(2), store.clone()),
                |mut logger| {
                    let t = Tensor::full([1024], 1.0);
                    for mb in 0..8u64 {
                        logger.log_send(
                            0,
                            1,
                            swift_dnn::StepCtx::new(0, mb),
                            swift_pipeline::MsgKind::Activation,
                            &t,
                        );
                    }
                    logger.on_bubble();
                    logger.flush();
                },
            )
        });
    }
    g.finish();
    let _ = store.destroy();
}

fn bench_schedule_and_planner(c: &mut Criterion) {
    c.bench_function("schedule/1f1b-128x16", |b| {
        b.iter(|| {
            (0..128)
                .map(|s| one_f_one_b(128, s, 16).len())
                .sum::<usize>()
        })
    });
    let m = bert_128();
    let input = PlannerInput {
        per_machine_compute_s: m.per_machine_compute_s(),
        boundary_bytes_per_iter: vec![m.boundary_bytes_per_iteration(); m.machines - 1],
        bandwidth_bps: TESTBED.net_bps,
        ckpt_interval: m.ckpt_interval,
        parallel_recovery: false,
    };
    c.bench_function("planner/bert-16-machines", |b| {
        b.iter(|| plan_groups(&input, 1.0e11).map.num_groups())
    });
}

/// Ablation: repairing crash consistency by *update-undo* (SWIFT, §4)
/// versus by *snapshot + restore* (Elastic Horovod / CheckFreq phase 1).
/// Undo touches only the updated groups; snapshotting copies the whole
/// model state every iteration whether or not a failure ever happens.
fn bench_consistency_repair(c: &mut Criterion) {
    use swift_dnn::models::mlp;
    use swift_dnn::{Mode, StepCtx};
    let mut g = c.benchmark_group("crash-consistency");
    let build = || {
        let mut model = mlp("b", &[256, 512, 512, 64], 3);
        let mut opt = OptimizerKind::SgdMomentum {
            lr: 0.05,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        }
        .build();
        let ctx = StepCtx::new(0, 0);
        let x = Tensor::randn([8, 256], 0.0, 1.0, &mut CounterRng::new(0, 0));
        let y = model.forward(ctx, &x, Mode::Train);
        model.backward(ctx, &y.scale(0.01));
        // The cached gradients, taken once: every timed step and undo
        // reads them. One completed step so undo has something to revert.
        let grads = model.grads_snapshot();
        model.optimizer_step(opt.as_mut());
        (model, opt, grads)
    };
    g.bench_function("swift-undo", |b| {
        let (mut model, mut opt, grads) = build();
        let every: Vec<usize> = (0..grads.len()).collect();
        b.iter(|| {
            model.apply_update_with(opt.as_mut(), &grads, 0, grads.len());
            opt.finish_step();
            model
                .undo_update_with(opt.as_mut(), &grads, &every)
                .unwrap();
            opt.rollback_step();
        })
    });
    g.bench_function("snapshot-restore", |b| {
        let (mut model, mut opt, grads) = build();
        b.iter(|| {
            // The snapshot is taken every iteration (failure-free cost!);
            // restore happens on failure. We charge both here for the
            // repair-path comparison.
            let snap = model.state();
            model.apply_update_with(opt.as_mut(), &grads, 0, grads.len());
            opt.finish_step();
            model.load_state(&snap);
        })
    });
    // The failure-free side of the ablation: snapshotting costs a full
    // state copy per interval even when nothing fails; undo costs zero.
    g.bench_function("snapshot-only-failure-free-cost", |b| {
        let (model, _, _) = build();
        b.iter(|| model.state())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_optimizer_step_undo,
    bench_allreduce,
    bench_logging,
    bench_schedule_and_planner,
    bench_consistency_repair
);
criterion_main!(benches);
