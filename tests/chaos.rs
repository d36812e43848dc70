//! Chaos testing: randomized failure injection across the scenario space.
//!
//! Deterministically seeded sweeps over crash coordinates (which machine,
//! which iteration, how deep into the update) — every combination must
//! recover to the failure-free trajectory. This is the breadth companion
//! to the targeted integration tests.

use std::sync::Arc;

use swift::core::{
    dp_train_step, replication_join_supervised, replication_recover_supervised, DpWorker, JobCrash,
    ModelFn, Parallelism, SwiftJob,
};
use swift::data::{shard_batch, BlobsDataset, Dataset};
use swift::dnn::models::mlp;
use swift::dnn::ModelState;
use swift::net::{
    failure_epoch, failure_state, Cluster, CommError, CrashTrigger, FaultPlan, HeartbeatConfig,
    Rank, RetryPolicy, Topology, WorkerCtx,
};
use swift::optim::OptimizerKind;
use swift::tensor::CounterRng;

const SGDM: OptimizerKind = OptimizerKind::SgdMomentum {
    lr: 0.05,
    weight_decay: 0.001,
    momentum: 0.9,
    dampening: 0.0,
};

/// A pipeline crash: `machine` dies once it reports `iteration`.
fn pp_crash((machine, iteration): (usize, u64)) -> JobCrash {
    JobCrash {
        machine,
        iteration,
        after_groups: 0,
    }
}

#[test]
fn dp_random_crash_points_all_recover() {
    let iters = 14u64;
    let model_fn = || -> ModelFn { Arc::new(|| mlp("chaos-dp", &[6, 16, 12, 3], 97)) };
    let job = SwiftJob::builder(model_fn(), SGDM, Arc::new(BlobsDataset::new(41, 6, 3, 0.4)))
        .parallelism(Parallelism::Data { machines: 3 })
        .batch_size(12)
        .build()
        .unwrap();
    let run = |crash: Option<(usize, u64, usize)>| {
        let crash = crash.map(|(machine, iteration, after_groups)| JobCrash {
            machine,
            iteration,
            after_groups,
        });
        job.run(iters, crash)
    };
    let clean = run(None);
    let mut rng = CounterRng::new(0xC405, 0);
    for trial in 0..6 {
        let machine = rng.below(3) as usize;
        let iteration = 1 + rng.below(iters - 2);
        let after_groups = 1 + rng.below(5) as usize; // 6 groups in the model
        let failed = run(Some((machine, iteration, after_groups)));
        assert!(
            failed.states[0].bit_eq(&failed.states[1])
                && failed.states[0].bit_eq(&failed.states[2]),
            "trial {trial} (m{machine}, it{iteration}, g{after_groups}): replicas diverged"
        );
        let drift = clean.states[0].max_abs_diff(&failed.states[0]);
        assert!(
            drift < 1e-3,
            "trial {trial} (m{machine}, it{iteration}, g{after_groups}): drift {drift}"
        );
    }
}

#[test]
fn pipeline_random_crash_points_all_recover_bitwise() {
    let iters = 16u64;
    let model_fn = || -> ModelFn { Arc::new(|| mlp("chaos-pp", &[8, 20, 20, 20, 3], 98)) };
    let run = |crash: Option<(usize, u64)>, d| {
        SwiftJob::builder(model_fn(), SGDM, Arc::new(BlobsDataset::new(43, 8, 3, 0.4)))
            .parallelism(Parallelism::Pipeline {
                stages: 4,
                microbatches: 4,
            })
            .batch_size(8)
            .ckpt_interval(5)
            .parallel_recovery(d)
            .build()
            .unwrap()
            .run(iters, crash.map(pp_crash))
    };
    let clean = run(None, 1);
    let mut rng = CounterRng::new(0xC406, 0);
    for trial in 0..5 {
        let machine = rng.below(4) as usize;
        let iteration = 1 + rng.below(iters - 2);
        let failed = run(Some((machine, iteration)), 1);
        for s in 0..4 {
            assert!(
                clean.states[s].bit_eq(&failed.states[s]),
                "trial {trial} (m{machine}, it{iteration}): stage {s} not bitwise"
            );
        }
    }
}

#[test]
fn dp_message_chaos_converges_bit_identically() {
    // A seeded adversarial fault plan — per-link delay/jitter, reordering,
    // transient drops (with retransmission), duplicates — must be fully
    // absorbed by the sequence-numbered transport: training converges
    // bit-identically to the fault-free run.
    let iters = 10u64;
    let model_fn = || -> ModelFn { Arc::new(|| mlp("chaos-msg-dp", &[6, 14, 3], 96)) };
    let run = |faults: Option<FaultPlan>| {
        let mut b = SwiftJob::builder(model_fn(), SGDM, Arc::new(BlobsDataset::new(40, 6, 3, 0.4)))
            .parallelism(Parallelism::Data { machines: 3 })
            .batch_size(12);
        if let Some(plan) = faults {
            b = b.faults(plan);
        }
        b.build().unwrap().run(iters, None)
    };
    let clean = run(None);
    let chaotic = run(Some(FaultPlan::chaos(0xD15C0)));
    for r in 0..3 {
        assert!(
            clean.states[r].bit_eq(&chaotic.states[r]),
            "rank {r} diverged under message chaos"
        );
    }
    let stats = chaotic.fault_stats.expect("injector stats");
    assert!(stats.delayed > 0, "chaos plan never delayed a message");
    assert!(
        stats.reordered + stats.dropped + stats.duplicated > 0,
        "chaos plan never perturbed ordering: {stats:?}"
    );
    assert_eq!(
        stats.retransmitted, stats.dropped,
        "every drop must be retransmitted"
    );
}

#[test]
fn pipeline_message_chaos_converges_bit_identically() {
    // Same adversary against the pipeline: activation/gradient traffic is
    // delayed, reordered, dropped and duplicated, yet the run is bitwise
    // identical to fault-free.
    let iters = 8u64;
    let model_fn = || -> ModelFn { Arc::new(|| mlp("chaos-msg-pp", &[8, 18, 18, 3], 95)) };
    let run = |faults: Option<FaultPlan>| {
        let mut b = SwiftJob::builder(model_fn(), SGDM, Arc::new(BlobsDataset::new(46, 8, 3, 0.4)))
            .parallelism(Parallelism::Pipeline {
                stages: 3,
                microbatches: 4,
            })
            .batch_size(8)
            .ckpt_interval(3);
        if let Some(plan) = faults {
            b = b.faults(plan);
        }
        b.build().unwrap().run(iters, None)
    };
    let clean = run(None);
    let chaotic = run(Some(FaultPlan::chaos(0xD15C1)));
    for s in 0..3 {
        assert!(
            clean.states[s].bit_eq(&chaotic.states[s]),
            "stage {s} diverged under message chaos"
        );
    }
    let stats = chaotic.fault_stats.expect("injector stats");
    assert!(stats.delayed > 0);
}

/// The data-parallel training loop used by the cascading-failure test:
/// detection, acknowledgment, and recovery all run off the declared
/// failure state — the only injector interaction is `note_iteration`
/// (progress reporting for the scripted crash trigger).
fn cascade_train(
    ctx: &mut WorkerCtx,
    w: &mut DpWorker,
    iters: u64,
) -> Result<ModelState, CommError> {
    let group: Vec<Rank> = (0..4).collect();
    let ds = BlobsDataset::new(33, 6, 3, 0.4);
    loop {
        if w.iteration >= iters {
            return Ok(w.model.state());
        }
        ctx.note_iteration(w.iteration)?;
        let b = ds.batch(w.iteration, 12);
        let s = shard_batch(&b, ctx.rank(), 4);
        match dp_train_step(ctx, w, &group, &s.x, &s.y, 1.0 / 12.0, None) {
            Ok(_) => {}
            Err(CommError::PeerFailed { .. }) => {
                let epoch = failure_epoch(&ctx.kv);
                ctx.kv.set(&format!("casc/ack/{epoch}/{}", ctx.rank()), "1");
                replication_recover_supervised(ctx, w, &group, &RetryPolicy::recovery())?;
            }
            Err(e) => return Err(e),
        }
    }
}

#[test]
fn cascading_failure_mid_recovery_converges() {
    // Machine 1 dies via a crash trigger at iteration 3. While the
    // survivors are mid-recovery (acked, inside the supervised fence),
    // machine 2 is killed too — the cascade of paper Appendix B. The
    // heartbeat detector declares it, every fence wait aborts, and the
    // supervisor restarts recovery under the new epoch with both
    // replacements. No production path consults injector ground truth;
    // the driver itself waits on *declared* state.
    let iters = 10u64;
    let run = |cascade: bool| -> Vec<ModelState> {
        let cluster = Cluster::new(Topology::uniform(4, 1));
        let fc = cluster.failure_controller();
        let kv = cluster.kv();
        if cascade {
            cluster.install_faults(FaultPlan::new(7).with_crash(CrashTrigger::AtIteration {
                rank: 1,
                iteration: 3,
            }));
            cluster.enable_heartbeats(HeartbeatConfig::default());
        }
        let mut handles = Vec::new();
        for rank in 0..4usize {
            handles.push(cluster.spawn(rank, move |mut ctx| {
                let mut w = DpWorker::new(mlp("casc", &[6, 14, 3], 31), SGDM.build());
                match cascade_train(&mut ctx, &mut w, iters) {
                    Ok(state) => Some(state),
                    Err(CommError::SelfKilled) => {
                        // Fail-stop: the (simulated) process is gone. The
                        // exit marker lets the driver sequence the respawn.
                        ctx.kv.set(&format!("casc/dead/{}", ctx.rank()), "1");
                        None
                    }
                    Err(e) => panic!("rank {}: {e}", ctx.rank()),
                }
            }));
        }
        let mut replacements = Vec::new();
        if cascade {
            let p = RetryPolicy::poll();
            // First failure: declared, and every survivor acked under
            // epoch 1 — so all of them are inside supervised recovery.
            assert!(
                p.wait_until(|| failure_state(&kv).1.contains(&1)),
                "failure 1 undeclared"
            );
            for r in [0usize, 2, 3] {
                assert!(
                    p.wait_until(|| kv.get(&format!("casc/ack/1/{r}")).is_some()),
                    "rank {r} never acked"
                );
            }
            // The cascade: a second machine dies mid-recovery.
            fc.kill_machine(2);
            assert!(
                p.wait_until(|| kv.get("casc/dead/2").is_some()),
                "victim 2 never unwound"
            );
            assert!(
                p.wait_until(|| failure_state(&kv).1.contains(&2)),
                "cascade never declared (heartbeat detector)"
            );
            for mach in [1usize, 2] {
                assert!(p.wait_until(|| kv.get(&format!("casc/dead/{mach}")).is_some()));
                fc.replace_machine(mach);
                let mut rctx = cluster.respawn(mach);
                replacements.push(std::thread::spawn(move || {
                    let (mut w, _report) = replication_join_supervised(
                        &mut rctx,
                        &|| mlp("casc", &[6, 14, 3], 31),
                        &|| SGDM.build(),
                        &[0, 1, 2, 3],
                        &RetryPolicy::recovery(),
                    )
                    .expect("replacement join failed");
                    cascade_train(&mut rctx, &mut w, iters).expect("replacement training failed")
                }));
            }
        }
        let mut states: Vec<Option<ModelState>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (h, mach) in replacements.into_iter().zip([1usize, 2]) {
            states[mach] = Some(h.join().unwrap());
        }
        cluster.stop_heartbeat_monitor();
        states
            .into_iter()
            .map(|s| s.expect("missing state"))
            .collect()
    };
    let clean = run(false);
    let recovered = run(true);
    for r in 1..4 {
        assert!(
            recovered[0].bit_eq(&recovered[r]),
            "rank {r} diverged from rank 0 after cascading recovery"
        );
    }
    for r in 0..4 {
        let drift = clean[r].max_abs_diff(&recovered[r]);
        assert!(drift < 1e-3, "rank {r} drift {drift} vs fault-free");
    }
}

#[test]
fn pipeline_random_parallel_recovery_tracks_sequential() {
    let iters = 12u64;
    let model_fn = || -> ModelFn { Arc::new(|| mlp("chaos-pr", &[8, 20, 20, 3], 99)) };
    let run = |crash: Option<(usize, u64)>, d| {
        SwiftJob::builder(model_fn(), SGDM, Arc::new(BlobsDataset::new(45, 8, 3, 0.4)))
            .parallelism(Parallelism::Pipeline {
                stages: 3,
                microbatches: 4,
            })
            .batch_size(8)
            .ckpt_interval(4)
            .parallel_recovery(d)
            .build()
            .unwrap()
            .run(iters, crash.map(pp_crash))
    };
    let clean = run(None, 1);
    let mut rng = CounterRng::new(0xC407, 0);
    for trial in 0..3 {
        let machine = rng.below(3) as usize;
        let iteration = 1 + rng.below(iters - 2);
        let d = 2 + rng.below(2) as usize; // 2 or 3 replicas
        let failed = run(Some((machine, iteration)), d);
        for s in 0..3 {
            let drift = clean.states[s].max_abs_diff(&failed.states[s]);
            assert!(
                drift < 1e-3,
                "trial {trial} (m{machine}, it{iteration}, d{d}): stage {s} drift {drift}"
            );
        }
    }
}

#[test]
fn traced_recovery_has_no_protocol_races() {
    // A full failure + supervised recovery with the fabric tracer
    // installed: rank 1 crashes at iteration 3, the heartbeat detector
    // declares it, the survivors recover through the supervised fence
    // and a respawned replacement joins, then training finishes. The
    // recorded vector-clocked trace must replay clean through the
    // swift-verify happens-before checker: no stale-epoch deliveries, no
    // receive racing an epoch bump, and every fence exit happening-after
    // all participants' purges.
    let iters = 8u64;
    let cluster = Cluster::new(Topology::uniform(4, 1));
    let tracer = cluster.enable_tracing();
    let fc = cluster.failure_controller();
    let kv = cluster.kv();
    cluster.install_faults(FaultPlan::new(11).with_crash(CrashTrigger::AtIteration {
        rank: 1,
        iteration: 3,
    }));
    cluster.enable_heartbeats(HeartbeatConfig::default());
    let mut handles = Vec::new();
    for rank in 0..4usize {
        handles.push(cluster.spawn(rank, move |mut ctx| {
            let mut w = DpWorker::new(mlp("traced", &[6, 14, 3], 31), SGDM.build());
            match cascade_train(&mut ctx, &mut w, iters) {
                Ok(state) => Some(state),
                Err(CommError::SelfKilled) => {
                    ctx.kv.set(&format!("casc/dead/{}", ctx.rank()), "1");
                    None
                }
                Err(e) => panic!("rank {}: {e}", ctx.rank()),
            }
        }));
    }
    let p = RetryPolicy::poll();
    assert!(
        p.wait_until(|| kv.get("casc/dead/1").is_some()),
        "victim never unwound"
    );
    assert!(
        p.wait_until(|| failure_state(&kv).1.contains(&1)),
        "failure never declared"
    );
    fc.replace_machine(1);
    let mut rctx = cluster.respawn(1);
    let replacement = std::thread::spawn(move || {
        let (mut w, _report) = replication_join_supervised(
            &mut rctx,
            &|| mlp("traced", &[6, 14, 3], 31),
            &|| SGDM.build(),
            &[0, 1, 2, 3],
            &RetryPolicy::recovery(),
        )
        .expect("replacement join failed");
        cascade_train(&mut rctx, &mut w, iters).expect("replacement training failed")
    });
    let states: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let rstate = replacement.join().unwrap();
    cluster.stop_heartbeat_monitor();
    assert!(
        states[0].as_ref().expect("rank 0 state").bit_eq(&rstate),
        "replicas diverged after recovery"
    );

    let trace = tracer.snapshot();
    assert!(
        trace
            .events
            .iter()
            .any(|e| matches!(e.kind, swift::net::EventKind::EpochBump { .. })),
        "trace must cover the recovery epoch bump"
    );
    let violations = swift_verify::race::check_trace(&trace);
    assert!(
        violations.is_empty(),
        "protocol races in a {}-event trace: {violations:?}",
        trace.events.len()
    );
}
