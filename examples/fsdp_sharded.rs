//! Sharded data parallelism with replicated shards (paper §8): SWIFT's
//! FSDP extension — each rank durably stores only its own parameter shard
//! plus a backup of its ring-neighbor's, gathers the rest transiently, and
//! recovers a lost machine's shards from their surviving copies.
//!
//! Run with: `cargo run --example fsdp_sharded`

use std::time::Duration;

use swift::core::{
    fsdp_join_supervised, fsdp_recover_supervised, fsdp_train_step, gather_full_params, CrashPoint,
    FsdpWorker,
};
use swift::data::{shard_batch, BlobsDataset, Dataset};
use swift::dnn::models::mlp;
use swift::net::{Cluster, CommError, RetryPolicy, Topology};
use swift::optim::OptimizerKind;

const SGDM: OptimizerKind = OptimizerKind::SgdMomentum {
    lr: 0.05,
    weight_decay: 0.0,
    momentum: 0.9,
    dampening: 0.0,
};

fn worker() -> FsdpWorker {
    let mut w = FsdpWorker::new(mlp("fs", &[6, 32, 32, 3], 88), SGDM.build(), 3);
    // Small buckets, so updates land bucket by bucket and a crash
    // mid-backward leaves the survivors with a partial update to undo.
    w.dp.bucket_cap_bytes = 256;
    w
}

fn main() {
    let w = worker();
    let full = w.dp.model.byte_size();
    let stored = w.stored_bytes(0);
    println!(
        "model {} B; each rank durably stores {} B ({}%) — shard + ring backup",
        full,
        stored,
        100 * stored / full
    );

    let iters = 10u64;
    let ranks = [0, 1, 2];
    let cluster = Cluster::new(Topology::uniform(3, 1));
    let fc = cluster.failure_controller();
    let kv = cluster.kv();
    let mut handles = Vec::new();
    for rank in 0..3usize {
        handles.push(cluster.spawn(rank, move |mut ctx| {
            let ds = BlobsDataset::new(8, 6, 3, 0.3);
            let mut w = worker();
            // Rank 2 dies in iteration 5 with all but its first group
            // staged: the other two ranks apply every bucket but the last.
            let crash = (rank == 2).then_some(CrashPoint {
                iteration: 5,
                after_groups: 5,
            });
            loop {
                if w.dp.iteration >= iters {
                    gather_full_params(&mut ctx, &mut w, &ranks).unwrap();
                    return Some(w.dp.model.state());
                }
                let b = ds.batch(w.dp.iteration, 12);
                let s = shard_batch(&b, ctx.rank(), 3);
                match fsdp_train_step(&mut ctx, &mut w, &ranks, &s.x, &s.y, 1.0 / 12.0, crash) {
                    Ok(_) => {}
                    Err(CommError::SelfKilled) => return None,
                    Err(e @ CommError::Protocol { .. }) => panic!("protocol bug: {e}"),
                    Err(CommError::PeerFailed { .. }) => {
                        let undone = w.dp.tracker.updated().len();
                        let gen = swift::net::failure_epoch(&ctx.kv);
                        ctx.kv
                            .set(&format!("fsdp-ex/ack/{gen}/{}", ctx.rank()), "1");
                        ctx.kv
                            .wait_for("fsdp-ex/up", Duration::from_secs(30))
                            .unwrap();
                        fsdp_recover_supervised(&mut ctx, &mut w, &ranks, &RetryPolicy::recovery())
                            .unwrap();
                        println!("rank {rank} undid {undone} partially applied groups");
                    }
                }
            }
        }));
    }

    // Driver: wait for the declared failure, gate revival on survivor acks.
    let declared = kv.wait_until(Duration::from_secs(30), || {
        (!swift::net::failure_state(&kv).1.is_empty()).then_some(())
    });
    assert!(declared.is_some(), "failure never declared");
    println!("machine 2 died mid-backward at iteration 5 (its shards live on ranks 0 and 1)");
    for r in [0usize, 1] {
        kv.wait_for(&format!("fsdp-ex/ack/1/{r}"), Duration::from_secs(30))
            .unwrap();
    }
    fc.replace_machine(2);
    let mut rctx = cluster.respawn(2);
    let kv2 = kv.clone();
    let replacement = std::thread::spawn(move || {
        kv2.set("fsdp-ex/up", "1");
        let (mut w, _) = fsdp_join_supervised(
            &mut rctx,
            &|| mlp("fs", &[6, 32, 32, 3], 88),
            &|| SGDM.build(),
            3,
            &ranks,
            &RetryPolicy::recovery(),
        )
        .unwrap();
        w.dp.bucket_cap_bytes = 256;
        println!(
            "replacement rebuilt its shards from the surviving copies (iteration {})",
            w.dp.iteration
        );
        let ds = BlobsDataset::new(8, 6, 3, 0.3);
        while w.dp.iteration < iters {
            let b = ds.batch(w.dp.iteration, 12);
            let s = shard_batch(&b, rctx.rank(), 3);
            fsdp_train_step(&mut rctx, &mut w, &ranks, &s.x, &s.y, 1.0 / 12.0, None).unwrap();
        }
        gather_full_params(&mut rctx, &mut w, &ranks).unwrap();
        w.dp.model.state()
    });

    let s0 = handles.remove(0).join().unwrap().unwrap();
    let s1 = handles.remove(0).join().unwrap().unwrap();
    let _dead = handles.remove(0).join().unwrap();
    let s2 = replacement.join().unwrap();
    println!(
        "after recovery, all three full-gathered states bitwise identical: {}",
        s0.bit_eq(&s1) && s0.bit_eq(&s2)
    );
    assert!(s0.bit_eq(&s1) && s0.bit_eq(&s2));
    println!("OK");
}
