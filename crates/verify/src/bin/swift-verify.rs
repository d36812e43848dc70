//! The `swift-verify` driver: runs all three analyzers against the real
//! codebase and exits nonzero on any violation.
//!
//! - **race** — executes live, traced recovery scenarios on the in-process
//!   fabric (a skewed-sequence fence, a kill + respawn + epoch-bumped
//!   fence, re-entrant fences with stale traffic) and replays each trace
//!   through the happens-before checker.
//! - **fsm** — analyzes the declarative recovery transition table.
//! - **invert** — round-trips a step through every undoable optimizer
//!   family's real `step_one`/`undo_one`, and checks that the known
//!   non-invertible configurations are rejected.
//!
//! Run via `cargo xtask verify` (which also applies the source lints) or
//! directly with `cargo run -p swift-verify`.

use bytes::Bytes;
use swift_core::{recovery_fence, recovery_fsm};
use swift_net::{
    declare_failed, failure_epoch, Cluster, Rank, RetryPolicy, Topology, Trace, WorkerCtx,
};
use swift_obs::{Epoch, Generation};
use swift_verify::{fsm, invert, race, Violation};

fn main() {
    let mut all: Vec<Violation> = Vec::new();
    let mut sections = 0usize;

    for (name, trace) in [
        ("skewed-sequence fence", traced_skewed_fence()),
        (
            "kill + respawn + epoch-bumped fence",
            traced_kill_respawn_fence(),
        ),
        (
            "re-entrant fences with stale traffic",
            traced_reentrant_fences(),
        ),
    ] {
        let vs = race::check_trace(&trace);
        report(
            &format!("race: {name} ({} events)", trace.events.len()),
            &vs,
        );
        all.extend(vs);
        sections += 1;
    }

    let table = recovery_fsm();
    let vs = fsm::analyze(&table);
    report(
        &format!(
            "fsm: {} ({} states, {} transitions)",
            table.name,
            table.states.len(),
            table.transitions.len()
        ),
        &vs,
    );
    all.extend(vs);
    sections += 1;

    let vs = invert::check_all();
    report("invert: optimizer step/undo round trips", &vs);
    all.extend(vs);
    sections += 1;

    if all.is_empty() {
        println!("swift-verify: {sections} sections clean");
    } else {
        eprintln!("swift-verify: {} violation(s)", all.len());
        std::process::exit(1);
    }
}

fn report(section: &str, vs: &[Violation]) {
    if vs.is_empty() {
        println!("  ok   {section}");
    } else {
        println!("  FAIL {section}");
        for v in vs {
            eprintln!("       {v}");
        }
    }
}

/// Rank `r` runs `r` solo collectives before fencing, so the fence must
/// realign genuinely skewed sequence numbers.
fn traced_skewed_fence() -> Trace {
    let cluster = Cluster::new(Topology::uniform(3, 1));
    let tracer = cluster.enable_tracing();
    let handles: Vec<_> = (0..3)
        .map(|rank| {
            cluster.spawn(rank, move |mut ctx| {
                for _ in 0..ctx.rank() {
                    let me = [ctx.rank()];
                    ctx.comm.barrier_among(&me).expect("solo barrier");
                }
                recovery_fence(&mut ctx, Generation::new(1), &[0, 1, 2]).expect("fence");
                ring_exchange(&mut ctx, &[0, 1, 2], 11);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    tracer.snapshot()
}

/// Rank 1's machine is killed mid-job; the survivors fence under the
/// bumped epoch together with a respawned replacement, then resume
/// traffic. The trace must show every purge happening-before every
/// fence exit and no cross-generation deliveries.
fn traced_kill_respawn_fence() -> Trace {
    let world: Vec<Rank> = vec![0, 1, 2, 3];
    let cluster = Cluster::new(Topology::uniform(4, 1));
    let tracer = cluster.enable_tracing();
    let fc = cluster.failure_controller();
    let kv = cluster.kv();

    let post_failure = |ctx: &mut WorkerCtx, participants: &[Rank]| {
        let epoch = failure_epoch(&ctx.kv);
        recovery_fence(ctx, epoch.generation(), participants).expect("fence");
        ring_exchange(ctx, participants, 6);
    };

    let mut handles = Vec::new();
    for rank in [0, 2, 3] {
        let world = world.clone();
        handles.push(cluster.spawn(rank, move |mut ctx| {
            ring_exchange(&mut ctx, &world, 5);
            ctx.kv.set(&format!("ring-done/{}", ctx.rank()), "1");
            // Wait for the failure declaration, then recover.
            RetryPolicy::poll().wait_until(|| failure_epoch(&ctx.kv) >= Epoch::new(1));
            post_failure(&mut ctx, &world);
        }));
    }
    let victim = {
        let world = world.clone();
        cluster.spawn(1, move |mut ctx| {
            ring_exchange(&mut ctx, &world, 5);
            ctx.kv.set("ring-done/1", "1");
            // Die only once every rank has drained its ring traffic, so
            // the scenario's only anomaly is the failure itself.
            RetryPolicy::poll()
                .wait_until(|| (0..4).all(|r| ctx.kv.get(&format!("ring-done/{r}")).is_some()));
            let machine = ctx.machine();
            ctx.comm.failure_controller().kill_machine(machine);
        })
    };
    victim.join().expect("victim panicked");
    declare_failed(&kv, &[1]);

    // Driver: bring up the replacement under the failed rank.
    fc.replace_machine(1);
    let mut rctx = cluster.respawn(1);
    handles.push(std::thread::spawn(move || post_failure(&mut rctx, &world)));
    for h in handles {
        h.join().expect("worker panicked");
    }
    tracer.snapshot()
}

/// Two back-to-back fences; a stale pre-fence message must be purged
/// rather than delivered to the post-fence receive.
fn traced_reentrant_fences() -> Trace {
    let cluster = Cluster::new(Topology::uniform(2, 1));
    let tracer = cluster.enable_tracing();
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            cluster.spawn(rank, move |mut ctx| {
                if ctx.rank() == 0 {
                    // Stale traffic that must never satisfy a post-fence
                    // receive.
                    ctx.comm
                        .send_bytes(1, 99, Bytes::from_static(b"stale"))
                        .expect("send");
                }
                recovery_fence(&mut ctx, Generation::new(1), &[0, 1]).expect("fence 1");
                recovery_fence(&mut ctx, Generation::new(2), &[0, 1]).expect("fence 2");
                if ctx.rank() == 0 {
                    ctx.comm
                        .send_bytes(1, 99, Bytes::from_static(b"fresh"))
                        .expect("send");
                } else {
                    let got = ctx.comm.recv_bytes(0, 99).expect("recv");
                    assert_eq!(&got[..], b"fresh", "stale message leaked past the fence");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    tracer.snapshot()
}

/// Every participant sends to its ring successor and receives from its
/// predecessor — deterministic point-to-point traffic on `tag`.
fn ring_exchange(ctx: &mut WorkerCtx, participants: &[Rank], tag: u64) {
    let me = ctx.rank();
    let idx = participants
        .iter()
        .position(|&r| r == me)
        .expect("participant");
    let next = participants[(idx + 1) % participants.len()];
    let prev = participants[(idx + participants.len() - 1) % participants.len()];
    ctx.comm
        .send_bytes(next, tag, Bytes::from(vec![me as u8]))
        .expect("ring send");
    let got = ctx.comm.recv_bytes(prev, tag).expect("ring recv");
    assert_eq!(got[0], prev as u8);
}
