//! Process-backend chaos tests: real OS processes, real `SIGKILL`.
//!
//! Each rank runs as a separate `swift-worker` process over the
//! Unix-socket transport; the supervisor kills the victim with a real
//! `SIGKILL` at a progress trigger, waits for the heartbeat monitor to
//! declare the death, respawns a replacement, and the test asserts the
//! final model states agree with what the in-process backend produces
//! for the same recipe — bitwise across DP replicas, and within the
//! floating-point undo envelope (`< 1e-3`) against both the clean run
//! and the thread-backend crashed run with the same fault plan. (A real
//! `SIGKILL` lands at a physical instant, so whether the undo path — and
//! its ~1-ulp inversion residue — fires is timing-dependent; bitwise
//! claims live in the deterministic thread-backend tests.)
//!
//! These spawn real processes and poll real sockets, so they are out of
//! the default suite. Run them serialized:
//!
//! ```text
//! cargo test --test process_chaos -- --ignored --test-threads=1
//! ```

use std::time::Duration;

use swift::core::{run_process_scenario, Parallelism, ProcessOutcome, ProcessScenario};
use swift::net::FaultPlan;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_swift-worker");

/// Lease expiry plus one monitor poll plus generous scheduling slack:
/// a detection past this is a broken detector, not an unlucky scheduler.
fn detection_bound(cfg: &ProcessScenario) -> Duration {
    cfg.heartbeat.timeout * 2 + Duration::from_secs(1)
}

fn assert_killed_and_detected(cfg: &ProcessScenario, out: &ProcessOutcome, victim: usize) {
    assert_eq!(out.kills_dirty, 1, "SIGKILL must not leave a clean exit");
    assert_eq!(out.respawned, vec![victim]);
    assert_eq!(out.detection.len(), 1);
    let bound = detection_bound(cfg);
    assert!(
        out.detection[0] <= bound,
        "death declared after {:?}, lease bound is {:?}",
        out.detection[0],
        bound
    );
}

#[test]
#[ignore = "spawns real processes; run with --ignored --test-threads=1"]
fn dp_sigkill_is_detected_and_converges_bitwise() {
    const REPLICAS: usize = 2;
    const VICTIM: usize = 1;
    const KILL_AT: u64 = 10;

    let mut cfg = ProcessScenario::new(Parallelism::Data { machines: REPLICAS }, WORKER_BIN);
    cfg.faults = FaultPlan::new(0).kill_process(VICTIM, KILL_AT);
    let out = run_process_scenario(&cfg).expect("process scenario");
    assert_killed_and_detected(&cfg, &out, VICTIM);

    // The replication guarantee, now across real process boundaries:
    // the surviving replica and the respawned replacement agree
    // **bitwise** — same claim the in-process tests make.
    assert_eq!(out.states.len(), REPLICAS);
    for s in &out.states[1..] {
        assert!(out.states[0].bit_eq(s), "replicas diverged");
    }
    // Training made it through the full budget (re-run iterations may
    // add duplicate loss entries, never remove any).
    assert!(out.losses.len() as u64 >= cfg.iters);

    // Against the in-process clean run, replication recovery is exact up
    // to the floating-point undo error — the same 1e-3 bound the
    // in-process recovery tests hold themselves to. (Bitwise equality
    // holds across replicas, not across recovered-vs-clean runs: the
    // undo inverts the partial update in floating point.)
    let clean = cfg.job().build().unwrap().run(cfg.iters, None);
    let drift = clean.states[0].max_abs_diff(&out.states[0]);
    assert!(drift < 1e-3, "drift {drift} vs the in-process clean run");

    // The thread-backend crashed run recovers from the same plan; both
    // backends must land within the same envelope of the clean run.
    let crashed = cfg
        .job()
        .faults(FaultPlan::new(0).kill_process(VICTIM, KILL_AT))
        .build()
        .unwrap()
        .run(cfg.iters, None);
    assert!(crashed.recovered);
    let drift = crashed.states[0].max_abs_diff(&out.states[0]);
    assert!(drift < 1e-3, "drift {drift} vs the in-process crashed run");
}

/// The process-backend MTTR smoke: a real `SIGKILL` against a 3-replica
/// DP group, so the respawned replacement has two surviving sources (the
/// 2-replica test above has one). When neither survivor had to undo, the
/// two stream interleaved chunks of the state straight into the
/// replacement, 4 KiB each here (`SWIFT_SHARD_BYTES`); when either undid,
/// the lowest survivor alone streams and re-aligns the other. Where a
/// real `SIGKILL` lands decides which. The MTTR claims a smoke can make
/// across real processes: detection lands within the lease bound, the
/// replacement comes back, and recovery is exact — bitwise across all
/// three replicas, within the undo envelope of the clean run.
#[test]
#[ignore = "spawns real processes; run with --ignored --test-threads=1"]
fn dp_sigkill_mttr_smoke_recovers_via_sharded_join() {
    const REPLICAS: usize = 3;
    const VICTIM: usize = 1;
    const KILL_AT: u64 = 10;

    std::env::set_var("SWIFT_SHARD_BYTES", "4096");
    let mut cfg = ProcessScenario::new(Parallelism::Data { machines: REPLICAS }, WORKER_BIN);
    cfg.faults = FaultPlan::new(0).kill_process(VICTIM, KILL_AT);
    let out = run_process_scenario(&cfg);
    std::env::remove_var("SWIFT_SHARD_BYTES");
    let out = out.expect("process scenario");
    assert_killed_and_detected(&cfg, &out, VICTIM);

    assert_eq!(out.states.len(), REPLICAS);
    for s in &out.states[1..] {
        assert!(
            out.states[0].bit_eq(s),
            "replicas diverged after the sharded join"
        );
    }
    assert!(out.losses.len() as u64 >= cfg.iters);

    let clean = cfg.job().build().unwrap().run(cfg.iters, None);
    let drift = clean.states[0].max_abs_diff(&out.states[0]);
    assert!(drift < 1e-3, "drift {drift} vs the in-process clean run");
}

#[test]
#[ignore = "spawns real processes; run with --ignored --test-threads=1"]
fn pipeline_sigkill_mid_wal_flush_recovers_and_reports_torn_tail() {
    const VICTIM: usize = 1;
    const KILL_AT: u64 = 12; // between backstop checkpoints (interval 10)

    let mut cfg = ProcessScenario::new(
        Parallelism::Pipeline {
            stages: 3,
            microbatches: 4,
        },
        WORKER_BIN,
    );
    cfg.faults = FaultPlan::new(0).kill_process(VICTIM, KILL_AT);
    cfg.torn_wal = true;
    let out = run_process_scenario(&cfg).expect("process scenario");
    assert_killed_and_detected(&cfg, &out, VICTIM);

    // The kill tore the victim's newest machine-local WAL record, and
    // the post-run audit *reported* it — replay skips torn tails, it
    // does not abort on them. The run still finished, which is the
    // "recoverable log" claim.
    assert_eq!(out.torn_injected, 1);
    assert_eq!(out.torn_reported, out.torn_injected);
    assert!(out.losses.len() as u64 >= cfg.iters);

    // Every stage within the floating-point undo envelope of the
    // in-process clean run. Bitwise equality is NOT the contract here:
    // a real SIGKILL lands at a physical instant, so whether a survivor
    // sits one iteration past the consensus — and must *undo* its last
    // update, leaving the ~1-ulp inversion residue — depends on kill
    // timing. The thread backend aborts at deterministic points and so
    // can promise bitwise recovery; the process backend promises the
    // same 1e-3 envelope the replication tests hold the undo path to.
    let clean = cfg.job().build().unwrap().run(cfg.iters, None);
    assert_eq!(out.states.len(), clean.states.len());
    for (stage, (got, want)) in out.states.iter().zip(&clean.states).enumerate() {
        let drift = got.max_abs_diff(want);
        assert!(
            drift < 1e-3,
            "stage {stage} drifted {drift} from the in-process clean run"
        );
    }

    // ...and of the thread-backend crashed run with the same plan.
    let crashed = cfg
        .job()
        .faults(FaultPlan::new(0).kill_process(VICTIM, KILL_AT))
        .build()
        .unwrap()
        .run(cfg.iters, None);
    assert!(crashed.recovered);
    for (stage, (got, want)) in out.states.iter().zip(&crashed.states).enumerate() {
        let drift = got.max_abs_diff(want);
        assert!(
            drift < 1e-3,
            "stage {stage} drifted {drift} from the in-process crashed run"
        );
    }
}
