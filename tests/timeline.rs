//! Recovery-timeline reconstruction on live crash scenarios: injected
//! failures must produce per-incident breakdowns whose phases are
//! complete, contiguous (non-overlapping), and structurally
//! deterministic. CI runs this binary under `RAYON_NUM_THREADS=1,2,8`
//! (the `obs` job); timestamps vary with scheduling, so determinism is
//! asserted on the *structure* — incidents, epochs, failed ranks and
//! phase sequences — never on durations.

use std::sync::{Arc, Mutex};

use swift::core::{JobCrash, Parallelism, SwiftJob, SwiftJobBuilder};
use swift::data::BlobsDataset;
use swift::dnn::models::mlp;
use swift::obs::{reconstruct, Epoch, MemoryRecorder, Phase, Rank, Timeline};
use swift::optim::OptimizerKind;

/// The span recorder is process-global; scenario runs from concurrent
/// tests would interleave their events. Every test serializes on this.
static RECORDER_SLOT: Mutex<()> = Mutex::new(());

/// A job on the scenarios' shared toy data and optimizer.
fn job(name: &'static str) -> SwiftJobBuilder {
    SwiftJob::builder(
        Arc::new(move || mlp(name, &[6, 16, 16, 3], 11)),
        OptimizerKind::SgdMomentum {
            lr: 0.05,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        },
        Arc::new(BlobsDataset::new(3, 6, 3, 0.3)),
    )
}

fn record_dp_crash() -> (Timeline, u64) {
    let _slot = RECORDER_SLOT.lock().unwrap();
    let rec = Arc::new(MemoryRecorder::new());
    swift::obs::install(rec.clone());
    // A tiny bucket cap splits the 6 groups into buckets {4,5} {3} {2}
    // {1} {0}; the victim dies after staging 5 groups (everything but
    // {0}), so four buckets fold and apply on both survivors while the
    // last strands them mid-update. The run is deterministic because the
    // victim is the highest rank: the root folds peers in ascending rank
    // order, so it blocks on the victim — and declares the death — only
    // after the other survivor's last group arrived, and after fanning
    // out the four results, which that survivor consumes before it acts
    // on the declaration. (With victim 1, the root could declare while
    // survivor 2 was still staging group 0, and survivor 2 would abort
    // in that send having applied nothing.)
    let crash = JobCrash {
        machine: 2,
        iteration: 4,
        after_groups: 5,
    };
    let result = job("tl-dp")
        .parallelism(Parallelism::Data { machines: 3 })
        .batch_size(12)
        .bucket_cap_bytes(256)
        .build()
        .unwrap()
        .run(8, Some(crash));
    swift::obs::uninstall();
    assert!(result.recovered);
    let undone = rec.counter(swift::obs::Counter::UndoneUpdates);
    (reconstruct(&rec.events()).expect("valid timeline"), undone)
}

fn record_pipeline_crash(parallel_recovery: usize) -> Timeline {
    let _slot = RECORDER_SLOT.lock().unwrap();
    let rec = Arc::new(MemoryRecorder::new());
    swift::obs::install(rec.clone());
    let crash = JobCrash {
        machine: 1,
        iteration: 6,
        after_groups: 0,
    };
    let result = job("tl-pipe")
        .parallelism(Parallelism::Pipeline {
            stages: 3,
            microbatches: 4,
        })
        .batch_size(8)
        .ckpt_interval(4)
        .parallel_recovery(parallel_recovery)
        .build()
        .unwrap()
        .run(10, Some(crash));
    swift::obs::uninstall();
    assert!(result.recovered);
    reconstruct(&rec.events()).expect("valid timeline")
}

/// The structural fingerprint of a timeline: everything that must be
/// identical run-to-run (and across thread counts), timestamps excluded.
fn shape(t: &Timeline) -> Vec<(Epoch, Vec<Rank>, bool, Vec<Phase>)> {
    t.incidents
        .iter()
        .map(|inc| {
            (
                inc.epoch,
                inc.failed.clone(),
                inc.aborted,
                inc.segments.iter().map(|s| s.phase).collect(),
            )
        })
        .collect()
}

/// Every non-aborted incident carries the full phase set for its
/// strategy and its segments tile the incident without gaps or overlap.
fn assert_complete_and_contiguous(t: &Timeline, sync: Phase) {
    assert!(!t.incidents.is_empty(), "crash produced no incident");
    for inc in &t.incidents {
        if inc.aborted {
            continue;
        }
        for need in [
            Phase::Detect,
            Phase::Undo,
            Phase::Fence,
            sync,
            Phase::Resume,
        ] {
            assert!(
                inc.segment(need).is_some(),
                "epoch {}: phase `{need}` missing",
                inc.epoch
            );
        }
        for w in inc.segments.windows(2) {
            assert_eq!(
                w[0].end_ns, w[1].start_ns,
                "epoch {}: `{}` and `{}` do not tile",
                inc.epoch, w[0].phase, w[1].phase
            );
        }
        // Phase totals must account for the whole incident: the sum of
        // segment durations equals the detect-to-resume span (§6's
        // recovery-time breakdown is exhaustive, not a sample).
        let sum: u64 = inc.segments.iter().map(|s| s.duration_ns()).sum();
        assert_eq!(
            sum,
            inc.total_ns(),
            "epoch {}: phases do not sum",
            inc.epoch
        );
    }
}

#[test]
fn dp_crash_breakdown_is_complete_and_contiguous() {
    let (t, undone) = record_dp_crash();
    assert_complete_and_contiguous(&t, Phase::Broadcast);
    let inc = &t.incidents[0];
    assert_eq!(inc.epoch, Epoch::new(1));
    assert_eq!(inc.failed, vec![2usize]);
    // The victim dies after staging buckets {4,5} {3} {2} {1}: both
    // survivors apply those 5 groups, strand on bucket {0}, and undo
    // the partial update (2 ranks × 5 groups).
    assert_eq!(undone, 10);
}

#[test]
fn pipeline_crash_breakdown_is_complete_and_contiguous() {
    let t = record_pipeline_crash(2);
    assert_complete_and_contiguous(&t, Phase::Replay);
    let inc = &t.incidents[0];
    assert_eq!(inc.epoch, Epoch::new(1));
    assert_eq!(inc.failed, vec![1usize]);
}

#[test]
fn pipeline_solo_replay_still_carries_a_fence_segment() {
    // With d = 1 the replacement replays alone and the replay-group
    // fence is skipped, but the breakdown must still carry the (empty)
    // fence phase so per-incident accounting stays comparable.
    let t = record_pipeline_crash(1);
    assert_complete_and_contiguous(&t, Phase::Replay);
}

#[test]
fn breakdown_structure_is_deterministic_across_runs() {
    // Same scenario, repeated runs in one process: the structural
    // fingerprint must not change. CI repeats this whole binary under
    // RAYON_NUM_THREADS=1,2,8, extending the guarantee across thread
    // counts.
    let (first, _) = record_dp_crash();
    let (second, _) = record_dp_crash();
    assert_eq!(shape(&first), shape(&second));

    let first = record_pipeline_crash(2);
    let second = record_pipeline_crash(2);
    assert_eq!(shape(&first), shape(&second));
}
