//! Recovery critical-path benchmarks (`BENCH_pr10.json`).
//!
//! Two groups cover the recovery critical path's byte-bound legs:
//!
//! - `state_transfer` times getting a replacement its state over the
//!   *socket* transport (the backend real processes use, where bytes are
//!   actually copied): the sharded multi-source scatter — every survivor
//!   streams a disjoint shard concurrently — against the single-root
//!   chunked broadcast the join previously used, which pushes the full
//!   payload to every participant through one sender. The replacement's
//!   received bytes are asserted bitwise identical between the two paths
//!   outside the timed region, and the speedup is gated at ≥ 2× when the
//!   committed baseline is (re)generated.
//!
//! - `delta_ckpt_save` times an incremental checkpoint save at 10% dirty
//!   tensors against a full save of the same state. The delta chain is
//!   loaded back and asserted equal (bitwise on the model) to what the
//!   full checkpoint restores, a delta save must persist ≤ 1/3 the bytes
//!   of a full save (deterministic, asserted in every mode), and the
//!   wall-clock speedup is gated at ≥ 3× when the committed baseline is
//!   (re)generated.
//!
//! Quick runs — CI's smoke gate on a shared single-vCPU host, where
//! wall-clock ratios swing with scheduling — enforce the deterministic
//! asserts plus `cargo xtask bench --quick`'s ≤ 2× regression check of
//! every row against the committed baseline; the absolute speedup gates
//! run with the full repetition counts that produced that baseline.
//!
//! MTTR itself, and its detect → undo → fence → transfer/replay → resume
//! breakdown, is measured as distributions by the repository benchmark
//! (`swiftbench`: `mttr_ms` and the `core.*_ms` metrics).
//!
//! `cargo xtask bench` drives these and persists `BENCH_pr10.json`.

use std::time::{Duration, Instant};

use bytes::Bytes;
use swift_ckpt::{Checkpoint, CheckpointManager, DeltaSession, IncrementalSave};
use swift_dnn::ModelState;
use swift_net::{
    default_chunk_bytes, default_shard_bytes, Comm, FailureController, KvStore, Rank, RetryPolicy,
    SocketTransport, Topology,
};
use swift_optim::OptimState;
use swift_tensor::{CounterRng, Tensor};

use crate::fastpath::BenchResult;

/// Runs the recovery-path benchmarks. `quick` keeps the problem shapes
/// (numbers stay comparable with the committed full run) but lowers the
/// repetition count — the mode CI's smoke gate uses.
pub fn run(quick: bool) -> Vec<BenchResult> {
    vec![bench_state_transfer(quick), bench_delta_ckpt_save(quick)]
}

// ------------------------------------------------------- state_transfer

/// Deterministic pseudo-random payload all survivors agree on.
fn transfer_payload(len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| {
                ((i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(97)
                    >> 33) as u8
            })
            .collect::<Vec<u8>>(),
    )
}

fn bench_state_transfer(quick: bool) -> BenchResult {
    const WORLD: usize = 5; // 4 survivors + 1 replacement
    const LEN: usize = 8 << 20; // 8 MiB of encoded state
    let survivors: Vec<Rank> = (0..WORLD - 1).collect();
    let replacement: Rank = WORLD - 1;
    let participants: Vec<Rank> = (0..WORLD).collect();
    let iters = if quick { 4 } else { 5 };

    let dir = std::env::temp_dir().join(format!("swift-bench-xfer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fc = FailureController::new(Topology::uniform(WORLD, 1));
    let kv = KvStore::new();
    let mut handles = Vec::new();
    for rank in 0..WORLD {
        let dir = dir.clone();
        let fc = fc.clone();
        let kv = kv.clone();
        let survivors = survivors.clone();
        let participants = participants.clone();
        handles.push(std::thread::spawn(move || {
            let connect = RetryPolicy::poll().with_deadline(Duration::from_secs(10));
            let t = SocketTransport::bind(&dir, rank, WORLD, connect).unwrap();
            let mut comm = Comm::over_transport(rank, WORLD, Box::new(t), fc, kv, 0);
            let payload = transfer_payload(LEN);
            let is_survivor = survivors.contains(&rank);

            // Correctness round, untimed: the replacement's sharded bytes
            // must be bitwise identical to the single-root broadcast.
            let sharded = comm
                .scatter_state_sharded(
                    &survivors,
                    &[replacement],
                    is_survivor.then(|| payload.clone()),
                    default_shard_bytes(),
                )
                .unwrap();
            let broadcast = comm
                .broadcast_bytes_chunked_among(
                    &participants,
                    0,
                    (rank == 0).then(|| payload.clone()),
                    default_chunk_bytes(),
                )
                .unwrap();
            if rank == replacement {
                assert_eq!(sharded.len(), LEN);
                assert_eq!(
                    sharded, broadcast,
                    "sharded transfer diverged from single-root broadcast"
                );
            }

            // Timed: the sharded multi-source path and the broadcast
            // baseline back to back within each round (a contended host
            // then degrades both sides of the ratio together instead of
            // whichever path its throttling phase happened to cover),
            // each behind a barrier so every rank starts the collective
            // together.
            let mut fast = u64::MAX;
            let mut slow = u64::MAX;
            for _ in 0..iters {
                comm.barrier().unwrap();
                let t0 = Instant::now();
                std::hint::black_box(
                    comm.scatter_state_sharded(
                        &survivors,
                        &[replacement],
                        is_survivor.then(|| payload.clone()),
                        default_shard_bytes(),
                    )
                    .unwrap(),
                );
                fast = fast.min(t0.elapsed().as_nanos() as u64);
                comm.barrier().unwrap();
                let t0 = Instant::now();
                std::hint::black_box(
                    comm.broadcast_bytes_chunked_among(
                        &participants,
                        0,
                        (rank == 0).then(|| payload.clone()),
                        default_chunk_bytes(),
                    )
                    .unwrap(),
                );
                slow = slow.min(t0.elapsed().as_nanos() as u64);
            }
            (fast, slow)
        }));
    }
    let per_rank: Vec<(u64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let _ = std::fs::remove_dir_all(&dir);
    // The recovery critical path is the slowest participant.
    let fast = per_rank.iter().map(|&(f, _)| f).max().unwrap();
    let slow = per_rank.iter().map(|&(_, s)| s).max().unwrap();
    let r = BenchResult::new(
        "state_transfer",
        format!("{WORLD}r sockets {}MiB", LEN >> 20),
        fast,
        slow,
        LEN as u64,
    );
    // The wall-clock gate runs when (re)generating the committed
    // baseline. Quick CI runs on a shared single-vCPU host, where five
    // transport threads time-slice one core and the ratio swings with
    // scheduling; there the bitwise-equality assert above plus xtask's
    // regression check against the committed baseline are the gate.
    if !quick {
        assert!(
            r.speedup >= 2.0,
            "sharded state transfer must be >= 2x the single-root broadcast, got {:.2}x",
            r.speedup
        );
    }
    r
}

// ------------------------------------------------------ delta_ckpt_save

/// A checkpoint with `n` model tensors and a momentum slot per tensor —
/// ~10 MiB of state, the scale where encode/write costs dominate.
fn ckpt_fixture(n: usize, numel: usize, seed: u64) -> Checkpoint {
    let mut rng = CounterRng::new(seed, 0);
    let entries: Vec<(String, Tensor)> = (0..n)
        .map(|i| {
            (
                format!("p{i:03}"),
                Tensor::randn([numel], 0.0, 1.0, &mut rng),
            )
        })
        .collect();
    let slots: Vec<Option<Tensor>> = (0..n)
        .map(|_| Some(Tensor::randn([numel], 0.0, 1.0, &mut rng)))
        .collect();
    Checkpoint {
        iteration: 0,
        model: ModelState { entries },
        optim: OptimState {
            name: "SGD-momentum".into(),
            t: 0,
            last_lr: 0.05,
            scalars: vec![("lr".into(), vec![0.05])],
            slots: vec![("m".into(), slots)],
        },
    }
}

/// Touches 10% of the tensors (model + slots), the dirty fraction the
/// gate is specified at.
fn dirty_tenth(ckpt: &mut Checkpoint, round: u64) {
    let n = ckpt.model.entries.len();
    let step = 10;
    for i in (0..n).step_by(step) {
        let idx = (i + round as usize) % n;
        let t = &mut ckpt.model.entries[idx].1;
        let mut vals = t.data().to_vec();
        vals[0] += 1.0 + round as f32;
        *t = Tensor::from_vec(*t.shape(), vals);
        if let Some(s) = &mut ckpt.optim.slots[0].1[idx] {
            let mut vals = s.data().to_vec();
            vals[1] -= 0.5;
            *s = Tensor::from_vec(*s.shape(), vals);
        }
    }
}

fn bench_delta_ckpt_save(quick: bool) -> BenchResult {
    const TENSORS: usize = 40;
    const NUMEL: usize = 1 << 15; // 128 KiB per tensor, ~10 MiB total
    let iters = if quick { 5 } else { 8 };
    let mut ckpt = ckpt_fixture(TENSORS, NUMEL, 31);

    let full_store = crate::fastpath::bench_store("ckpt-full");
    let delta_store = crate::fastpath::bench_store("ckpt-delta");
    // The stores count bytes through shared handles, so clones kept here
    // still observe what the managers write.
    let full_mgr = CheckpointManager::new(full_store.clone(), 0);
    let delta_mgr = CheckpointManager::new(delta_store.clone(), 0);

    // Seed the delta session with the base checkpoint (a full save), then
    // verify: after a 10%-dirty delta save, the chain restores exactly
    // what a full checkpoint of the same state restores.
    let mut session = DeltaSession::new();
    assert!(matches!(
        delta_mgr.save_incremental(&ckpt, &mut session).unwrap(),
        IncrementalSave::Full { .. }
    ));
    ckpt.iteration = 1;
    dirty_tenth(&mut ckpt, 0);
    let save = delta_mgr.save_incremental(&ckpt, &mut session).unwrap();
    assert!(
        matches!(save, IncrementalSave::Delta { .. }),
        "10% dirty must produce a delta, got {save:?}"
    );
    full_mgr.save(&ckpt).unwrap();
    let via_delta = delta_mgr.load_latest().unwrap().unwrap();
    let via_full = full_mgr.load_latest().unwrap().unwrap();
    assert_eq!(via_delta, via_full);
    assert!(
        via_delta.model.bit_eq(&ckpt.model),
        "delta chain must restore the model bitwise"
    );

    // Timed: save cost only. The 10%-dirty states are materialized up
    // front (a training loop mutates in place between saves; that work
    // is not checkpoint cost), one per iteration so every timed delta
    // diffs against genuinely different content. The rebase interval is
    // far above `iters`, so every timed save is a delta. The two paths
    // are timed back to back within each round — on a contended host a
    // throttling phase then hits both sides of the ratio instead of
    // skewing whichever path happened to run during it — and the best
    // round of each is reported.
    let states: Vec<Checkpoint> = (0..iters as u64 + 1)
        .map(|round| {
            ckpt.iteration = 2 + round;
            dirty_tenth(&mut ckpt, 1 + round);
            ckpt.clone()
        })
        .collect();
    delta_mgr
        .save_incremental(&states[0], &mut session)
        .unwrap();
    full_mgr.save(&states[0]).unwrap();
    let delta_bytes_before = delta_store.bytes_written();
    let full_bytes_before = full_store.bytes_written();
    let mut fast = u64::MAX;
    let mut slow = u64::MAX;
    for state in &states[1..] {
        let t0 = Instant::now();
        delta_mgr.save_incremental(state, &mut session).unwrap();
        fast = fast.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        full_mgr.save(state).unwrap();
        slow = slow.min(t0.elapsed().as_nanos() as u64);
    }
    // Deterministic gate, asserted in every mode: at 10% dirty each
    // delta save must persist at most a third of what a full save does
    // (it actually writes ~1/8th — the 10% payload plus the manifest).
    let delta_bytes = delta_store.bytes_written() - delta_bytes_before;
    let full_bytes = full_store.bytes_written() - full_bytes_before;
    let _ = full_store.destroy();
    let _ = delta_store.destroy();
    assert!(
        full_bytes >= 3 * delta_bytes,
        "delta saves must write <= 1/3 the bytes of full saves, got {delta_bytes} vs {full_bytes}"
    );
    let bytes = ckpt.byte_size() as u64;
    let r = BenchResult::new(
        "delta_ckpt_save",
        format!("{TENSORS}x{NUMEL}xf32 10% dirty"),
        fast,
        slow,
        bytes,
    );
    // Wall-clock gate for the committed baseline, as for state_transfer:
    // on the shared quick-CI host the byte-ratio assert above and the
    // regression check against the committed run stand in for it.
    if !quick {
        assert!(
            r.speedup >= 3.0,
            "delta save at 10% dirty must be >= 3x a full save, got {:.2}x",
            r.speedup
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_ckpt_fixture_round_trips() {
        // Small-scale version of the bench's bit-equality contract.
        let mut ckpt = ckpt_fixture(10, 64, 5);
        let store = swift_store::BlobStore::new_temp("bench-delta-test").unwrap();
        let mgr = CheckpointManager::new(store, 0);
        let mut session = DeltaSession::new();
        mgr.save_incremental(&ckpt, &mut session).unwrap();
        ckpt.iteration = 1;
        dirty_tenth(&mut ckpt, 0);
        let save = mgr.save_incremental(&ckpt, &mut session).unwrap();
        assert!(matches!(save, IncrementalSave::Delta { .. }));
        assert_eq!(mgr.load_latest().unwrap().unwrap(), ckpt);
    }
}
