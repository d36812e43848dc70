//! Overlap-layer microbenchmarks (`BENCH_pr5.json`).
//!
//! Four ops cover the compute/comm overlap layer, each baselined against
//! the same work without overlap: the collectives at an unbounded chunk
//! size (one whole-tensor message per hop, so no transfer overlaps a
//! fold), the per-group all-reduce loop, and the synchronous logger:
//!
//! - `allreduce`: chunked chain all-reduce vs the same chain with
//!   whole-tensor chunks;
//! - `broadcast`: chunked streaming broadcast vs one whole-tensor message
//!   per receiver;
//! - `overlap_step`: bucketed gradient all-reduce (two flat buckets,
//!   zero-copy folds, one result message per bucket) vs a whole-tensor
//!   all-reduce per group;
//! - `wal_async`: the background writer pool hiding log writes inside a
//!   simulated pipeline bubble vs the synchronous logger paying them on
//!   the critical path before the same bubble.
//!
//! Every op asserts bitwise equality between the two implementations
//! outside the timed region, and records an `overlap_efficiency` metric —
//! the fraction of the baseline's comm/logging time the overlapped path
//! hid — so later PRs can track overlap, not just throughput.

use std::time::Duration;

use swift_core::BucketedAllreduce;
use swift_dnn::StepCtx;
use swift_net::{Cluster, Topology};
use swift_pipeline::MsgKind;
use swift_tensor::Tensor;
use swift_wal::{GroupMap, LogMode, LogRecord, Logger, MsgKindCode};

use crate::fastpath::{bench_store, best_ns, randn, BenchResult};

/// Chunk size for the chunked collectives under test (the default wired
/// through recovery paths).
const CHUNK_BYTES: usize = 64 * 1024;

/// The baselines' chunk size: every tensor is one message per hop.
const WHOLE: usize = usize::MAX;

/// Runs the four overlap benchmarks. `quick` trims repetitions only
/// slightly: these ops run 2-3 communicating threads on whatever cores CI
/// grants, so best-of-N needs enough tries to land one clean run — too
/// few and the quick gate would compare a contended measurement against a
/// clean committed baseline.
pub fn run(quick: bool) -> Vec<BenchResult> {
    vec![
        bench_allreduce(quick),
        bench_broadcast(quick),
        bench_overlap_step(quick),
        bench_wal_async(quick),
    ]
}

// ------------------------------------------------------------- allreduce

fn bench_allreduce(quick: bool) -> BenchResult {
    const WORLD: usize = 3;
    const ELEMS: usize = 1 << 20; // 4 MiB per tensor
    let iters = if quick { 8 } else { 10 };
    let ranks: Vec<usize> = (0..WORLD).collect();
    let times = Cluster::run_all(Topology::uniform(WORLD, 1), move |mut ctx| {
        let t = randn(ELEMS, 7 + ctx.rank() as u64);
        // Correctness outside the timed region: chunked must be bitwise
        // identical to whole-tensor.
        let mut whole = Tensor::zeros([ELEMS]);
        ctx.comm
            .allreduce_sum_chunked_into(&ranks, &t, &mut whole, WHOLE)
            .unwrap();
        let mut out = Tensor::zeros([ELEMS]);
        ctx.comm
            .allreduce_sum_chunked_into(&ranks, &t, &mut out, CHUNK_BYTES)
            .unwrap();
        assert!(
            out.bit_eq(&whole),
            "chunked all-reduce must match whole-tensor bitwise"
        );
        let fast = best_ns(iters, || {
            ctx.comm
                .allreduce_sum_chunked_into(&ranks, &t, &mut out, CHUNK_BYTES)
                .unwrap();
        });
        let slow = best_ns(iters, || {
            ctx.comm
                .allreduce_sum_chunked_into(&ranks, &t, &mut whole, WHOLE)
                .unwrap();
        });
        (fast, slow)
    });
    // The collective's cost is its critical path: the slowest rank.
    let fast = times.iter().map(|&(f, _)| f).max().unwrap();
    let slow = times.iter().map(|&(_, s)| s).max().unwrap();
    let bytes = (ELEMS * 4) as u64;
    BenchResult::new(
        "allreduce",
        format!("{WORLD}r x {ELEMS}xf32"),
        fast,
        slow,
        bytes,
    )
    .with_overlap_efficiency()
}

// ------------------------------------------------------------- broadcast

fn bench_broadcast(quick: bool) -> BenchResult {
    const WORLD: usize = 3;
    const ELEMS: usize = 1 << 20; // 4 MiB
    let iters = if quick { 8 } else { 10 };
    let ranks: Vec<usize> = (0..WORLD).collect();
    let times = Cluster::run_all(Topology::uniform(WORLD, 1), move |mut ctx| {
        // The root broadcasts from its own tensor, so it starts both from
        // the source; the others receive into zeros.
        let root = ctx.rank() == 0;
        let start = || {
            if root {
                randn(ELEMS, 17)
            } else {
                Tensor::zeros([ELEMS])
            }
        };
        let mut whole = start();
        ctx.comm
            .broadcast_tensor_chunked_into(&ranks, 0, &mut whole, WHOLE)
            .unwrap();
        let mut dst = start();
        ctx.comm
            .broadcast_tensor_chunked_into(&ranks, 0, &mut dst, CHUNK_BYTES)
            .unwrap();
        assert!(
            dst.bit_eq(&whole),
            "chunked broadcast must match whole-tensor bitwise"
        );
        let fast = best_ns(iters, || {
            ctx.comm
                .broadcast_tensor_chunked_into(&ranks, 0, &mut dst, CHUNK_BYTES)
                .unwrap();
        });
        let slow = best_ns(iters, || {
            ctx.comm
                .broadcast_tensor_chunked_into(&ranks, 0, &mut whole, WHOLE)
                .unwrap();
        });
        (fast, slow)
    });
    let fast = times.iter().map(|&(f, _)| f).max().unwrap();
    let slow = times.iter().map(|&(_, s)| s).max().unwrap();
    let bytes = (ELEMS * 4) as u64;
    BenchResult::new(
        "broadcast",
        format!("{WORLD}r x {ELEMS}xf32"),
        fast,
        slow,
        bytes,
    )
    .with_overlap_efficiency()
}

// ---------------------------------------------------------- overlap_step

fn bench_overlap_step(quick: bool) -> BenchResult {
    const WORLD: usize = 3;
    const GROUPS: usize = 8;
    const GROUP_ELEMS: usize = 128 * 1024; // 512 KiB per group, 4 MiB total
    const CAP_BYTES: usize = 2 * 1024 * 1024; // two buckets of four groups
    let iters = if quick { 8 } else { 10 };
    let ranks: Vec<usize> = (0..WORLD).collect();
    let times = Cluster::run_all(Topology::uniform(WORLD, 1), move |mut ctx| {
        let grads: Vec<Tensor> = (0..GROUPS)
            .map(|g| randn(GROUP_ELEMS, 100 + (ctx.rank() * GROUPS + g) as u64))
            .collect();
        let numels = vec![GROUP_ELEMS; GROUPS];
        let me = ctx.rank();

        // Correctness: bucketed reduction is bitwise equal to the
        // per-group whole-tensor loop.
        let mut whole: Vec<Tensor> = grads.clone();
        for (g, w) in grads.iter().zip(&mut whole) {
            ctx.comm
                .allreduce_sum_chunked_into(&ranks, g, w, WHOLE)
                .unwrap();
        }
        let mut reducer = BucketedAllreduce::new(me, &ranks, &numels, CAP_BYTES);
        let mut out: Vec<Tensor> = grads.clone();
        for g in (0..GROUPS).rev() {
            reducer
                .stage(&mut ctx.comm, g, &grads[g], &mut out)
                .unwrap();
        }
        reducer
            .finish(&mut ctx.comm, &mut out, &mut |_, _| Ok(()))
            .unwrap();
        for (a, b) in out.iter().zip(&whole) {
            assert!(a.bit_eq(b), "bucketed reduce must match per-group loop");
        }

        let fast = best_ns(iters, || {
            reducer.reset();
            for g in (0..GROUPS).rev() {
                reducer
                    .stage(&mut ctx.comm, g, &grads[g], &mut out)
                    .unwrap();
            }
            reducer
                .finish(&mut ctx.comm, &mut out, &mut |_, _| Ok(()))
                .unwrap();
        });
        let slow = best_ns(iters, || {
            for (g, w) in grads.iter().zip(&mut whole) {
                ctx.comm
                    .allreduce_sum_chunked_into(&ranks, g, w, WHOLE)
                    .unwrap();
            }
        });
        (fast, slow)
    });
    let fast = times.iter().map(|&(f, _)| f).max().unwrap();
    let slow = times.iter().map(|&(_, s)| s).max().unwrap();
    let bytes = (GROUPS * GROUP_ELEMS * 4) as u64;
    BenchResult::new(
        "overlap_step",
        format!("{WORLD}r x {GROUPS}g x {GROUP_ELEMS}xf32"),
        fast,
        slow,
        bytes,
    )
    .with_overlap_efficiency()
}

// ------------------------------------------------------------- wal_async

fn bench_wal_async(quick: bool) -> BenchResult {
    const RECORDS: u64 = 16;
    const ELEMS: usize = 65_536; // 256 KiB per record, 4 MiB per step
    /// Simulated pipeline bubble per step: long enough for the writer
    /// pool to drain the step's records while the "worker" sleeps.
    const BUBBLE: Duration = Duration::from_millis(3);
    let t = randn(ELEMS, 51);
    let topo = Topology::uniform(2, 1);
    let groups = GroupMap::singletons(2);

    let async_store = bench_store("bench-overlap-wal-async");
    let mut async_logger = Logger::new(
        LogMode::BubbleAsync,
        topo.clone(),
        groups.clone(),
        async_store.clone(),
    );
    let sync_store = bench_store("bench-overlap-wal-sync");
    let mut sync_logger = Logger::new(LogMode::Sync, topo, groups, sync_store.clone());

    // Fresh iteration per timed call so every step writes new keys.
    let iters = if quick { 8 } else { 10 };
    let mut it = 0u64;
    let fast = best_ns(iters, || {
        for mb in 0..RECORDS {
            async_logger.log_send(0, 1, StepCtx::new(it, mb), MsgKind::Activation, &t);
        }
        // The bubble: staged records drain to the writer pool, which does
        // the I/O while this thread sleeps (idle pipeline time).
        async_logger.on_bubble();
        std::thread::sleep(BUBBLE);
        it += 1;
    });
    // Flush-on-failure semantics still hold after the timed region.
    async_logger.flush();
    let mut it = 0u64;
    let slow = best_ns(iters, || {
        for mb in 0..RECORDS {
            sync_logger.log_send(0, 1, StepCtx::new(it, mb), MsgKind::Activation, &t);
        }
        std::thread::sleep(BUBBLE);
        it += 1;
    });

    // Both paths must persist byte-identical records.
    let key = LogRecord::key_for(0, 1, 0, 0, MsgKindCode::Activation);
    assert_eq!(
        &async_store.get(&key).unwrap()[..],
        &sync_store.get(&key).unwrap()[..],
        "background and synchronous WAL payloads must be byte-identical"
    );
    let _ = async_store.destroy();
    let _ = sync_store.destroy();
    let bytes = RECORDS * LogRecord::encoded_len(&t, false) as u64;
    BenchResult::new(
        "wal_async",
        format!("{RECORDS}x{ELEMS}xf32 + {}ms bubble", BUBBLE.as_millis()),
        fast,
        slow,
        bytes,
    )
    .with_overlap_efficiency()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_efficiency_serialized_in_json() {
        let r = BenchResult::new("allreduce", "x".into(), 100, 400, 8).with_overlap_efficiency();
        assert_eq!(r.overlap_efficiency, Some(0.75));
        assert!(r.json_line().contains("\"overlap_efficiency\":0.750"));
    }

    #[test]
    fn quick_suite_produces_all_ops() {
        let results = run(true);
        let ops: Vec<&str> = results.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(ops, ["allreduce", "broadcast", "overlap_step", "wal_async"]);
        for r in &results {
            assert!(
                r.overlap_efficiency.is_some(),
                "{} missing efficiency",
                r.op
            );
            assert!(r.ns_per_iter > 0 && r.baseline_ns_per_iter > 0);
        }
    }
}
