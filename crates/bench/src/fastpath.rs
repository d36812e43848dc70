//! Recovery fast-path microbenchmarks (the PR "bench gate").
//!
//! Three benchmarks cover the layers the fast path touches: the blocked
//! matmul kernels, the bulk tensor wire format and the zero-copy WAL
//! staging path. Each one times the current implementation against an
//! *embedded re-implementation of the seed code* — the unblocked row
//! loop, per-element `put_f32_le`/`get_f32_le` encode/decode through the
//! `bytes` traits, and clone-into-`LogRecord` logging with a fresh
//! `BytesMut` per record — so the reported speedup is against a fixed
//! algorithmic baseline rather than a previously built binary. A fourth
//! checks that a disabled recorder costs the hot path nothing.
//!
//! Wherever the fast path promises bitwise-identical results (matmul,
//! serialize), the harness asserts `bit_eq` between the two
//! implementations outside the timed region — a speedup over a
//! *different* computation would be meaningless.
//!
//! Store-backed benchmarks prefer a RAM-backed scratch directory
//! (`/dev/shm`) so file-system latency, identical on both sides, does not
//! drown the CPU cost under measurement.
//!
//! `cargo xtask bench` drives these and persists `BENCH_pr3.json`.

use std::path::Path;
use std::time::Instant;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use swift_dnn::StepCtx;
use swift_net::Topology;
use swift_pipeline::MsgKind;
use swift_store::BlobStore;
use swift_tensor::{matmul, CounterRng, Tensor};
use swift_wal::{GroupMap, LogMode, LogRecord, Logger, MsgKindCode};

/// One benchmark's outcome: fast-path and seed-baseline times plus the
/// derived throughput of the fast path.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (stable across runs — the regression gate keys on it).
    pub op: String,
    /// Problem shape, human-readable.
    pub shape: String,
    /// Best-of-N wall time per iteration of the fast path, nanoseconds.
    pub ns_per_iter: u64,
    /// Best-of-N wall time per iteration of the embedded seed baseline.
    pub baseline_ns_per_iter: u64,
    /// `baseline_ns_per_iter / ns_per_iter`.
    pub speedup: f64,
    /// Fast-path data throughput over the bytes the benchmark touches.
    pub gb_per_s: f64,
    /// For overlap benchmarks: the fraction of the baseline's
    /// communication/logging time the overlapped path hid
    /// (`(baseline - fast) / baseline`, clamped at 0). `None` for
    /// plain throughput benchmarks.
    pub overlap_efficiency: Option<f64>,
    /// SIMD dispatch tier active while the fast path ran (`scalar`,
    /// `sse2`, `avx2`) — results are bitwise identical across tiers, but
    /// timings are only comparable within one.
    pub tier: String,
    /// Worker-thread count the kernels ran with (`RAYON_NUM_THREADS`).
    pub threads: usize,
    /// Heap allocations per fast-path iteration, measured by the counting
    /// allocator when the bench binary installs it. `None` when the bench
    /// does not meter allocations.
    pub allocs_per_iter: Option<u64>,
}

impl BenchResult {
    pub(crate) fn new(
        op: &str,
        shape: String,
        ns: u64,
        baseline_ns: u64,
        bytes_per_iter: u64,
    ) -> Self {
        BenchResult {
            op: op.to_string(),
            shape,
            ns_per_iter: ns,
            baseline_ns_per_iter: baseline_ns,
            speedup: baseline_ns as f64 / ns.max(1) as f64,
            gb_per_s: bytes_per_iter as f64 / ns.max(1) as f64, // bytes/ns == GB/s
            overlap_efficiency: None,
            tier: swift_tensor::simd::active_tier().name().to_string(),
            threads: rayon::current_num_threads(),
            allocs_per_iter: None,
        }
    }

    /// Tags the result with a measured allocations-per-iteration count.
    pub(crate) fn with_allocs_per_iter(mut self, allocs: u64) -> Self {
        self.allocs_per_iter = Some(allocs);
        self
    }

    /// Tags the result with its overlap efficiency (hidden / total).
    pub(crate) fn with_overlap_efficiency(mut self) -> Self {
        let hidden = self.baseline_ns_per_iter.saturating_sub(self.ns_per_iter);
        self.overlap_efficiency = Some(hidden as f64 / self.baseline_ns_per_iter.max(1) as f64);
        self
    }

    /// The result as one JSON object on a single line (the format
    /// `BENCH_pr3.json` stores and `cargo xtask bench --quick` parses).
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"op\":\"{}\",\"shape\":\"{}\",\"ns_per_iter\":{},\"baseline_ns_per_iter\":{},\"speedup\":{:.2},\"gb_per_s\":{:.3}",
            self.op, self.shape, self.ns_per_iter, self.baseline_ns_per_iter, self.speedup, self.gb_per_s
        );
        if let Some(eff) = self.overlap_efficiency {
            line.push_str(&format!(",\"overlap_efficiency\":{eff:.3}"));
        }
        line.push_str(&format!(
            ",\"tier\":\"{}\",\"threads\":{}",
            self.tier, self.threads
        ));
        if let Some(allocs) = self.allocs_per_iter {
            line.push_str(&format!(",\"allocs_per_iter\":{allocs}"));
        }
        line.push('}');
        line
    }
}

/// Renders results as a JSON array, one record per line.
pub fn to_json(results: &[BenchResult]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&r.json_line());
        if i + 1 < results.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// Runs the four fast-path benchmarks: matmul, serialize, WAL flush and
/// the disabled recorder. `quick` keeps the shapes (so
/// numbers stay comparable with a committed full run) but lowers the
/// repetition count — the mode CI's smoke gate uses.
pub fn run(quick: bool) -> Vec<BenchResult> {
    vec![
        bench_matmul(quick),
        bench_serialize(quick),
        bench_wal_flush(quick),
        bench_obs_disabled(quick),
    ]
}

/// Best-of-`iters` wall time of `f`, after one untimed warm-up call.
pub(crate) fn best_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    f();
    let mut best = u64::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

pub(crate) fn randn(n: usize, seed: u64) -> Tensor {
    let mut rng = CounterRng::new(seed, 0);
    Tensor::randn([n], 0.0, 1.0, &mut rng)
}

/// A scratch store on `/dev/shm` when available (RAM-backed, so both
/// implementations pay the same small I/O tax), else the system temp dir.
pub(crate) fn bench_store(label: &str) -> BlobStore {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        BlobStore::open(shm.join(format!("swift-{label}-{}", std::process::id()))).unwrap()
    } else {
        BlobStore::new_temp(label).unwrap()
    }
}

// ---------------------------------------------------------------- matmul

/// The seed's unblocked ikj loop. Accumulates each output element in
/// ascending-`k` order — the same order the blocked kernel preserves, so
/// the two agree bitwise.
pub(crate) fn seed_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(k, k2);
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            let row = &bd[p * n..(p + 1) * n];
            for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec([m, n], out)
}

fn bench_matmul(quick: bool) -> BenchResult {
    const N: usize = 512;
    let mut rng = CounterRng::new(11, 0);
    let a = Tensor::randn([N, N], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([N, N], 0.0, 1.0, &mut rng);
    assert!(
        matmul(&a, &b).bit_eq(&seed_matmul(&a, &b)),
        "blocked matmul must stay bitwise equal to the seed loop"
    );
    let iters = if quick { 2 } else { 5 };
    let fast = best_ns(iters, || {
        std::hint::black_box(matmul(&a, &b));
    });
    let slow = best_ns(iters, || {
        std::hint::black_box(seed_matmul(&a, &b));
    });
    // Throughput over the data touched once: A + B + C.
    let bytes = (3 * N * N * 4) as u64;
    BenchResult::new("matmul", format!("{N}x{N}x{N}"), fast, slow, bytes)
}

// ------------------------------------------------------------- serialize

const MAGIC: u32 = 0x5357_4654;

/// The seed encoder: header then one `put_f32_le` per element.
fn seed_encode_tensor_into(t: &Tensor, buf: &mut BytesMut) {
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(t.shape().rank() as u32);
    for &d in t.shape().dims() {
        buf.put_u64_le(d as u64);
    }
    buf.put_u64_le(t.numel() as u64);
    for &v in t.data() {
        buf.put_f32_le(v);
    }
}

/// The seed decoder: header then one `get_f32_le` per element.
fn seed_decode_tensor(buf: &mut Bytes) -> Tensor {
    assert_eq!(buf.get_u32_le(), MAGIC);
    let rank = buf.get_u32_le() as usize;
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(buf.get_u64_le() as usize);
    }
    let declared = buf.get_u64_le() as usize;
    let mut data = Vec::with_capacity(declared);
    for _ in 0..declared {
        data.push(buf.get_f32_le());
    }
    Tensor::from_vec(dims, data)
}

fn bench_serialize(quick: bool) -> BenchResult {
    const N: usize = 4 * 1024 * 1024; // 16 MiB of f32 payload
    let t = randn(N, 21);
    let seed_wire = {
        let mut buf = BytesMut::with_capacity(swift_tensor::encoded_size(&t));
        seed_encode_tensor_into(&t, &mut buf);
        buf.freeze()
    };
    assert_eq!(
        &swift_tensor::encode(&t)[..],
        &seed_wire[..],
        "wire format must match seed"
    );
    assert!(swift_tensor::decode_slice(&seed_wire)
        .unwrap()
        .bit_eq(&seed_decode_tensor(&mut seed_wire.clone())));

    // Fast path as the pooled logger uses it: encode into a reused staging
    // buffer, bulk-decode straight from the slice.
    let mut scratch: Vec<u8> = Vec::new();
    let iters = if quick { 3 } else { 6 };
    let fast = best_ns(iters, || {
        scratch.clear();
        swift_tensor::encode_into(&t, &mut scratch);
        std::hint::black_box(swift_tensor::decode_slice(&scratch).unwrap());
    });
    // Seed path: fresh buffer and one `bytes` trait call per element on
    // both sides, exactly as the seed's `encode`/`decode` were written.
    let slow = best_ns(iters, || {
        let mut buf = BytesMut::with_capacity(swift_tensor::encoded_size(&t));
        seed_encode_tensor_into(&t, &mut buf);
        let mut bytes = buf.freeze();
        std::hint::black_box(seed_decode_tensor(&mut bytes));
    });
    // Round trip moves the encoded payload twice.
    let bytes = 2 * seed_wire.len() as u64;
    BenchResult::new("serialize_roundtrip", format!("{N}xf32"), fast, slow, bytes)
}

// ------------------------------------------------------------- WAL flush

/// The seed logger's staging path: clone the boundary tensor into a
/// `LogRecord` at `log_send`; at flush, encode each record into a fresh
/// `BytesMut` (per-element payload) and write it out.
struct SeedLogger {
    staged: Vec<LogRecord>,
    store: BlobStore,
}

impl SeedLogger {
    fn log_send(&mut self, src: usize, dst: usize, ctx: StepCtx, kind: MsgKind, t: &Tensor) {
        self.staged.push(LogRecord::new(
            src,
            dst,
            ctx.iteration,
            ctx.microbatch,
            kind,
            t.clone(),
        ));
    }

    fn flush(&mut self) {
        for r in self.staged.drain(..) {
            let mut buf = BytesMut::new();
            buf.put_u64_le(r.src as u64);
            buf.put_u64_le(r.dst as u64);
            buf.put_u64_le(r.stamp.iteration);
            buf.put_u64_le(r.stamp.microbatch);
            buf.put_u8(r.stamp.kind as u8);
            seed_encode_tensor_into(&r.tensor, &mut buf);
            self.store.put(&r.key(), &buf.freeze()).unwrap();
        }
    }
}

fn bench_wal_flush(quick: bool) -> BenchResult {
    const RECORDS: u64 = 64;
    const ELEMS: usize = 65_536; // 256 KiB per record, 16 MiB per flush
    let t = randn(ELEMS, 31);
    let topo = Topology::uniform(2, 1);
    let groups = GroupMap::singletons(2);

    let fast_store = bench_store("bench-wal-fast");
    let mut fast_logger = Logger::new(
        LogMode::BubbleAsync,
        topo.clone(),
        groups.clone(),
        fast_store.clone(),
    );
    let slow_store = bench_store("bench-wal-seed");
    let mut slow_logger = SeedLogger {
        staged: Vec::new(),
        store: slow_store.clone(),
    };

    // Fresh iteration number per timed call so every flush writes new keys
    // (same I/O pattern for both paths).
    let iters = if quick { 2 } else { 4 };
    let mut it = 0u64;
    let fast = best_ns(iters, || {
        for mb in 0..RECORDS {
            fast_logger.log_send(0, 1, StepCtx::new(it, mb), MsgKind::Activation, &t);
        }
        fast_logger.on_bubble();
        fast_logger.flush();
        it += 1;
    });
    let mut it = 0u64;
    let slow = best_ns(iters, || {
        for mb in 0..RECORDS {
            slow_logger.log_send(0, 1, StepCtx::new(it, mb), MsgKind::Activation, &t);
        }
        slow_logger.flush();
        it += 1;
    });
    // Both paths must have produced byte-identical logs for iteration 0.
    let key = LogRecord::key_for(0, 1, 0, 0, MsgKindCode::Activation);
    assert_eq!(
        &fast_store.get(&key).unwrap()[..],
        &slow_store.get(&key).unwrap()[..],
        "fast and seed WAL payloads must be byte-identical"
    );
    let _ = fast_store.destroy();
    let _ = slow_store.destroy();
    let bytes = RECORDS * LogRecord::encoded_len(&t, false) as u64;
    BenchResult::new(
        "wal_flush",
        format!("{RECORDS}x{ELEMS}xf32"),
        fast,
        slow,
        bytes,
    )
}

// ---------------------------------------------------- disabled recorder

/// The zero-cost-when-disabled contract of `swift-obs`: a hot loop that
/// bumps a counter and offers a span event per record must run at the
/// same speed as the identical uninstrumented loop while no recorder is
/// installed. Here "fast path" is the *instrumented* loop and "seed
/// baseline" the bare one, so the reported speedup should sit at ~1.00 —
/// any real overhead shows up as a speedup below 1.
fn bench_obs_disabled(quick: bool) -> BenchResult {
    use swift_obs::{Counter, Epoch, Event, Phase};
    const RECORDS: usize = 64;
    const ELEMS: usize = 65_536; // 256 KiB folded per record
    swift_obs::uninstall();
    assert!(
        !swift_obs::enabled(),
        "this bench measures the disabled-recorder path"
    );
    let payload = randn(ELEMS, 41);
    let work = |instrumented: bool| {
        let mut acc = 0.0f32;
        for rank in 0..RECORDS {
            acc += payload.data().iter().fold(0.0f32, |a, &x| a + x);
            if instrumented {
                swift_obs::add(Counter::BytesLogged, (ELEMS * 4) as u64);
                swift_obs::emit(|| Event::PhaseBegin {
                    rank,
                    epoch: Epoch::new(1),
                    phase: Phase::Replay,
                });
            }
        }
        std::hint::black_box(acc);
    };
    let iters = if quick { 3 } else { 6 };
    let fast = best_ns(iters, || work(true));
    let slow = best_ns(iters, || work(false));
    // Not a tight statistical bound (the regression gate handles drift);
    // this catches the disabled path growing real work — a lock, an
    // allocation — which would blow well past 2x on a loop this hot.
    assert!(
        fast <= slow.saturating_mul(2),
        "disabled-recorder instrumentation cost is measurable: \
         {fast} ns/iter instrumented vs {slow} ns/iter bare"
    );
    let bytes = (RECORDS * ELEMS * 4) as u64;
    BenchResult::new(
        "obs_disabled",
        format!("{RECORDS}x{ELEMS}xf32"),
        fast,
        slow,
        bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_serialize_round_trips() {
        let t = randn(100, 5);
        let mut buf = BytesMut::new();
        seed_encode_tensor_into(&t, &mut buf);
        let back = seed_decode_tensor(&mut buf.freeze());
        assert!(back.bit_eq(&t));
    }

    #[test]
    fn seed_wire_format_matches_fast_path() {
        let t = randn(64, 6);
        let mut buf = BytesMut::new();
        seed_encode_tensor_into(&t, &mut buf);
        assert_eq!(&buf.freeze()[..], &swift_tensor::encode(&t)[..]);
    }

    #[test]
    fn json_line_shape() {
        let r = BenchResult::new("matmul", "2x2x2".into(), 100, 250, 48);
        let line = r.json_line();
        assert!(line.contains("\"op\":\"matmul\""));
        assert!(line.contains("\"ns_per_iter\":100"));
        assert!(line.contains("\"speedup\":2.50"));
        let json = to_json(&[r.clone(), r]);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.lines().filter(|l| l.contains("\"op\"")).count(), 2);
    }
}
