//! The process-global event/counter sink.
//!
//! Instrumented code calls [`emit`] and [`add`]; both are a single
//! relaxed atomic load plus a predicted-not-taken branch when no recorder
//! is installed — the *zero-cost-when-disabled* contract that lets the
//! fault fabric, the WAL writer and the supervisor stay instrumented in
//! release builds (`cargo xtask bench --quick` keeps this honest with a
//! dedicated microbench). Event construction is deferred behind a
//! closure so disabled call sites do not even allocate.
//!
//! Timestamps come from whichever clock was active at [`install`] time:
//!
//! - **wall**: nanoseconds since installation, from a monotonic
//!   [`Instant`] — the default outside the simulator;
//! - **logical** ([`install_logical`]): a deterministic counter that
//!   ticks once per recorded event, for simulator-driven runs where wall
//!   time is meaningless and reproducibility is the point.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::ids::{Epoch, Rank};

/// The paper-phase vocabulary of the recovery breakdown (§6). Order is
/// the canonical per-incident order the timeline reconstructor asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Failure occurrence → declaration in the KV store.
    Detect,
    /// Crash-consistency repair: undoing partially applied updates (§4).
    Undo,
    /// The recovery fence: sequence realignment, purge, generation sync.
    Fence,
    /// State synchronization by replica broadcast (§3).
    Broadcast,
    /// State synchronization by logged-microbatch replay (§5).
    Replay,
    /// Resume fence + final bookkeeping before training continues.
    Resume,
}

impl Phase {
    /// All phases in canonical order.
    pub const ALL: [Phase; 6] = [
        Phase::Detect,
        Phase::Undo,
        Phase::Fence,
        Phase::Broadcast,
        Phase::Replay,
        Phase::Resume,
    ];

    /// Stable lower-case name (used in text and JSON renderings).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Detect => "detect",
            Phase::Undo => "undo",
            Phase::Fence => "fence",
            Phase::Broadcast => "broadcast",
            Phase::Replay => "replay",
            Phase::Resume => "resume",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Monotonic counters the runtime accounts recovery cost with. Each
/// `add` also feeds a power-of-two histogram of the deltas, so skew
/// (one huge flush vs many small ones) stays visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Bytes of boundary tensors appended to the WAL (§5.1).
    BytesLogged,
    /// Bytes whose upload was absorbed by pipeline bubbles (§5.4) —
    /// logging cost hidden inside idle time rather than added to the
    /// critical path.
    BubbleBytes,
    /// Messages retransmitted after an injected transient drop.
    Retransmits,
    /// Supervisor restarts forced by cascading failures (Appendix B).
    Restarts,
    /// Optimizer updates undone during consistency repair (§4).
    UndoneUpdates,
    /// Bytes written by global checkpoints (the backstop, §2).
    CheckpointBytes,
    /// Bytes the bubble budget rejected: staged logging debt exceeded
    /// what bubbles could hide, so the record was written synchronously
    /// on the critical path (§5.4 spill rule).
    SpilledBytes,
    /// WAL records found truncated mid-record (a torn write from a
    /// crash during flush) and skipped-and-reported by replay.
    TornWalRecords,
    /// Tensor-buffer pool requests served from the freelist (PR 8
    /// steady-state allocation contract).
    PoolHits,
    /// Tensor-buffer pool requests that fell through to the system
    /// allocator (warmup, or a size class that was drained).
    PoolMisses,
    /// Bytes of buffer capacity returned to the pool for reuse.
    BytesPooled,
}

impl Counter {
    /// All counters, index-aligned with the recorder's storage.
    pub const ALL: [Counter; 11] = [
        Counter::BytesLogged,
        Counter::BubbleBytes,
        Counter::Retransmits,
        Counter::Restarts,
        Counter::UndoneUpdates,
        Counter::CheckpointBytes,
        Counter::SpilledBytes,
        Counter::TornWalRecords,
        Counter::PoolHits,
        Counter::PoolMisses,
        Counter::BytesPooled,
    ];

    /// Stable snake_case name (used in JSON renderings).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::BytesLogged => "bytes_logged",
            Counter::BubbleBytes => "bubble_bytes",
            Counter::Retransmits => "retransmits",
            Counter::Restarts => "restarts",
            Counter::UndoneUpdates => "undone_updates",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::SpilledBytes => "spilled_bytes",
            Counter::TornWalRecords => "torn_wal_records",
            Counter::PoolHits => "pool_hits",
            Counter::PoolMisses => "pool_misses",
            Counter::BytesPooled => "bytes_pooled",
        }
    }

    const fn index(self) -> usize {
        match self {
            Counter::BytesLogged => 0,
            Counter::BubbleBytes => 1,
            Counter::Retransmits => 2,
            Counter::Restarts => 3,
            Counter::UndoneUpdates => 4,
            Counter::CheckpointBytes => 5,
            Counter::SpilledBytes => 6,
            Counter::TornWalRecords => 7,
            Counter::PoolHits => 8,
            Counter::PoolMisses => 9,
            Counter::BytesPooled => 10,
        }
    }
}

/// One observability event. Kill/Declared mark incident boundaries;
/// Phase spans carry the per-rank recovery work between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The fault fabric killed these ranks' machine (ground truth for
    /// detection latency — production code never reads this, only the
    /// timeline does).
    Kill { ranks: Vec<Rank> },
    /// The detector declared `ranks` dead, bumping the failure epoch to
    /// `epoch`.
    Declared { epoch: Epoch, ranks: Vec<Rank> },
    /// `rank` entered `phase` of the recovery running under `epoch`.
    PhaseBegin {
        rank: Rank,
        epoch: Epoch,
        phase: Phase,
    },
    /// `rank` finished `phase` of the recovery running under `epoch`.
    PhaseEnd {
        rank: Rank,
        epoch: Epoch,
        phase: Phase,
    },
    /// The process supervisor launched a fresh OS process for `rank`
    /// (`attempt` 0 is the initial spawn).
    Spawn { rank: Rank, attempt: u64 },
    /// The supervisor replaced a dead `rank` process while recovery
    /// epoch `epoch` was in flight.
    Respawn { rank: Rank, epoch: Epoch },
}

/// An [`Event`] with its recorded timestamp (nanoseconds on the wall
/// clock, ticks on the logical clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    pub at_ns: u64,
    pub event: Event,
}

/// Where emitted events and counter bumps land. Implementations must be
/// cheap and lock-light: emitters sit on recovery and logging hot paths.
pub trait Recorder: Send + Sync {
    /// Records a timestamped event.
    fn record(&self, at_ns: u64, event: Event);
    /// Adds `delta` to `counter`.
    fn add(&self, counter: Counter, delta: u64);
}

/// Discards everything. Useful as an explicit stand-in where a recorder
/// value is required but observation is not wanted.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _at_ns: u64, _event: Event) {}
    fn add(&self, _counter: Counter, _delta: u64) {}
}

const HISTO_BUCKETS: usize = 64;

/// Counts and power-of-two delta histogram for one [`Counter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sum of all deltas.
    pub total: u64,
    /// Number of `add` calls.
    pub samples: u64,
    /// `buckets[i]` counts deltas with `floor(log2(delta)) == i`
    /// (`delta == 0` lands in bucket 0).
    pub buckets: Vec<(u32, u64)>,
}

struct CounterCell {
    total: AtomicU64,
    samples: AtomicU64,
    buckets: [AtomicU64; HISTO_BUCKETS],
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            total: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn add(&self, delta: u64) {
        self.total.fetch_add(delta, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
        let bucket = if delta == 0 {
            0
        } else {
            63 - delta.leading_zeros() as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            total: self.total.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// In-memory recorder: keeps every event and aggregates counters.
/// The sink behind `cargo xtask timeline` and the timeline tests.
pub struct MemoryRecorder {
    events: Mutex<Vec<Stamped>>,
    counters: [CounterCell; Counter::ALL.len()],
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        MemoryRecorder {
            events: Mutex::new(Vec::new()),
            counters: std::array::from_fn(|_| CounterCell::new()),
        }
    }
}

impl MemoryRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of all recorded events, in record order.
    pub fn events(&self) -> Vec<Stamped> {
        self.events.lock().expect("recorder events lock").clone()
    }

    /// The running total for `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].total.load(Ordering::Relaxed)
    }

    /// Total + sample count + log2 delta histogram for `counter`.
    pub fn histogram(&self, counter: Counter) -> HistogramSnapshot {
        self.counters[counter.index()].snapshot()
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, at_ns: u64, event: Event) {
        self.events
            .lock()
            .expect("recorder events lock")
            .push(Stamped { at_ns, event });
    }

    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].add(delta);
    }
}

enum Clock {
    /// Nanoseconds since installation (monotonic).
    Wall(Instant),
    /// Deterministic tick-per-event counter.
    Logical,
}

struct Installed {
    recorder: Arc<dyn Recorder>,
    clock: Clock,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static LOGICAL_NOW: AtomicU64 = AtomicU64::new(0);
static GLOBAL: RwLock<Option<Installed>> = RwLock::new(None);

/// Installs `recorder` as the process-global sink, stamping events with
/// monotonic wall time (nanoseconds since this call). Replaces any
/// previously installed recorder.
pub fn install(recorder: Arc<dyn Recorder>) {
    install_with(recorder, Clock::Wall(Instant::now()));
}

/// Installs `recorder` with the deterministic logical clock: each
/// recorded event gets the next tick. For simulator-driven runs.
pub fn install_logical(recorder: Arc<dyn Recorder>) {
    LOGICAL_NOW.store(0, Ordering::SeqCst);
    install_with(recorder, Clock::Logical);
}

fn install_with(recorder: Arc<dyn Recorder>, clock: Clock) {
    let mut slot = GLOBAL.write().expect("recorder slot lock");
    *slot = Some(Installed { recorder, clock });
    ENABLED.store(true, Ordering::Release);
}

/// Removes the global recorder; [`emit`]/[`add`] return to the disabled
/// fast path.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    let mut slot = GLOBAL.write().expect("recorder slot lock");
    *slot = None;
}

/// Whether a recorder is installed. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Emits an event if a recorder is installed. The closure only runs when
/// enabled, so call sites pay one load + branch when disabled.
#[inline]
pub fn emit(make: impl FnOnce() -> Event) {
    if enabled() {
        emit_slow(make());
    }
}

#[cold]
fn emit_slow(event: Event) {
    let slot = GLOBAL.read().expect("recorder slot lock");
    if let Some(installed) = slot.as_ref() {
        let at_ns = match &installed.clock {
            Clock::Wall(base) => base.elapsed().as_nanos() as u64,
            Clock::Logical => LOGICAL_NOW.fetch_add(1, Ordering::SeqCst),
        };
        installed.recorder.record(at_ns, event);
    }
}

/// Adds `delta` to `counter` if a recorder is installed.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    if enabled() {
        add_slow(counter, delta);
    }
}

#[cold]
fn add_slow(counter: Counter, delta: u64) {
    let slot = GLOBAL.read().expect("recorder slot lock");
    if let Some(installed) = slot.as_ref() {
        installed.recorder.add(counter, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide; tests touching it run under
    // one lock so parallel test threads don't fight over it.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_emit_never_builds_the_event() {
        let _g = TEST_GUARD.lock().unwrap();
        uninstall();
        let mut built = false;
        emit(|| {
            built = true;
            Event::Kill { ranks: vec![0] }
        });
        assert!(!built, "disabled emit must not construct the event");
    }

    #[test]
    fn install_emit_uninstall_round_trip() {
        let _g = TEST_GUARD.lock().unwrap();
        let rec = Arc::new(MemoryRecorder::new());
        install(rec.clone());
        assert!(enabled());
        emit(|| Event::Kill { ranks: vec![2] });
        add(Counter::BytesLogged, 1024);
        add(Counter::BytesLogged, 3);
        uninstall();
        emit(|| Event::Kill { ranks: vec![9] });
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, Event::Kill { ranks: vec![2] });
        assert_eq!(rec.counter(Counter::BytesLogged), 1027);
        let h = rec.histogram(Counter::BytesLogged);
        assert_eq!(h.samples, 2);
        assert_eq!(h.buckets, vec![(1, 1), (10, 1)]);
    }

    #[test]
    fn logical_clock_ticks_deterministically() {
        let _g = TEST_GUARD.lock().unwrap();
        let rec = Arc::new(MemoryRecorder::new());
        install_logical(rec.clone());
        for _ in 0..3 {
            emit(|| Event::Kill { ranks: vec![] });
        }
        uninstall();
        let ts: Vec<u64> = rec.events().iter().map(|s| s.at_ns).collect();
        assert_eq!(ts, vec![0, 1, 2]);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let _g = TEST_GUARD.lock().unwrap();
        let rec = Arc::new(MemoryRecorder::new());
        install(rec.clone());
        for _ in 0..10 {
            emit(|| Event::Kill { ranks: vec![] });
        }
        uninstall();
        let ts: Vec<u64> = rec.events().iter().map(|s| s.at_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}
