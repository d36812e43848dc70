//! The time seam behind swift_net's protocol code.
//!
//! Every protocol-relevant read of "now" and every protocol sleep goes
//! through a [`Clock`], so the same detector, communicator, and KV code
//! runs against real time in production and against a [`VirtualClock`]
//! under the model checker (`swift-mc`), where lease expiry and message
//! maturation become explicit schedule points instead of wall-clock
//! races. Code that talks to real sockets or real processes
//! (`socket.rs`, `kv_remote.rs`, `retry.rs`) is exempt: wall time is
//! inherent there, and the checker models those layers instead of
//! executing them. `cargo xtask lint` enforces the split.
//!
//! [`Instant`] stays the unit of time on both sides: a virtual clock
//! reports a fixed base instant plus a manually advanced offset, so
//! `Frame::deliver_at`, lease bookkeeping, and deadline arithmetic are
//! identical under either clock.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of time plus the ability to pass it.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current instant.
    fn now(&self) -> Instant;

    /// Passes `d` of this clock's time. The system clock blocks the
    /// calling thread; a virtual clock advances instantly, which turns
    /// protocol back-off loops into plain state transitions the
    /// checker can interleave.
    fn sleep(&self, d: Duration);

    /// How long a thread may park on a wall-clock primitive (a condvar)
    /// for `d` of this clock's time to pass. Wall time passes while a
    /// thread is parked, so the system clock answers `d`. A virtual
    /// clock does not: it advances by `d` itself and answers zero, which
    /// turns a blocking wait into a non-blocking check.
    fn park_for(&self, d: Duration) -> Duration {
        d
    }
}

/// Wall-clock time — the production behavior.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d)
    }
}

/// The default clock handle: real time.
pub fn system() -> Arc<dyn Clock> {
    Arc::new(SystemClock)
}

/// Deterministic time under test: a base instant captured at
/// construction plus an atomic nanosecond offset that only [`advance`]
/// (or a virtual `sleep`) moves. Two reads with no advance in between
/// observe the *same* instant, so anything timing-dependent becomes a
/// pure function of the schedule that advanced the clock.
///
/// [`advance`]: VirtualClock::advance
#[derive(Debug)]
pub struct VirtualClock {
    base: Instant,
    offset_ns: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at "now", frozen until advanced.
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualClock {
            base: Instant::now(),
            offset_ns: AtomicU64::new(0),
        })
    }

    /// Moves virtual time forward by `d`.
    pub fn advance(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.offset_ns.fetch_add(ns, Ordering::SeqCst);
    }

    /// Virtual time passed since construction.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.offset_ns.load(Ordering::SeqCst))
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        self.base + self.elapsed()
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }

    fn park_for(&self, d: Duration) -> Duration {
        self.advance(d);
        Duration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_frozen_until_advanced() {
        let clock = VirtualClock::new();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(a, clock.now(), "wall time must not leak in");
        clock.advance(Duration::from_secs(3));
        assert_eq!(clock.now() - a, Duration::from_secs(3));
    }

    #[test]
    fn virtual_sleep_advances_instead_of_blocking() {
        let clock = VirtualClock::new();
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(5));
        assert_eq!(clock.elapsed(), Duration::from_secs(3600));
    }
}
