//! A tiny global key-value store, co-located with rank 0 in the paper
//! (§6 "Failure detection"): workers publish the failure flag and other
//! small coordination facts here.
//!
//! Two backends share one handle type:
//!
//! - **Local**: an `Arc`'d map + condvar, cloned between threads — the
//!   in-process cluster's store, and the storage behind the supervisor's
//!   [`KvServer`](crate::kv_remote::KvServer).
//! - **Remote**: a Unix-socket client to a supervisor-hosted server,
//!   used by worker *processes* ([`KvStore::connect`]). Read-modify-write
//!   runs as a compare-and-swap retry loop.
//!
//! Every mutation bumps the store's [revision](KvStore::revision), and so
//! does every fail-stop transition of an in-process cluster
//! ([`KvStore::bump_revision`]). All blocking waits go through one
//! primitive, [`KvStore::wait_change`]: a waiter reads the revision,
//! checks its condition, and parks until the revision moves. The local
//! backend parks on its condvar; a remote handle cannot watch the
//! server's revision and polls instead.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::clock::{self, Clock};
use crate::kv_remote::{self, RemoteKv};
use crate::retry::RetryPolicy;

/// Shared key-value store with blocking waits.
#[derive(Debug, Clone)]
pub struct KvStore {
    backend: Backend,
    /// Time source for wait deadlines (virtual under `swift-mc`,
    /// wall-clock everywhere else).
    clock: Arc<dyn Clock>,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore {
            backend: Backend::default(),
            clock: clock::system(),
        }
    }
}

#[derive(Debug, Clone)]
enum Backend {
    Local(Arc<KvInner>),
    Remote(Arc<RemoteKv>),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Local(Arc::default())
    }
}

#[derive(Debug, Default)]
struct KvInner {
    state: Mutex<KvState>,
    cv: Condvar,
}

/// The map and its revision, under one lock: a waiter that reads the
/// revision and then parks cannot miss a bump in between.
#[derive(Debug, Default)]
struct KvState {
    map: HashMap<String, String>,
    rev: u64,
}

impl KvInner {
    /// Runs `f` on the locked state; when it reports a change, bumps the
    /// revision and wakes every waiter.
    fn mutate<T>(&self, f: impl FnOnce(&mut HashMap<String, String>) -> (T, bool)) -> T {
        let mut st = self.state.lock();
        let (out, changed) = f(&mut st.map);
        if changed {
            st.rev += 1;
            self.cv.notify_all();
        }
        out
    }
}

/// Remote poll cadence for [`KvStore::wait_change`] (the local backend
/// blocks on a condvar instead).
const REMOTE_WAIT_TICK: Duration = Duration::from_millis(2);

impl KvStore {
    /// Creates an empty local store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connects to a [`KvServer`](crate::kv_remote::KvServer) at `path`,
    /// retrying until the policy's deadline (the server may still be
    /// binding). Every operation on the returned handle is a socket
    /// round-trip to the hosting process's store.
    pub fn connect(path: &Path, retry: &RetryPolicy) -> io::Result<Self> {
        Ok(KvStore {
            backend: Backend::Remote(Arc::new(RemoteKv::connect(path, retry)?)),
            clock: clock::system(),
        })
    }

    /// This store with its wait deadlines measured on `clock`. The model
    /// checker installs a [`VirtualClock`](crate::clock::VirtualClock),
    /// under which a blocking wait becomes a non-blocking check.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Whether this handle is a remote client (worker-process side).
    pub fn is_remote(&self) -> bool {
        matches!(self.backend, Backend::Remote(_))
    }

    /// Sets `key` to `value`, waking any waiters.
    pub fn set(&self, key: &str, value: impl Into<String>) {
        match &self.backend {
            Backend::Local(inner) => inner.mutate(|m| {
                m.insert(key.to_string(), value.into());
                ((), true)
            }),
            Backend::Remote(r) => {
                r.roundtrip(&kv_remote::encode_set(key, &value.into()));
            }
        }
    }

    /// Sorted snapshot of the whole store — the model checker's state
    /// fingerprint. Local backend only; a remote handle would need a
    /// server round-trip per key and has no enumeration protocol.
    pub fn dump(&self) -> Vec<(String, String)> {
        match &self.backend {
            Backend::Local(inner) => {
                let mut all: Vec<_> = inner
                    .state
                    .lock()
                    .map
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                all.sort();
                all
            }
            Backend::Remote(_) => Vec::new(),
        }
    }

    /// Current value of `key`, if any.
    pub fn get(&self, key: &str) -> Option<String> {
        match &self.backend {
            Backend::Local(inner) => inner.state.lock().map.get(key).cloned(),
            Backend::Remote(r) => r.roundtrip(&kv_remote::encode_get(key)).1,
        }
    }

    /// Removes `key`, returning its previous value.
    pub fn remove(&self, key: &str) -> Option<String> {
        match &self.backend {
            Backend::Local(inner) => {
                inner.mutate(|m| m.remove(key).map_or((None, false), |v| (Some(v), true)))
            }
            Backend::Remote(r) => r.roundtrip(&kv_remote::encode_remove(key)).1,
        }
    }

    /// The store's revision: a counter bumped by every mutation and by
    /// [`bump_revision`](Self::bump_revision). A remote handle cannot see
    /// the server's counter and always reads 0.
    pub fn revision(&self) -> u64 {
        match &self.backend {
            Backend::Local(inner) => inner.state.lock().rev,
            Backend::Remote(_) => 0,
        }
    }

    /// Bumps the revision without touching the map, waking every waiter.
    /// The in-process cluster calls it on each fail-stop transition, so a
    /// waiter whose condition also watches liveness (its own, through
    /// [`Comm::check_self`](crate::comm::Comm::check_self)) wakes on a
    /// kill as it would on a write.
    pub fn bump_revision(&self) {
        if let Backend::Local(inner) = &self.backend {
            inner.mutate(|_| ((), true));
        }
    }

    /// Blocks until the revision moves past `since_rev` or `deadline`
    /// (on this store's clock) passes, and returns the revision then
    /// current. A remote handle cannot watch the server's revision: it
    /// returns after one poll tick instead. Either way, callers re-check
    /// their condition after every return.
    pub fn wait_change(&self, since_rev: u64, deadline: Instant) -> u64 {
        match &self.backend {
            Backend::Local(inner) => {
                let mut st = inner.state.lock();
                while st.rev == since_rev {
                    let now = self.clock.now();
                    if now >= deadline {
                        break;
                    }
                    inner
                        .cv
                        .wait_for(&mut st, self.clock.park_for(deadline - now));
                }
                st.rev
            }
            Backend::Remote(_) => {
                let now = self.clock.now();
                self.clock
                    .sleep(REMOTE_WAIT_TICK.min(deadline.saturating_duration_since(now)));
                since_rev
            }
        }
    }

    /// Evaluates `check` until it yields a value, parking on
    /// [`wait_change`](Self::wait_change) in between; `None` once
    /// `timeout` passes on this store's clock. `check` must depend only
    /// on what bumps the revision (the store's contents, and liveness in
    /// an in-process cluster), or a change to it can go unnoticed until
    /// the deadline.
    pub fn wait_until<T>(
        &self,
        timeout: Duration,
        mut check: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let deadline = self.clock.now() + timeout;
        loop {
            // The revision is read *before* the check: a write landing
            // after the check has bumped it past `rev` by the time we
            // park, so the wakeup cannot be lost.
            let rev = self.revision();
            if let Some(v) = check() {
                return Some(v);
            }
            if self.clock.now() >= deadline {
                return None;
            }
            self.wait_change(rev, deadline);
        }
    }

    /// Blocks until `key` exists (or the timeout elapses), returning its
    /// value.
    pub fn wait_for(&self, key: &str, timeout: Duration) -> Option<String> {
        self.wait_until(timeout, || self.get(key))
    }

    /// Atomically replaces the value at `key` with `f(current)`.
    /// Returning `None` leaves the key unchanged; the final value (old
    /// or new) is returned. Used for idempotent failure declarations:
    /// concurrent detectors can union into the dead-rank list without
    /// losing ranks.
    ///
    /// The local backend holds the store lock across one invocation of
    /// `f`; the remote client runs a compare-and-swap loop, so `f` may
    /// run *several times* against fresh snapshots — it must be a pure
    /// function of its input (or tolerate re-execution) on handles that
    /// may be remote.
    pub fn update(
        &self,
        key: &str,
        mut f: impl FnMut(Option<&str>) -> Option<String>,
    ) -> Option<String> {
        match &self.backend {
            Backend::Local(inner) => inner.mutate(|m| {
                let current = m.get(key).cloned();
                match f(current.as_deref()) {
                    Some(new) => {
                        m.insert(key.to_string(), new.clone());
                        (Some(new), true)
                    }
                    None => (current, false),
                }
            }),
            Backend::Remote(_) => {
                let mut current = self.get(key);
                loop {
                    match f(current.as_deref()) {
                        None => return current,
                        Some(new) => {
                            let (swapped, observed) =
                                self.cas(key, current.as_deref(), new.clone());
                            if swapped {
                                return Some(new);
                            }
                            // Lost the race: retry against the value that
                            // beat us.
                            current = observed;
                        }
                    }
                }
            }
        }
    }

    /// Compares the current value of `key` with `expected` and, when
    /// they match (`None` = absent), installs `new`. Returns `(swapped,
    /// current)` where `current` is the conflicting value on failure.
    pub fn cas(&self, key: &str, expected: Option<&str>, new: String) -> (bool, Option<String>) {
        match &self.backend {
            Backend::Local(inner) => inner.mutate(|m| {
                if m.get(key).map(String::as_str) == expected {
                    m.insert(key.to_string(), new);
                    ((true, None), true)
                } else {
                    ((false, m.get(key).cloned()), false)
                }
            }),
            Backend::Remote(r) => r.roundtrip(&kv_remote::encode_cas(key, expected, &new)),
        }
    }

    /// Atomically increments an integer counter at `key`, returning the
    /// new value (missing keys count as 0).
    pub fn incr(&self, key: &str) -> i64 {
        match &self.backend {
            Backend::Local(inner) => inner.mutate(|m| {
                let v = m.get(key).and_then(|s| s.parse::<i64>().ok()).unwrap_or(0) + 1;
                m.insert(key.to_string(), v.to_string());
                (v, true)
            }),
            Backend::Remote(r) => r
                .roundtrip(&kv_remote::encode_incr(key))
                .1
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn set_get_remove() {
        let kv = KvStore::new();
        assert!(kv.get("a").is_none());
        kv.set("a", "1");
        assert_eq!(kv.get("a").as_deref(), Some("1"));
        assert_eq!(kv.remove("a").as_deref(), Some("1"));
        assert!(kv.get("a").is_none());
    }

    #[test]
    fn wait_for_cross_thread() {
        let kv = KvStore::new();
        let kv2 = kv.clone();
        let h = thread::spawn(move || kv2.wait_for("flag", Duration::from_secs(2)));
        thread::sleep(Duration::from_millis(20));
        kv.set("flag", "up");
        assert_eq!(h.join().unwrap().as_deref(), Some("up"));
    }

    #[test]
    fn wait_for_times_out() {
        let kv = KvStore::new();
        let t0 = Instant::now();
        assert!(kv.wait_for("never", Duration::from_millis(30)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn late_set_after_timeout_is_not_lost() {
        // A timed-out waiter must not poison the key: a set landing after
        // the timeout is visible to get() and to a fresh wait_for().
        let kv = KvStore::new();
        assert!(kv.wait_for("late", Duration::from_millis(20)).is_none());
        kv.set("late", "v");
        assert_eq!(kv.get("late").as_deref(), Some("v"));
        assert_eq!(
            kv.wait_for("late", Duration::from_millis(20)).as_deref(),
            Some("v")
        );
    }

    /// Runs `mutate` on another thread while this one is parked in
    /// `wait_change`; returns the revision the wait came back with and
    /// how long it took.
    fn wake_by(kv: &KvStore, mutate: impl Fn(&KvStore) + Sync) -> (u64, u64, Duration) {
        let rev = kv.revision();
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t0 = Instant::now();
                let now = kv.wait_change(rev, Instant::now() + Duration::from_secs(10));
                (now, t0.elapsed())
            });
            thread::sleep(Duration::from_millis(5));
            mutate(kv);
            let (now, waited) = waiter.join().unwrap();
            (rev, now, waited)
        })
    }

    #[test]
    fn wait_change_wakes_on_every_mutator() {
        let kv = KvStore::new();
        kv.set("k", "0");
        type Mutator = fn(&KvStore);
        let mutators: [(&str, Mutator); 5] = [
            ("set", |kv| kv.set("k", "1")),
            ("remove", |kv| assert!(kv.remove("k").is_some())),
            ("cas", |kv| assert!(kv.cas("k", None, "2".into()).0)),
            ("incr", |kv| assert_eq!(kv.incr("n"), 1)),
            ("update", |kv| {
                assert!(kv.update("k", |_| Some("3".into())).is_some())
            }),
        ];
        for (name, mutate) in mutators {
            let (rev, now, waited) = wake_by(&kv, mutate);
            assert!(now > rev, "{name} did not bump the revision");
            assert!(
                waited < Duration::from_secs(5),
                "{name} did not wake the waiter"
            );
        }
    }

    #[test]
    fn reads_and_refused_writes_leave_the_revision_alone() {
        let kv = KvStore::new();
        kv.set("k", "v");
        let rev = kv.revision();
        assert_eq!(kv.get("k").as_deref(), Some("v"));
        assert!(kv.remove("absent").is_none());
        assert!(!kv.cas("k", Some("other"), "w".into()).0);
        assert_eq!(kv.update("k", |_| None).as_deref(), Some("v"));
        assert_eq!(kv.revision(), rev);
        kv.bump_revision();
        assert_eq!(kv.revision(), rev + 1);
    }

    /// The lost-wakeup race: the write lands after the waiter read the
    /// revision and checked its condition, but before (or while) it
    /// parks. Reading the revision first makes the park return at once.
    #[test]
    fn no_wakeup_is_lost_between_the_revision_read_and_the_park() {
        let kv = KvStore::new();
        let barrier = std::sync::Barrier::new(2);
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..1000 {
                    barrier.wait();
                    kv.set(&format!("round/{i}"), "1");
                }
            });
            for i in 0..1000 {
                let key = format!("round/{i}");
                let rev = kv.revision();
                assert!(kv.get(&key).is_none());
                barrier.wait();
                let t0 = Instant::now();
                kv.wait_change(rev, Instant::now() + Duration::from_secs(10));
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "round {i}: the write's wakeup was lost"
                );
                assert!(kv.get(&key).is_some());
            }
        });
    }

    #[test]
    fn wait_change_returns_at_an_expired_deadline() {
        let kv = KvStore::new();
        let rev = kv.revision();
        let t0 = Instant::now();
        assert_eq!(kv.wait_change(rev, t0 + Duration::from_millis(20)), rev);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // A deadline already behind us returns without parking.
        let t1 = Instant::now();
        assert_eq!(kv.wait_change(rev, t0), rev);
        assert!(t1.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn waits_under_a_virtual_clock_are_non_blocking_checks() {
        let clock = crate::clock::VirtualClock::new();
        let kv = KvStore::new().with_clock(clock.clone());
        let wall = Instant::now();
        assert!(kv.wait_for("never", Duration::from_secs(3600)).is_none());
        assert!(wall.elapsed() < Duration::from_secs(5));
        assert_eq!(clock.elapsed(), Duration::from_secs(3600));
        kv.set("k", "v");
        assert_eq!(
            kv.wait_for("k", Duration::from_secs(3600)).as_deref(),
            Some("v")
        );
    }

    #[test]
    fn incr_is_atomic_across_threads() {
        let kv = KvStore::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let kv = kv.clone();
                thread::spawn(move || {
                    for _ in 0..100 {
                        kv.incr("n");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.get("n").as_deref(), Some("800"));
    }

    #[test]
    fn local_cas_matches_and_conflicts() {
        let kv = KvStore::new();
        let (ok, _) = kv.cas("k", None, "a".into());
        assert!(ok);
        let (ok, cur) = kv.cas("k", Some("wrong"), "b".into());
        assert!(!ok);
        assert_eq!(cur.as_deref(), Some("a"));
        let (ok, _) = kv.cas("k", Some("a"), "b".into());
        assert!(ok);
        assert_eq!(kv.get("k").as_deref(), Some("b"));
    }
}
