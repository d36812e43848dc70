//! Point-to-point and collective communication with NCCL-style
//! asynchronous failure propagation, generic over the fabric.
//!
//! Each rank owns a [`Comm`] handle over a [`Transport`] backend — the
//! in-process channel fabric by default, or one OS process per rank over
//! Unix sockets ([`crate::socket`]). Sends are non-blocking; receives
//! block with a poll loop that doubles as the failure detector — the
//! analogue of the paper's background thread polling
//! `ncclCommGetAsyncError()` (§6). Detection uses only *observable*
//! signals: severed fabric links (the victim's NIC going dark), channel
//! disconnects, and the key-value failure state published by other
//! detectors ([`crate::detector`]). The [`FailureController`] is
//! consulted for exactly one thing: whether *this* rank has been killed,
//! which is the mechanism by which the crashed process ceases to run.
//!
//! Messages carry three pieces of fault armor:
//! - a per-`(src, dst, tag)` stream sequence number (`tag_seq`), giving
//!   in-order, exactly-once delivery under injected reordering, drops
//!   (repaired by retransmission) and duplicates;
//! - the sender's failure *generation*: receivers drop traffic from
//!   generations older than their own, so delayed pre-failure messages
//!   can never satisfy post-recovery receives. Stream counters are
//!   per-generation on both sides — the recovery fence rolls every
//!   surviving and replacement stream back to position zero, which is
//!   the only contract a freshly-exec'd replacement *process* can keep;
//! - a `deliver_at` timestamp, the injector's delivery-delay lever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Mutex, RwLock};
use swift_obs::Epoch;
use swift_tensor::{decode_slice, encode, Tensor};

use crate::clock::{self, Clock};
use crate::detector;
use crate::failure::FailureController;
use crate::faults::{FaultInjector, SendFate};
use crate::kv::KvStore;
use crate::topology::Rank;
use crate::trace::Tracer;
use crate::transport::{ChannelTransport, Frame, Inbound, RecvEvent, TransmitOutcome, Transport};

/// Tag bit reserved for internal collective sequencing; user tags must
/// leave it clear.
pub const COLLECTIVE_BIT: u64 = 1 << 63;

/// A communication failure, observed NCCL-style at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer rank is dead (fail-stop).
    PeerFailed { rank: Rank },
    /// This rank itself was killed; the worker must unwind (its volatile
    /// state is considered lost).
    SelfKilled,
    /// Shared coordination state was malformed (e.g. an unparsable value
    /// in the key-value store) — a protocol bug, not a rank failure.
    Protocol { detail: String },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerFailed { rank } => write!(f, "peer rank {rank} failed"),
            CommError::SelfKilled => write!(f, "this rank was killed"),
            CommError::Protocol { detail } => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Sender-side stream state for one `(src, dst)` link, scoped to one
/// failure generation: the first transmit at a newer generation clears
/// the per-tag counters, so every stream restarts from position zero
/// after a recovery fence — matching the receiver, whose cursors reset
/// when it synchronizes its generation. (`link_seq` stays monotonic
/// across generations; it keys the injector's RNG.)
#[derive(Debug, Default)]
struct LinkState {
    /// Messages ever pushed onto this link (keys the injector's RNG).
    link_seq: u64,
    /// Generation the per-tag counters belong to.
    generation: u64,
    /// Next sequence number per tag, within `generation`.
    tag_seqs: HashMap<u64, u64>,
}

/// Shared channel fabric: one inbox per rank, senders replaceable so a
/// replacement worker can re-join under the same rank. Opaque to users;
/// obtained from [`build_comms`] and passed to [`respawn_comm`].
///
/// The fabric also owns the *observable* per-rank link state: killing a
/// machine severs its ranks' links (registered as a
/// [`FailureController::on_transition`] observer), which survivors see as
/// connection errors — no ground-truth liveness is consulted.
pub struct Fabric {
    senders: RwLock<Vec<Sender<Inbound>>>,
    /// Per-rank "NIC is reachable".
    link_up: Vec<AtomicBool>,
    /// Sender-side stream counters.
    links: Mutex<HashMap<(Rank, Rank), LinkState>>,
    /// Optional fault injector (the adversary).
    injector: RwLock<Option<Arc<FaultInjector>>>,
    /// Optional protocol tracer (the observer for `swift-verify`).
    tracer: RwLock<Option<Arc<Tracer>>>,
    /// Time source for `deliver_at` stamping (virtual under `swift-mc`).
    clock: RwLock<Arc<dyn Clock>>,
}

impl Fabric {
    /// Installs a fault injector; all subsequent traffic passes through
    /// it. Call before spawning workers for full coverage.
    pub fn install_injector(&self, inj: Arc<FaultInjector>) {
        *self.injector.write() = Some(inj);
    }

    /// The installed injector, if any.
    pub fn injector(&self) -> Option<Arc<FaultInjector>> {
        self.injector.read().clone()
    }

    /// Installs a protocol tracer; all subsequent sends, deliveries,
    /// epoch bumps and purges are recorded with vector clocks. Install
    /// before spawning workers for a complete trace.
    pub fn install_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = Some(tracer);
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.read().clone()
    }

    /// Replaces the fabric's time source. The model checker installs a
    /// [`VirtualClock`](crate::clock::VirtualClock) before spawning
    /// workers so injected delivery delays mature on schedule points
    /// instead of wall time.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *self.clock.write() = clock;
    }

    /// Whether `rank`'s link is up (the observable liveness signal).
    pub fn link_up(&self, rank: Rank) -> bool {
        self.link_up[rank].load(Ordering::SeqCst)
    }

    /// Raises or severs `rank`'s link.
    pub fn set_link(&self, rank: Rank, up: bool) {
        self.link_up[rank].store(up, Ordering::SeqCst);
    }

    /// Wakes every receiver blocked on the fabric: each sees an early
    /// receive timeout and runs its failure checks at once.
    pub(crate) fn wake_receivers(&self) {
        for s in self.senders.read().iter() {
            // A dropped inbox has no receiver left to wake.
            let _ = s.send(Inbound::Wake);
        }
    }

    /// Forgets sender-side stream state for every link *into* `rank` — a
    /// replacement worker starts with an empty inbox and expects every
    /// stream from position zero.
    fn reset_links_into(&self, rank: Rank) {
        self.links.lock().retain(|&(_, dst), _| dst != rank);
    }

    /// Stamps sequence numbers, consults the injector for the message's
    /// fate, and enqueues the surviving copies.
    pub(crate) fn transmit(
        &self,
        src: Rank,
        dst: Rank,
        generation: u64,
        tag: u64,
        payload: Bytes,
    ) -> TransmitOutcome {
        let (copies, tag_seq) = {
            let mut links = self.links.lock();
            let ls = links.entry((src, dst)).or_default();
            let link_seq = ls.link_seq;
            ls.link_seq += 1;
            if generation > ls.generation {
                // First transmit of a new generation: the recovery fence
                // rolled both ends of every stream back to zero.
                ls.generation = generation;
                ls.tag_seqs.clear();
            }
            let seq = ls.tag_seqs.entry(tag).or_insert(0);
            let tag_seq = *seq;
            *seq += 1;
            let fate = match self.injector.read().as_ref() {
                Some(inj) => inj.on_send(src, dst, link_seq),
                None => SendFate {
                    copies: vec![Duration::ZERO],
                    crashed: false,
                },
            };
            if fate.crashed {
                return TransmitOutcome::SenderCrashed;
            }
            (fate.copies, tag_seq)
        };
        let vc = self
            .tracer
            .read()
            .as_ref()
            .map(|t| Arc::new(t.on_send(src, dst, tag, tag_seq, generation)));
        let sender = self.senders.read()[dst].clone();
        let now = self.clock.read().now();
        for delay in copies {
            let msg = Frame {
                src,
                tag,
                tag_seq,
                generation,
                deliver_at: now + delay,
                payload: payload.clone(),
                vc: vc.clone(),
            };
            if sender.send(Inbound::Frame(msg)).is_err() {
                return TransmitOutcome::PeerGone;
            }
        }
        TransmitOutcome::Sent
    }
}

/// A per-rank communicator handle, generic over the [`Transport`]
/// backend carrying its frames.
pub struct Comm {
    rank: Rank,
    world: usize,
    transport: Box<dyn Transport>,
    /// Out-of-order stash for messages that arrived early (wrong stream,
    /// future sequence number, or injected delay not yet elapsed).
    stash: Vec<Frame>,
    /// Next expected `tag_seq` per `(src, tag)` stream, within the
    /// current generation.
    expected: HashMap<(Rank, u64), u64>,
    fc: Arc<FailureController>,
    kv: KvStore,
    /// Failure generation this communicator has synchronized to
    /// (advanced by the recovery fence). Outgoing traffic is stamped with
    /// it; inbound traffic from older generations is fenced.
    generation: AtomicU64,
    coll_seq: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    /// Time source for receive deadlines and stall serving (virtual
    /// under `swift-mc`, wall-clock everywhere else).
    clock: Arc<dyn Clock>,
}

/// Poll interval while blocked in `recv`. Link-down transitions and
/// declarations made through the fabric wake blocked receivers at once;
/// this cadence only covers failure declarations made off the fabric,
/// such as by the heartbeat monitor.
const POLL: Duration = Duration::from_micros(200);

/// Builds the fabric and one `Comm` per rank. The failure controller's
/// kill/replace transitions are wired to the fabric's link state, which
/// is how an injected crash becomes observable to survivors. Each
/// transition also bumps the KV revision, and a kill wakes every
/// blocked receiver.
pub fn build_comms(
    world: usize,
    fc: Arc<FailureController>,
    kv: KvStore,
) -> (Arc<Fabric>, Vec<Comm>) {
    let mut senders = Vec::with_capacity(world);
    let mut receivers = Vec::with_capacity(world);
    for _ in 0..world {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let fabric = Arc::new(Fabric {
        senders: RwLock::new(senders),
        link_up: (0..world).map(|_| AtomicBool::new(true)).collect(),
        links: Mutex::new(HashMap::new()),
        injector: RwLock::new(None),
        tracer: RwLock::new(None),
        clock: RwLock::new(clock::system()),
    });
    {
        let fabric = fabric.clone();
        let kv = kv.clone();
        fc.on_transition(move |ranks, alive| {
            for &r in ranks {
                fabric.set_link(r, alive);
            }
            kv.bump_revision();
            if !alive {
                fabric.wake_receivers();
            }
        });
    }
    let epoch = detector::failure_epoch(&kv).get();
    let comms = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| {
            Comm::over_transport(
                rank,
                world,
                Box::new(ChannelTransport::new(fabric.clone(), rank, inbox)),
                fc.clone(),
                kv.clone(),
                epoch,
            )
        })
        .collect();
    (fabric, comms)
}

/// Creates a fresh `Comm` for `rank` on an existing fabric (a replacement
/// worker joining after a failure, §3). Messages queued for the dead
/// predecessor are discarded with its receiver, sender-side streams into
/// the rank restart from zero, and the communicator joins at the current
/// failure epoch.
pub fn respawn_comm(
    fabric: &Arc<Fabric>,
    rank: Rank,
    world: usize,
    fc: Arc<FailureController>,
    kv: KvStore,
) -> Comm {
    let (s, r) = unbounded();
    fabric.senders.write()[rank] = s;
    fabric.reset_links_into(rank);
    let epoch = detector::failure_epoch(&kv).get();
    Comm::over_transport(
        rank,
        world,
        Box::new(ChannelTransport::new(fabric.clone(), rank, r)),
        fc,
        kv,
        epoch,
    )
}

impl Comm {
    /// Builds a communicator over an arbitrary transport backend, joining
    /// at failure `generation`. The in-process paths use [`build_comms`];
    /// process workers wrap a socket transport here.
    pub fn over_transport(
        rank: Rank,
        world: usize,
        transport: Box<dyn Transport>,
        fc: Arc<FailureController>,
        kv: KvStore,
        generation: u64,
    ) -> Comm {
        Comm {
            rank,
            world,
            transport,
            stash: Vec::new(),
            expected: HashMap::new(),
            fc,
            kv,
            generation: AtomicU64::new(generation),
            coll_seq: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            clock: clock::system(),
        }
    }

    /// Replaces this communicator's time source (see
    /// [`Fabric::set_clock`]); install before first use.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// This communicator's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// The failure controller this communicator unwinds through (the
    /// injection mechanism — not a detection input).
    pub fn failure_controller(&self) -> &Arc<FailureController> {
        &self.fc
    }

    /// The key-value store shared with the detector.
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// The fault injector installed on the transport, if any.
    pub fn injector(&self) -> Option<Arc<FaultInjector>> {
        self.transport.injector()
    }

    /// Whether `rank`'s link is currently believed up — the cheap,
    /// non-blocking liveness signal (no probing, no declaration). A
    /// result fan-out uses it to skip an already-dark peer before it
    /// builds the payload; the send itself goes through
    /// [`send_unless_dark`](Self::send_unless_dark), since the link can
    /// go dark between the two.
    pub fn peer_link_up(&self, rank: Rank) -> bool {
        self.transport.link_up(rank)
    }

    /// The mechanism of fail-stop: a killed rank's next communication
    /// unwinds. This is the *only* ground-truth liveness read in the
    /// communication path, and it is strictly self-directed. Public so
    /// that KV-polling recovery waits can serve the same fail-stop
    /// semantics a real dead process would get for free.
    pub fn check_self(&self) -> Result<(), CommError> {
        if self.fc.is_dead(self.rank) {
            Err(CommError::SelfKilled)
        } else {
            Ok(())
        }
    }

    /// Serves an injected stall: the whole rank freezes until it ends
    /// (heartbeats freeze with it — see [`crate::detector::Heartbeat`]).
    fn serve_stall(&self) {
        if let Some(inj) = self.transport.injector() {
            while let Some(end) = inj.stalled_until(self.rank) {
                let now = self.clock.now();
                if end <= now {
                    break;
                }
                self.clock.sleep(end - now);
            }
        }
    }

    /// Publishes an observed link failure. Every currently-dark link is
    /// declared in one atomic call, so a simultaneous multi-machine
    /// failure (Appendix B) lands in a *single* epoch bump no matter
    /// which victim a survivor happens to notice first — every observer
    /// then agrees on the resulting epoch.
    fn declare_downed_links(&self, observed: Rank) -> CommError {
        let downed: Vec<Rank> = (0..self.world)
            .filter(|&r| r != self.rank && !self.transport.link_up(r))
            .collect();
        if downed.is_empty() {
            // The link flapped back up (a replacement already joined);
            // report the rank we were blocked on.
            return CommError::PeerFailed { rank: observed };
        }
        detector::declare_failed(&self.kv, &downed);
        self.transport.wake_receivers();
        let rank = if downed.contains(&observed) {
            observed
        } else {
            downed[0]
        };
        CommError::PeerFailed { rank }
    }

    /// Checks the observable KV failure state (§6: the flag workers poll).
    /// An epoch ahead of ours means a failure we have not yet fenced:
    /// unwind — as ourselves if we are the one declared dead (false
    /// suspicion self-fencing), otherwise reporting a declared-dead peer.
    fn check_failure_state(&self, fallback: Rank) -> Result<(), CommError> {
        let (epoch, dead) = detector::failure_state(&self.kv);
        if epoch.get() > self.generation.load(Ordering::SeqCst) {
            if dead.contains(&self.rank) {
                return Err(CommError::SelfKilled);
            }
            let rank = dead
                .iter()
                .copied()
                .find(|&r| r != self.rank)
                .unwrap_or(fallback);
            return Err(CommError::PeerFailed { rank });
        }
        Ok(())
    }

    /// Sends raw bytes to `dst` with a user tag (must not set
    /// [`COLLECTIVE_BIT`]).
    pub fn send_bytes(&self, dst: Rank, tag: u64, payload: Bytes) -> Result<(), CommError> {
        if self.send_unless_dark(dst, tag, payload)? {
            return Ok(());
        }
        // Connection error: the peer's NIC is dark, or the write itself
        // failed (EPIPE on a socket, a dropped channel in-process) and the
        // transport marked it dark. Publish what we observed so the rest
        // of the job learns without touching it — before unwinding:
        // recovery code derives its namespaces from the declared epoch,
        // and a PeerFailed that precedes the declaration would ack under a
        // stale one.
        Err(self.declare_downed_links(dst))
    }

    /// [`send_bytes`](Self::send_bytes) for one destination of a result
    /// fan-out: a peer whose link is dark — before the send or by the
    /// time the frame is written — is skipped (`Ok(false)`), never
    /// declared. A declaration from the fan-out would fence the sends the
    /// surviving peers after it still need, and whether a dying peer's
    /// link is still up when the fan-out reaches it is a race; the data
    /// dependency on the dead peer (or the lease monitor) declares it.
    pub fn send_unless_dark(&self, dst: Rank, tag: u64, payload: Bytes) -> Result<bool, CommError> {
        self.check_self()?;
        self.serve_stall();
        // The stall may have outlived us (or our false suspicion).
        self.check_self()?;
        if !self.transport.link_up(dst) {
            return Ok(false);
        }
        self.check_failure_state(dst)?;
        self.bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        // A send can still race with the peer dying; that surfaces on the
        // peer's side (or on our next call), matching async NCCL errors.
        let gen = self.generation.load(Ordering::SeqCst);
        match self.transport.transmit(dst, gen, tag, payload) {
            TransmitOutcome::Sent => Ok(true),
            TransmitOutcome::SenderCrashed => Err(CommError::SelfKilled),
            TransmitOutcome::PeerGone => Ok(false),
        }
    }

    /// Consumes a matched message: advances the stream cursor, counts the
    /// bytes, and gives crash triggers their shot at the consumer.
    fn deliver(&mut self, m: Frame) -> Result<Bytes, CommError> {
        self.expected.insert((m.src, m.tag), m.tag_seq + 1);
        self.bytes_received
            .fetch_add(m.payload.len() as u64, Ordering::Relaxed);
        if let Some(t) = self.transport.tracer() {
            t.on_deliver(
                self.rank,
                m.src,
                m.tag,
                m.tag_seq,
                m.generation,
                self.generation.load(Ordering::SeqCst),
                m.vc.as_deref().map(Vec::as_slice).unwrap_or(&[]),
            );
        }
        if let Some(inj) = self.transport.injector() {
            if inj.on_delivery(self.rank) {
                return Err(CommError::SelfKilled);
            }
        }
        Ok(m.payload)
    }

    /// Receives raw bytes from `src` with the given tag, blocking until
    /// the next in-stream message arrives or a failure is detected.
    ///
    /// Delivery is in-order and exactly-once per `(src, tag)` stream:
    /// reordered messages wait in the stash for their turn, duplicates of
    /// already-consumed sequence numbers are suppressed, and messages
    /// stamped with a pre-recovery generation are fenced — dropped
    /// without touching the cursors, which restart from zero each
    /// generation.
    pub fn recv_bytes(&mut self, src: Rank, tag: u64) -> Result<Bytes, CommError> {
        loop {
            self.check_self()?;
            self.serve_stall();
            let gen = self.generation.load(Ordering::SeqCst);
            let now = self.clock.now();
            // Scan the stash: drop fenced/duplicate traffic, deliver the
            // expected in-stream message if its delay has elapsed, and
            // otherwise note when the earliest candidate matures.
            let mut hit = None;
            let mut matures: Option<Instant> = None;
            let mut i = 0;
            while i < self.stash.len() {
                let m = &self.stash[i];
                if m.generation < gen {
                    // Pre-recovery traffic: fenced. Cursors are
                    // per-generation, so the slot simply vanishes.
                    self.stash.swap_remove(i);
                    continue;
                }
                if m.src == src && m.tag == tag && m.generation == gen {
                    let expected = self.expected.get(&(src, tag)).copied().unwrap_or(0);
                    if m.tag_seq < expected {
                        // Duplicate of an already-consumed message.
                        self.stash.swap_remove(i);
                        continue;
                    }
                    if m.tag_seq == expected {
                        if m.deliver_at <= now {
                            hit = Some(i);
                            break;
                        }
                        matures = Some(matures.map_or(m.deliver_at, |t| t.min(m.deliver_at)));
                    }
                }
                i += 1;
            }
            if let Some(i) = hit {
                let m = self.stash.swap_remove(i);
                return self.deliver(m);
            }
            let wait = matures
                .map(|t| t.saturating_duration_since(now).min(POLL))
                .unwrap_or(POLL)
                .max(Duration::from_micros(10));
            match self.transport.recv_timeout(wait) {
                RecvEvent::Frame(m) => {
                    if m.generation >= gen {
                        self.stash.push(m);
                    }
                    // else: fenced, dropped without cursor movement.
                }
                RecvEvent::Timeout => {
                    // Failure detector, observable signals only. First:
                    // is the sender's link dark (connection error)? The
                    // probe may do real work — a socket backend attempts
                    // a reconnect, so a peer that recovered since its
                    // last failure is not re-declared dead. Second: has
                    // anyone declared a failure we have not fenced? Our
                    // sender may be alive but itself blocked on the dead
                    // machine, so this receive would hang — abort,
                    // exactly like workers tearing down their NCCL
                    // communicators when the KV-store flag is set.
                    let dark = !self.transport.probe_link(src);
                    if !dark && self.check_failure_state(src).is_ok() {
                        continue;
                    }
                    // The failure was seen after the wait timed out, so a
                    // frame that landed in between was sent before it (a
                    // declarer's last results, a dying peer's last write).
                    // If the awaited one is among them, consume it first: a
                    // receiver never runs its failure checks past traffic
                    // it could have consumed.
                    let queued = self.transport.drain();
                    let awaited = queued
                        .iter()
                        .any(|m| m.src == src && m.tag == tag && m.generation == gen);
                    self.stash
                        .extend(queued.into_iter().filter(|m| m.generation >= gen));
                    if awaited {
                        continue;
                    }
                    if dark {
                        return Err(self.declare_downed_links(src));
                    }
                    self.check_failure_state(src)?;
                }
                RecvEvent::Disconnected => {
                    return Err(CommError::PeerFailed { rank: src });
                }
            }
        }
    }

    /// Sends a tensor (encoded on the wire).
    pub fn send_tensor(&self, dst: Rank, tag: u64, t: &Tensor) -> Result<(), CommError> {
        self.send_bytes(dst, tag, encode(t))
    }

    /// Receives a tensor.
    pub fn recv_tensor(&mut self, src: Rank, tag: u64) -> Result<Tensor, CommError> {
        let b = self.recv_bytes(src, tag)?;
        decode_slice(&b).map_err(|e| CommError::Protocol {
            detail: format!("tensor from rank {src}: {e}"),
        })
    }

    /// Allocates the next collective tag. Multi-collective protocols built
    /// on top of `Comm` (e.g. bucketed all-reduce in `swift-core`) allocate
    /// their per-bucket tags here; every participant must allocate in the
    /// same order so sequences stay aligned.
    pub fn next_coll_tag(&self) -> u64 {
        COLLECTIVE_BIT | self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Current collective sequence number. Collectives only match between
    /// communicators whose sequences agree; after a failure, survivors and
    /// the (fresh, sequence-zero) replacement must resynchronize — see the
    /// recovery fence in `swift-core`.
    pub fn coll_seq(&self) -> u64 {
        self.coll_seq.load(Ordering::SeqCst)
    }

    /// Overwrites the collective sequence number (recovery fence only).
    pub fn set_coll_seq(&self, v: u64) {
        self.coll_seq.store(v, Ordering::SeqCst);
    }

    /// Bytes sent through this communicator (payloads only).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes received through this communicator (payloads only).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Discards buffered inbound traffic (stash + transport queue).
    /// Called during the recovery fence: pre-failure in-flight traffic
    /// must not satisfy post-recovery receives.
    ///
    /// Frames from *older* generations vanish without touching cursors
    /// (cursors are per-generation). Frames of the *current* generation
    /// are discarded with a cursor advance, so senders' live stream
    /// positions stay aligned — this is the path taken when a rank is
    /// replaced without an epoch bump. Frames from a *future* generation
    /// (a peer that fenced ahead of us) stay stashed for delivery once
    /// we synchronize.
    pub fn purge(&mut self) {
        let gen = self.generation.load(Ordering::SeqCst);
        let mut keep = Vec::new();
        let drained = std::mem::take(&mut self.stash)
            .into_iter()
            .chain(self.transport.drain());
        for m in drained {
            match m.generation.cmp(&gen) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => {
                    let cursor = self.expected.entry((m.src, m.tag)).or_insert(0);
                    *cursor = (*cursor).max(m.tag_seq + 1);
                }
                std::cmp::Ordering::Greater => keep.push(m),
            }
        }
        self.stash = keep;
        if let Some(t) = self.transport.tracer() {
            t.on_purge(self.rank, gen);
        }
    }

    /// The failure epoch this communicator's generation stamp is
    /// synchronized to.
    pub fn generation(&self) -> Epoch {
        Epoch::new(self.generation.load(Ordering::SeqCst))
    }

    /// Synchronizes the failure generation to the declared epoch
    /// (recovery fence only). Inbound traffic stamped with an older
    /// generation is fenced on receipt, and every stream cursor resets
    /// to zero — the sender side does the same on its first transmit of
    /// the new generation, so both ends of every stream restart aligned.
    pub fn set_generation(&mut self, epoch: Epoch) {
        let g = epoch.get();
        let from = self.generation.swap(g, Ordering::SeqCst);
        if from != g {
            self.expected.clear();
            self.transport.fence_generation(g);
            if let Some(t) = self.transport.tracer() {
                t.on_epoch_bump(self.rank, from, g);
            }
        }
    }

    /// Records a protocol milestone in the trace (no-op unless tracing is
    /// enabled). Used by the recovery fence to mark entry and exit so the
    /// race checker can anchor its happens-before invariants.
    pub fn trace_mark(&self, label: &str) {
        if let Some(t) = self.transport.tracer() {
            t.mark(self.rank, label, self.generation.load(Ordering::SeqCst));
        }
    }

    /// Barrier among `participants` (must be called by all of them, in the
    /// same collective order). Root is the smallest rank.
    pub fn barrier_among(&mut self, participants: &[Rank]) -> Result<(), CommError> {
        let tag = self.next_coll_tag();
        let root = *participants.iter().min().expect("empty participant set");
        if self.rank == root {
            for &r in participants.iter().filter(|&&r| r != root) {
                self.recv_bytes(r, tag)?;
            }
            for &r in participants.iter().filter(|&&r| r != root) {
                self.send_bytes(r, tag, Bytes::new())?;
            }
        } else {
            self.send_bytes(root, tag, Bytes::new())?;
            self.recv_bytes(root, tag)?;
        }
        Ok(())
    }

    /// Full-world barrier.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let all: Vec<Rank> = (0..self.world).collect();
        self.barrier_among(&all)
    }

    /// Chunked, pipelined deterministic all-reduce (sum) among
    /// `participants`, streamed in `chunk_bytes` chunks so chunk *k*'s
    /// reduction overlaps chunk *k+1*'s transfer.
    ///
    /// The schedule is an ascending-rank chain: the partial sum of chunk
    /// *k* flows rank-index 0 → 1 → … → n−1, each rank folding its own
    /// contribution in, and the last rank streams finished chunks back
    /// down the chain while later chunks are still folding — 2(n−1) hops
    /// per chunk, pipelined across chunks. Every element is the
    /// ascending-rank left fold `((t₀ + t₁) + t₂) + …`, so the result is
    /// bitwise identical at any chunk size and thread count — required
    /// for replay determinism (§6). A chunk larger than the tensor makes
    /// it one message per hop.
    pub fn allreduce_sum_chunked_among(
        &mut self,
        participants: &[Rank],
        t: &Tensor,
        chunk_bytes: usize,
    ) -> Result<Tensor, CommError> {
        let mut out = t.clone();
        self.allreduce_sum_chunked_into(participants, t, &mut out, chunk_bytes)?;
        Ok(out)
    }

    /// [`allreduce_sum_chunked_among`](Comm::allreduce_sum_chunked_among)
    /// writing the result into an existing tensor (hot paths reuse `out`
    /// across iterations so steady state allocates nothing).
    pub fn allreduce_sum_chunked_into(
        &mut self,
        participants: &[Rank],
        t: &Tensor,
        out: &mut Tensor,
        chunk_bytes: usize,
    ) -> Result<(), CommError> {
        assert_eq!(
            t.shape().dims(),
            out.shape().dims(),
            "output shape must match the input"
        );
        let mut chain: Vec<Rank> = participants.to_vec();
        chain.sort_unstable();
        let n = chain.len();
        if n == 1 {
            out.data_mut().copy_from_slice(t.data());
            return Ok(());
        }
        let me = chain
            .iter()
            .position(|&r| r == self.rank)
            .expect("not a participant");
        let fold_tag = self.next_coll_tag();
        let gather_tag = fold_tag ^ (1 << 32);
        let numel = t.numel();
        let chunk = (chunk_bytes / 4).max(1);
        let own = t.data();
        // Fold phase: the partial sum climbs the chain chunk by chunk.
        // Rank index i receives t₀+…+t_{i−1} and adds its own values —
        // an elementwise left fold, so the result is independent of the
        // chunk size and the thread count.
        if me == 0 {
            let mut lo = 0;
            while lo < numel {
                let hi = (lo + chunk).min(numel);
                let piece = Bytes::copy_from_slice(bytemuck_f32(&own[lo..hi]));
                self.send_bytes(chain[1], fold_tag, piece)?;
                lo = hi;
            }
        } else {
            let prev = chain[me - 1];
            let mut scratch: Vec<f32> = Vec::with_capacity(chunk.min(numel.max(1)));
            let mut lo = 0;
            while lo < numel {
                let hi = (lo + chunk).min(numel);
                let incoming = self.recv_bytes(prev, fold_tag)?;
                check_frame_len("all-reduce chunk", &incoming, 4 * (hi - lo))?;
                scratch.clear();
                scratch.extend(
                    f32_from_bytes(&incoming)
                        .zip(&own[lo..hi])
                        .map(|(partial, &mine)| partial + mine),
                );
                let outgoing = Bytes::copy_from_slice(bytemuck_f32(&scratch));
                if me + 1 < n {
                    self.send_bytes(chain[me + 1], fold_tag, outgoing)?;
                } else {
                    // Last rank: this chunk is final. Install it and
                    // stream it back down while later chunks still fold.
                    out.data_mut()[lo..hi].copy_from_slice(&scratch);
                    self.send_bytes(prev, gather_tag, outgoing)?;
                }
                lo = hi;
            }
        }
        // Gather phase: finished chunks flow back down the chain; middle
        // ranks forward each chunk (refcounted, no copy) before
        // installing it locally.
        if me + 1 < n {
            let from = chain[me + 1];
            let mut lo = 0;
            while lo < numel {
                let hi = (lo + chunk).min(numel);
                let incoming = self.recv_bytes(from, gather_tag)?;
                check_frame_len("all-reduce result chunk", &incoming, 4 * (hi - lo))?;
                if me > 0 {
                    self.send_bytes(chain[me - 1], gather_tag, incoming.clone())?;
                }
                for (dst, v) in out.data_mut()[lo..hi]
                    .iter_mut()
                    .zip(f32_from_bytes(&incoming))
                {
                    *dst = v;
                }
                lo = hi;
            }
        }
        Ok(())
    }

    /// Chunked broadcast of raw bytes from `root`: a length header, then
    /// `chunk_bytes`-sized slices of the payload (refcounted at the root
    /// — no copies), so a receiver starts consuming while later chunks
    /// are still in flight.
    pub fn broadcast_bytes_chunked_among(
        &mut self,
        participants: &[Rank],
        root: Rank,
        data: Option<Bytes>,
        chunk_bytes: usize,
    ) -> Result<Bytes, CommError> {
        let tag = self.next_coll_tag();
        let chunk = chunk_bytes.max(1);
        if self.rank == root {
            let payload = data.expect("root must supply the broadcast payload");
            let header = Bytes::copy_from_slice(&(payload.len() as u64).to_le_bytes());
            for &r in participants.iter().filter(|&&r| r != root) {
                self.send_bytes(r, tag, header.clone())?;
            }
            let mut off = 0;
            while off < payload.len() {
                let end = (off + chunk).min(payload.len());
                let piece = payload.slice(off..end);
                for &r in participants.iter().filter(|&&r| r != root) {
                    self.send_bytes(r, tag, piece.clone())?;
                }
                off = end;
            }
            Ok(payload)
        } else {
            let total = u64_frame("broadcast header", &self.recv_bytes(root, tag)?)? as usize;
            let mut buf = Vec::with_capacity(total);
            while buf.len() < total {
                let piece = self.recv_bytes(root, tag)?;
                check_frame_len("broadcast chunk", &piece, chunk.min(total - buf.len()))?;
                buf.extend_from_slice(&piece);
            }
            Ok(Bytes::from(buf))
        }
    }

    /// Chunked tensor broadcast of the root's `t` into every other rank's
    /// `t` (which each pre-shapes): the root streams raw little-endian
    /// chunks of its tensor and receivers install each chunk into their
    /// existing storage — no wire header, no intermediate decode
    /// allocation, and a receiver starts installing while later chunks are
    /// still in flight.
    pub fn broadcast_tensor_chunked_into(
        &mut self,
        participants: &[Rank],
        root: Rank,
        t: &mut Tensor,
        chunk_bytes: usize,
    ) -> Result<(), CommError> {
        let tag = self.next_coll_tag();
        let chunk = (chunk_bytes / 4).max(1);
        if self.rank == root {
            let data = t.data();
            let mut lo = 0;
            while lo < data.len() {
                let hi = (lo + chunk).min(data.len());
                let piece = Bytes::copy_from_slice(bytemuck_f32(&data[lo..hi]));
                for &r in participants.iter().filter(|&&r| r != root) {
                    self.send_bytes(r, tag, piece.clone())?;
                }
                lo = hi;
            }
        } else {
            let numel = t.numel();
            let mut lo = 0;
            while lo < numel {
                let hi = (lo + chunk).min(numel);
                let incoming = self.recv_bytes(root, tag)?;
                check_frame_len("broadcast chunk", &incoming, 4 * (hi - lo))?;
                for (d, v) in t.data_mut()[lo..hi]
                    .iter_mut()
                    .zip(f32_from_bytes(&incoming))
                {
                    *d = v;
                }
                lo = hi;
            }
        }
        Ok(())
    }

    /// Sharded multi-source state transfer: every survivor concurrently
    /// streams a disjoint contiguous shard of the encoded state to every
    /// replacement, and each replacement reassembles the shards at their
    /// flat offsets.
    ///
    /// The shard schedule is a pure function of the payload length,
    /// `shard_bytes` and the ascending-sorted survivor set: shard *i*
    /// covers bytes `[i·B, min((i+1)·B, len))` and is sent by survivor
    /// index `i mod n`. The lowest survivor prefixes its stream with an
    /// 8-byte length header. Because reassembly is a pure repartition of
    /// the payload at fixed offsets, the received bytes are **bitwise
    /// identical** to [`broadcast_bytes_chunked_among`](Comm::broadcast_bytes_chunked_among)
    /// from any single survivor, at any shard size and thread count.
    ///
    /// Contract: every survivor must supply the *same* payload bytes
    /// (the replication invariant — callers that cannot guarantee it
    /// fall back to the single-root broadcast). Every rank in
    /// `survivors ∪ replacements` must call this collectively; the two
    /// sets must be disjoint. Survivors return their own payload,
    /// replacements the reassembled bytes.
    pub fn scatter_state_sharded(
        &mut self,
        survivors: &[Rank],
        replacements: &[Rank],
        payload: Option<Bytes>,
        shard_bytes: usize,
    ) -> Result<Bytes, CommError> {
        if survivors.contains(&self.rank) {
            let own = payload
                .clone()
                .expect("every survivor must supply the state payload");
            self.scatter_state_sharded_with(
                survivors,
                replacements,
                payload,
                shard_bytes,
                |_, _, _| {},
            )?;
            Ok(own)
        } else {
            let mut buf: Vec<u8> = Vec::new();
            self.scatter_state_sharded_with(
                survivors,
                replacements,
                None,
                shard_bytes,
                |total, offset, piece: &Bytes| {
                    if buf.capacity() < total {
                        buf.reserve_exact(total - buf.len());
                    }
                    debug_assert_eq!(offset, buf.len(), "shards must land at flat offsets");
                    buf.extend_from_slice(piece);
                },
            )?;
            Ok(Bytes::from(buf))
        }
    }

    /// [`scatter_state_sharded`](Comm::scatter_state_sharded) delivering
    /// each shard to a callback as it arrives, in flat-offset order —
    /// `on_shard(total_len, offset, bytes)` — so a replacement can
    /// overlap decoding with the arrival of later shards instead of
    /// waiting for the whole payload. Survivors never invoke the
    /// callback. Returns the total payload length.
    pub fn scatter_state_sharded_with<F>(
        &mut self,
        survivors: &[Rank],
        replacements: &[Rank],
        payload: Option<Bytes>,
        shard_bytes: usize,
        mut on_shard: F,
    ) -> Result<usize, CommError>
    where
        F: FnMut(usize, usize, &Bytes),
    {
        let tag = self.next_coll_tag();
        let shard = shard_bytes.max(1);
        let mut srcs: Vec<Rank> = survivors.to_vec();
        srcs.sort_unstable();
        srcs.dedup();
        let n = srcs.len();
        assert!(n > 0, "sharded transfer needs at least one survivor");
        debug_assert!(
            replacements.iter().all(|r| !srcs.contains(r)),
            "survivor and replacement sets must be disjoint"
        );
        if let Some(pos) = srcs.iter().position(|&r| r == self.rank) {
            let payload = payload.expect("every survivor must supply the state payload");
            let total = payload.len();
            if pos == 0 {
                let header = Bytes::copy_from_slice(&(total as u64).to_le_bytes());
                for &r in replacements {
                    self.send_bytes(r, tag, header.clone())?;
                }
            }
            // This survivor's shards: indices pos, pos+n, pos+2n, …
            // Slices are refcounted views — no copies on the send side.
            let num_shards = total.div_ceil(shard);
            let mut i = pos;
            while i < num_shards {
                let lo = i * shard;
                let hi = (lo + shard).min(total);
                let piece = payload.slice(lo..hi);
                for &r in replacements {
                    self.send_bytes(r, tag, piece.clone())?;
                }
                i += n;
            }
            Ok(total)
        } else {
            debug_assert!(
                replacements.contains(&self.rank),
                "caller must be a survivor or a replacement"
            );
            let total = u64_frame("state header", &self.recv_bytes(srcs[0], tag)?)? as usize;
            let num_shards = total.div_ceil(shard);
            for i in 0..num_shards {
                let piece = self.recv_bytes(srcs[i % n], tag)?;
                check_frame_len("state shard", &piece, shard.min(total - i * shard))?;
                on_shard(total, i * shard, &piece);
            }
            Ok(total)
        }
    }

    /// Gathers one `u64` from every participant at every participant
    /// (used to reach consensus on the pre-failure iteration, §6
    /// "Update-undo" in pipeline parallelism). Returns values in
    /// ascending-rank order.
    pub fn all_gather_u64_among(
        &mut self,
        participants: &[Rank],
        value: u64,
    ) -> Result<Vec<u64>, CommError> {
        let tag = self.next_coll_tag();
        let mut sorted: Vec<Rank> = participants.to_vec();
        sorted.sort_unstable();
        let root = sorted[0];
        if self.rank == root {
            let mut vals = vec![value];
            for &r in sorted.iter().skip(1) {
                vals.push(u64_frame("all-gather value", &self.recv_bytes(r, tag)?)?);
            }
            let mut payload = Vec::with_capacity(8 * vals.len());
            for v in &vals {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            let payload = Bytes::from(payload);
            for &r in sorted.iter().skip(1) {
                self.send_bytes(r, tag, payload.clone())?;
            }
            Ok(vals)
        } else {
            self.send_bytes(root, tag, Bytes::copy_from_slice(&value.to_le_bytes()))?;
            let b = self.recv_bytes(root, tag)?;
            check_frame_len("all-gather result", &b, 8 * sorted.len())?;
            Ok(b.chunks_exact(8).map(u64_le).collect())
        }
    }
}

/// Views an `f32` slice as its raw little-endian bytes (the collective
/// wire format on little-endian hosts — no copy, no allocation).
pub fn bytemuck_f32(v: &[f32]) -> &[u8] {
    // Safety: f32 and u8 have no invalid bit patterns; alignment of u8 is 1.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, v.len() * 4) }
}

/// Iterates the `f32` values of a raw little-endian payload (safe on
/// unaligned input — each value is re-assembled from its 4 bytes).
pub fn f32_from_bytes(b: &[u8]) -> impl Iterator<Item = f32> + '_ {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
}

/// Checks that a received `frame` (named `what` in the error) carries
/// exactly `expected` bytes: a malformed frame is a protocol error, never
/// a panic or a silently truncated fold.
pub fn check_frame_len(what: &str, frame: &[u8], expected: usize) -> Result<(), CommError> {
    if frame.len() == expected {
        Ok(())
    } else {
        Err(CommError::Protocol {
            detail: format!("{what} carries {} bytes, expected {expected}", frame.len()),
        })
    }
}

/// Reads a frame that must be exactly one little-endian `u64`.
fn u64_frame(what: &str, frame: &[u8]) -> Result<u64, CommError> {
    check_frame_len(what, frame, 8)?;
    Ok(u64_le(frame))
}

/// The little-endian `u64` in the first 8 bytes of `b`.
fn u64_le(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// The default collective chunk size in bytes: the `SWIFT_COLLECTIVE_CHUNK`
/// environment variable when set (raw byte count), else 64 KiB — small
/// enough that a chunk's fold stays cache-resident, large enough that
/// per-message overhead stays negligible. Read once and cached.
pub fn default_chunk_bytes() -> usize {
    static CHUNK: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CHUNK.get_or_init(|| {
        std::env::var("SWIFT_COLLECTIVE_CHUNK")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(64 * 1024)
    })
}

/// The default shard size in bytes for
/// [`scatter_state_sharded`](Comm::scatter_state_sharded): the
/// `SWIFT_SHARD_BYTES` environment variable when set (raw byte count),
/// else 256 KiB — large enough that per-shard overhead is negligible,
/// small enough that a multi-MiB state spreads across every survivor.
/// The received bytes are shard-size-independent (the CI determinism
/// matrix sweeps this knob); only the streaming granularity changes.
/// Read once and cached.
pub fn default_shard_bytes() -> usize {
    static SHARD: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *SHARD.get_or_init(|| {
        std::env::var("SWIFT_SHARD_BYTES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(256 * 1024)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use crate::socket::SocketTransport;
    use crate::topology::Topology;

    fn tmp_dir(label: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("swift-comm-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn payload(len: usize, seed: u64) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| {
                    ((i as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(seed)
                        >> 33) as u8
                })
                .collect::<Vec<u8>>(),
        )
    }

    /// The sharded transfer over the *socket* backend (real processes use
    /// this transport) must hand the replacement bytes bitwise identical
    /// to the single-root chunked broadcast, at shard counts 1, 2, 4, 8.
    #[test]
    fn sharded_scatter_matches_broadcast_over_sockets() {
        let world = 4usize; // 3 survivors + 1 replacement
        let survivors = [0usize, 1, 2];
        let replacement = 3usize;
        let len = 50_003usize;
        let shard_sizes: Vec<usize> = [1usize, 2, 4, 8].iter().map(|c| len.div_ceil(*c)).collect();
        let dir = tmp_dir("scatter");
        let fc = crate::failure::FailureController::new(Topology::uniform(world, 1));
        let kv = KvStore::new();
        let participants: Vec<Rank> = (0..world).collect();
        let mut handles = Vec::new();
        for rank in 0..world {
            let dir = dir.clone();
            let fc = fc.clone();
            let kv = kv.clone();
            let shard_sizes = shard_sizes.clone();
            let participants = participants.clone();
            handles.push(std::thread::spawn(move || {
                let connect = RetryPolicy::poll().with_deadline(Duration::from_secs(5));
                let t = SocketTransport::bind(&dir, rank, world, connect).unwrap();
                let mut comm = Comm::over_transport(rank, world, Box::new(t), fc, kv, 0);
                let mut rounds = Vec::new();
                for &shard_bytes in &shard_sizes {
                    let data = survivors.contains(&rank).then(|| payload(len, 11));
                    let sharded = comm
                        .scatter_state_sharded(&survivors, &[replacement], data, shard_bytes)
                        .unwrap();
                    let root_data = (rank == 0).then(|| payload(len, 11));
                    let broadcast = comm
                        .broadcast_bytes_chunked_among(&participants, 0, root_data, 4096)
                        .unwrap();
                    rounds.push((sharded, broadcast));
                }
                rounds
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, (sharded, broadcast)) in results[replacement].iter().enumerate() {
            assert_eq!(sharded.len(), len, "round {i}");
            assert_eq!(sharded, broadcast, "socket scatter diverged in round {i}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
