//! The transport abstraction: how frames move between ranks.
//!
//! [`Comm`](crate::comm::Comm) implements ordering, generation fencing,
//! failure detection and collectives once, against this trait; backends
//! supply the actual fabric. Two exist:
//!
//! - [`ChannelTransport`]: the in-process crossbeam fabric (one thread
//!   per rank). Deterministic, injectable, the CI default.
//! - [`SocketTransport`](crate::socket::SocketTransport): one OS process
//!   per rank over Unix-domain sockets, where a crash is a real `SIGKILL`
//!   and reconnection is a real `connect(2)`.
//!
//! The frame header is identical across backends — `(src, tag, tag_seq,
//! generation)` — so the stream-ordering and epoch-fencing logic in
//! `Comm` observes the same protocol whichever fabric carries it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError};

use crate::comm::Fabric;
use crate::faults::FaultInjector;
use crate::topology::Rank;
use crate::trace::Tracer;

/// One in-flight message, as seen by a receiver.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Sending rank.
    pub src: Rank,
    /// User or collective tag.
    pub tag: u64,
    /// Position in the per-`(src, dst, tag)` stream. Receivers deliver
    /// each stream strictly in order, exactly once.
    pub tag_seq: u64,
    /// Sender's failure generation; receivers fence older generations.
    pub generation: u64,
    /// Earliest delivery time (injected delay; `now` when fault-free).
    pub deliver_at: Instant,
    /// The payload bytes.
    pub payload: Bytes,
    /// Sender's vector clock at send time (tracing enabled only).
    pub vc: Option<Arc<Vec<u64>>>,
}

/// What became of a [`Transport::transmit`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The frame was handed to the fabric.
    Sent,
    /// A crash trigger fired on the sender mid-send; the message died
    /// with the machine.
    SenderCrashed,
    /// The destination is unreachable (inbox dropped, socket refused or
    /// broken). The frame may be lost; recovery re-synchronizes streams
    /// via the generation fence.
    PeerGone,
}

/// What travels on a rank's channel inbox: a frame, or a bare wake-up.
/// A wake-up is never delivered, stashed, traced or counted: once the
/// queued frames are consumed, the receiver sees it as an early
/// [`RecvEvent::Timeout`] and runs its failure checks at once instead of
/// on the next poll tick.
#[derive(Debug)]
pub(crate) enum Inbound {
    Frame(Frame),
    Wake,
}

/// What a bounded receive produced.
#[derive(Debug)]
pub enum RecvEvent {
    /// A frame arrived.
    Frame(Frame),
    /// Nothing arrived within the timeout.
    Timeout,
    /// The receive side is permanently gone (fabric torn down).
    Disconnected,
}

/// A rank's connection to the fabric.
///
/// Implementations own the sender-side stream counters (so `tag_seq`
/// stamping is theirs) and the inbound queue. They do *not* implement
/// ordering, deduplication or fencing — that is `Comm`'s job, identical
/// across backends.
pub trait Transport: Send {
    /// Stamps sequence numbers and ships `payload` to `dst`.
    fn transmit(&self, dst: Rank, generation: u64, tag: u64, payload: Bytes) -> TransmitOutcome;

    /// Blocks up to `timeout` for the next inbound frame.
    fn recv_timeout(&mut self, timeout: Duration) -> RecvEvent;

    /// Drains every frame currently queued inbound (recovery purge).
    fn drain(&mut self) -> Vec<Frame>;

    /// Whether `rank`'s link is believed up — the cheap, non-blocking
    /// liveness signal consulted before sends and on receive timeouts.
    fn link_up(&self, rank: Rank) -> bool;

    /// Like [`link_up`](Transport::link_up), but allowed to do work to
    /// find out (a socket backend attempts a reconnect). Used on receive
    /// timeouts so a peer that *recovered* since the last failure is not
    /// re-declared dead.
    fn probe_link(&self, rank: Rank) -> bool {
        self.link_up(rank)
    }

    /// Wakes every receiver blocked on this fabric, so each re-runs its
    /// failure checks now. Called after a declaration made through the
    /// fabric; backends without a wake path leave it to the receive
    /// poll.
    fn wake_receivers(&self) {}

    /// Raises the backend's generation fence floor: frames stamped with
    /// an older generation may be rejected before they are queued (the
    /// socket backend drops them at the boundary). Purely an early
    /// filter — `Comm` fences stale generations again on receive.
    fn fence_generation(&self, _generation: u64) {}

    /// The fault injector shaping this transport's traffic, if any.
    fn injector(&self) -> Option<Arc<FaultInjector>> {
        None
    }

    /// The protocol tracer observing this transport, if any.
    fn tracer(&self) -> Option<Arc<Tracer>> {
        None
    }
}

/// The in-process backend: a receiver on the shared channel
/// [`Fabric`]. Sends go through the fabric (which owns the stream
/// counters and the injector); receives drain this rank's inbox.
pub struct ChannelTransport {
    fabric: Arc<Fabric>,
    rank: Rank,
    inbox: Receiver<Inbound>,
    /// A wake-up was dequeued and no receive has since found the inbox
    /// empty: the next one that does returns at once.
    woken: bool,
}

impl ChannelTransport {
    /// Wraps one rank's end of the channel fabric.
    pub(crate) fn new(fabric: Arc<Fabric>, rank: Rank, inbox: Receiver<Inbound>) -> Self {
        ChannelTransport {
            fabric,
            rank,
            inbox,
            woken: false,
        }
    }
}

impl Transport for ChannelTransport {
    fn transmit(&self, dst: Rank, generation: u64, tag: u64, payload: Bytes) -> TransmitOutcome {
        self.fabric
            .transmit(self.rank, dst, generation, tag, payload)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvEvent {
        loop {
            // Queued frames always come first; a wake-up only cuts short
            // the wait for the next one. A timeout therefore still means
            // "nothing is queued", and a receiver never runs its failure
            // checks past traffic it could have consumed.
            let wait = if self.woken { Duration::ZERO } else { timeout };
            match self.inbox.recv_timeout(wait) {
                Ok(Inbound::Frame(f)) => return RecvEvent::Frame(f),
                Ok(Inbound::Wake) => self.woken = true,
                Err(RecvTimeoutError::Timeout) => {
                    self.woken = false;
                    return RecvEvent::Timeout;
                }
                Err(RecvTimeoutError::Disconnected) => return RecvEvent::Disconnected,
            }
        }
    }

    fn drain(&mut self) -> Vec<Frame> {
        self.woken = false;
        let mut out = Vec::new();
        while let Ok(m) = self.inbox.try_recv() {
            if let Inbound::Frame(f) = m {
                out.push(f);
            }
        }
        out
    }

    fn link_up(&self, rank: Rank) -> bool {
        self.fabric.link_up(rank)
    }

    fn wake_receivers(&self) {
        self.fabric.wake_receivers();
    }

    fn injector(&self) -> Option<Arc<FaultInjector>> {
        self.fabric.injector()
    }

    fn tracer(&self) -> Option<Arc<Tracer>> {
        self.fabric.tracer()
    }
}
