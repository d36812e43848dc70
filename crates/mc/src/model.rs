//! The model-checked world: a 1-bucket-per-group data-parallel training
//! job over an explicit-event protocol stack.
//!
//! Every source of nondeterminism the real in-process cluster has —
//! message delivery order on the channel fabric, KV request service
//! order, failure-detector firing, crash timing, torn-WAL-tail width —
//! is an explicit [`Action`] here, so a schedule (a list of action
//! choices) fully determines the run. The model reuses the production
//! protocol artifacts wherever a single-threaded call is possible: the
//! real [`KvStore`] as the control-plane state, the real failure-record
//! wire format ([`detector::parse_state`]/[`detector::format_state`])
//! driven through a two-phase CAS loop exactly like the remote KV
//! client's, and the real [`LogRecord`] codec for the WAL torn-tail
//! prefix check. The DP worker loop itself is re-expressed as a
//! per-rank state machine because the production loop blocks threads;
//! DESIGN.md ("Model-checked protocol invariants") states what that
//! abstraction does and does not cover.
//!
//! Blocking KV waits follow the production wait contract: a rank reads
//! the store's revision, checks its condition, and parks at that
//! revision; it observes the keys only once a write has moved the
//! revision past it. A write that forgets to bump the revision strands
//! its waiters — the `skip-wake` mutation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};

use bytes::Bytes;
use swift_net::detector::{self, STATE_KEY};
use swift_net::KvStore;
use swift_pipeline::MsgKind;
use swift_tensor::Tensor;
use swift_wal::{LogRecord, WalError};

/// A worker slot (stable across replacement; the paper's "rank").
pub type Slot = usize;

/// The root of the modeled all-reduce (fold-at-root, result fan-out).
pub const ROOT: Slot = 0;

/// A deliberately seeded protocol bug, used by the mutation tests to
/// prove the checker's oracles actually catch what they claim to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The protocol as implemented.
    #[default]
    None,
    /// Receivers skip the generation fence: stale-generation frames are
    /// matched and applied instead of dropped, and the recovery purge
    /// is a no-op. Oracle 1 (fence safety) must catch this.
    SkipGenerationFence,
    /// Recovery skips the undo of partially applied updates before
    /// resuming. Oracle 3 (exactly-once) must catch this.
    SkipUndo,
    /// The replacement's up-key write lands without bumping the KV
    /// revision, so a survivor already parked on it never wakes. The
    /// stuck-state check must catch this.
    SkipWake,
}

impl Mutation {
    /// Stable name used on the `xtask mc --mutation` CLI and in
    /// serialized schedules.
    pub fn as_str(&self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipGenerationFence => "skip-generation-fence",
            Mutation::SkipUndo => "skip-undo",
            Mutation::SkipWake => "skip-wake",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "skip-generation-fence" => Some(Mutation::SkipGenerationFence),
            "skip-undo" => Some(Mutation::SkipUndo),
            "skip-wake" => Some(Mutation::SkipWake),
            _ => None,
        }
    }
}

/// The scenario under check.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker slots (slot 0 is the all-reduce root).
    pub ranks: usize,
    /// Training iterations each rank must complete.
    pub iters: u64,
    /// Parameter groups per iteration — the update granularity, so a
    /// crash between groups leaves a *partial* update to undo.
    pub groups: usize,
    /// Crash budget for the failure-point enumerator (0 or 1).
    pub max_crashes: usize,
    /// Slots the enumerator may kill.
    pub crash_slots: Vec<Slot>,
    /// Also enumerate a torn-WAL-tail variant of every crash point
    /// (the victim's last flush cut mid-record).
    pub torn_wal: bool,
    /// Seeded bug, [`Mutation::None`] for the real protocol.
    pub mutation: Mutation,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ranks: 3,
            iters: 2,
            groups: 2,
            max_crashes: 1,
            crash_slots: vec![0, 1],
            torn_wal: false,
            mutation: Mutation::None,
        }
    }
}

/// An invariant violation found by one of the four oracles (or the
/// model-level progress check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Oracle 1 — generation-fence safety: a frame stamped with a
    /// pre-recovery generation was matched/applied after the receiver
    /// fenced past it.
    StaleGenerationApply {
        slot: Slot,
        frame_gen: u64,
        local_gen: u64,
        it: u64,
        group: usize,
    },
    /// Oracle 2 — lease/epoch monotonicity: the failure epoch went
    /// backwards.
    EpochRegressed { from: u64, to: u64 },
    /// Oracle 2 — the dead set grew without an epoch bump.
    DeadSetGrewWithoutBump { epoch: u64 },
    /// Oracle 3 — exactly-once: at termination a live rank's net apply
    /// count for an update is not exactly one.
    ApplyCountWrong {
        slot: Slot,
        it: u64,
        group: usize,
        count: i64,
    },
    /// Oracle 3 (replay side) — WAL replay decoded something other
    /// than a strict prefix of the victim's complete records.
    ReplayIntegrity { slot: Slot, detail: String },
    /// Oracle 4 — the KV op history has no valid linearization.
    KvNotLinearizable { detail: String },
    /// Progress: no action enabled but the job is not done.
    Stuck { detail: String },
}

impl Violation {
    /// Stable machine-readable kind tag (minimization preserves it).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::StaleGenerationApply { .. } => "stale-generation-apply",
            Violation::EpochRegressed { .. } => "epoch-regressed",
            Violation::DeadSetGrewWithoutBump { .. } => "dead-set-grew-without-bump",
            Violation::ApplyCountWrong { .. } => "apply-count-wrong",
            Violation::ReplayIntegrity { .. } => "replay-integrity",
            Violation::KvNotLinearizable { .. } => "kv-not-linearizable",
            Violation::Stuck { .. } => "stuck",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::StaleGenerationApply {
                slot,
                frame_gen,
                local_gen,
                it,
                group,
            } => write!(
                f,
                "rank {slot} applied generation-{frame_gen} traffic after fencing to \
                 generation {local_gen} (it {it}, group {group})"
            ),
            Violation::EpochRegressed { from, to } => {
                write!(f, "failure epoch regressed {from} -> {to}")
            }
            Violation::DeadSetGrewWithoutBump { epoch } => {
                write!(f, "dead set grew without an epoch bump (epoch {epoch})")
            }
            Violation::ApplyCountWrong {
                slot,
                it,
                group,
                count,
            } => write!(
                f,
                "rank {slot} applied update (it {it}, group {group}) {count} times (want 1)"
            ),
            Violation::ReplayIntegrity { slot, detail } => {
                write!(f, "WAL replay for slot {slot}: {detail}")
            }
            Violation::KvNotLinearizable { detail } => {
                write!(f, "KV history not linearizable: {detail}")
            }
            Violation::Stuck { detail } => {
                write!(f, "no enabled action but job not done: {detail}")
            }
        }
    }
}

/// A message on the modeled fabric.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    pub src: Slot,
    pub gen: u64,
    pub kind: FrameKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A rank's gradient contribution for `(it, g)`, shipped to the root.
    Grad { it: u64, g: usize },
    /// The folded result for `(it, g)`, fanned out by the root.
    Reduced { it: u64, g: usize },
}

/// A two-phase KV request (client enqueue -> server apply -> response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvReq {
    Get {
        key: String,
    },
    Set {
        key: String,
        val: String,
    },
    Cas {
        key: String,
        old: Option<String>,
        new: String,
    },
}

/// Server-side result of a [`KvReq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvRes {
    Value(Option<String>),
    SetOk,
    Cas { ok: bool, actual: Option<String> },
}

/// One completed (or in-flight) control-plane operation, recorded for
/// the linearizability oracle. `invoked`/`applied`/`responded` are
/// global event sequence numbers.
#[derive(Debug, Clone)]
pub struct KvCall {
    pub client: Slot,
    pub req: KvReq,
    pub res: Option<KvRes>,
    pub invoked: u64,
    pub applied: Option<u64>,
    pub responded: Option<u64>,
}

/// Per-rank protocol position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// Non-root, ready to ship its gradient for the current `(it, g)`.
    SendGrad,
    /// Non-root, blocked on the folded result.
    AwaitReduced,
    /// Root, collecting gradients for the current group.
    AwaitGrads { got: BTreeSet<Slot> },
    /// All iterations complete.
    Done,
    /// Declaring observed-dark ranks: Get leg of the CAS loop in flight.
    DeclareRead,
    /// Declaring: Cas leg in flight.
    DeclareCas { epoch: u64, dead: Vec<Slot> },
    /// Recovery: fence progress key Set in flight.
    FenceSetProgress,
    /// Recovery: waiting for every survivor's progress key.
    FenceAwaitProgress,
    /// Recovery: purged key Set in flight.
    FenceSetPurged,
    /// Recovery: waiting for every survivor's purged key.
    FenceAwaitPurged,
    /// Min survivor only: waiting for the replacement's up key.
    AwaitReplacementUp,
    /// Min survivor: declare-recovered Get leg in flight.
    RecoveredRead,
    /// Min survivor: declare-recovered Cas leg in flight.
    RecoveredCas,
    /// Waiting for the dead set to empty before resuming training.
    AwaitAllClear,
    /// Replacement: `replace/<gen>/up` Set in flight.
    ReplaceSetUp,
}

impl Phase {
    fn is_training(&self) -> bool {
        matches!(
            self,
            Phase::SendGrad | Phase::AwaitReduced | Phase::AwaitGrads { .. }
        )
    }
}

#[derive(Debug, Clone)]
pub struct RankState {
    pub slot: Slot,
    pub alive: bool,
    /// 0 = original worker, +1 per replacement.
    pub incarnation: u32,
    /// Failure generation this rank has fenced to.
    pub gen: u64,
    pub it: u64,
    pub g: usize,
    pub phase: Phase,
    pub stash: Vec<Frame>,
    /// Net apply count per `(it, g)` — +1 on apply, -1 on undo.
    pub applied: BTreeMap<(u64, usize), i64>,
    /// Epoch + dead set this rank is recovering from.
    pub recover_epoch: u64,
    pub recover_dead: Vec<Slot>,
    /// The KV revision this rank parked at in a blocking wait: read
    /// before its condition was checked, and `None` when the condition
    /// already held (or the rank is not waiting).
    pub parked_rev: Option<u64>,
}

impl RankState {
    fn new(slot: Slot) -> Self {
        RankState {
            slot,
            alive: true,
            incarnation: 0,
            gen: 0,
            it: 0,
            g: 0,
            phase: if slot == ROOT {
                Phase::AwaitGrads {
                    got: BTreeSet::new(),
                }
            } else {
                Phase::SendGrad
            },
            stash: Vec::new(),
            applied: BTreeMap::new(),
            recover_epoch: 0,
            recover_dead: Vec::new(),
            parked_rev: None,
        }
    }
}

/// The victim-side write-ahead log: raw encoded records plus how much
/// of them survived the crash (the flush frontier, possibly torn).
#[derive(Debug, Clone, Default)]
pub struct WalState {
    pub bytes: Vec<u8>,
    pub records: usize,
    /// Bytes that survive a crash; `None` = not crashed yet (all of it).
    pub flushed: Option<usize>,
}

/// One schedule point. `enabled()` returns these in a deterministic
/// order, so a schedule is just a list of indices into that list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Deliver the head frame of the `src -> dst` queue.
    Deliver { src: Slot, dst: Slot },
    /// A rank's enabled local step (shipping a gradient).
    RankStep { slot: Slot },
    /// The KV server applies `client`'s oldest pending request.
    KvApply { client: Slot },
    /// `client` consumes its oldest KV response and continues.
    KvRespond { client: Slot },
    /// A blocked rank notices a dark link and starts declaring.
    Detect { slot: Slot },
    /// A rank notices (via the KV store) an epoch newer than its
    /// generation and unwinds into recovery.
    ObserveEpoch { slot: Slot },
    /// A rank's blocking wait condition became true (fence keys,
    /// replacement-up key, all-clear).
    ObserveKeys { slot: Slot },
    /// A fresh worker takes over a dead slot (after all survivors
    /// purged), replaying the victim's WAL prefix.
    ReplacementJoin { slot: Slot },
    /// Failure point: kill `slot` here; `torn` cuts its last WAL flush
    /// mid-record.
    Crash { slot: Slot, torn: bool },
}

impl Action {
    /// Stable identity used for schedule files, sleep sets, and the
    /// pretty-printed counterexample.
    pub fn key(&self) -> String {
        match self {
            Action::Deliver { src, dst } => format!("deliver:{src}->{dst}"),
            Action::RankStep { slot } => format!("step:{slot}"),
            Action::KvApply { client } => format!("kv-apply:{client}"),
            Action::KvRespond { client } => format!("kv-respond:{client}"),
            Action::Detect { slot } => format!("detect:{slot}"),
            Action::ObserveEpoch { slot } => format!("observe-epoch:{slot}"),
            Action::ObserveKeys { slot } => format!("observe-keys:{slot}"),
            Action::ReplacementJoin { slot } => format!("replace:{slot}"),
            Action::Crash { slot, torn } => {
                format!("crash:{slot}{}", if *torn { ":torn" } else { "" })
            }
        }
    }

    /// Resource footprint for the independence relation behind sleep-set
    /// pruning: `(resource, writes)` pairs. Two actions are independent
    /// iff no resource is shared with a write on either side.
    pub fn footprint(&self) -> Vec<(String, bool)> {
        match self {
            Action::Deliver { src, dst } => vec![
                (format!("q:{src}:{dst}"), true),
                (format!("rank:{dst}"), true),
                // Delivering the last gradient makes the root fold and
                // fan out results; delivering a result advances a rank
                // that then ships its next gradient.
                (format!("qout:{dst}"), true),
                ("links".into(), false),
            ],
            Action::RankStep { slot } => vec![
                (format!("rank:{slot}"), true),
                (format!("qout:{slot}"), true),
                (format!("kvq:{slot}"), true),
                ("links".into(), false),
            ],
            Action::KvApply { client } => vec![
                ("kv".into(), true),
                (format!("kvq:{client}"), true),
                (format!("kvr:{client}"), true),
            ],
            Action::KvRespond { client } => vec![
                (format!("kvr:{client}"), true),
                (format!("rank:{client}"), true),
                (format!("kvq:{client}"), true),
                // Entering a wait reads the revision and the keys.
                ("kv".into(), false),
            ],
            Action::Detect { slot } | Action::ObserveEpoch { slot } => vec![
                (format!("rank:{slot}"), true),
                (format!("kvq:{slot}"), true),
                ("kv".into(), false),
                ("links".into(), false),
            ],
            Action::ObserveKeys { slot } => vec![
                (format!("rank:{slot}"), true),
                (format!("kvq:{slot}"), true),
                ("kv".into(), false),
            ],
            Action::ReplacementJoin { slot } => vec![
                (format!("rank:{slot}"), true),
                (format!("kvq:{slot}"), true),
                (format!("qin:{slot}"), true),
                ("kv".into(), false),
                ("links".into(), true),
            ],
            Action::Crash { slot, .. } => vec![
                (format!("rank:{slot}"), true),
                (format!("wal:{slot}"), true),
                ("links".into(), true),
            ],
        }
    }
}

/// Whether two actions commute (disjoint footprints up to read-read
/// sharing).
pub fn independent(a: &Action, b: &Action) -> bool {
    let fa = a.footprint();
    let fb = b.footprint();
    for (ra, wa) in &fa {
        for (rb, wb) in &fb {
            if ra == rb && (*wa || *wb) {
                return false;
            }
        }
    }
    true
}

fn fence_it_key(epoch: u64, slot: Slot) -> String {
    format!("fence/{epoch}/it/{slot}")
}

fn fence_purged_key(epoch: u64, slot: Slot) -> String {
    format!("fence/{epoch}/purged/{slot}")
}

fn replace_up_key(epoch: u64) -> String {
    format!("replace/{epoch}/up")
}

/// The explicit-event world. A schedule (sequence of indices into
/// [`enabled`](World::enabled)) deterministically drives it from
/// [`new`](World::new) to a terminal state.
#[derive(Debug)]
pub struct World {
    pub cfg: Config,
    pub ranks: Vec<RankState>,
    pub queues: BTreeMap<(Slot, Slot), VecDeque<Frame>>,
    /// The real control-plane store (server side; applied atomically at
    /// `KvApply` points, which is the server thread's actual behavior).
    pub kv: KvStore,
    /// The store's revision as waiters see it: bumped by every applied
    /// write (kept here rather than read from `kv`, because `skip-wake`
    /// must be able to write without bumping it).
    pub rev: u64,
    kv_reqs: Vec<VecDeque<usize>>,
    kv_resps: Vec<VecDeque<usize>>,
    pub history: Vec<KvCall>,
    pub wal: Vec<WalState>,
    pub crashes_used: usize,
    pub seq: u64,
    pub violations: Vec<Violation>,
    /// Human-readable event log for counterexample pretty-printing.
    pub trace: Vec<String>,
    /// Slots already re-filled by a replacement.
    pub replaced: BTreeSet<Slot>,
}

impl World {
    pub fn new(cfg: Config) -> World {
        assert!(cfg.ranks >= 2, "model needs a root and at least one peer");
        assert!(cfg.groups >= 1 && cfg.iters >= 1);
        let ranks = (0..cfg.ranks).map(RankState::new).collect();
        let wal = (0..cfg.ranks).map(|_| WalState::default()).collect();
        World {
            ranks,
            queues: BTreeMap::new(),
            kv: KvStore::new(),
            rev: 0,
            kv_reqs: vec![VecDeque::new(); cfg.ranks],
            kv_resps: vec![VecDeque::new(); cfg.ranks],
            history: Vec::new(),
            wal,
            crashes_used: 0,
            seq: 0,
            violations: Vec::new(),
            trace: Vec::new(),
            replaced: BTreeSet::new(),
            cfg,
        }
    }

    /// Deep copy for DFS branching (the KV store must not be shared).
    pub fn deep_clone(&self) -> World {
        let kv = KvStore::new();
        for (k, v) in self.kv.dump() {
            kv.set(&k, v);
        }
        World {
            cfg: self.cfg.clone(),
            ranks: self.ranks.clone(),
            queues: self.queues.clone(),
            kv,
            rev: self.rev,
            kv_reqs: self.kv_reqs.clone(),
            kv_resps: self.kv_resps.clone(),
            history: self.history.clone(),
            wal: self.wal.clone(),
            crashes_used: self.crashes_used,
            seq: self.seq,
            violations: self.violations.clone(),
            trace: self.trace.clone(),
            replaced: self.replaced.clone(),
        }
    }

    /// All live ranks completed every iteration.
    pub fn done(&self) -> bool {
        self.ranks
            .iter()
            .all(|r| !r.alive || r.phase == Phase::Done)
            && self.ranks.iter().any(|r| r.alive)
    }

    /// Stable fingerprint of protocol-relevant state (bookkeeping like
    /// `seq`, `history`, and `trace` excluded so revisits dedup).
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for r in &self.ranks {
            (r.slot, r.alive, r.incarnation, r.gen, r.it, r.g).hash(&mut h);
            format!("{:?}", r.phase).hash(&mut h);
            r.stash.hash(&mut h);
            r.applied.hash(&mut h);
            (r.recover_epoch, &r.recover_dead, r.parked_rev).hash(&mut h);
        }
        self.rev.hash(&mut h);
        for ((s, d), q) in &self.queues {
            (s, d).hash(&mut h);
            for f in q {
                f.hash(&mut h);
            }
        }
        self.kv.dump().hash(&mut h);
        for (i, q) in self.kv_reqs.iter().enumerate() {
            for &op in q {
                (i, "req").hash(&mut h);
                format!("{:?}", self.history[op].req).hash(&mut h);
            }
        }
        for (i, q) in self.kv_resps.iter().enumerate() {
            for &op in q {
                (i, "resp").hash(&mut h);
                format!("{:?}", self.history[op].res).hash(&mut h);
            }
        }
        (self.crashes_used, &self.replaced).hash(&mut h);
        for w in &self.wal {
            (w.records, w.flushed, w.bytes.len()).hash(&mut h);
        }
        h.finish()
    }

    /// The schedule points currently available, in a stable order.
    pub fn enabled(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for r in &self.ranks {
            if r.alive && r.phase == Phase::SendGrad {
                out.push(Action::RankStep { slot: r.slot });
            }
        }
        for (&(src, dst), q) in &self.queues {
            if !q.is_empty() && self.ranks[dst].alive {
                out.push(Action::Deliver { src, dst });
            }
        }
        for c in 0..self.cfg.ranks {
            if !self.kv_reqs[c].is_empty() {
                out.push(Action::KvApply { client: c });
            }
        }
        for c in 0..self.cfg.ranks {
            if !self.kv_resps[c].is_empty() && self.ranks[c].alive {
                out.push(Action::KvRespond { client: c });
            }
        }
        for r in &self.ranks {
            if self.detect_enabled(r) {
                out.push(Action::Detect { slot: r.slot });
            }
        }
        let (epoch, dead) = detector::failure_state(&self.kv);
        for r in &self.ranks {
            if r.alive && r.phase.is_training() && epoch.get() > r.gen {
                out.push(Action::ObserveEpoch { slot: r.slot });
            }
        }
        for r in &self.ranks {
            let woken = r.parked_rev.is_none_or(|p| self.rev > p);
            if r.alive && woken && self.keys_ready(r) {
                out.push(Action::ObserveKeys { slot: r.slot });
            }
        }
        if !dead.is_empty() {
            let survivors: Vec<Slot> = (0..self.cfg.ranks).filter(|s| !dead.contains(s)).collect();
            let all_purged = survivors
                .iter()
                .all(|&s| self.kv.get(&fence_purged_key(epoch.get(), s)).is_some());
            for &d in &dead {
                if all_purged && !self.replaced.contains(&d) && !self.ranks[d].alive {
                    out.push(Action::ReplacementJoin { slot: d });
                }
            }
        }
        if self.crashes_used < self.cfg.max_crashes {
            for &s in &self.cfg.crash_slots {
                if self.ranks[s].alive && self.ranks[s].phase.is_training() {
                    out.push(Action::Crash {
                        slot: s,
                        torn: false,
                    });
                    if self.cfg.torn_wal && self.wal[s].records > 0 {
                        out.push(Action::Crash {
                            slot: s,
                            torn: true,
                        });
                    }
                }
            }
        }
        out
    }

    fn detect_enabled(&self, r: &RankState) -> bool {
        if !r.alive {
            return false;
        }
        match &r.phase {
            // A sender's dark link is noticed inside RankStep; blocked
            // receivers are what need an explicit timeout-probe event.
            Phase::AwaitReduced => !self.ranks[ROOT].alive && !self.has_matching_frame(r, ROOT),
            Phase::AwaitGrads { got } => (0..self.cfg.ranks).any(|s| {
                s != r.slot
                    && !got.contains(&s)
                    && !self.ranks[s].alive
                    && !self.has_matching_frame(r, s)
            }),
            _ => false,
        }
    }

    /// Whether a frame from `src` matching `r`'s current await (at `r`'s
    /// generation) is pending in the queue or stash.
    fn has_matching_frame(&self, r: &RankState, src: Slot) -> bool {
        let want = match &r.phase {
            Phase::AwaitReduced => FrameKind::Reduced { it: r.it, g: r.g },
            Phase::AwaitGrads { .. } => FrameKind::Grad { it: r.it, g: r.g },
            _ => return false,
        };
        let matches = |f: &Frame| f.src == src && f.gen == r.gen && f.kind == want;
        self.queues
            .get(&(src, r.slot))
            .map(|q| q.iter().any(matches))
            .unwrap_or(false)
            || r.stash.iter().any(matches)
    }

    fn keys_ready(&self, r: &RankState) -> bool {
        let e = r.recover_epoch;
        let survivors = || {
            (0..self.cfg.ranks)
                .filter(|s| !r.recover_dead.contains(s))
                .collect::<Vec<_>>()
        };
        match &r.phase {
            Phase::FenceAwaitProgress => survivors()
                .iter()
                .all(|&s| self.kv.get(&fence_it_key(e, s)).is_some()),
            Phase::FenceAwaitPurged => survivors()
                .iter()
                .all(|&s| self.kv.get(&fence_purged_key(e, s)).is_some()),
            Phase::AwaitReplacementUp => self.kv.get(&replace_up_key(e)).is_some(),
            Phase::AwaitAllClear => detector::failure_state(&self.kv).1.is_empty(),
            _ => false,
        }
    }

    /// Executes one schedule point. The action must come from the
    /// current [`enabled`](World::enabled) list.
    pub fn apply(&mut self, action: &Action) {
        self.seq += 1;
        match action {
            Action::RankStep { slot } => self.rank_step(*slot),
            Action::Deliver { src, dst } => self.deliver(*src, *dst),
            Action::KvApply { client } => self.kv_apply(*client),
            Action::KvRespond { client } => self.kv_respond(*client),
            Action::Detect { slot } => self.detect(*slot),
            Action::ObserveEpoch { slot } => self.observe_epoch(*slot),
            Action::ObserveKeys { slot } => self.observe_keys(*slot),
            Action::ReplacementJoin { slot } => self.replacement_join(*slot),
            Action::Crash { slot, torn } => self.crash(*slot, *torn),
        }
    }

    // --- training -----------------------------------------------------

    fn rank_step(&mut self, slot: Slot) {
        let (it, g, gen) = {
            let r = &self.ranks[slot];
            (r.it, r.g, r.gen)
        };
        if !self.ranks[ROOT].alive {
            // Send to a dark link: the sender observes the severed
            // connection and declares every dark link in one batch.
            self.note(format!(
                "rank {slot}: send grad(it {it}, g {g}) hit dark link to root"
            ));
            self.start_declare(slot);
            return;
        }
        self.send(
            slot,
            ROOT,
            Frame {
                src: slot,
                gen,
                kind: FrameKind::Grad { it, g },
            },
        );
        self.ranks[slot].phase = Phase::AwaitReduced;
        self.note(format!("rank {slot}: sent grad(it {it}, g {g}) gen {gen}"));
        self.drain_stash(slot);
    }

    fn send(&mut self, src: Slot, dst: Slot, frame: Frame) {
        self.queues.entry((src, dst)).or_default().push_back(frame);
    }

    fn deliver(&mut self, src: Slot, dst: Slot) {
        let frame = self
            .queues
            .get_mut(&(src, dst))
            .and_then(|q| q.pop_front())
            .expect("deliver on empty queue");
        self.consume(dst, frame);
        self.drain_stash(dst);
    }

    /// Receive-side fencing + stream matching for one frame.
    fn consume(&mut self, dst: Slot, frame: Frame) {
        let local_gen = self.ranks[dst].gen;
        if frame.gen < local_gen && self.cfg.mutation != Mutation::SkipGenerationFence {
            self.note(format!(
                "rank {dst}: fenced stale frame {:?} (gen {} < {})",
                frame.kind, frame.gen, local_gen
            ));
            return;
        }
        if !self.frame_matches(dst, &frame) {
            self.ranks[dst].stash.push(frame);
            return;
        }
        self.process_match(dst, frame);
    }

    fn frame_matches(&self, dst: Slot, frame: &Frame) -> bool {
        let r = &self.ranks[dst];
        // The generation must match too — a frame from a *newer*
        // generation than the receiver's waits in the stash until the
        // receiver fences forward (mirrors per-generation stream
        // cursors). Under the fence-skip mutation stale frames are
        // allowed to match: that is the seeded bug.
        let gen_ok = frame.gen == r.gen
            || (self.cfg.mutation == Mutation::SkipGenerationFence && frame.gen < r.gen);
        if !gen_ok {
            return false;
        }
        match (&r.phase, frame.kind) {
            (Phase::AwaitReduced, FrameKind::Reduced { it, g }) => {
                frame.src == ROOT && it == r.it && g == r.g
            }
            (Phase::AwaitGrads { got }, FrameKind::Grad { it, g }) => {
                it == r.it && g == r.g && !got.contains(&frame.src)
            }
            _ => false,
        }
    }

    fn process_match(&mut self, dst: Slot, frame: Frame) {
        if frame.gen < self.ranks[dst].gen {
            // Oracle 1: a stale-generation frame crossed the fence and
            // is being applied to protocol state.
            let (it, g) = match frame.kind {
                FrameKind::Grad { it, g } | FrameKind::Reduced { it, g } => (it, g),
            };
            self.violations.push(Violation::StaleGenerationApply {
                slot: dst,
                frame_gen: frame.gen,
                local_gen: self.ranks[dst].gen,
                it,
                group: g,
            });
        }
        match frame.kind {
            FrameKind::Reduced { it, g } => {
                self.apply_update(dst, it, g);
                self.advance_cursor(dst);
            }
            FrameKind::Grad { it, g } => {
                let complete = {
                    let r = &mut self.ranks[dst];
                    let Phase::AwaitGrads { got } = &mut r.phase else {
                        unreachable!("matched grad outside AwaitGrads")
                    };
                    got.insert(frame.src);
                    got.len() == self.cfg.ranks - 1
                };
                if complete {
                    // The result leaves the root before the root applies
                    // it, so peers update alongside the root. A root that
                    // dies between the two loses only its own update (its
                    // replacement takes a survivor's state), so a crash
                    // just after this step covers that window too.
                    let gen = self.ranks[dst].gen;
                    for peer in 0..self.cfg.ranks {
                        if peer == dst {
                            continue;
                        }
                        if !self.ranks[peer].alive {
                            // A dark peer's result is skipped without
                            // declaring from the fan-out (the data
                            // dependency at the next fold declares).
                            self.note(format!(
                                "root: skipped result(it {it}, g {g}) to dark rank {peer}"
                            ));
                            continue;
                        }
                        self.send(
                            dst,
                            peer,
                            Frame {
                                src: dst,
                                gen,
                                kind: FrameKind::Reduced { it, g },
                            },
                        );
                    }
                    self.apply_update(dst, it, g);
                    self.advance_cursor(dst);
                }
            }
        }
    }

    fn apply_update(&mut self, slot: Slot, it: u64, g: usize) {
        *self.ranks[slot].applied.entry((it, g)).or_insert(0) += 1;
        let rec = LogRecord::new(
            slot,
            slot,
            it,
            g as u64,
            MsgKind::Gradient,
            Tensor::from_vec(vec![1usize], vec![(it * 31 + g as u64) as f32]),
        );
        let bytes = rec.encode();
        self.wal[slot].bytes.extend_from_slice(&bytes);
        self.wal[slot].records += 1;
        self.note(format!("rank {slot}: applied update(it {it}, g {g})"));
    }

    fn advance_cursor(&mut self, slot: Slot) {
        let (iters, groups) = (self.cfg.iters, self.cfg.groups);
        let r = &mut self.ranks[slot];
        r.g += 1;
        if r.g == groups {
            r.g = 0;
            r.it += 1;
        }
        r.phase = if r.it == iters {
            Phase::Done
        } else if slot == ROOT {
            Phase::AwaitGrads {
                got: BTreeSet::new(),
            }
        } else {
            Phase::SendGrad
        };
    }

    fn drain_stash(&mut self, slot: Slot) {
        loop {
            let idx = {
                let r = &self.ranks[slot];
                r.stash.iter().position(|f| self.frame_matches(slot, f))
            };
            match idx {
                Some(i) => {
                    let f = self.ranks[slot].stash.remove(i);
                    self.process_match(slot, f);
                }
                None => return,
            }
        }
    }

    // --- failure + detection ------------------------------------------

    fn crash(&mut self, slot: Slot, torn: bool) {
        self.crashes_used += 1;
        let r = &mut self.ranks[slot];
        r.alive = false;
        let w = &mut self.wal[slot];
        let total = w.bytes.len();
        w.flushed = Some(if torn && w.records > 0 {
            // Cut the last flush mid-record: recovery must treat the
            // tail as torn, never as a phantom record.
            let reclen = total / w.records;
            total - reclen / 2
        } else {
            total
        });
        self.note(format!(
            "CRASH rank {slot}{} (wal {} records, {} of {} bytes survive)",
            if torn { " [torn tail]" } else { "" },
            self.wal[slot].records,
            self.wal[slot].flushed.unwrap(),
            total,
        ));
    }

    fn dark_slots(&self) -> Vec<Slot> {
        (0..self.cfg.ranks)
            .filter(|&s| !self.ranks[s].alive)
            .collect()
    }

    fn detect(&mut self, slot: Slot) {
        self.note(format!(
            "rank {slot}: recv timed out, probe found dark link(s) {:?}",
            self.dark_slots()
        ));
        self.start_declare(slot);
    }

    /// Begin the two-phase CAS declaration of every currently-dark
    /// slot — the model twin of `declare_downed_links` running through
    /// the remote KV client's read-modify-write loop.
    fn start_declare(&mut self, slot: Slot) {
        self.ranks[slot].recover_dead = self.dark_slots();
        self.ranks[slot].phase = Phase::DeclareRead;
        self.enqueue_kv(
            slot,
            KvReq::Get {
                key: STATE_KEY.into(),
            },
        );
    }

    fn observe_epoch(&mut self, slot: Slot) {
        let (epoch, dead) = detector::failure_state(&self.kv);
        self.note(format!(
            "rank {slot}: observed epoch {} > generation {} (dead {:?})",
            epoch.get(),
            self.ranks[slot].gen,
            dead
        ));
        self.enter_recovery(slot, epoch.get(), dead);
    }

    /// The recovery entry point: undo the partial iteration, fence the
    /// generation, purge stale traffic, and start the fence-key dance.
    fn enter_recovery(&mut self, slot: Slot, epoch: u64, dead: Vec<Slot>) {
        let (it, g) = (self.ranks[slot].it, self.ranks[slot].g);
        if self.cfg.mutation != Mutation::SkipUndo {
            for g2 in 0..g {
                *self.ranks[slot].applied.entry((it, g2)).or_insert(0) -= 1;
                self.note(format!("rank {slot}: UNDO partial (it {it}, g {g2})"));
            }
        }
        let r = &mut self.ranks[slot];
        r.recover_epoch = epoch;
        r.recover_dead = dead;
        r.gen = epoch;
        if self.cfg.mutation != Mutation::SkipGenerationFence {
            r.stash.retain(|f| f.gen >= epoch);
        }
        r.phase = Phase::FenceSetProgress;
        let (key, val) = (fence_it_key(epoch, slot), it.to_string());
        self.note(format!(
            "rank {slot}: FENCE to generation {epoch}, publishing progress it={it}"
        ));
        self.enqueue_kv(slot, KvReq::Set { key, val });
    }

    fn observe_keys(&mut self, slot: Slot) {
        let e = self.ranks[slot].recover_epoch;
        self.ranks[slot].parked_rev = None;
        match self.ranks[slot].phase.clone() {
            Phase::FenceAwaitProgress => {
                let dead = self.ranks[slot].recover_dead.clone();
                let resume = (0..self.cfg.ranks)
                    .filter(|s| !dead.contains(s))
                    .map(|s| {
                        self.kv
                            .get(&fence_it_key(e, s))
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0)
                    })
                    .min()
                    .unwrap_or(0);
                let it = self.ranks[slot].it;
                if self.cfg.mutation != Mutation::SkipUndo {
                    // Undo-to-min: iterations completed beyond the
                    // slowest survivor are rolled back so everyone
                    // re-enters lockstep at `resume`.
                    for it2 in resume..it {
                        for g2 in 0..self.cfg.groups {
                            *self.ranks[slot].applied.entry((it2, g2)).or_insert(0) -= 1;
                            self.note(format!("rank {slot}: UNDO completed (it {it2}, g {g2})"));
                        }
                    }
                }
                let r = &mut self.ranks[slot];
                r.it = resume;
                r.g = 0;
                r.phase = Phase::FenceSetPurged;
                self.note(format!("rank {slot}: purged, resume point it={resume}"));
                self.enqueue_kv(
                    slot,
                    KvReq::Set {
                        key: fence_purged_key(e, slot),
                        val: "1".into(),
                    },
                );
            }
            Phase::FenceAwaitPurged => {
                let dead = &self.ranks[slot].recover_dead;
                let min_survivor = (0..self.cfg.ranks)
                    .find(|s| !dead.contains(s))
                    .expect("at least one survivor");
                let next = if slot == min_survivor {
                    Phase::AwaitReplacementUp
                } else {
                    Phase::AwaitAllClear
                };
                self.park(slot, next);
            }
            Phase::AwaitReplacementUp => {
                self.ranks[slot].phase = Phase::RecoveredRead;
                self.enqueue_kv(
                    slot,
                    KvReq::Get {
                        key: STATE_KEY.into(),
                    },
                );
            }
            Phase::AwaitAllClear => {
                let (it, gen) = {
                    let r = &mut self.ranks[slot];
                    r.phase = if slot == ROOT {
                        Phase::AwaitGrads {
                            got: BTreeSet::new(),
                        }
                    } else {
                        Phase::SendGrad
                    };
                    (r.it, r.gen)
                };
                self.note(format!("rank {slot}: RESUME training at it {it} gen {gen}"));
            }
            other => unreachable!("observe_keys in phase {other:?}"),
        }
        self.drain_stash(slot);
    }

    fn replacement_join(&mut self, slot: Slot) {
        let (epoch, dead) = detector::failure_state(&self.kv);
        let e = epoch.get();
        self.replay_wal_check(slot);
        let resume = (0..self.cfg.ranks)
            .filter(|s| !dead.contains(s))
            .map(|s| {
                self.kv
                    .get(&fence_it_key(e, s))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
            })
            .min()
            .unwrap_or(0);
        // The predecessor's inbox dies with it: a replacement starts
        // with empty queues (the fabric's reset_links_into contract).
        for src in 0..self.cfg.ranks {
            self.queues.remove(&(src, slot));
        }
        let inc = self.ranks[slot].incarnation + 1;
        let mut r = RankState::new(slot);
        r.incarnation = inc;
        r.gen = e;
        r.it = resume;
        r.recover_epoch = e;
        r.recover_dead = dead;
        // Replicated state from the survivors: every update before the
        // resume point is present exactly once.
        for it in 0..resume {
            for g in 0..self.cfg.groups {
                r.applied.insert((it, g), 1);
            }
        }
        r.phase = Phase::ReplaceSetUp;
        self.ranks[slot] = r;
        self.replaced.insert(slot);
        self.wal[slot] = WalState::default();
        self.note(format!(
            "REPLACEMENT joins slot {slot} at gen {e}, resume it={resume}"
        ));
        self.enqueue_kv(
            slot,
            KvReq::Set {
                key: replace_up_key(e),
                val: "1".into(),
            },
        );
    }

    /// Replays the victim's surviving WAL bytes through the *real*
    /// record codec: the decoded sequence must be exactly the complete
    /// records, with a torn tail surfacing as a truncation error —
    /// never a phantom or altered record.
    fn replay_wal_check(&mut self, slot: Slot) {
        let (bytes, records, flushed) = {
            let w = &self.wal[slot];
            (
                w.bytes.clone(),
                w.records,
                w.flushed.unwrap_or(w.bytes.len()),
            )
        };
        if records == 0 {
            return;
        }
        let surviving = &bytes[..flushed];
        let reclen = bytes.len() / records;
        let complete = flushed / reclen;
        let mut decoded = 0usize;
        let mut off = 0usize;
        while off < surviving.len() {
            let end = (off + reclen).min(surviving.len());
            let chunk = Bytes::copy_from_slice(&surviving[off..end]);
            match LogRecord::decode(chunk) {
                Ok(rec) => {
                    if end - off < reclen {
                        self.violations.push(Violation::ReplayIntegrity {
                            slot,
                            detail: format!(
                                "torn tail of {} bytes decoded as a record (it {})",
                                end - off,
                                rec.stamp.iteration
                            ),
                        });
                    }
                    decoded += 1;
                }
                Err(WalError::TruncatedRecord { .. }) if end - off < reclen => {
                    self.note(format!(
                        "replay slot {slot}: torn tail of {} bytes correctly rejected",
                        end - off
                    ));
                }
                Err(e) => {
                    self.violations.push(Violation::ReplayIntegrity {
                        slot,
                        detail: format!("record {decoded} failed to decode: {e:?}"),
                    });
                }
            }
            off = end;
        }
        if decoded != complete {
            self.violations.push(Violation::ReplayIntegrity {
                slot,
                detail: format!("decoded {decoded} records, expected prefix of {complete}"),
            });
        }
        self.note(format!(
            "replay slot {slot}: {decoded}/{records} complete records recovered"
        ));
    }

    // --- control plane (two-phase KV ops) -----------------------------

    fn enqueue_kv(&mut self, client: Slot, req: KvReq) {
        let id = self.history.len();
        self.history.push(KvCall {
            client,
            req,
            res: None,
            invoked: self.seq,
            applied: None,
            responded: None,
        });
        self.kv_reqs[client].push_back(id);
    }

    fn kv_apply(&mut self, client: Slot) {
        let id = self.kv_reqs[client].pop_front().expect("no pending req");
        let before = detector::failure_state(&self.kv);
        let mut wrote = false;
        let res = match &self.history[id].req {
            KvReq::Get { key } => KvRes::Value(self.kv.get(key)),
            KvReq::Set { key, val } => {
                self.kv.set(key, val.clone());
                // The seeded bug: the replacement's up key lands silently.
                wrote = !(self.cfg.mutation == Mutation::SkipWake
                    && *key == replace_up_key(self.ranks[client].recover_epoch));
                KvRes::SetOk
            }
            KvReq::Cas { key, old, new } => {
                let (ok, actual) = self.kv.cas(key, old.as_deref(), new.clone());
                wrote = ok;
                KvRes::Cas { ok, actual }
            }
        };
        if wrote {
            self.bump_revision();
        }
        // Oracle 2 — epoch/lease monotonicity, checked against the real
        // store at every write point.
        let after = detector::failure_state(&self.kv);
        if after.0.get() < before.0.get() {
            self.violations.push(Violation::EpochRegressed {
                from: before.0.get(),
                to: after.0.get(),
            });
        }
        if after.1.iter().any(|r| !before.1.contains(r)) && after.0 == before.0 {
            self.violations.push(Violation::DeadSetGrewWithoutBump {
                epoch: after.0.get(),
            });
        }
        self.history[id].res = Some(res);
        self.history[id].applied = Some(self.seq);
        self.kv_resps[client].push_back(id);
    }

    fn kv_respond(&mut self, client: Slot) {
        let id = self.kv_resps[client].pop_front().expect("no pending resp");
        self.history[id].responded = Some(self.seq);
        let res = self.history[id]
            .res
            .clone()
            .expect("responded before apply");
        self.continue_after_kv(client, res);
    }

    /// The rank-side continuation after a KV response: this is where
    /// the declare/fence/recover sub-protocols advance.
    fn continue_after_kv(&mut self, slot: Slot, res: KvRes) {
        match self.ranks[slot].phase.clone() {
            Phase::DeclareRead => {
                let KvRes::Value(raw) = res else {
                    unreachable!("declare read got {res:?}")
                };
                let (epoch, mut dead) = raw
                    .as_deref()
                    .map(detector::parse_state)
                    .unwrap_or((0, Vec::new()));
                let mut grew = false;
                for &d in &self.ranks[slot].recover_dead.clone() {
                    if !dead.contains(&d) {
                        dead.push(d);
                        grew = true;
                    }
                }
                dead.sort_unstable();
                if grew {
                    let new = detector::format_state(epoch + 1, &dead);
                    self.ranks[slot].phase = Phase::DeclareCas {
                        epoch: epoch + 1,
                        dead: dead.clone(),
                    };
                    self.enqueue_kv(
                        slot,
                        KvReq::Cas {
                            key: STATE_KEY.into(),
                            old: raw,
                            new,
                        },
                    );
                } else {
                    // Someone else already declared; the epoch they
                    // bumped to is necessarily newer than our fence.
                    debug_assert!(epoch > self.ranks[slot].gen);
                    self.enter_recovery(slot, epoch, dead);
                }
            }
            Phase::DeclareCas { epoch, dead } => match res {
                KvRes::Cas { ok: true, .. } => {
                    self.note(format!(
                        "rank {slot}: DECLARED {dead:?} dead, epoch {epoch}"
                    ));
                    self.enter_recovery(slot, epoch, dead);
                }
                KvRes::Cas { ok: false, .. } => {
                    // Lost the race: re-read and re-union.
                    self.ranks[slot].phase = Phase::DeclareRead;
                    self.enqueue_kv(
                        slot,
                        KvReq::Get {
                            key: STATE_KEY.into(),
                        },
                    );
                }
                other => unreachable!("declare cas got {other:?}"),
            },
            Phase::FenceSetProgress => self.park(slot, Phase::FenceAwaitProgress),
            Phase::FenceSetPurged => self.park(slot, Phase::FenceAwaitPurged),
            Phase::ReplaceSetUp => self.park(slot, Phase::AwaitAllClear),
            Phase::RecoveredRead => {
                let KvRes::Value(raw) = res else {
                    unreachable!("recovered read got {res:?}")
                };
                let (epoch, dead) = raw
                    .as_deref()
                    .map(detector::parse_state)
                    .unwrap_or((0, Vec::new()));
                let cleared: Vec<Slot> = dead
                    .iter()
                    .copied()
                    .filter(|d| !self.ranks[slot].recover_dead.contains(d))
                    .collect();
                if dead.is_empty() || cleared.len() == dead.len() {
                    self.park(slot, Phase::AwaitAllClear);
                } else {
                    let new = detector::format_state(epoch, &cleared);
                    self.ranks[slot].phase = Phase::RecoveredCas;
                    self.enqueue_kv(
                        slot,
                        KvReq::Cas {
                            key: STATE_KEY.into(),
                            old: raw,
                            new,
                        },
                    );
                }
            }
            Phase::RecoveredCas => match res {
                KvRes::Cas { ok: true, .. } => {
                    self.note(format!("rank {slot}: declared recovery complete"));
                    self.park(slot, Phase::AwaitAllClear);
                }
                KvRes::Cas { ok: false, .. } => {
                    self.ranks[slot].phase = Phase::RecoveredRead;
                    self.enqueue_kv(
                        slot,
                        KvReq::Get {
                            key: STATE_KEY.into(),
                        },
                    );
                }
                other => unreachable!("recovered cas got {other:?}"),
            },
            other => unreachable!("kv response in phase {other:?}"),
        }
    }

    /// Enters a blocking KV wait the way the production wait does: read
    /// the revision, check the condition, and park at that revision only
    /// if the condition does not hold yet.
    fn park(&mut self, slot: Slot, phase: Phase) {
        self.ranks[slot].phase = phase;
        let ready = self.keys_ready(&self.ranks[slot]);
        self.ranks[slot].parked_rev = (!ready).then_some(self.rev);
    }

    /// A write bumped the revision: every parked rank wakes and re-checks;
    /// those whose condition still fails park again at the new revision.
    fn bump_revision(&mut self) {
        self.rev += 1;
        for i in 0..self.ranks.len() {
            let r = &self.ranks[i];
            if r.alive && r.parked_rev.is_some() && !self.keys_ready(r) {
                self.ranks[i].parked_rev = Some(self.rev);
            }
        }
    }

    // --- oracles at termination ---------------------------------------

    /// Runs the terminal oracles (exactly-once, linearizability) and the
    /// stuck check; incremental oracles (fence safety, epoch
    /// monotonicity, replay integrity) have already recorded into
    /// `violations` as the run went.
    pub fn check_terminal(&mut self) {
        if !self.done() {
            let phases: Vec<String> = self
                .ranks
                .iter()
                .map(|r| format!("{}:{:?}", r.slot, r.phase))
                .collect();
            self.violations.push(Violation::Stuck {
                detail: phases.join(", "),
            });
            return;
        }
        for r in &self.ranks {
            if !r.alive {
                continue;
            }
            for it in 0..self.cfg.iters {
                for g in 0..self.cfg.groups {
                    let count = r.applied.get(&(it, g)).copied().unwrap_or(0);
                    if count != 1 {
                        self.violations.push(Violation::ApplyCountWrong {
                            slot: r.slot,
                            it,
                            group: g,
                            count,
                        });
                    }
                }
            }
        }
        if let Err(detail) = crate::kvlin::check_history(&self.history) {
            self.violations
                .push(Violation::KvNotLinearizable { detail });
        }
    }

    fn note(&mut self, msg: String) {
        self.trace.push(format!("[{:>4}] {msg}", self.seq));
    }
}
