//! The process backend: real OS processes, real SIGKILL, one supervisor.
//!
//! The in-process cluster substitutes threads for machines, which is
//! faithful for interleavings but polite about death: a "killed" worker
//! unwinds through a flag it agreed to check. This module removes the
//! politeness. Each rank runs as a separate `swift-worker` process
//! wired to its peers over the Unix-socket transport
//! ([`SocketTransport`]) and to the supervisor's KV store over a second
//! socket ([`KvStore::connect`]); failure injection is a real `SIGKILL`
//! delivered at a progress-based trigger
//! ([`CrashTrigger::KillProcess`](swift_net::CrashTrigger)); and
//! detection is strictly observable — the victim's heartbeats stop, the
//! supervisor-hosted [`HeartbeatMonitor`] declares it dead (§6), and the
//! survivors unwind through exactly the protocol stack the in-process
//! backend exercises.
//!
//! The two backends run *the same runners*: a worker builds its job from
//! [`ProcessScenario::job`] and runs its rank with the `start`/`rejoin`
//! a cluster thread of [`SwiftJob::run`] calls, which is what makes their
//! final model states comparable: the chaos tests train the reference
//! workload on both and compare them.
//!
//! Supervisor protocol, per kill in the plan:
//!
//! 1. wait until the victim's KV progress beacon reaches the trigger
//!    iteration, then `SIGKILL` the process (optionally tearing its
//!    newest machine-local WAL record, modeling death mid-flush);
//! 2. wait for the *declared* failure (heartbeat lease expiry — the
//!    supervisor never tells the detector anything), recording the
//!    detection latency;
//! 3. wait for every survivor's recovery acknowledgement under the
//!    declared epoch (`dp/ack/…` or `consensus/…`) through the same wait
//!    the in-process driver uses, then respawn the rank as a replacement
//!    process that re-runs the recovery sequence and rejoins training.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swift_data::BlobsDataset;
use swift_dnn::{models::mlp, ModelState};
use swift_net::{
    failure_epoch, failure_state, ClusterError, Comm, FailureController, FaultPlan, Heartbeat,
    HeartbeatConfig, HeartbeatMonitor, KvServer, KvStore, Rank, RetryPolicy, SocketTransport,
    Topology, WorkerCtx, HEARTBEAT_MS_ENV, LEASE_MS_ENV,
};
use swift_obs::Event;
use swift_optim::OptimizerKind;
use swift_store::{BlobStore, GlobalStore, StoreError};
use swift_wal::{LogMode, WalReader};

use crate::api::{Parallelism, SwiftJob, SwiftJobBuilder};
use crate::scenario::{await_survivor_acks, runner, ModelFn};

/// Environment variable carrying the run directory to worker processes.
pub const ENV_RUN_DIR: &str = "SWIFT_WORKER_RUN_DIR";
/// Environment variable carrying the worker's rank.
pub const ENV_RANK: &str = "SWIFT_WORKER_RANK";
/// Environment variable carrying the world size.
pub const ENV_WORLD: &str = "SWIFT_WORKER_WORLD";
/// Environment variable selecting the scenario (`dp` or `pipeline`).
pub const ENV_SCENARIO: &str = "SWIFT_WORKER_SCENARIO";
/// Environment variable selecting the role (`worker` or `replacement`).
pub const ENV_ROLE: &str = "SWIFT_WORKER_ROLE";
/// Environment variable carrying the spawn attempt (0 = initial).
pub const ENV_ATTEMPT: &str = "SWIFT_WORKER_ATTEMPT";
/// Environment variable carrying the iteration budget.
pub const ENV_ITERS: &str = "SWIFT_WORKER_ITERS";
/// Environment variable carrying the global mini-batch size.
pub const ENV_BATCH: &str = "SWIFT_WORKER_BATCH";
/// Environment variable carrying micro-batches per iteration (pipeline).
pub const ENV_MICROBATCHES: &str = "SWIFT_WORKER_MICROBATCHES";
/// Environment variable carrying the checkpoint interval (pipeline).
pub const ENV_CKPT_INTERVAL: &str = "SWIFT_WORKER_CKPT_INTERVAL";

/// The optimizer of both reference workloads.
const REFERENCE_OPT: OptimizerKind = OptimizerKind::SgdMomentum {
    lr: 0.05,
    weight_decay: 0.0,
    momentum: 0.9,
    dampening: 0.0,
};

/// The reference workload of `parallelism`, the job a worker runs: a
/// deterministic MLP (three stages' worth of layers for pipelines) on a
/// blobs dataset.
fn reference_job(parallelism: Parallelism, batch: usize, ckpt_interval: u64) -> SwiftJobBuilder {
    let (model_fn, dataset): (ModelFn, _) = match parallelism {
        Parallelism::Data { .. } => (
            Arc::new(|| mlp("it", &[6, 24, 3], 77)),
            BlobsDataset::new(5, 6, 3, 0.3),
        ),
        Parallelism::Pipeline { .. } => (
            Arc::new(|| mlp("pl", &[8, 24, 24, 3], 43)),
            BlobsDataset::new(9, 8, 3, 0.3),
        ),
    };
    SwiftJob::builder(model_fn, REFERENCE_OPT, Arc::new(dataset))
        .parallelism(parallelism)
        .batch_size(batch)
        .ckpt_interval(ckpt_interval)
        // Sync logging, deliberately: it guarantees every logged record
        // is durable the instant SIGKILL lands, so the supervisor's
        // torn-tail injection always has a newest record to tear. (With
        // the async modes the local disk is empty right after a
        // checkpoint GC while fresh records sit staged in memory, and
        // whether the kill finds anything on disk becomes a timing
        // lottery.) Log mode never changes the trained state
        // (`tests/logging_recovery.rs::sync_logging_recovers_identically`).
        .log_mode(LogMode::Sync)
}

/// Why a process scenario (or a worker process) failed.
#[derive(Debug)]
pub enum ProcessError {
    /// An OS-level operation (spawn, kill, socket, filesystem) failed.
    Io(std::io::Error),
    /// A cluster component (heartbeat config, monitor) failed to start.
    Cluster(ClusterError),
    /// The worker environment, or the job it describes, was missing or
    /// malformed.
    Config(String),
    /// A worker process misbehaved (bad exit, missing result).
    Worker {
        /// The offending rank.
        rank: Rank,
        /// What went wrong.
        detail: String,
    },
    /// A supervisor-side rendezvous never completed within its deadline.
    Rendezvous {
        /// What the supervisor was waiting for.
        what: String,
    },
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::Io(e) => write!(f, "process backend I/O error: {e}"),
            ProcessError::Cluster(e) => write!(f, "{e}"),
            ProcessError::Config(detail) => write!(f, "bad worker environment: {detail}"),
            ProcessError::Worker { rank, detail } => write!(f, "worker rank {rank}: {detail}"),
            ProcessError::Rendezvous { what } => write!(f, "supervisor timed out: {what}"),
        }
    }
}

impl std::error::Error for ProcessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProcessError::Io(e) => Some(e),
            ProcessError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProcessError {
    fn from(e: std::io::Error) -> Self {
        ProcessError::Io(e)
    }
}

impl From<ClusterError> for ProcessError {
    fn from(e: ClusterError) -> Self {
        ProcessError::Cluster(e)
    }
}

impl From<StoreError> for ProcessError {
    fn from(e: StoreError) -> Self {
        ProcessError::Io(e.into())
    }
}

/// The on-disk layout of one process-scenario run, shared between the
/// supervisor and the worker binary (workers derive every path from
/// [`ENV_RUN_DIR`]).
#[derive(Debug, Clone)]
pub struct RunLayout {
    root: PathBuf,
}

impl RunLayout {
    /// Wraps a run directory.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RunLayout { root: root.into() }
    }

    /// The run directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory of the per-rank transport sockets.
    pub fn sock_dir(&self) -> PathBuf {
        self.root.join("sock")
    }

    /// The supervisor's KV server socket.
    pub fn kv_sock(&self) -> PathBuf {
        self.root.join("kv.sock")
    }

    /// Blob store where workers deposit final states and losses.
    pub fn results_dir(&self) -> PathBuf {
        self.root.join("results")
    }

    /// The shared global store (checkpoints, uploaded logs).
    pub fn global_dir(&self) -> PathBuf {
        self.root.join("global")
    }

    /// Rank `rank`'s machine-local WAL store (pipeline scenarios). This
    /// directory survives the process — it models the local SSD of §5,
    /// not the machine's volatile state.
    pub fn wal_dir(&self, rank: Rank) -> PathBuf {
        self.root.join(format!("wal/m{rank}"))
    }
}

/// Configuration of a multi-process failure scenario.
pub struct ProcessScenario {
    /// Path to the `swift-worker` binary (tests pass
    /// `env!("CARGO_BIN_EXE_swift-worker")`).
    pub worker_bin: PathBuf,
    /// The layout, one rank process per machine; it also selects the
    /// reference workload (see [`ProcessScenario::job`]).
    pub parallelism: Parallelism,
    /// Iterations to train.
    pub iters: u64,
    /// Global mini-batch size.
    pub batch: usize,
    /// Checkpoint interval (pipeline).
    pub ckpt_interval: u64,
    /// Fault plan; only
    /// [`CrashTrigger::KillProcess`](swift_net::CrashTrigger) entries are
    /// honored here (the rest are fabric faults the supervisor cannot
    /// inject from outside). The *same* plan fed to an in-process
    /// scenario degrades those triggers to `AtIteration`, so one plan
    /// drives both backends.
    pub faults: FaultPlan,
    /// Tear the victim's newest machine-local WAL record at kill time,
    /// modeling `SIGKILL` landing mid-flush (pipeline scenarios).
    pub torn_wal: bool,
    /// Heartbeat lease parameters, exported to workers via
    /// [`HEARTBEAT_MS_ENV`]/[`LEASE_MS_ENV`]. Defaults are coarser than
    /// the in-process defaults: real processes see scheduler pauses that
    /// threads in a hot loop do not, and a pause past the lease reads as
    /// false suspicion.
    pub heartbeat: HeartbeatConfig,
    /// The run directory (a fresh temp dir by default).
    pub run_dir: PathBuf,
    /// How long to wait for a spawned process to report itself up.
    pub spawn_deadline: Duration,
    /// How long to wait for workers to finish training.
    pub exit_deadline: Duration,
}

impl ProcessScenario {
    /// A scenario running `parallelism`'s reference workload for 30
    /// iterations at batch 8, with a checkpoint every 10: the in-process
    /// integration tests' shapes.
    pub fn new(parallelism: Parallelism, worker_bin: impl Into<PathBuf>) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let run_dir = std::env::temp_dir().join(format!("swift-proc-{}-{n}", std::process::id()));
        ProcessScenario {
            worker_bin: worker_bin.into(),
            parallelism,
            iters: 30,
            batch: 8,
            ckpt_interval: 10,
            faults: FaultPlan::new(0),
            torn_wal: false,
            heartbeat: HeartbeatConfig {
                interval: Duration::from_millis(20),
                timeout: Duration::from_millis(500),
            },
            run_dir,
            spawn_deadline: Duration::from_secs(60),
            exit_deadline: Duration::from_secs(240),
        }
    }

    /// The run's on-disk layout.
    pub fn layout(&self) -> RunLayout {
        RunLayout::new(&self.run_dir)
    }

    /// The job every worker of this scenario runs: the reference model
    /// for the layout, SGD with momentum, the reference dataset and
    /// synchronous logging. Building and running it in-process gives the
    /// thread-backend twin of the scenario.
    pub fn job(&self) -> SwiftJobBuilder {
        reference_job(self.parallelism, self.batch, self.ckpt_interval)
    }
}

/// What a process scenario observed.
pub struct ProcessOutcome {
    /// Final model state per rank, decoded from the results store.
    pub states: Vec<ModelState>,
    /// Per-iteration training loss from the loss-owning rank (rank 0
    /// for DP, the last stage for pipelines).
    pub losses: Vec<f32>,
    /// Kill-to-declaration latency for each fired kill trigger, in plan
    /// order — the observable detection bound of §6.
    pub detection: Vec<Duration>,
    /// Ranks that were killed and respawned, in order.
    pub respawned: Vec<Rank>,
    /// Kills whose victim's exit status shows a signal death (should be
    /// all of them: `SIGKILL` leaves no clean exits).
    pub kills_dirty: usize,
    /// WAL records the supervisor truncated at kill time
    /// ([`ProcessScenario::torn_wal`]).
    pub torn_injected: usize,
    /// Torn records the post-run log audit reported (skip-and-report:
    /// replay must survive them and say so).
    pub torn_reported: usize,
}

fn up_key(rank: Rank, attempt: u64) -> String {
    format!("proc/up/{rank}/{attempt}")
}

fn state_key(rank: Rank) -> String {
    format!("result/state/{rank}")
}

fn losses_key(rank: Rank) -> String {
    format!("result/losses/{rank}")
}

fn torn_key(rank: Rank) -> String {
    format!("result/torn/{rank}")
}

fn encode_losses(losses: &[f32]) -> Vec<u8> {
    losses.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn decode_losses(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// The role a spawned process plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerRole {
    Worker,
    Replacement,
}

impl WorkerRole {
    fn as_str(self) -> &'static str {
        match self {
            WorkerRole::Worker => "worker",
            WorkerRole::Replacement => "replacement",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "worker" => Some(WorkerRole::Worker),
            "replacement" => Some(WorkerRole::Replacement),
            _ => None,
        }
    }
}

/// The environment a worker is spawned with: its rank and role, and the
/// scenario's job as [`WorkerEnv::parse`] reads it back.
fn worker_env(
    cfg: &ProcessScenario,
    rank: Rank,
    role: WorkerRole,
    attempt: u64,
) -> Vec<(&'static str, OsString)> {
    let (scenario, world, microbatches) = match cfg.parallelism {
        Parallelism::Data { machines } => ("dp", machines, None),
        Parallelism::Pipeline {
            stages,
            microbatches,
        } => ("pipeline", stages, Some(microbatches)),
    };
    let mut vars = vec![
        (ENV_RUN_DIR, cfg.run_dir.clone().into_os_string()),
        (ENV_RANK, rank.to_string().into()),
        (ENV_WORLD, world.to_string().into()),
        (ENV_SCENARIO, scenario.into()),
        (ENV_ROLE, role.as_str().into()),
        (ENV_ATTEMPT, attempt.to_string().into()),
        (ENV_ITERS, cfg.iters.to_string().into()),
        (ENV_BATCH, cfg.batch.to_string().into()),
        (ENV_CKPT_INTERVAL, cfg.ckpt_interval.to_string().into()),
        (
            HEARTBEAT_MS_ENV,
            cfg.heartbeat.interval.as_millis().to_string().into(),
        ),
        (
            LEASE_MS_ENV,
            cfg.heartbeat.timeout.as_millis().to_string().into(),
        ),
    ];
    if let Some(m) = microbatches {
        vars.push((ENV_MICROBATCHES, m.to_string().into()));
    }
    vars
}

fn spawn_worker(
    cfg: &ProcessScenario,
    rank: Rank,
    role: WorkerRole,
    attempt: u64,
) -> Result<Child, ProcessError> {
    swift_obs::emit(|| Event::Spawn { rank, attempt });
    Command::new(&cfg.worker_bin)
        .envs(worker_env(cfg, rank, role, attempt))
        .stdin(Stdio::null())
        .spawn()
        .map_err(ProcessError::Io)
}

fn wait_key(
    store: &KvStore,
    timeout: Duration,
    key: &str,
    what: impl Fn() -> String,
) -> Result<(), ProcessError> {
    match store.wait_for(key, timeout) {
        Some(_) => Ok(()),
        None => Err(ProcessError::Rendezvous { what: what() }),
    }
}

/// Truncates the lexicographically newest record in a machine-local WAL
/// store to a strict byte prefix — the artifact a `SIGKILL` mid-flush
/// leaves behind. Returns how many records were torn (0 when the store
/// is empty).
fn tear_newest_wal_record(wal_dir: &Path) -> Result<usize, ProcessError> {
    let store = BlobStore::open(wal_dir)?;
    // Keys embed a zero-padded iteration, so lexicographic max = newest.
    let mut keys = store.list("wal/")?;
    keys.sort_unstable();
    let Some(key) = keys.pop() else {
        return Ok(0);
    };
    let bytes = store.get(&key)?;
    if bytes.len() < 2 {
        return Ok(0);
    }
    let keep = bytes.len().saturating_sub(9).max(1);
    store.put(&key, &bytes[..keep])?;
    Ok(1)
}

/// Runs a multi-process failure scenario end to end: spawn one
/// `swift-worker` per rank, deliver the plan's `SIGKILL`s at their
/// progress triggers, wait for observable detection, respawn
/// replacements after the survivors acknowledge, reap everyone, and
/// collect the final states.
pub fn run_process_scenario(cfg: &ProcessScenario) -> Result<ProcessOutcome, ProcessError> {
    cfg.heartbeat.validate()?;
    // Every worker builds this job: a plan they would reject fails here,
    // before any process is spawned.
    cfg.job()
        .build()
        .map_err(|e| ProcessError::Config(e.to_string()))?;
    let layout = cfg.layout();
    std::fs::create_dir_all(layout.sock_dir())?;
    std::fs::create_dir_all(layout.results_dir())?;
    std::fs::create_dir_all(layout.global_dir())?;

    // The supervisor hosts the KV store (rank 0's store in the paper)
    // and the lease monitor; workers reach both over the KV socket.
    let store = KvStore::new();
    let _kv_server = KvServer::bind(&layout.kv_sock(), store.clone())?;
    let world = cfg.parallelism.machines();
    let _monitor = HeartbeatMonitor::try_start(store.clone(), cfg.heartbeat, world)?;

    let mut attempts = vec![0u64; world];
    let mut children: Vec<Option<Child>> = Vec::with_capacity(world);
    for rank in 0..world {
        children.push(Some(spawn_worker(cfg, rank, WorkerRole::Worker, 0)?));
    }
    for rank in 0..world {
        wait_key(&store, cfg.spawn_deadline, &up_key(rank, 0), || {
            format!("rank {rank} never reported up")
        })?;
    }

    let mut detection = Vec::new();
    let mut respawned = Vec::new();
    let mut kills_dirty = 0usize;
    let mut torn_injected = 0usize;

    for (victim, at_iter) in cfg.faults.process_kills() {
        // Progress-based trigger: the process-backend analogue of the
        // injector firing inside note_iteration.
        let progress_key = format!("proc/progress/{victim}");
        let reached = store.wait_until(cfg.exit_deadline, || {
            store
                .get(&progress_key)
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|&p| p >= at_iter)
        });
        if reached.is_none() {
            return Err(ProcessError::Rendezvous {
                what: format!("rank {victim} never reached iteration {at_iter}"),
            });
        }
        let mut child = children[victim]
            .take()
            .ok_or_else(|| ProcessError::Rendezvous {
                what: format!("kill trigger for rank {victim} found no live process"),
            })?;
        swift_obs::emit(|| Event::Kill {
            ranks: vec![victim],
        });
        child.kill()?; // SIGKILL: no handlers, no flushes, no goodbyes.
        let killed_at = Instant::now();
        let status = child.wait()?;
        if !status.success() {
            kills_dirty += 1;
        }
        if cfg.torn_wal {
            torn_injected += tear_newest_wal_record(&layout.wal_dir(victim))?;
        }
        // Observable detection only: the supervisor waits for the lease
        // monitor's declaration like any other observer would.
        let bound = cfg.heartbeat.timeout * 10 + Duration::from_secs(5);
        let declared = store.wait_until(bound, || {
            failure_state(&store).1.contains(&victim).then_some(())
        });
        if declared.is_none() {
            return Err(ProcessError::Rendezvous {
                what: format!("rank {victim}'s death was never declared"),
            });
        }
        detection.push(killed_at.elapsed());
        let epoch = failure_epoch(&store);
        // Survivor rendezvous before the respawn, on the same
        // acknowledgements the in-process driver waits for.
        let acked = await_survivor_acks(&store, cfg.parallelism, epoch, victim, cfg.exit_deadline);
        acked.map_err(|r| ProcessError::Rendezvous {
            what: format!("survivor {r} never acknowledged epoch {epoch}"),
        })?;
        attempts[victim] += 1;
        let attempt = attempts[victim];
        children[victim] = Some(spawn_worker(cfg, victim, WorkerRole::Replacement, attempt)?);
        swift_obs::emit(|| Event::Respawn {
            rank: victim,
            epoch,
        });
        wait_key(&store, cfg.spawn_deadline, &up_key(victim, attempt), || {
            format!("replacement for rank {victim} never reported up")
        })?;
        respawned.push(victim);
    }

    // Reap: every surviving process must exit cleanly. Poll the whole
    // brood round-robin rather than waiting on one child at a time — a
    // worker that dies unexpectedly (its peers then block on it) is an
    // immediate, attributed failure, not a silent deadline spent waiting
    // on whichever hung survivor happened to be reaped first.
    let reap_deadline = Instant::now() + cfg.exit_deadline;
    let mut failed: Option<ProcessError> = None;
    'reap: while children.iter().any(Option::is_some) {
        for (rank, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot.as_mut() else {
                continue;
            };
            match child.try_wait() {
                Ok(Some(s)) if s.success() => {
                    *slot = None;
                }
                Ok(Some(s)) => {
                    *slot = None;
                    failed = Some(ProcessError::Worker {
                        rank,
                        detail: format!("exited with {s}"),
                    });
                    break 'reap;
                }
                Ok(None) => {}
                Err(e) => {
                    *slot = None;
                    failed = Some(ProcessError::Worker {
                        rank,
                        detail: format!("wait failed: {e}"),
                    });
                    break 'reap;
                }
            }
        }
        if Instant::now() >= reap_deadline {
            let rank = children.iter().position(Option::is_some).unwrap_or(0);
            failed = Some(ProcessError::Worker {
                rank,
                detail: "hung past the exit deadline (killed)".into(),
            });
            break;
        }
        // lint:sleep-ok — the reaper polls `try_wait`, not a rendezvous.
        std::thread::sleep(Duration::from_millis(10));
    }
    if let Some(err) = failed {
        for slot in children.iter_mut() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        return Err(err);
    }

    let results = BlobStore::open(layout.results_dir())?;

    // The respawned victims audited their own machine-local logs at
    // startup (before checkpoint GC could reclaim the evidence) and
    // published what they saw; a torn tail must be reported by that
    // audit, never fatal to the run.
    let mut torn_reported = 0usize;
    if cfg.torn_wal {
        for &victim in &respawned {
            torn_reported += results
                .get(&torn_key(victim))
                .ok()
                .and_then(|b| String::from_utf8(b.to_vec()).ok())
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(0);
        }
    }
    let mut states = Vec::with_capacity(world);
    for rank in 0..world {
        let mut bytes = results
            .get(&state_key(rank))
            .map_err(|e| ProcessError::Worker {
                rank,
                detail: format!("missing final state: {e}"),
            })?;
        let state = ModelState::decode(&mut bytes)
            .map_err(|detail| ProcessError::Worker { rank, detail })?;
        states.push(state);
    }
    let losses = results
        .get(&losses_key(cfg.parallelism.loss_owner()))
        .map(|b| decode_losses(&b))
        .unwrap_or_default();

    // A finished run's scratch tree has served its purpose; failures
    // return early above and leave theirs behind as evidence.
    let _ = std::fs::remove_dir_all(&cfg.run_dir);

    Ok(ProcessOutcome {
        states,
        losses,
        detection,
        respawned,
        kills_dirty,
        torn_injected,
        torn_reported,
    })
}

/// A worker process's parsed environment: who it is and the job it runs.
struct WorkerEnv {
    layout: RunLayout,
    rank: Rank,
    role: WorkerRole,
    attempt: u64,
    iters: u64,
    job: SwiftJob,
}

type EnvLookup<'a> = &'a dyn Fn(&str) -> Option<String>;

fn env_var(var: EnvLookup, name: &str) -> Result<String, ProcessError> {
    var(name).ok_or_else(|| ProcessError::Config(format!("missing {name}")))
}

fn env_parse<T: std::str::FromStr>(var: EnvLookup, name: &str) -> Result<T, ProcessError> {
    env_var(var, name)?
        .parse()
        .map_err(|_| ProcessError::Config(format!("unparseable {name}")))
}

impl WorkerEnv {
    /// Reads the variables [`worker_env`] sets through `var` (the process
    /// environment in a worker) and builds the scenario's job from them.
    fn parse(var: EnvLookup) -> Result<Self, ProcessError> {
        let world = env_parse(var, ENV_WORLD)?;
        let parallelism = match env_var(var, ENV_SCENARIO)?.as_str() {
            "dp" => Parallelism::Data { machines: world },
            "pipeline" => Parallelism::Pipeline {
                stages: world,
                microbatches: env_parse(var, ENV_MICROBATCHES)?,
            },
            other => return Err(ProcessError::Config(format!("unknown scenario {other:?}"))),
        };
        let role = env_var(var, ENV_ROLE)?;
        let job = reference_job(
            parallelism,
            env_parse(var, ENV_BATCH)?,
            env_parse(var, ENV_CKPT_INTERVAL)?,
        )
        .build()
        .map_err(|e| ProcessError::Config(e.to_string()))?;
        Ok(WorkerEnv {
            layout: RunLayout::new(env_var(var, ENV_RUN_DIR)?),
            rank: env_parse(var, ENV_RANK)?,
            role: WorkerRole::parse(&role)
                .ok_or_else(|| ProcessError::Config(format!("unknown role {role:?}")))?,
            attempt: env_parse(var, ENV_ATTEMPT)?,
            iters: env_parse(var, ENV_ITERS)?,
            job,
        })
    }
}

/// Entry point of the `swift-worker` binary: parse the environment,
/// join the fabric, train (running the replacement recovery sequence
/// first when respawned), and deposit the final state in the results
/// store. Returns the process exit code.
pub fn worker_main() -> i32 {
    match run_worker() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("swift-worker: {e}");
            1
        }
    }
}

fn run_worker() -> Result<(), ProcessError> {
    let env = WorkerEnv::parse(&|name| std::env::var(name).ok())?;
    let world = env.job.parallelism.machines();
    let topology = Topology::uniform(world, 1);
    let fc = FailureController::new(topology.clone());
    // lint:sleep-ok — connect retry while the supervisor binds its sockets.
    let connect = RetryPolicy::poll().with_deadline(Duration::from_secs(30));
    let kv = KvStore::connect(&env.layout.kv_sock(), &connect)?;
    let transport = SocketTransport::bind(&env.layout.sock_dir(), env.rank, world, connect)?;
    // A replacement joins at the declared epoch; an initial worker at 0.
    let generation = failure_epoch(&kv).get();
    let comm = Comm::over_transport(
        env.rank,
        world,
        Box::new(transport),
        fc.clone(),
        kv.clone(),
        generation,
    );
    let heartbeat =
        Heartbeat::try_start(kv.clone(), env.rank, HeartbeatConfig::from_env()?, fc, None)?;
    let ctx = WorkerCtx::from_parts(comm, kv.clone(), topology, Some(heartbeat));
    let results = BlobStore::open(env.layout.results_dir())?;
    eprintln!(
        "swift-worker pid {} rank {} attempt {} up (gen {generation})",
        std::process::id(),
        env.rank,
        env.attempt
    );
    kv.set(&up_key(env.rank, env.attempt), "1");

    let global = GlobalStore::from_blob(BlobStore::open(env.layout.global_dir())?);
    let local_log = BlobStore::open(env.layout.wal_dir(env.rank))?;
    if env.role == WorkerRole::Replacement {
        // Audit the machine-local log the dead predecessor left behind
        // *now*, before checkpoint GC reclaims it (a DP rank's is empty):
        // a tail torn by the crash must surface as a reported-and-skipped
        // record, never as a fatal decode error. The supervisor
        // cross-checks this count against what its fault injection
        // actually tore.
        let reader = WalReader::new(local_log.clone());
        let mut torn = 0usize;
        for it in reader.iterations()? {
            torn += reader.records_for_audited(it)?.1.len();
        }
        results.put(&torn_key(env.rank), torn.to_string().as_bytes())?;
    }
    let runner = runner(&env.job, env.iters, None, Some((global, local_log)));
    let (state, losses) = match env.role {
        WorkerRole::Worker => runner.start(ctx),
        WorkerRole::Replacement => runner.rejoin(ctx),
    };
    let Some(state) = state else {
        return Err(ProcessError::Worker {
            rank: env.rank,
            detail: "self-fenced before finishing".into(),
        });
    };
    results.put(&state_key(env.rank), &state.encode())?;
    results.put(&losses_key(env.rank), &encode_losses(&losses))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a worker spawned by `cfg` as rank 1, attempt 2 parses from
    /// the environment `spawn_worker` sets, `set` overriding one variable.
    /// (A lookup, because `std::env::set_var` races in a threaded test
    /// binary.)
    fn parse_spawned(
        cfg: &ProcessScenario,
        role: WorkerRole,
        set: Option<(&str, &str)>,
    ) -> Result<WorkerEnv, ProcessError> {
        let vars = worker_env(cfg, 1, role, 2);
        WorkerEnv::parse(&|name| match set {
            Some((k, v)) if k == name => Some(v.to_string()),
            _ => vars
                .iter()
                .find(|(k, _)| *k == name)
                .and_then(|(_, v)| v.clone().into_string().ok()),
        })
    }

    #[test]
    fn workers_run_the_job_of_the_scenario_that_spawns_them() {
        let dp = ProcessScenario::new(Parallelism::Data { machines: 3 }, "swift-worker");
        let mut pipeline = ProcessScenario::new(
            Parallelism::Pipeline {
                stages: 4,
                microbatches: 2,
            },
            "swift-worker",
        );
        pipeline.iters = 21;
        pipeline.batch = 12;
        pipeline.ckpt_interval = 7;
        for cfg in [&dp, &pipeline] {
            let twin = cfg.job().build().unwrap();
            for role in [WorkerRole::Worker, WorkerRole::Replacement] {
                let env = parse_spawned(cfg, role, None).unwrap();
                assert_eq!((env.rank, env.attempt, env.role), (1, 2, role));
                assert_eq!(env.layout.root(), cfg.run_dir);
                assert_eq!(env.iters, cfg.iters);
                let job = &env.job;
                assert_eq!(job.parallelism, cfg.parallelism);
                assert_eq!(job.batch_size, cfg.batch);
                assert_eq!(job.ckpt_interval, cfg.ckpt_interval);
                assert_eq!(job.log_mode, LogMode::Sync);
                assert!((job.model_fn)().state().bit_eq(&(twin.model_fn)().state()));
            }
        }
        for (name, bad) in [(ENV_SCENARIO, "tp"), (ENV_ROLE, "zombie")] {
            let err = parse_spawned(&dp, WorkerRole::Worker, Some((name, bad)))
                .map(|_| ())
                .unwrap_err();
            assert!(err.to_string().contains(bad), "{err}");
        }
    }

    #[test]
    fn a_job_the_workers_would_reject_fails_before_any_spawn() {
        let cfg = ProcessScenario::new(Parallelism::Data { machines: 1 }, "no-such-worker");
        let err = run_process_scenario(&cfg).map(|_| ()).unwrap_err();
        assert!(matches!(err, ProcessError::Config(_)), "{err}");
        assert!(!cfg.run_dir.exists());
    }

    #[test]
    fn losses_round_trip() {
        let l = vec![0.5f32, -1.25, 3.0];
        assert_eq!(decode_losses(&encode_losses(&l)), l);
        assert!(decode_losses(&[]).is_empty());
    }

    #[test]
    fn layout_is_stable() {
        let l = RunLayout::new("/tmp/run");
        assert_eq!(l.kv_sock(), PathBuf::from("/tmp/run/kv.sock"));
        assert_eq!(l.wal_dir(2), PathBuf::from("/tmp/run/wal/m2"));
    }

    #[test]
    fn torn_injection_tears_exactly_the_newest_record() {
        use swift_pipeline::MsgKind;
        use swift_wal::LogRecord;
        let dir = std::env::temp_dir().join(format!("swift-tear-{}", std::process::id()));
        let store = BlobStore::open(&dir).unwrap();
        for it in 0..3u64 {
            let r = LogRecord::new(
                0,
                1,
                it,
                0,
                MsgKind::Activation,
                swift_tensor::Tensor::full([4], it as f32),
            );
            store.put(&r.key(), &r.encode()).unwrap();
        }
        assert_eq!(tear_newest_wal_record(&dir).unwrap(), 1);
        let reader = WalReader::new(store);
        // Iterations 0 and 1 intact, iteration 2's record torn+reported.
        for it in 0..2u64 {
            let (recs, torn) = reader
                .records_for_audited(swift_obs::IterationId::new(it))
                .unwrap();
            assert_eq!((recs.len(), torn.len()), (1, 0));
        }
        let (recs, torn) = reader
            .records_for_audited(swift_obs::IterationId::new(2))
            .unwrap();
        assert_eq!((recs.len(), torn.len()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
