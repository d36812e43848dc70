//! One trial = one `SwiftJob::run`, guarded so that a panic or a hang
//! counts as one failed op instead of ending the benchmark, and checked
//! against the failure-free reference of the same seed.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swift_core::{JobCrash, ScenarioResult, SwiftJob};
use swift_obs::{reconstruct, Counter, Event, MemoryRecorder, Phase, Recorder, Stamped};

use crate::workload::Workload;

/// A trial that has not finished by then is counted as hung.
const TRIAL_DEADLINE: Duration = Duration::from_secs(60);
/// Marks a hung trial's error: its thread is still running, so the run
/// stops trialling.
pub const HUNG: &str = "hung:";

/// Keeps only the incident events MTTR is read from and ignores counters,
/// so failure trials pay as little as possible for being observed.
#[derive(Default)]
pub struct IncidentRecorder {
    events: Mutex<Vec<Stamped>>,
}

impl Recorder for IncidentRecorder {
    fn record(&self, at_ns: u64, event: Event) {
        if matches!(
            event,
            Event::Kill { .. }
                | Event::Declared { .. }
                | Event::PhaseBegin { .. }
                | Event::PhaseEnd { .. }
        ) {
            self.events
                .lock()
                .expect("incident recorder lock")
                .push(Stamped { at_ns, event });
        }
    }

    fn add(&self, _counter: Counter, _delta: u64) {}
}

/// How a trial is observed.
pub enum Observe {
    /// No recorder installed (the failure-free throughput runs).
    Nothing,
    /// Incident events only (the failure trials of the untraced run).
    Incidents,
    /// Every event and counter (the traced run).
    Everything,
}

/// What one finished job run produced.
pub struct Run {
    pub result: ScenarioResult,
    pub wall: Duration,
    pub events: Vec<Stamped>,
    /// Counter totals (and add-call counts) when fully traced.
    pub counters: Option<Arc<MemoryRecorder>>,
}

/// Runs `job` for `iters` iterations with the optional kill on a thread of
/// its own, under a deadline. A panic or a hang is an `Err`; a hung
/// thread is left behind (it cannot be stopped) and the process exit
/// reaps it.
pub fn run_job(
    job: &Arc<SwiftJob>,
    iters: u64,
    crash: Option<JobCrash>,
    observe: Observe,
) -> Result<Run, String> {
    let job = job.clone();
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("trial".into())
        .spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let incidents = matches!(observe, Observe::Incidents)
                    .then(|| Arc::new(IncidentRecorder::default()));
                let memory =
                    matches!(observe, Observe::Everything).then(|| Arc::new(MemoryRecorder::new()));
                match (&incidents, &memory) {
                    (Some(r), _) => swift_obs::install(r.clone()),
                    (_, Some(r)) => swift_obs::install(r.clone()),
                    _ => swift_obs::uninstall(),
                }
                let t0 = Instant::now();
                let result = job.run(iters, crash);
                let wall = t0.elapsed();
                swift_obs::uninstall();
                let events = match (&incidents, &memory) {
                    (Some(r), _) => std::mem::take(&mut *r.events.lock().expect("recorder lock")),
                    (_, Some(r)) => r.events(),
                    _ => Vec::new(),
                };
                Run {
                    result,
                    wall,
                    events,
                    counters: memory,
                }
            }));
            swift_obs::uninstall();
            // The receiver may have given up on us; nothing to do then.
            let _ = tx.send(out);
        })
        .map_err(|e| format!("spawn trial thread: {e}"))?;
    match rx.recv_timeout(TRIAL_DEADLINE) {
        Ok(out) => {
            handle
                .join()
                .map_err(|_| "trial thread panicked".to_string())?;
            out.map_err(|p| format!("trial panicked: {}", panic_text(&p)))
        }
        Err(_) => {
            swift_obs::uninstall();
            Err(format!("{HUNG} no result within {TRIAL_DEADLINE:?}"))
        }
    }
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Checks a failure-free run against the reference of the same seed:
/// every rank's final state is bitwise the reference's.
pub fn check_clean(result: &ScenarioResult, reference: &ScenarioResult) -> Result<(), String> {
    if result.states.len() != reference.states.len() {
        return Err("rank count differs from the reference".into());
    }
    for (r, (s, want)) in result.states.iter().zip(&reference.states).enumerate() {
        if !s.bit_eq(want) {
            return Err(format!("rank {r}: failure-free state is not deterministic"));
        }
    }
    Ok(())
}

/// Checks a failure trial: DP replicas agree bitwise and stay within the
/// 1e-3 undo envelope of the failure-free run; pipeline stages replay to
/// the failure-free state bitwise (F32 logs replay exactly).
pub fn check_failure(
    w: &Workload,
    result: &ScenarioResult,
    reference: &ScenarioResult,
) -> Result<(), String> {
    if !result.recovered {
        return Err("the job reports no recovery".into());
    }
    if result.states.len() != reference.states.len() {
        return Err("rank count differs from the reference".into());
    }
    if w.is_pipeline() {
        for (s, (got, want)) in result.states.iter().zip(&reference.states).enumerate() {
            if !got.bit_eq(want) {
                return Err(format!("stage {s}: replay is not bitwise exact"));
            }
        }
    } else {
        for (r, s) in result.states.iter().enumerate().skip(1) {
            if !s.bit_eq(&result.states[0]) {
                return Err(format!("replica {r} diverged from replica 0"));
            }
        }
        let drift = result.states[0].max_abs_diff(&reference.states[0]);
        if drift.is_nan() || drift >= 1e-3 {
            return Err(format!(
                "drift {drift} from the failure-free run exceeds 1e-3"
            ));
        }
    }
    Ok(())
}

/// One recovered failure, read from its spans.
pub struct Incident {
    /// Kill → last `PhaseEnd{Resume}` of the failure epoch.
    pub mttr_ns: u64,
    /// The reconstructed contiguous segments, in canonical order.
    pub segments: Vec<(Phase, u64)>,
}

/// Reads the run's single recovery from its events. Anything but exactly
/// one non-aborted incident is an error.
pub fn incident(events: &[Stamped]) -> Result<Incident, String> {
    let timeline = reconstruct(events).map_err(|e| format!("timeline: {e}"))?;
    let done: Vec<_> = timeline.incidents.iter().filter(|i| !i.aborted).collect();
    let [inc] = done.as_slice() else {
        return Err(format!(
            "{} completed incidents, want exactly 1",
            done.len()
        ));
    };
    let kill_ns = events
        .iter()
        .find_map(|s| matches!(s.event, Event::Kill { .. }).then_some(s.at_ns))
        .ok_or("no kill event")?;
    let resume_ns = events
        .iter()
        .filter_map(|s| match s.event {
            Event::PhaseEnd {
                epoch,
                phase: Phase::Resume,
                ..
            } if epoch == inc.epoch => Some(s.at_ns),
            _ => None,
        })
        .max()
        .ok_or("no resume span")?;
    let mttr_ns = resume_ns
        .checked_sub(kill_ns)
        .filter(|&d| d > 0)
        .ok_or("resume does not follow the kill")?;
    Ok(Incident {
        mttr_ns,
        segments: inc
            .segments
            .iter()
            .map(|s| (s.phase, s.duration_ns()))
            .collect(),
    })
}
