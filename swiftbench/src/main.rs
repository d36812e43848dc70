//! End-to-end and per-layer benchmark of SWIFT failure recovery.
//!
//! ```text
//! cargo run --release --manifest-path swiftbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every trial is one whole job run through the user-facing
//! `swift_core::SwiftJob` API, closed loop from this one process. With
//! `--trace 0` the last stdout line carries the end-to-end metrics, with
//! `--trace 1` the per-layer ones; lines before it are information (host,
//! kill-schedule digest, sample counts, tail percentiles). See README.md.

mod layers;
mod report;
mod stats;
mod trial;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swift_core::{JobCrash, ScenarioResult, SwiftJob};

use crate::report::Report;
use crate::trial::{check_clean, check_failure, incident, run_job, Observe};
use crate::workload::{schedule_digest, Workload};

/// Set-up is repeated at least this often, and for at least
/// `SETUP_SECONDS`, per run; its median is reported.
const SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
/// Fewest timed samples of each kind a run collects, however long it takes.
const MIN_SAMPLES: usize = 3;
/// Failure trials run after each failure-free trial. Failure-free
/// throughput varies little within a run; MTTR varies more.
const FAILURES_PER_CLEAN: usize = 2;
/// Kills generated per run; more than any run uses.
const SCHEDULE_LEN: usize = 1 << 15;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swiftbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The determinism contract makes the thread count bitwise-neutral;
    // one kernel thread per rank thread keeps the two ranks on their own
    // cores. Set before anything reads it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    // Job stores are temp directories: keep them inside the working
    // directory, and empty them after every trial.
    let stores = match JobStores::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swiftbench: job-store directory: {e}");
            return ExitCode::from(1);
        }
    };
    let report = if args.trace {
        layers::run_traced(args.workload, args.seed, args.seconds, &stores)
    } else {
        run_untraced(args.workload, args.seed, args.seconds, &stores)
    };
    drop(stores);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// The per-process directory job stores are created in.
pub struct JobStores {
    dir: PathBuf,
}

impl JobStores {
    fn create() -> std::io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".swiftbench-tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        std::env::set_var("TMPDIR", &dir);
        Ok(JobStores { dir })
    }

    /// Deletes whatever the last trial left behind.
    pub fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::create_dir_all(&self.dir);
    }
}

impl Drop for JobStores {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A workload ready to trial: its job, its failure-free reference and
/// its kill schedule.
pub struct Prepared {
    pub job: Arc<SwiftJob>,
    pub reference: ScenarioResult,
    pub kills: Vec<JobCrash>,
}

/// Builds the dataset and model factory, draws the kill schedule, and runs
/// one untimed failure-free warm-up trial whose result is the reference
/// every later trial is checked against.
pub fn prepare(w: &Workload, seed: u64, stores: &JobStores) -> Result<Prepared, String> {
    let job = Arc::new(w.job(seed));
    let kills = w.kill_schedule(seed, &w.model.build(seed), SCHEDULE_LEN);
    let warm = run_job(&job, w.iters, None, Observe::Nothing);
    stores.clear();
    Ok(Prepared {
        job,
        reference: warm?.result,
        kills,
    })
}

/// Host and workload facts every output records.
pub fn describe(w: &Workload, seed: u64, kills: &[JobCrash]) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={seed} nproc={nproc} simd={:?} RAYON_NUM_THREADS={} state_mib={:.2}",
        w.name,
        swift_tensor::simd::active_tier(),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
        layers::state_mib(w, seed),
    );
    println!(
        "# kill_schedule_digest={:016x} (first 64 kills)",
        schedule_digest(&kills[..64.min(kills.len())])
    );
}

/// The untraced run: failure-free throughput and kill-to-resume MTTR.
fn run_untraced(w: &Workload, seed: u64, seconds: u64, stores: &JobStores) -> Report {
    let mut rep = Report::new(false);
    let mut setups = Vec::new();
    let mut prepared: Option<Prepared> = None;
    let start = Instant::now();
    while setups.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t0 = Instant::now();
        match prepare(w, seed, stores) {
            Ok(p) => {
                setups.push(t0.elapsed().as_secs_f64());
                if let Some(first) = &prepared {
                    if let Err(e) = check_clean(&p.reference, &first.reference) {
                        rep.fail(&format!("set-up reference: {e}"));
                    }
                }
                prepared = Some(p);
            }
            Err(e) => {
                rep.fail(&format!("set-up: {e}"));
                return rep;
            }
        }
    }
    let p = prepared.expect("at least one set-up ran");
    describe(w, seed, &p.kills);

    let samples = (w.iters * w.batch as u64) as f64;
    let mut throughput = Vec::new();
    let mut mttr_ms = Vec::new();
    let mut used = 0;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    // Past the deadline, keep going only to reach the minimum sample
    // counts, and only while nothing fails.
    let mut k = 0usize;
    while Instant::now() < deadline
        || (rep.failed == 0 && (throughput.len() < MIN_SAMPLES || mttr_ms.len() < MIN_SAMPLES))
    {
        rep.attempted += 1;
        let outcome = if k.is_multiple_of(1 + FAILURES_PER_CLEAN) {
            run_job(&p.job, w.iters, None, Observe::Nothing)
                .and_then(|r| check_clean(&r.result, &p.reference).map(|()| r))
                .map(|r| throughput.push(samples / r.wall.as_secs_f64()))
                .map_err(|e| format!("failure-free trial: {e}"))
        } else {
            let kill = p.kills[used % p.kills.len()];
            used += 1;
            run_job(&p.job, w.iters, Some(kill), Observe::Incidents)
                .and_then(|r| {
                    check_failure(w, &r.result, &p.reference)?;
                    incident(&r.events)
                })
                .map(|inc| mttr_ms.push(inc.mttr_ns as f64 / 1e6))
                .map_err(|e| format!("failure trial {kill:?}: {e}"))
        };
        stores.clear();
        k += 1;
        if let Err(e) = outcome {
            rep.fail(&e);
            if e.contains(trial::HUNG) {
                break;
            }
        }
    }
    println!("# kills_used={used}");
    rep.info_distribution("samples_per_s", &throughput);
    rep.info_distribution("mttr_ms", &mttr_ms);
    rep.info_distribution("setup_s", &setups);
    rep.metric_of("samples_per_s", stats::interquartile_mean, &throughput);
    rep.metric_of("mttr_ms", stats::interquartile_mean, &mttr_ms);
    rep.metric_of("setup_s", stats::median, &setups);
    rep.metric("peak_rss_mib", report::peak_rss_mib());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test drives every workload: the recorder is process-global, so
    /// trials must not run on parallel test threads.
    #[test]
    fn smoke_run_of_every_workload_reports_every_metric() {
        let stores = JobStores::create().expect("job-store directory");
        for w in &workload::WORKLOADS {
            for trace in [false, true] {
                let rep = if trace {
                    layers::run_traced(w, 1, 0, &stores)
                } else {
                    run_untraced(w, 1, 0, &stores)
                };
                let json = rep.to_json();
                let ctx = format!("{} trace={trace}: {json}", w.name);
                assert!(json.starts_with("{\"correct\": true, "), "{ctx}");
                assert!(json.contains("\"failed\": 0, "), "{ctx}");
                for (name, unit) in rep.catalog() {
                    let field = format!("\"{name}\": {{\"value\": ");
                    let at = json.find(&field).unwrap_or_else(|| panic!("{name}: {ctx}"));
                    let rest = &json[at..];
                    let end = rest.find('}').expect("metric object closes");
                    assert!(
                        rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                        "{name}: {ctx}"
                    );
                }
            }
        }
    }
}
