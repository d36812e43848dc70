//! `timeline` — run instrumented chaos scenarios and reconstruct the
//! per-incident recovery breakdown (paper §6, "Recovery time breakdown").
//!
//! For each scenario the binary installs a fresh in-memory recorder,
//! runs the scenario with an injected machine failure and fabric
//! tracing enabled, then:
//!
//! 1. reconstructs the recovery timeline from the emitted spans —
//!    [`swift::obs::reconstruct`] *is* the invariant checker: unbalanced
//!    spans, missing phases, out-of-order phases and ambiguous
//!    broadcast/replay synchronization all surface as errors;
//! 2. re-checks segment contiguity per incident (phases must tile the
//!    incident without gaps or overlap);
//! 3. feeds the same run's vector-clocked fabric trace to
//!    `swift-verify`'s race checker.
//!
//! Any violation exits nonzero — CI runs this as the `obs` gate via
//! `cargo xtask timeline --json`.
//!
//! Output: a human-readable breakdown per scenario by default, or with
//! `--json` a single JSON object keyed by scenario name, each value
//! carrying the incident array plus the scenario's counter totals.

use std::process::ExitCode;
use std::sync::Arc;

use swift::core::{JobCrash, Parallelism, ScenarioResult, SwiftJob, SwiftJobBuilder};
use swift::data::BlobsDataset;
use swift::dnn::models::mlp;
use swift::obs::{reconstruct, Counter, MemoryRecorder, Phase, Timeline};
use swift::optim::OptimizerKind;

/// One chaos scenario: a name, the run itself, and which state-sync
/// phase (broadcast vs replay) its recovery strategy must exhibit.
struct Scenario {
    name: &'static str,
    sync_phase: Phase,
    run: fn() -> ScenarioResult,
}

/// A traced job on the scenarios' shared toy model, data and optimizer.
fn job(name: &'static str) -> SwiftJobBuilder {
    SwiftJob::builder(
        Arc::new(move || mlp(name, &[6, 16, 16, 3], 11)),
        OptimizerKind::SgdMomentum {
            lr: 0.05,
            weight_decay: 0.0,
            momentum: 0.9,
            dampening: 0.0,
        },
        Arc::new(BlobsDataset::new(3, 6, 3, 0.3)),
    )
    .trace()
}

/// A DP job (3 replicas) killed mid-update at iteration 4: replication
/// recovery — undo partial updates, fence, broadcast survivor state.
fn dp_crash() -> ScenarioResult {
    let crash = JobCrash {
        machine: 1,
        iteration: 4,
        after_groups: 2,
    };
    job("timeline-dp")
        .parallelism(Parallelism::Data { machines: 3 })
        .batch_size(12)
        .build()
        .expect("valid plan")
        .run(8, Some(crash))
}

/// A 3-stage pipeline killed at iteration 6 with parallel recovery
/// (d = 2): logging recovery — undo, fence the replay group, replay
/// logged microbatches, resume.
fn pipeline_replay() -> ScenarioResult {
    let crash = JobCrash {
        machine: 1,
        iteration: 6,
        after_groups: 0,
    };
    job("timeline-pipe")
        .parallelism(Parallelism::Pipeline {
            stages: 3,
            microbatches: 4,
        })
        .batch_size(8)
        .ckpt_interval(4)
        .parallel_recovery(2)
        .build()
        .expect("valid plan")
        .run(10, Some(crash))
}

const SCENARIOS: [Scenario; 2] = [
    Scenario {
        name: "dp-crash",
        sync_phase: Phase::Broadcast,
        run: dp_crash,
    },
    Scenario {
        name: "pipeline-replay",
        sync_phase: Phase::Replay,
        run: pipeline_replay,
    },
];

fn main() -> ExitCode {
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            other => {
                eprintln!("timeline: unknown flag `{other}` (expected --json)");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failures = 0usize;
    let mut json_parts = Vec::new();
    for sc in &SCENARIOS {
        match run_scenario(sc) {
            Ok((timeline, counters)) => {
                if json {
                    json_parts.push(format!(
                        "  \"{}\": {{\n    \"incidents\": {},\n    \"counters\": {{{}}}\n  }}",
                        sc.name,
                        indent_json(&timeline.to_json()),
                        counters
                            .iter()
                            .map(|(name, v)| format!("\"{name}\": {v}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                } else {
                    println!("=== {} ===", sc.name);
                    print!("{}", timeline.render_text());
                    for (name, v) in &counters {
                        println!("  counter {name} = {v}");
                    }
                    println!();
                }
            }
            Err(msgs) => {
                for m in msgs {
                    eprintln!("timeline: {}: {m}", sc.name);
                }
                failures += 1;
            }
        }
    }
    if json && failures == 0 {
        println!("{{\n{}\n}}", json_parts.join(",\n"));
    }
    if failures > 0 {
        eprintln!("timeline: {failures} scenario(s) violated recovery invariants");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// A scenario's non-zero counter totals, `(name, total)` per counter.
type CounterTotals = Vec<(&'static str, u64)>;

/// Runs one scenario under a fresh recorder and checks every invariant.
/// Returns the reconstructed timeline and non-zero counter totals, or
/// the list of violations.
fn run_scenario(sc: &Scenario) -> Result<(Timeline, CounterTotals), Vec<String>> {
    let rec = Arc::new(MemoryRecorder::new());
    swift::obs::install(rec.clone());
    let result = (sc.run)();
    swift::obs::uninstall();

    let mut errors = Vec::new();
    if !result.recovered {
        errors.push("scenario did not recover from the injected failure".into());
    }

    // The fabric trace from the *same* run goes through the race checker.
    match &result.trace {
        Some(trace) => {
            for v in swift_verify::race::check_trace(trace) {
                errors.push(format!("race checker: {v}"));
            }
        }
        None => errors.push("scenario ran without a fabric trace".into()),
    }

    let timeline = match reconstruct(&rec.events()) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("timeline reconstruction: {e}"));
            return Err(errors);
        }
    };

    if timeline.incidents.is_empty() {
        errors.push("no incident reconstructed from an injected failure".into());
    }
    for inc in &timeline.incidents {
        if inc.aborted {
            continue; // superseded by a cascade; phase set legitimately partial
        }
        for need in [
            Phase::Detect,
            Phase::Undo,
            Phase::Fence,
            sc.sync_phase,
            Phase::Resume,
        ] {
            if inc.segment(need).is_none() {
                errors.push(format!("epoch {}: phase `{need}` missing", inc.epoch));
            }
        }
        for w in inc.segments.windows(2) {
            if w[0].end_ns != w[1].start_ns {
                errors.push(format!(
                    "epoch {}: gap/overlap between `{}` (ends {}) and `{}` (starts {})",
                    inc.epoch, w[0].phase, w[0].end_ns, w[1].phase, w[1].start_ns
                ));
            }
        }
    }

    if errors.is_empty() {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), rec.counter(c)))
            .filter(|&(_, v)| v > 0)
            .collect();
        Ok((timeline, counters))
    } else {
        Err(errors)
    }
}

/// Re-indents the timeline's own JSON array so it nests cleanly inside
/// the per-scenario object.
fn indent_json(s: &str) -> String {
    s.trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("    {l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}
