//! `cargo xtask` — workspace task runner (aliased in `.cargo/config.toml`).
//!
//! `cargo xtask verify` runs the project's correctness gate:
//!
//! 1. **Source lints** the compiler cannot express:
//!    - no `unwrap()` / `expect()` in the recovery paths
//!      (`crates/core/src/supervisor.rs`, `crates/core/src/fence.rs`) —
//!      a recovery path that panics turns a survivable cascading failure
//!      into a lost job, so those files must surface errors as values
//!      (asserts that document protocol bugs are allowed);
//!    - no raw `std::time::Instant` in the simulated code paths
//!      (`crates/sim`) — the simulator owns virtual time, and real clocks
//!      leaking in make simulated results wall-clock dependent;
//!    - no raw `Instant::now()` / `thread::sleep()` in `crates/net`
//!      protocol code — every protocol-relevant time read goes through
//!      the `swift_net::clock` seam so the model checker can drive it
//!      virtually. The allowlist (`clock.rs` itself, plus the genuinely
//!      wall-clock socket/retry/remote-KV transport files) is explicit
//!      in [`NET_WALL_CLOCK_ALLOWLIST`];
//!    - no `Vec::new` / `vec![` / `.to_vec(` / `Vec::with_capacity(` in
//!      the hot-loop modules ([`HOT_LOOP_PATHS`]: the SIMD kernels,
//!      matmul, the linear and conv layers, the fused optimizer kernels,
//!      and the WAL record encode path) — the steady-state contract is zero
//!      allocations per train step, and a stray `vec![]` in a kernel
//!      silently re-introduces per-step malloc traffic. Cold code opts
//!      out with a `lint:alloc-ok` comment on the line;
//!    - no `thread::sleep(` / `RetryPolicy::poll()` in the `crates/core`
//!      recovery modules ([`RECOVERY_WAIT_PATHS`]) — a rendezvous wait
//!      parks on the KV revision and wakes on the write it waits for,
//!      so a sleep there puts a poll tick on the recovery critical
//!      path. Timers that are not rendezvous (restart backoff, the
//!      process reaper) opt out with a `lint:sleep-ok` comment;
//!    - no `without_init_draws` (swift-tensor's no-draws scope) outside
//!      `crates/core/src/replication.rs` in `crates/*/src`, `src/` and
//!      `examples/` — a model built inside it has all-zero parameters,
//!      which only a replacement about to receive a survivor's state may
//!      have; trained or evaluated, it would silently start from zeros.
//!
//!    All lints skip the `#[cfg(test)]` region (test modules sit at the
//!    bottom of each file by repo convention) and comment lines.
//!
//! 2. **The `swift-verify` analyzers** (race / fsm / invert) against live
//!    traced executions and the real transition table and update chains.
//!
//! `cargo xtask bench [--quick] [--json]` runs the microbenchmark suites
//! (`swift-bench`'s `fastpath` binary, release profile): the recovery
//! fast-path suite, the collective/WAL overlap suite, and the SIMD
//! dispatch suite (which also asserts cross-tier bitwise equality and
//! the zero-allocation steady state).
//!
//! - full mode with `--json` persists each suite's results at the
//!   workspace root (`BENCH_pr3.json` for the fast-path suite,
//!   `BENCH_pr5.json` for the overlap suite, `BENCH_pr8.json` for the
//!   SIMD suite) — the committed baselines;
//! - `--quick` keeps the problem shapes but lowers repetitions, then
//!   compares each suite against its committed baseline and **fails if
//!   any bench regressed more than 2×** (CI's `bench-smoke` gate). With
//!   `--json` the quick results land in `target/bench-<suite>-quick.json`
//!   for upload.
//!
//! `cargo xtask mc [...]` runs the `swift-mc` model checker: bounded-
//! exhaustive schedule + failure-point exploration of the recovery
//! protocol with the four invariant oracles (generation-fence safety,
//! epoch monotonicity, exactly-once application, KV linearizability).
//! A violation writes a minimized, replayable counterexample to
//! `target/mc-counterexample.json`; `--replay <file>` re-executes one
//! deterministically; `--mutation <name>` seeds a known protocol bug
//! (`--expect-violation` then asserts the oracles catch it — CI runs
//! this as the checker's own self-test).
//!
//! `cargo xtask timeline [--json]` runs the root `timeline` binary
//! (release profile): instrumented chaos scenarios whose recovery spans
//! are reconstructed into per-incident phase breakdowns (detect → undo →
//! fence → broadcast/replay → resume). The binary exits nonzero on any
//! missing, overlapping or out-of-order phase, and feeds each run's
//! fabric trace through `swift-verify`'s race checker. With `--json` the
//! breakdown also lands in `target/timeline.json` (CI's `obs` artifact).
//!
//! `cargo xtask loc` prints the project's code size: the non-blank lines
//! that do not start with `//`, above each file's first column-0
//! `#[cfg(test)]`, in every `.rs` under `crates/` (but not
//! `crates/*/tests/`), `src/` and `examples/`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("verify") => verify(),
        Some("bench") => {
            let rest: Vec<String> = args.collect();
            let quick = rest.iter().any(|a| a == "--quick");
            let json = rest.iter().any(|a| a == "--json");
            if let Some(bad) = rest.iter().find(|a| *a != "--quick" && *a != "--json") {
                eprintln!("xtask bench: unknown flag `{bad}` (expected --quick, --json)");
                return ExitCode::FAILURE;
            }
            bench(quick, json)
        }
        Some("timeline") => {
            let rest: Vec<String> = args.collect();
            let json = rest.iter().any(|a| a == "--json");
            if let Some(bad) = rest.iter().find(|a| *a != "--json") {
                eprintln!("xtask timeline: unknown flag `{bad}` (expected --json)");
                return ExitCode::FAILURE;
            }
            timeline(json)
        }
        Some("mc") => mc(args.collect()),
        Some("loc") => {
            println!("{}", loc(&workspace_root()));
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!(
                "xtask: unknown task `{other}` (available: verify, bench, timeline, mc, loc)"
            );
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <verify | bench [--quick] [--json] | timeline [--json] | \
                 mc [--depth N] [--seed S] [--iters N] [--walks N] [--mutation NAME] \
                 [--no-torn] [--json] [--expect-violation] [--replay FILE] | loc>"
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs the `swift-mc` model checker (see module docs and DESIGN.md
/// "Model-checked protocol invariants").
fn mc(rest: Vec<String>) -> ExitCode {
    let root = workspace_root();
    let mut cfg = swift_mc::Config {
        iters: 1, // CI-sized default; override with --iters
        torn_wal: true,
        ..Default::default()
    };
    let mut opts = swift_mc::ExploreOpts::default();
    let mut json = false;
    let mut expect_violation = false;
    let mut replay: Option<String> = None;

    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("xtask mc: {name} needs a value"))
        };
        match flag.as_str() {
            "--depth" => match value("--depth").and_then(parse_num) {
                Ok(v) => opts.depth = v,
                Err(e) => return usage_err(&e),
            },
            "--seed" => match value("--seed").and_then(parse_num::<u64>) {
                Ok(v) => opts.seed = v,
                Err(e) => return usage_err(&e),
            },
            "--iters" => match value("--iters").and_then(parse_num::<u64>) {
                Ok(v) => cfg.iters = v.max(1),
                Err(e) => return usage_err(&e),
            },
            "--walks" => match value("--walks").and_then(parse_num) {
                Ok(v) => opts.walks = v,
                Err(e) => return usage_err(&e),
            },
            "--mutation" => match value("--mutation") {
                Ok(name) => match swift_mc::Mutation::parse(&name) {
                    Some(m) => cfg.mutation = m,
                    None => {
                        return usage_err(&format!(
                            "xtask mc: unknown mutation `{name}` \
                             (none, skip-generation-fence, skip-undo, skip-wake)"
                        ))
                    }
                },
                Err(e) => return usage_err(&e),
            },
            "--no-torn" => cfg.torn_wal = false,
            "--json" => json = true,
            "--expect-violation" => expect_violation = true,
            "--replay" => match value("--replay") {
                Ok(path) => replay = Some(path),
                Err(e) => return usage_err(&e),
            },
            other => return usage_err(&format!("xtask mc: unknown flag `{other}`")),
        }
    }

    if let Some(path) = replay {
        return mc_replay(&path);
    }

    let report = swift_mc::check(cfg.clone(), &opts);
    print!("{}", swift_mc::summary(&report));
    if json {
        let path = root.join("target/mc.json");
        std::fs::create_dir_all(path.parent().unwrap()).expect("target/ creatable");
        std::fs::write(&path, swift_mc::report_json(&report)).expect("target/ is writable");
        println!("mc: report written to {}", path.display());
    }
    match (&report.violation, expect_violation) {
        (Some(ce), _) => {
            print!("{}", swift_mc::render_counterexample(&cfg, ce));
            let path = root.join("target/mc-counterexample.json");
            std::fs::create_dir_all(path.parent().unwrap()).expect("target/ creatable");
            std::fs::write(&path, swift_mc::counterexample_json(&cfg, ce))
                .expect("target/ is writable");
            println!(
                "mc: replay with `cargo xtask mc --replay {}`",
                path.display()
            );
            if expect_violation {
                println!("mc: violation found as expected (mutation self-test passes)");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (None, true) => {
            eprintln!(
                "mc: expected the seeded mutation to be caught, but all oracles passed — \
                 the checker has lost its teeth"
            );
            ExitCode::FAILURE
        }
        (None, false) => ExitCode::SUCCESS,
    }
}

/// Deterministically re-executes a serialized counterexample.
fn mc_replay(path: &str) -> ExitCode {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask mc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (cfg, choices) = match swift_mc::parse_replay(&doc) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask mc: bad counterexample file {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (world, actions) = swift_mc::execute(&cfg, &choices);
    println!("mc replay: {} schedule points", actions.len());
    println!("mc replay: {}", actions.join(" ; "));
    for line in &world.trace {
        println!("  {line}");
    }
    if world.violations.is_empty() {
        println!("mc replay: no violation reproduced");
        ExitCode::SUCCESS
    } else {
        for v in &world.violations {
            println!("mc replay: VIOLATION [{}] {v}", v.kind());
        }
        // Reproducing the recorded violation is the *expected* outcome
        // of a replay; exit 0 so CI can archive-and-replay attachments.
        ExitCode::SUCCESS
    }
}

fn parse_num<T: std::str::FromStr>(s: String) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("xtask mc: `{s}` is not a valid number"))
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

fn verify() -> ExitCode {
    let root = workspace_root();
    let mut failures = 0usize;

    failures += lint_no_panics_in_recovery(&root);
    failures += lint_no_instant_in_sim(&root);
    failures += lint_no_wall_clock_in_net(&root);
    failures += lint_no_alloc_in_hot_loops(&root);
    failures += lint_no_sleep_polling_in_recovery(&root);
    failures += lint_no_draws_scope_call_sites(&root);

    if failures > 0 {
        eprintln!("xtask verify: {failures} lint violation(s); skipping analyzers");
        return ExitCode::FAILURE;
    }
    println!("xtask verify: source lints clean");

    let status = Command::new(env!("CARGO"))
        .args(["run", "-q", "-p", "swift-verify"])
        .current_dir(&root)
        .status()
        .expect("failed to launch cargo");
    if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The benchmark suites and the committed baseline each quick run gates
/// against: the recovery fast path (PR 3), the collective/WAL overlap
/// layer (PR 5), the SIMD dispatch + zero-alloc layer (PR 8), and the
/// recovery critical path (`BENCH_pr10.json`): sharded state transfer.
const BENCH_SUITES: &[(&str, &str)] = &[
    ("fastpath", "BENCH_pr3.json"),
    ("overlap", "BENCH_pr5.json"),
    ("simd", "BENCH_pr8.json"),
    ("recovery", "BENCH_pr10.json"),
];
/// How much slower a microbench may get before the quick gate fails.
const BENCH_REGRESSION_FACTOR: u64 = 2;

fn bench(quick: bool, json: bool) -> ExitCode {
    let root = workspace_root();
    let mut failed = false;
    for &(suite, baseline_file) in BENCH_SUITES {
        let out = if quick {
            root.join(format!("target/bench-{suite}-quick.json"))
        } else {
            root.join(baseline_file)
        };
        let mut cmd = Command::new(env!("CARGO"));
        cmd.args([
            "run",
            "-q",
            "--release",
            "-p",
            "swift-bench",
            "--bin",
            "fastpath",
            "--",
            "--suite",
            suite,
        ]);
        if quick {
            cmd.arg("--quick");
        }
        cmd.args(["--out".as_ref(), out.as_os_str()]);
        let status = cmd
            .current_dir(&root)
            .status()
            .expect("failed to launch cargo");
        if !status.success() {
            eprintln!("xtask bench: {suite} benchmark run failed");
            return ExitCode::FAILURE;
        }
        let current = std::fs::read_to_string(&out).expect("bench output exists");
        if json {
            println!("xtask bench: {suite} results written to {}", out.display());
        }
        if !quick {
            continue;
        }
        let baseline = match std::fs::read_to_string(root.join(baseline_file)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask bench: no committed {baseline_file} to compare against: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check_bench_regressions(&baseline, &current) {
            Ok(()) => {
                println!(
                    "xtask bench: {suite} has no regression beyond {BENCH_REGRESSION_FACTOR}x vs {baseline_file}"
                );
            }
            Err(failures) => {
                for f in &failures {
                    eprintln!("  REGRESSION {f}");
                }
                eprintln!(
                    "xtask bench: {} regression(s) in {suite} vs {baseline_file}",
                    failures.len()
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the instrumented chaos scenarios and asserts the recovery-phase
/// invariants; with `json` the per-incident breakdown is also captured
/// to `target/timeline.json` for CI upload.
fn timeline(json: bool) -> ExitCode {
    let root = workspace_root();
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["run", "-q", "--release", "-p", "swift", "--bin", "timeline"]);
    if json {
        cmd.args(["--", "--json"]);
    }
    let out = cmd
        .current_dir(&root)
        .output()
        .expect("failed to launch cargo");
    // The binary's own diagnostics (and cargo's) stream through either way.
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    print!("{}", String::from_utf8_lossy(&out.stdout));
    if !out.status.success() {
        eprintln!("xtask timeline: recovery-phase invariants violated");
        return ExitCode::FAILURE;
    }
    if json {
        let path = root.join("target/timeline.json");
        std::fs::write(&path, &out.stdout).expect("target/ is writable");
        println!("xtask timeline: breakdown written to {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Compares current bench timings against the committed baseline; an op is
/// a regression when it got more than [`BENCH_REGRESSION_FACTOR`]× slower
/// or disappeared from the output.
fn check_bench_regressions(baseline: &str, current: &str) -> Result<(), Vec<String>> {
    let base = parse_bench_json(baseline);
    let cur = parse_bench_json(current);
    let mut failures = Vec::new();
    if base.is_empty() {
        failures.push("committed baseline has no parsable records".into());
    }
    for (op, base_ns) in &base {
        match cur.iter().find(|(o, _)| o == op) {
            Some((_, cur_ns)) if *cur_ns > base_ns.saturating_mul(BENCH_REGRESSION_FACTOR) => {
                failures.push(format!(
                    "{op}: {cur_ns} ns/iter vs baseline {base_ns} ns/iter (> {BENCH_REGRESSION_FACTOR}x)"
                ));
            }
            Some(_) => {}
            None => failures.push(format!("{op}: missing from current bench output")),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// Extracts `(op, ns_per_iter)` pairs from the line-per-record JSON the
/// bench binary emits. Deliberately tiny — the format is under our
/// control, and xtask carries no JSON dependency.
fn parse_bench_json(s: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in s.lines() {
        let Some(op) =
            extract_after(line, "\"op\":\"").and_then(|r| r.find('"').map(|j| r[..j].to_string()))
        else {
            continue;
        };
        let Some(ns) = extract_after(line, "\"ns_per_iter\":").and_then(|r| {
            let digits: String = r.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        }) else {
            continue;
        };
        out.push((op, ns));
    }
    out
}

fn extract_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|i| &line[i + key.len()..])
}

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Recovery and transport code must propagate failures, not panic on
/// them: these paths run exactly when something already went wrong, and
/// an `unwrap` there turns a recoverable fault into a lost job.
fn lint_no_panics_in_recovery(root: &Path) -> usize {
    let files = [
        "crates/core/src/supervisor.rs",
        "crates/core/src/fence.rs",
        "crates/core/src/transfer.rs",
        "crates/core/src/fsdp.rs",
        "crates/net/src/cluster.rs",
        "crates/net/src/detector.rs",
        "crates/net/src/socket.rs",
        "crates/net/src/transport.rs",
    ];
    let mut violations = 0;
    for rel in files {
        violations += lint_file(root, rel, &[".unwrap()", ".expect("], None, |line| {
            format!(
                "`{}` in a recovery path — return a typed error instead",
                line
            )
        });
    }
    violations
}

/// Simulated code paths must use virtual time, never the wall clock.
fn lint_no_instant_in_sim(root: &Path) -> usize {
    let dir = root.join("crates/sim/src");
    let mut violations = 0;
    for entry in std::fs::read_dir(&dir).expect("crates/sim/src exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .into_owned();
            violations += lint_file(
                root,
                &rel,
                &["std::time::Instant", "Instant::now"],
                None,
                |_| "raw `Instant` in simulated code — use the simulator's virtual clock".into(),
            );
        }
    }
    violations
}

/// Files in `crates/net/src` that are *allowed* to touch the wall clock:
/// the clock seam itself, and the transports whose timing is inherently
/// wall-clock (a Unix socket poll cannot run on virtual time).
const NET_WALL_CLOCK_ALLOWLIST: &[&str] = &["clock.rs", "socket.rs", "kv_remote.rs", "retry.rs"];

/// Protocol code in `crates/net` must read time through the
/// `swift_net::clock` seam — a raw `Instant::now()` or `thread::sleep`
/// is a schedule point the model checker cannot control.
fn lint_no_wall_clock_in_net(root: &Path) -> usize {
    let dir = root.join("crates/net/src");
    let mut violations = 0;
    for entry in std::fs::read_dir(&dir).expect("crates/net/src exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let name = path.file_name().expect("file name").to_string_lossy();
        if NET_WALL_CLOCK_ALLOWLIST.contains(&name.as_ref()) {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .expect("under root")
            .to_string_lossy()
            .into_owned();
        violations += lint_file(
            root,
            &rel,
            &["Instant::now(", "thread::sleep("],
            None,
            |_| "raw wall-clock call in net protocol code — go through swift_net::clock".into(),
        );
    }
    violations
}

/// The modules whose steady-state contract is zero allocations per
/// train step: the matmul entry points, the SIMD microkernels, the conv layer
/// (its im2col buffers are the largest per-step tensors of a CNN stage),
/// the fused optimizer kernels, and the WAL record encode path. A
/// directory entry covers every `.rs` file directly inside it.
const HOT_LOOP_PATHS: &[&str] = &[
    "crates/tensor/src/matmul.rs",
    "crates/tensor/src/simd",
    "crates/dnn/src/linear.rs",
    "crates/dnn/src/conv.rs",
    "crates/optim/src/ops.rs",
    "crates/wal/src/record.rs",
];

/// Allocations that bypass `swift_tensor::pool`. `Vec::with_capacity`
/// is the sneaky one: a buffer of exact, non-power-of-two capacity that
/// ends up in a `Tensor` is filed one pool class below every later
/// request of its size, so it is never reused and the pool fills with
/// dead buffers.
const ALLOC_NEEDLES: &[&str] = &["Vec::new", "vec![", ".to_vec(", "Vec::with_capacity("];

/// Hot-loop modules must not allocate: buffers come from
/// `swift_tensor::pool` or from caller-provided slices. A stray `vec![]`
/// in a kernel silently re-introduces per-step malloc traffic that the
/// `steady_state` bench only catches much later, on a different code
/// path. Genuinely cold code (constructors, diagnostics) opts out with
/// a `lint:alloc-ok` comment on — or immediately above — the offending
/// line.
fn lint_no_alloc_in_hot_loops(root: &Path) -> usize {
    let mut files = Vec::new();
    for rel in HOT_LOOP_PATHS {
        let path = root.join(rel);
        if path.is_dir() {
            for entry in std::fs::read_dir(&path).expect("hot-loop dir exists") {
                let p = entry.expect("readable dir entry").path();
                if p.extension().is_some_and(|e| e == "rs") {
                    files.push(
                        p.strip_prefix(root)
                            .expect("under root")
                            .to_string_lossy()
                            .into_owned(),
                    );
                }
            }
        } else {
            files.push((*rel).to_string());
        }
    }
    let mut violations = 0;
    for rel in files {
        violations += lint_file(root, &rel, ALLOC_NEEDLES, Some("lint:alloc-ok"), |line| {
            format!(
                "`{line}` allocates in a hot-loop module — take a pooled or \
                 caller-provided buffer (cold code: mark the line `lint:alloc-ok`)"
            )
        });
    }
    violations
}

/// The `crates/core` modules on the recovery path: their waits must wake
/// on the event they wait for, never on a sleep tick.
const RECOVERY_WAIT_PATHS: &[&str] = &[
    "crates/core/src/supervisor.rs",
    "crates/core/src/fence.rs",
    "crates/core/src/replication.rs",
    "crates/core/src/transfer.rs",
    "crates/core/src/pipeline_ft.rs",
    "crates/core/src/scenario.rs",
    "crates/core/src/fsdp.rs",
    "crates/core/src/process.rs",
];

/// What sleep-polling looks like: a raw sleep, or the backoff schedule
/// built for polling loops.
const SLEEP_POLL_NEEDLES: &[&str] = &["thread::sleep(", "RetryPolicy::poll()"];

/// Recovery-path waits must not sleep-poll: a rendezvous parks on the KV
/// revision (`KvStore::wait_until` / `wait_for`) and wakes on the write
/// or fail-stop transition it waits for. Timers that are not rendezvous
/// opt out with a `lint:sleep-ok` comment on — or immediately above —
/// the line, placed by the same rule as `lint:alloc-ok`.
fn lint_no_sleep_polling_in_recovery(root: &Path) -> usize {
    RECOVERY_WAIT_PATHS
        .iter()
        .map(|rel| {
            lint_file(
                root,
                rel,
                SLEEP_POLL_NEEDLES,
                Some("lint:sleep-ok"),
                |line| {
                    format!(
                        "`{line}` sleep-polls on the recovery path — wait on the KV \
                         revision instead (a timer that is not a rendezvous: mark the \
                         line `lint:sleep-ok`)"
                    )
                },
            )
        })
        .sum()
}

/// swift-tensor's no-draws scope: inside it, random initialization
/// hands out zeros.
const NO_DRAWS_NEEDLE: &str = "without_init_draws";

/// The files that may name the no-draws scope outside tests: its one
/// caller (the replication replacement, whose every parameter and
/// optimizer slot the state transfer overwrites before anything reads
/// them), its definition, and this lint.
const NO_DRAWS_ALLOWED: &[&str] = &[
    "crates/core/src/replication.rs",
    "crates/tensor/src/tensor.rs",
    "crates/xtask/src/main.rs",
];

/// A model built without initialization draws and then trained or
/// evaluated silently starts from all-zero parameters. Only a build
/// whose state is overwritten before it is read may skip the draws, so
/// the scope is confined to [`NO_DRAWS_ALLOWED`] across every source file
/// under `crates/*/src`, `src/` and `examples/`.
fn lint_no_draws_scope_call_sites(root: &Path) -> usize {
    let mut files = Vec::new();
    rust_files_under(root, &root.join("src"), &mut files);
    rust_files_under(root, &root.join("examples"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let krate = entry.expect("readable dir entry").path();
        rust_files_under(root, &krate.join("src"), &mut files);
    }
    files.sort();
    files
        .iter()
        .filter(|rel| !NO_DRAWS_ALLOWED.contains(&rel.as_str()))
        .map(|rel| {
            lint_file(root, rel, &[NO_DRAWS_NEEDLE], None, |line| {
                format!(
                    "`{line}` builds without initialization draws — only the \
                     replication replacement in crates/core/src/replication.rs may: \
                     a model built so and then trained or evaluated starts from zeros"
                )
            })
        })
        .sum()
}

/// The code size `cargo xtask loc` prints (see the module docs).
fn loc(root: &Path) -> usize {
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files_under(root, &root.join(dir), &mut files);
    }
    files
        .iter()
        .filter(|rel| !is_crate_integration_test(rel))
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(rel))
                .unwrap_or_else(|e| panic!("xtask: cannot read {rel}: {e}"));
            code_lines(&text)
        })
        .sum()
}

/// Whether `rel` sits in a crate's `tests/` directory.
fn is_crate_integration_test(rel: &str) -> bool {
    let parts: Vec<_> = Path::new(rel).iter().collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "tests"
}

/// Non-blank lines not starting with `//`, above the first column-0
/// `#[cfg(test)]`.
fn code_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| {
            let line = line.trim();
            !line.is_empty() && !line.starts_with("//")
        })
        .count()
}

/// Appends every `.rs` file under `dir` (recursively, if it exists) to
/// `out` as a path relative to `root`.
fn rust_files_under(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files_under(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(
                path.strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned(),
            );
        }
    }
}

/// Scans the non-test, non-comment lines of `rel` for any of `needles`.
/// Returns the number of violations (each printed with file:line).
fn lint_file(
    root: &Path,
    rel: &str,
    needles: &[&str],
    allow_marker: Option<&str>,
    describe: impl Fn(&str) -> String,
) -> usize {
    let text = std::fs::read_to_string(root.join(rel))
        .unwrap_or_else(|e| panic!("xtask: cannot read {rel}: {e}"));
    lint_text(rel, &text, needles, allow_marker, describe)
}

/// The scanning core of [`lint_file`], split out so the lint rules are
/// testable against synthetic sources. A line matching `allow_marker`
/// (anywhere on the line, comments included — that is where the marker
/// lives) is exempt, and so is the line directly after it: rustfmt
/// hoists trailing comments onto their own line, so the marker usually
/// sits just above the expression it blesses.
fn lint_text(
    rel: &str,
    text: &str,
    needles: &[&str],
    allow_marker: Option<&str>,
    describe: impl Fn(&str) -> String,
) -> usize {
    let mut violations = 0;
    let mut prev_marked = false;
    for (i, line) in text.lines().enumerate() {
        // The test module terminates the linted region (repo convention:
        // `#[cfg(test)]` at the bottom of the file).
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let marked = allow_marker.is_some_and(|m| line.contains(m));
        let exempt = marked || prev_marked;
        prev_marked = marked;
        if exempt {
            continue;
        }
        let code = line.split("//").next().unwrap_or("");
        if needles.iter().any(|n| code.contains(n)) {
            eprintln!("  LINT {rel}:{}: {}", i + 1, describe(line.trim()));
            violations += 1;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_paths_are_panic_free() {
        assert_eq!(lint_no_panics_in_recovery(&workspace_root()), 0);
    }

    #[test]
    fn sim_paths_are_wall_clock_free() {
        assert_eq!(lint_no_instant_in_sim(&workspace_root()), 0);
    }

    #[test]
    fn net_protocol_paths_go_through_the_clock_seam() {
        assert_eq!(lint_no_wall_clock_in_net(&workspace_root()), 0);
    }

    #[test]
    fn hot_loop_modules_are_allocation_free() {
        assert_eq!(lint_no_alloc_in_hot_loops(&workspace_root()), 0);
    }

    #[test]
    fn recovery_paths_do_not_sleep_poll() {
        assert_eq!(lint_no_sleep_polling_in_recovery(&workspace_root()), 0);
    }

    #[test]
    fn no_draws_scope_stays_with_the_replacement_build() {
        assert_eq!(lint_no_draws_scope_call_sites(&workspace_root()), 0);
    }

    /// Self-test of the no-draws rule: a call or an import fires, while a
    /// comment and the test module do not.
    #[test]
    fn no_draws_lint_scan_rules() {
        let count =
            |text: &str| lint_text("synthetic.rs", text, &[NO_DRAWS_NEEDLE], None, |l| l.into());
        assert_eq!(
            count("let m = swift_tensor::tensor::without_init_draws(|| mlp(\"m\", &d, 1));\n"),
            1
        );
        assert_eq!(count("use swift_tensor::tensor::without_init_draws;\n"), 1);
        assert_eq!(count("// built under without_init_draws upstream\n"), 0);
        assert_eq!(
            count("#[cfg(test)]\nmod tests { fn f() { without_init_draws(|| 1); } }\n"),
            0
        );
        let root = workspace_root();
        let mut files = Vec::new();
        rust_files_under(&root, &root.join("crates/tensor/src"), &mut files);
        assert!(
            files.iter().any(|f| f.ends_with("simd/kernels.rs")),
            "the scan descends into subdirectories: {files:?}"
        );
    }

    /// Self-test of the sleep-poll rule: a poll loop fires, and a timer
    /// marked `lint:sleep-ok` does not.
    #[test]
    fn sleep_poll_lint_scan_rules() {
        let count = |text: &str| {
            lint_text(
                "synthetic.rs",
                text,
                SLEEP_POLL_NEEDLES,
                Some("lint:sleep-ok"),
                |l| l.into(),
            )
        };
        assert_eq!(
            count("assert!(RetryPolicy::poll().wait_until(|| kv.get(k).is_some()));\n"),
            1
        );
        assert_eq!(
            count("// lint:sleep-ok — restart backoff\nstd::thread::sleep(delay);\n"),
            0
        );
    }

    /// Self-test of the alloc-lint rule against synthetic sources: the
    /// needles fire, comments and `lint:alloc-ok` lines don't, and the
    /// test module terminates the linted region.
    #[test]
    fn alloc_lint_scan_rules() {
        let marker = Some("lint:alloc-ok");
        let count =
            |text: &str| lint_text("synthetic.rs", text, ALLOC_NEEDLES, marker, |l| l.into());
        assert_eq!(count("let v = Vec::new();\nlet w = vec![0u8; 4];\n"), 2);
        assert_eq!(count("let v = xs.to_vec();\n"), 1);
        assert_eq!(count("let mut y = Vec::with_capacity(n);\n"), 1);
        assert_eq!(count("// a comment about Vec::new\n"), 0);
        assert_eq!(count("let v = Vec::new(); // lint:alloc-ok (cold)\n"), 0);
        // Marker on its own line blesses the next line (rustfmt hoists
        // trailing comments), but not the line after that.
        assert_eq!(count("// lint:alloc-ok (cold)\nlet v = Vec::new();\n"), 0);
        assert_eq!(
            count("// lint:alloc-ok (cold)\nlet v = Vec::new();\nlet w = vec![0u8; 4];\n"),
            1
        );
        assert_eq!(
            count("#[cfg(test)]\nmod tests { fn f() { let v = vec![1]; } }\n"),
            0
        );
    }

    const SAMPLE: &str = "[\n\
        {\"op\":\"matmul\",\"shape\":\"8x8x8\",\"ns_per_iter\":1000,\"baseline_ns_per_iter\":2000,\"speedup\":2.00,\"gb_per_s\":1.5},\n\
        {\"op\":\"replay\",\"shape\":\"2mb\",\"ns_per_iter\":500,\"baseline_ns_per_iter\":2000,\"speedup\":4.00,\"gb_per_s\":3.0}\n\
        ]\n";

    #[test]
    fn loc_counts_code_above_the_test_module() {
        let src = "//! doc\n\nuse a;\n    // note\nfn f() {}\n  #[cfg(test)] x\n\
                   #[cfg(test)]\nmod tests { fn g() {} }\n";
        assert_eq!(code_lines(src), 3);
        assert!(is_crate_integration_test(
            "crates/core/tests/tier_digest.rs"
        ));
        assert!(!is_crate_integration_test("crates/core/src/tests.rs"));
        assert!(!is_crate_integration_test("tests/chaos.rs"));
    }

    #[test]
    fn bench_json_parses_ops_and_times() {
        assert_eq!(
            parse_bench_json(SAMPLE),
            vec![("matmul".to_string(), 1000), ("replay".to_string(), 500)]
        );
        assert!(parse_bench_json("not json at all").is_empty());
    }

    #[test]
    fn regression_gate_passes_within_factor() {
        // 2x exactly is still allowed; only *more* than 2x fails.
        let current = SAMPLE.replace("\"ns_per_iter\":1000", "\"ns_per_iter\":2000");
        assert!(check_bench_regressions(SAMPLE, &current).is_ok());
    }

    #[test]
    fn regression_gate_fails_beyond_factor() {
        let current = SAMPLE.replace("\"ns_per_iter\":1000", "\"ns_per_iter\":2001");
        let failures = check_bench_regressions(SAMPLE, &current).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("matmul:"));
    }

    #[test]
    fn regression_gate_fails_on_missing_op() {
        let current = SAMPLE.replace("\"op\":\"replay\"", "\"op\":\"other\"");
        let failures = check_bench_regressions(SAMPLE, &current).unwrap_err();
        assert!(failures.iter().any(|f| f.contains("replay: missing")));
    }
}
