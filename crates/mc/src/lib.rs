//! # swift-mc
//!
//! A systematic interleaving + failure-point model checker for the
//! recovery protocol. The thread-per-rank runtime in `swift-net`
//! exercises *one* interleaving per run; this crate exercises *all of
//! them* (up to a depth bound): every message delivery order, KV
//! service order, failure-detector firing, crash point, and torn-WAL
//! tail is an explicit schedule point, explored exhaustively with
//! sleep-set pruning and state-fingerprint deduplication, with a
//! seeded random-walk fallback past the exhaustive horizon.
//!
//! Four invariant oracles run over every execution:
//!
//! 1. **Generation-fence safety** — no rank ever applies traffic from
//!    a generation it has fenced past.
//! 2. **Epoch monotonicity** — the failure record's epoch never
//!    regresses, and the dead set never grows without an epoch bump
//!    (checked against the real [`KvStore`](swift_net::KvStore) at
//!    every write).
//! 3. **Exactly-once application** — after any combination of crash,
//!    undo, fence, and replay, every live rank holds each `(iteration,
//!    group)` update exactly once; the replacement's WAL replay runs
//!    through the real [`LogRecord`](swift_wal::LogRecord) codec and a
//!    torn tail must surface as a truncation, never a phantom record.
//! 4. **KV linearizability** — the control-plane history (two-phase
//!    declare/fence operations) admits a Wing–Gong linearization
//!    against the sequential map spec.
//!
//! Violations come back as *minimized* (ddmin) schedules, serialized
//! to JSON and replayable bit-for-bit with `cargo xtask mc --replay`.
//! The mutation flags (`--mutation skip-generation-fence`,
//! `skip-undo`, `skip-wake`) seed known protocol bugs to prove the
//! oracles catch them — the checker checking itself.

pub mod explore;
pub mod json;
pub mod kvlin;
pub mod minimize;
pub mod model;
pub mod report;

pub use explore::{check, Counterexample, ExploreOpts, Report, Stats};
pub use minimize::execute;
pub use model::{Action, Config, Mutation, Violation, World};
pub use report::{counterexample_json, parse_replay, render_counterexample, report_json, summary};

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> Config {
        Config {
            ranks: 3,
            iters: 1,
            groups: 2,
            max_crashes: 0,
            crash_slots: vec![],
            torn_wal: false,
            mutation: Mutation::None,
        }
    }

    #[test]
    fn failure_free_training_passes_exhaustively() {
        let report = check(quick_cfg(), &ExploreOpts::default());
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.stats.terminals > 0);
        assert!(report.stats.explored > 0);
    }

    #[test]
    fn single_crash_recovery_passes_exhaustively() {
        let cfg = Config {
            max_crashes: 1,
            crash_slots: vec![1],
            ..quick_cfg()
        };
        let report = check(cfg, &ExploreOpts::default());
        assert!(report.violation.is_none(), "{:?}", report.violation);
        // The crash branch must actually reach recovered terminals.
        assert!(report.stats.terminals > 0);
        assert!(report.stats.pruned_sleep > 0 || report.stats.pruned_visited > 0);
    }

    #[test]
    fn torn_wal_tail_is_handled_by_replay() {
        let cfg = Config {
            max_crashes: 1,
            crash_slots: vec![1],
            torn_wal: true,
            ..quick_cfg()
        };
        let report = check(cfg, &ExploreOpts::default());
        assert!(report.violation.is_none(), "{:?}", report.violation);
    }

    #[test]
    fn seeded_fence_bug_is_caught_and_minimized() {
        let cfg = Config {
            max_crashes: 1,
            crash_slots: vec![1],
            mutation: Mutation::SkipGenerationFence,
            ..quick_cfg()
        };
        let report = check(cfg.clone(), &ExploreOpts::default());
        let ce = report.violation.expect("mutation must be caught");
        assert_eq!(ce.violation.kind(), "stale-generation-apply");
        assert!(ce.minimized);
        // The minimized schedule must replay to the same violation.
        let (world, _) = execute(&cfg, &ce.choices);
        assert!(world
            .violations
            .iter()
            .any(|v| v.kind() == "stale-generation-apply"));
        // And survive a JSON round-trip.
        let doc = counterexample_json(&cfg, &ce);
        let (cfg2, choices2) = parse_replay(&doc).unwrap();
        let (world2, _) = execute(&cfg2, &choices2);
        assert!(world2
            .violations
            .iter()
            .any(|v| v.kind() == "stale-generation-apply"));
    }

    #[test]
    fn seeded_undo_bug_is_caught() {
        let cfg = Config {
            max_crashes: 1,
            crash_slots: vec![1],
            mutation: Mutation::SkipUndo,
            ..quick_cfg()
        };
        let report = check(cfg, &ExploreOpts::default());
        let ce = report.violation.expect("mutation must be caught");
        assert_eq!(ce.violation.kind(), "apply-count-wrong");
    }

    #[test]
    fn seeded_lost_wakeup_is_caught_as_a_replayable_stuck_state() {
        let cfg = Config {
            max_crashes: 1,
            crash_slots: vec![1],
            mutation: Mutation::SkipWake,
            ..quick_cfg()
        };
        let report = check(cfg.clone(), &ExploreOpts::default());
        let ce = report.violation.expect("mutation must be caught");
        assert_eq!(ce.violation.kind(), "stuck");
        assert!(ce.minimized);
        let doc = counterexample_json(&cfg, &ce);
        let (cfg2, choices2) = parse_replay(&doc).unwrap();
        let (world, _) = execute(&cfg2, &choices2);
        assert!(world.enabled().is_empty() && !world.done());
        assert!(world.violations.iter().any(|v| v.kind() == "stuck"));
    }

    #[test]
    fn random_walks_agree_with_exhaustive_on_clean_config() {
        let cfg = Config {
            max_crashes: 1,
            crash_slots: vec![1],
            ..quick_cfg()
        };
        let opts = ExploreOpts {
            depth: 0, // skip the exhaustive pass entirely
            walks: 50,
            walk_depth: 300,
            ..ExploreOpts::default()
        };
        let report = check(cfg, &opts);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.stats.walk_steps > 0);
    }
}
