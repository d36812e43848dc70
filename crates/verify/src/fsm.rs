//! The recovery-FSM static analyzer: proves structural properties of a
//! declarative [`TransitionTable`] without executing any recovery.
//!
//! Checked properties, mirroring the supervisor's convergence argument
//! (paper Appendix B):
//!
//! - **Reachability** — every declared state is reachable from the start
//!   state; an unreachable phase is dead code the runtime tracker would
//!   never license.
//! - **Terminal states have no exits** — `Done`/`Aborted` are absorbing;
//!   an edge out of a terminal state means "recovery completed" is not
//!   actually final.
//! - **Failure edges to restart** — every non-terminal phase must have a
//!   failure edge leading back to the restart state, so a cascading
//!   failure observed in *any* phase has somewhere to go (no dead-end
//!   phase that deadlocks on a mid-phase death).
//! - **Cycles only through backoff** — deleting the backoff-marked
//!   failure edges must leave the graph acyclic. Then every infinite
//!   execution takes backoff edges infinitely often, and those are
//!   rate-limited and budget-bounded by the supervisor — the
//!   bounded-restart argument made structural.

use std::collections::{HashMap, HashSet};

use swift_core::{EdgeKind, FsmState, TransitionTable};

use crate::Violation;

fn v(detail: String) -> Violation {
    Violation::new("fsm", detail)
}

/// Analyzes `table` and returns every structural violation found.
pub fn analyze(table: &TransitionTable) -> Vec<Violation> {
    let mut out = Vec::new();
    check_edges_are_declared(table, &mut out);
    check_reachability(table, &mut out);
    check_terminals(table, &mut out);
    check_failure_edges(table, &mut out);
    check_cycles_through_backoff_only(table, &mut out);
    out
}

/// Sanity: transitions only mention declared states.
fn check_edges_are_declared(table: &TransitionTable, out: &mut Vec<Violation>) {
    let declared: HashSet<FsmState> = table.states.iter().copied().collect();
    for t in &table.transitions {
        for s in [t.from, t.to] {
            if !declared.contains(&s) {
                out.push(v(format!(
                    "{}: transition {} -> {} mentions undeclared state {s}",
                    table.name, t.from, t.to
                )));
            }
        }
    }
    if !declared.contains(&table.start) {
        out.push(v(format!(
            "{}: start state {} is not declared",
            table.name, table.start
        )));
    }
}

/// Every declared state is reachable from the start state.
fn check_reachability(table: &TransitionTable, out: &mut Vec<Violation>) {
    let mut seen: HashSet<FsmState> = HashSet::new();
    let mut stack = vec![table.start];
    while let Some(s) = stack.pop() {
        if !seen.insert(s) {
            continue;
        }
        for t in table.outgoing(s) {
            stack.push(t.to);
        }
    }
    for &s in &table.states {
        if !seen.contains(&s) {
            out.push(v(format!(
                "{}: state {s} is unreachable from start state {}",
                table.name, table.start
            )));
        }
    }
}

/// Terminal states are absorbing.
fn check_terminals(table: &TransitionTable, out: &mut Vec<Violation>) {
    for &s in &table.states {
        if table.is_terminal(s) {
            for t in table.outgoing(s) {
                out.push(v(format!(
                    "{}: terminal state {s} has an outgoing transition to {}",
                    table.name, t.to
                )));
            }
        }
    }
}

/// Every non-terminal state has a failure edge back to the restart state.
fn check_failure_edges(table: &TransitionTable, out: &mut Vec<Violation>) {
    for &s in &table.states {
        if table.is_terminal(s) {
            continue;
        }
        let has_restart_edge = table
            .outgoing(s)
            .any(|t| matches!(t.kind, EdgeKind::Failure { .. }) && t.to == table.restart);
        if !has_restart_edge {
            out.push(v(format!(
                "{}: phase {s} has no failure edge back to restart state {} — a \
                 cascading failure observed there would dead-end",
                table.name, table.restart
            )));
        }
    }
}

/// Removing backoff-marked failure edges leaves the graph acyclic.
fn check_cycles_through_backoff_only(table: &TransitionTable, out: &mut Vec<Violation>) {
    // Kahn's algorithm over the non-backoff subgraph; leftover nodes with
    // in-degree > 0 form (or feed) a cycle.
    let keep = |k: EdgeKind| !matches!(k, EdgeKind::Failure { backoff: true });
    let mut indeg: HashMap<FsmState, usize> = table.states.iter().map(|&s| (s, 0)).collect();
    for t in table.transitions.iter().filter(|t| keep(t.kind)) {
        *indeg.entry(t.to).or_insert(0) += 1;
    }
    let mut queue: Vec<FsmState> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&s, _)| s)
        .collect();
    let mut removed = 0usize;
    while let Some(s) = queue.pop() {
        removed += 1;
        for t in table.outgoing(s).filter(|t| keep(t.kind)) {
            let d = indeg.get_mut(&t.to).expect("declared state");
            *d -= 1;
            if *d == 0 {
                queue.push(t.to);
            }
        }
    }
    if removed < indeg.len() {
        let cyclic: Vec<String> = indeg
            .iter()
            .filter(|(_, &d)| d > 0)
            .map(|(s, _)| s.to_string())
            .collect();
        out.push(v(format!(
            "{}: cycle not gated by a backoff edge through {{{}}} — unbounded \
             retry without the supervisor's restart budget",
            table.name,
            cyclic.join(", ")
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_core::{recovery_fsm, Transition};
    use swift_obs::Phase;

    #[test]
    fn real_recovery_fsm_is_clean() {
        let vs = analyze(&recovery_fsm());
        assert!(vs.is_empty(), "{vs:?}");
    }

    /// Seeded violation: strip Broadcast's failure edge, creating a
    /// dead-end phase where a cascading failure has nowhere to go.
    #[test]
    fn flags_dead_end_phase() {
        let mut t = recovery_fsm();
        t.transitions.retain(|tr| {
            !(tr.from == FsmState::Phase(Phase::Broadcast)
                && matches!(tr.kind, EdgeKind::Failure { .. }))
        });
        let vs = analyze(&t);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].detail.contains("no failure edge"), "{}", vs[0]);
        assert!(vs[0].detail.contains("broadcast"), "{}", vs[0]);
    }

    /// Seeded violation: an unreachable state.
    #[test]
    fn flags_unreachable_state() {
        let mut t = recovery_fsm();
        // Disconnect Resume: drop every edge into it. Resume becomes
        // unreachable, and Done with it (Done is only reachable through
        // Resume's completion edge), so both are flagged.
        t.transitions
            .retain(|tr| tr.to != FsmState::Phase(Phase::Resume));
        let vs = analyze(&t);
        assert!(
            vs.iter()
                .any(|v| v.detail.contains("resume is unreachable")),
            "{vs:?}"
        );
    }

    /// Seeded violation: a transition out of a terminal state.
    #[test]
    fn flags_exit_from_terminal() {
        let mut t = recovery_fsm();
        t.transitions.push(Transition {
            from: FsmState::Done,
            to: FsmState::Phase(Phase::Undo),
            kind: EdgeKind::Advance,
        });
        let vs = analyze(&t);
        assert!(
            vs.iter().any(|v| v.detail.contains("terminal state done")),
            "{vs:?}"
        );
    }

    /// Seeded violation: a retry loop not marked as backoff-gated.
    #[test]
    fn flags_unbounded_cycle() {
        let mut t = recovery_fsm();
        t.transitions.push(Transition {
            from: FsmState::Phase(Phase::Fence),
            to: FsmState::Phase(Phase::Undo),
            kind: EdgeKind::Failure { backoff: false },
        });
        let vs = analyze(&t);
        assert!(
            vs.iter().any(|v| v.detail.contains("cycle not gated")),
            "{vs:?}"
        );
    }
}
