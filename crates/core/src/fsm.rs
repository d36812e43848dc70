//! The recovery state machine as data: a declarative transition table
//! that both the supervisor (at runtime) and `swift-verify`'s FSM
//! analyzer (statically, on every CI run) check against.
//!
//! The states are the recovery phases of [`swift_obs::Phase`] — the same
//! vocabulary the spans and the timeline use — minus `Detect`, which no
//! recovery code enters: the timeline derives it from kill → declaration.
//! Making the legal transition graph explicit lets the analyzer prove,
//! independently of any execution: every phase is reachable, terminal
//! states have no exits, every non-terminal phase has a failure edge back
//! to the restart state, and the only cycles run through backoff-bounded
//! restart edges (so the supervisor's bounded-restart argument is
//! structural, not incidental).

use swift_obs::Phase;

/// A node of the recovery state machine: the in-attempt phases plus the
/// two ways an attempt sequence ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsmState {
    /// An in-progress recovery phase.
    Phase(Phase),
    /// Recovery completed; training resumes.
    Done,
    /// Recovery abandoned: the worker itself died (fail-stop) or the
    /// restart budget was exhausted.
    Aborted,
}

impl std::fmt::Display for FsmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsmState::Phase(p) => write!(f, "{p}"),
            FsmState::Done => f.write_str("done"),
            FsmState::Aborted => f.write_str("aborted"),
        }
    }
}

/// Why an edge is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Normal forward progress to the next phase of the attempt.
    Advance,
    /// The attempt finished; recovery is complete.
    Complete,
    /// A cascading failure aborted the attempt; the supervisor restarts
    /// it. `backoff` marks edges rate-limited by the supervisor's
    /// exponential backoff and restart budget — the property that bounds
    /// every cycle in the graph.
    Failure {
        /// Whether the supervisor backs off (and counts the restart)
        /// before taking this edge.
        backoff: bool,
    },
    /// Terminal abandonment (self-kill or restart budget exhausted).
    Abort,
}

/// One legal transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Source state.
    pub from: FsmState,
    /// Destination state.
    pub to: FsmState,
    /// Why the edge is taken.
    pub kind: EdgeKind,
}

/// A recovery state machine: states, entry/restart points, transitions.
#[derive(Debug, Clone)]
pub struct TransitionTable {
    /// Human-readable name (for analyzer reports).
    pub name: &'static str,
    /// All states (the analyzer checks each is reachable).
    pub states: Vec<FsmState>,
    /// Where a fresh recovery begins.
    pub start: FsmState,
    /// Where failure edges must lead (attempts restart from the top).
    pub restart: FsmState,
    /// The legal transitions.
    pub transitions: Vec<Transition>,
}

impl TransitionTable {
    /// Outgoing transitions of `from`.
    pub fn outgoing(&self, from: FsmState) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.from == from)
    }

    /// Whether `state` is terminal (no outgoing edges expected).
    pub fn is_terminal(&self, state: FsmState) -> bool {
        matches!(state, FsmState::Done | FsmState::Aborted)
    }

    /// Whether an attempt may move directly from phase `from` to phase
    /// `to` (an `Advance` edge). Used by the runtime `PhaseTracker` to
    /// reject transitions the static table does not license.
    pub fn advance_allowed(&self, from: Phase, to: Phase) -> bool {
        self.transitions.iter().any(|t| {
            t.from == FsmState::Phase(from)
                && t.to == FsmState::Phase(to)
                && t.kind == EdgeKind::Advance
        })
    }

    /// Whether `phase` is a legal first phase of an attempt: the start
    /// phase itself, or any phase the start reaches over `Advance` edges
    /// (a replacement has nothing to undo, so it may enter at the fence).
    pub fn entry_allowed(&self, phase: Phase) -> bool {
        let mut seen = vec![self.start];
        let mut i = 0;
        while let Some(&cur) = seen.get(i) {
            if cur == FsmState::Phase(phase) {
                return true;
            }
            for t in self.outgoing(cur).filter(|t| t.kind == EdgeKind::Advance) {
                if !seen.contains(&t.to) {
                    seen.push(t.to);
                }
            }
            i += 1;
        }
        false
    }
}

/// The SWIFT recovery state machine every recovery path implements:
/// undo → fence → (broadcast | replay) → resume, where a pipeline
/// survivor with no replay share skips straight from undo to resume;
/// completion from resume; a backoff-bounded failure edge from every
/// phase back to the restart state (cascading failures, Appendix B); and
/// an abort edge from every phase (fail-stop self-kill or exhausted
/// restart budget).
pub fn recovery_fsm() -> TransitionTable {
    use swift_obs::Phase::*;
    use EdgeKind::*;
    use FsmState::*;
    let phases = [Undo, Fence, Broadcast, Replay, Resume];
    let advance = [
        (Undo, Fence),
        (Undo, Resume),
        (Fence, Broadcast),
        (Fence, Replay),
        (Broadcast, Resume),
        (Replay, Resume),
    ];
    let mut transitions: Vec<Transition> = advance
        .into_iter()
        .map(|(from, to)| Transition {
            from: Phase(from),
            to: Phase(to),
            kind: Advance,
        })
        .collect();
    transitions.push(Transition {
        from: Phase(Resume),
        to: Done,
        kind: Complete,
    });
    for p in phases {
        transitions.push(Transition {
            from: Phase(p),
            to: Phase(Undo),
            kind: Failure { backoff: true },
        });
        transitions.push(Transition {
            from: Phase(p),
            to: Aborted,
            kind: Abort,
        });
    }
    TransitionTable {
        name: "swift-recovery",
        states: phases
            .into_iter()
            .map(Phase)
            .chain([Done, Aborted])
            .collect(),
        start: Phase(Undo),
        restart: Phase(Undo),
        transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Phase::*;

    /// Whether the table licenses `seq` as one rank's recovery: a legal
    /// entry, `Advance` edges between consecutive phases, and a
    /// completion edge out of the last.
    fn licensed(t: &TransitionTable, seq: &[Phase]) -> bool {
        let last = FsmState::Phase(*seq.last().unwrap());
        t.entry_allowed(seq[0])
            && seq.windows(2).all(|w| t.advance_allowed(w[0], w[1]))
            && t.outgoing(last).any(|tr| tr.kind == EdgeKind::Complete)
    }

    #[test]
    fn phase_states_are_every_phase_but_detect() {
        let t = recovery_fsm();
        let phases: Vec<Phase> = t
            .states
            .iter()
            .filter_map(|s| match s {
                FsmState::Phase(p) => Some(*p),
                _ => None,
            })
            .collect();
        let want: Vec<Phase> = Phase::ALL.into_iter().filter(|&p| p != Detect).collect();
        assert_eq!(phases, want);
        assert!(!t.entry_allowed(Detect), "nothing enters detect");
    }

    #[test]
    fn table_licenses_every_runtime_sequence() {
        let t = recovery_fsm();
        let runtime: [(&str, &[Phase]); 7] = [
            ("DP survivor", &[Undo, Fence, Broadcast, Resume]),
            ("DP replacement", &[Undo, Fence, Broadcast, Resume]),
            ("FSDP survivor", &[Undo, Fence, Broadcast, Resume]),
            ("FSDP replacement", &[Undo, Fence, Broadcast, Resume]),
            ("pipeline survivor", &[Undo, Resume]),
            (
                "assisting pipeline survivor",
                &[Undo, Fence, Replay, Resume],
            ),
            ("pipeline replacement", &[Fence, Replay, Resume]),
        ];
        for (who, seq) in runtime {
            assert!(licensed(&t, seq), "{who}: {seq:?} must be licensed");
        }
    }

    #[test]
    fn table_rejects_out_of_order_and_mixed_sync() {
        let t = recovery_fsm();
        assert!(!t.advance_allowed(Broadcast, Replay));
        assert!(!t.advance_allowed(Replay, Broadcast));
        assert!(!t.advance_allowed(Resume, Fence));
        assert!(!t.advance_allowed(Undo, Broadcast));
        assert!(!licensed(&t, &[Undo, Fence]), "fence cannot complete");
    }

    #[test]
    fn terminals_have_no_outgoing_edges() {
        let t = recovery_fsm();
        assert_eq!(t.outgoing(FsmState::Done).count(), 0);
        assert_eq!(t.outgoing(FsmState::Aborted).count(), 0);
    }
}
