//! 3D parallelism plans and placement analysis (paper Fig. 2, §2.1, §3).
//!
//! A plan arranges `dp × pp × op` workers onto machines. Whether SWIFT can
//! use replication-based recovery depends on *placement*, not just on the
//! presence of data parallelism: in the paper's Fig. 2 (Megatron-style, 16
//! GPUs on two machines) each stage's two replicas share a machine — a
//! machine failure takes out both copies, so logging-based recovery is the
//! right strategy even though dp = 2.

use swift_net::{MachineId, Rank};

/// A static 3D-parallel job layout.
#[derive(Debug, Clone)]
pub struct ParallelismPlan {
    /// Data-parallel ways.
    pub dp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// Operator-parallel ways within a stage.
    pub op: usize,
    /// Machines available.
    pub machines: usize,
    /// GPUs per machine.
    pub gpus_per_machine: usize,
    /// `placement[(dp, pp, op)] → (machine, rank)`.
    placement: Vec<(MachineId, Rank)>,
}

/// How replicas are laid out relative to machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Replicas of a stage share a machine to exploit NVLink for gradient
    /// sync (the paper's Fig. 2 / Megatron-LM layout).
    ReplicasSameMachine,
    /// Replicas of a stage are spread across machines (classic DP
    /// placement, survives machine loss).
    ReplicasAcrossMachines,
}

impl ParallelismPlan {
    /// Builds a plan. Requires `dp·pp·op == machines·gpus_per_machine`.
    pub fn new(
        dp: usize,
        pp: usize,
        op: usize,
        machines: usize,
        gpus_per_machine: usize,
        policy: PlacementPolicy,
    ) -> Self {
        let world = dp * pp * op;
        assert_eq!(
            world,
            machines * gpus_per_machine,
            "plan must exactly fill the cluster"
        );
        let mut placement = vec![(0usize, 0usize); world];
        for d in 0..dp {
            for p in 0..pp {
                for o in 0..op {
                    let idx = Self::index_of(dp, pp, op, d, p, o);
                    // Linearization order decides which coordinates end up
                    // co-located on a machine.
                    let gpu_linear = match policy {
                        // Fig. 2: consecutive GPUs on a machine hold the
                        // operator shards and both replicas of a stage;
                        // stages advance across (then beyond) the machine.
                        PlacementPolicy::ReplicasSameMachine => (p * dp + d) * op + o,
                        // Replica d gets its own machine block.
                        PlacementPolicy::ReplicasAcrossMachines => (d * pp + p) * op + o,
                    };
                    placement[idx] = (gpu_linear / gpus_per_machine, gpu_linear);
                }
            }
        }
        ParallelismPlan {
            dp,
            pp,
            op,
            machines,
            gpus_per_machine,
            placement,
        }
    }

    fn index_of(dp: usize, pp: usize, op: usize, d: usize, p: usize, o: usize) -> usize {
        debug_assert!(d < dp && p < pp && o < op);
        let _ = dp;
        (d * pp + p) * op + o
    }

    /// The machine hosting worker `(d, p, o)`.
    pub fn machine_of(&self, d: usize, p: usize, o: usize) -> MachineId {
        self.placement[Self::index_of(self.dp, self.pp, self.op, d, p, o)].0
    }

    /// The rank of worker `(d, p, o)`.
    pub fn rank_of(&self, d: usize, p: usize, o: usize) -> Rank {
        self.placement[Self::index_of(self.dp, self.pp, self.op, d, p, o)].1
    }

    /// Whether every model shard `(p, o)` has replicas on at least two
    /// distinct machines — the condition for replication-based recovery
    /// (§3: "if the model state has at least one replica on another
    /// machine").
    pub fn cross_machine_replica(&self) -> bool {
        if self.dp < 2 {
            return false;
        }
        (0..self.pp).all(|p| {
            (0..self.op).all(|o| {
                let machines: std::collections::HashSet<MachineId> =
                    (0..self.dp).map(|d| self.machine_of(d, p, o)).collect();
                machines.len() >= 2
            })
        })
    }

    /// Whether pipeline stages span machines (the condition for logging to
    /// be applicable at all).
    pub fn cross_machine_pipeline(&self) -> bool {
        let machines: std::collections::HashSet<MachineId> =
            (0..self.pp).map(|p| self.machine_of(0, p, 0)).collect();
        machines.len() >= 2
    }

    /// The ranks whose *outbound* inter-machine pipeline edges must be
    /// logged (Fig. 2: "GPU 3 & 7 log the intermediate activations in the
    /// forward pass, while GPU 11 & 15 log the gradients in the backward
    /// pass" — i.e. both sides of every machine-crossing stage edge).
    pub fn logging_ranks(&self) -> Vec<Rank> {
        let mut out = std::collections::BTreeSet::new();
        for d in 0..self.dp {
            for o in 0..self.op {
                for p in 0..self.pp.saturating_sub(1) {
                    let (a, b) = (self.machine_of(d, p, o), self.machine_of(d, p + 1, o));
                    if a != b {
                        out.insert(self.rank_of(d, p, o)); // forward sender
                        out.insert(self.rank_of(d, p + 1, o)); // backward sender
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// The job shape for strategy selection (§3).
    pub fn job_shape(&self, logging_worth_it: bool) -> crate::config::JobShape {
        crate::config::JobShape {
            cross_machine_replica: self.cross_machine_replica(),
            cross_machine_pipeline: self.cross_machine_pipeline(),
            logging_worth_it,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{select_strategy, Strategy};

    /// The paper's Fig. 2 plan: 16 GPUs, 2 machines, dp=2 pp=4 op=2 with
    /// same-machine replicas.
    fn fig2_plan() -> ParallelismPlan {
        ParallelismPlan::new(2, 4, 2, 2, 8, PlacementPolicy::ReplicasSameMachine)
    }

    #[test]
    fn fig2_replicas_share_machines() {
        let plan = fig2_plan();
        // Every stage's two replicas are co-located → a machine failure
        // loses both copies.
        assert!(!plan.cross_machine_replica());
        assert!(plan.cross_machine_pipeline());
        for p in 0..4 {
            for o in 0..2 {
                assert_eq!(
                    plan.machine_of(0, p, o),
                    plan.machine_of(1, p, o),
                    "stage {p} shard {o}: replicas must share a machine"
                );
            }
        }
    }

    #[test]
    fn fig2_selects_logging() {
        let plan = fig2_plan();
        let strategy = select_strategy(plan.job_shape(true));
        assert_eq!(strategy, Strategy::Logging);
    }

    #[test]
    fn fig2_logging_ranks_are_the_machine_boundary_gpus() {
        // Stages 0,1 on machine 0; stages 2,3 on machine 1. The crossing
        // edge is stage 1 → stage 2 for both replicas and both operator
        // shards: GPUs {ranks of (d, 1, o)} send forward, {ranks of
        // (d, 2, o)} send backward — matching the paper's "GPU 3 & 7 …
        // GPU 11 & 15" structure (8 boundary GPUs → 4 per machine here
        // because op = 2 doubles the edge endpoints).
        let plan = fig2_plan();
        let ranks = plan.logging_ranks();
        assert_eq!(ranks.len(), 8);
        let m0: Vec<_> = ranks.iter().filter(|&&r| r < 8).collect();
        let m1: Vec<_> = ranks.iter().filter(|&&r| r >= 8).collect();
        assert_eq!(m0.len(), 4, "forward-logging GPUs on machine 0");
        assert_eq!(m1.len(), 4, "backward-logging GPUs on machine 1");
    }

    #[test]
    fn across_machine_placement_enables_replication() {
        let plan = ParallelismPlan::new(2, 4, 2, 2, 8, PlacementPolicy::ReplicasAcrossMachines);
        assert!(plan.cross_machine_replica());
        let strategy = select_strategy(plan.job_shape(true));
        assert_eq!(strategy, Strategy::Replication);
        // And with no machine-crossing pipeline edges to log, the logging
        // rank set is empty (each replica's whole pipeline fits one
        // machine).
        assert!(plan.logging_ranks().is_empty());
    }

    #[test]
    fn placement_is_a_bijection() {
        for policy in [
            PlacementPolicy::ReplicasSameMachine,
            PlacementPolicy::ReplicasAcrossMachines,
        ] {
            let plan = ParallelismPlan::new(2, 4, 2, 2, 8, policy);
            let mut seen = std::collections::HashSet::new();
            for d in 0..2 {
                for p in 0..4 {
                    for o in 0..2 {
                        assert!(
                            seen.insert(plan.rank_of(d, p, o)),
                            "{policy:?} rank collision"
                        );
                        assert!(plan.machine_of(d, p, o) < 2);
                    }
                }
            }
            assert_eq!(seen.len(), 16);
        }
    }

    #[test]
    fn pure_dp_plan_has_no_pipeline_edges() {
        let plan = ParallelismPlan::new(4, 1, 1, 2, 2, PlacementPolicy::ReplicasAcrossMachines);
        assert!(plan.cross_machine_replica());
        assert!(!plan.cross_machine_pipeline());
        assert_eq!(
            select_strategy(plan.job_shape(false)),
            Strategy::Replication
        );
    }
}
