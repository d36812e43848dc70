//! The benchmark's workloads: job shapes, seeded inputs and the seeded
//! kill schedule each failure trial draws its coordinates from.

use std::sync::Arc;

use swift_core::{
    GradBucketer, JobCrash, ModelFn, Parallelism, SwiftJob, DEFAULT_BUCKET_CAP_BYTES,
};
use swift_data::{BlobsDataset, Dataset};
use swift_dnn::models::{mlp, wide_resnet_tiny};
use swift_dnn::Sequential;
use swift_optim::OptimizerKind;

/// How a workload's model is built.
#[derive(Debug, Clone, Copy)]
pub enum ModelSpec {
    /// `mlp(dims)`.
    Mlp(&'static [usize]),
    /// `wide_resnet_tiny(size, width, classes)`.
    WideResnet {
        size: usize,
        width: usize,
        classes: usize,
    },
}

impl ModelSpec {
    /// Builds the model; `seed` fixes its initialization.
    pub fn build(self, seed: u64) -> Sequential {
        match self {
            ModelSpec::Mlp(dims) => mlp("bench-mlp", dims, seed),
            ModelSpec::WideResnet {
                size,
                width,
                classes,
            } => wide_resnet_tiny("bench-wrn", size, width, classes, seed),
        }
    }

    fn feature_dim(self) -> usize {
        match self {
            ModelSpec::Mlp(dims) => dims[0],
            ModelSpec::WideResnet { size, .. } => 3 * size * size,
        }
    }

    fn classes(self) -> usize {
        match self {
            ModelSpec::Mlp(dims) => *dims.last().expect("mlp has an output layer"),
            ModelSpec::WideResnet { classes, .. } => classes,
        }
    }
}

/// How a failure trial picks its kill coordinates.
#[derive(Debug, Clone, Copy)]
pub enum KillPlan {
    /// Kill DP machine 1 mid-update at an iteration in `iterations`.
    /// Trials come in blocks of four in seeded order: one kill before the
    /// first gradient bucket ships (the survivors stay bit-identical and
    /// the replacement joins by sharded scatter) and three while buckets
    /// drain (undo, then broadcast). The majority path fills the middle
    /// half of the trials.
    DpBuckets { iterations: (u64, u64) },
    /// Kill DP machine 1 at a fixed iteration, before any bucket ships.
    DpFixed { iteration: u64 },
    /// Kill pipeline stage 0 `replayed` iterations into a seeded checkpoint
    /// interval, so recovery replays that many logged iterations. The
    /// count is fixed: replay dominates MTTR, and a mix of counts spreads
    /// the trials over modes whose gap is no wider than their noise.
    PpInterval { replayed: u64 },
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub parallelism: Parallelism,
    pub model: ModelSpec,
    pub opt: OptimizerKind,
    pub batch: usize,
    pub iters: u64,
    pub ckpt_interval: u64,
    pub kills: KillPlan,
}

const ADAM: OptimizerKind = OptimizerKind::Adam {
    lr: 1e-3,
    weight_decay: 0.0,
};

// Undo of SGD with momentum lands within 1e-8 of the failure-free run.
// Adam's undo does not stay inside the 1e-3 envelope this early in
// training (4e-3 to 2e-1 at kills in iterations 1 to 3), so the DP
// workloads use momentum SGD; dp-replication widens its hidden layers to
// keep the state at the ~60 MiB that makes recovery bytes-bound.
const SGD_MOMENTUM: OptimizerKind = OptimizerKind::SgdMomentum {
    lr: 0.05,
    weight_decay: 0.0,
    momentum: 0.9,
    dampening: 0.0,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dp-replication",
        parallelism: Parallelism::Data { machines: 2 },
        model: ModelSpec::Mlp(&[512, 2560, 2560, 10]),
        opt: SGD_MOMENTUM,
        batch: 8,
        iters: 5,
        ckpt_interval: 100,
        kills: KillPlan::DpBuckets { iterations: (1, 3) },
    },
    Workload {
        name: "pp-logging",
        parallelism: Parallelism::Pipeline {
            stages: 2,
            microbatches: 4,
        },
        model: ModelSpec::WideResnet {
            size: 32,
            width: 16,
            classes: 10,
        },
        opt: ADAM,
        batch: 32,
        iters: 11,
        ckpt_interval: 4,
        kills: KillPlan::PpInterval { replayed: 2 },
    },
    Workload {
        name: "dp-rendezvous",
        parallelism: Parallelism::Data { machines: 2 },
        model: ModelSpec::Mlp(&[6, 16, 16, 3]),
        opt: SGD_MOMENTUM,
        batch: 12,
        iters: 8,
        ckpt_interval: 100,
        kills: KillPlan::DpFixed { iteration: 4 },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Ranks in the job: DP machines or pipeline stages.
    pub fn ranks(&self) -> usize {
        match self.parallelism {
            Parallelism::Data { machines } => machines,
            Parallelism::Pipeline { stages, .. } => stages,
        }
    }

    /// Micro-batches per iteration (1 for data parallelism).
    pub fn microbatches(&self) -> usize {
        match self.parallelism {
            Parallelism::Data { .. } => 1,
            Parallelism::Pipeline { microbatches, .. } => microbatches,
        }
    }

    pub fn is_pipeline(&self) -> bool {
        matches!(self.parallelism, Parallelism::Pipeline { .. })
    }

    /// The machine every failure trial kills.
    pub fn victim(&self) -> usize {
        if self.is_pipeline() {
            0
        } else {
            1
        }
    }

    /// The seeded model factory.
    pub fn model_fn(&self, seed: u64) -> ModelFn {
        let spec = self.model;
        Arc::new(move || spec.build(seed))
    }

    /// The seeded dataset.
    pub fn dataset(&self, seed: u64) -> Arc<dyn Dataset> {
        Arc::new(BlobsDataset::new(
            seed ^ 0x5eed_da7a,
            self.model.feature_dim(),
            self.model.classes(),
            0.3,
        ))
    }

    /// The job, through the user-facing API.
    pub fn job(&self, seed: u64) -> SwiftJob {
        SwiftJob::builder(self.model_fn(seed), self.opt, self.dataset(seed))
            .parallelism(self.parallelism)
            .batch_size(self.batch)
            .ckpt_interval(self.ckpt_interval)
            .build()
            .expect("benchmark optimizers are invertible")
    }

    /// The first `n` kills of this workload's schedule under `seed`.
    /// `model` is the workload's model (its gradient buckets bound the
    /// DP kill windows).
    pub fn kill_schedule(&self, seed: u64, model: &Sequential, n: usize) -> Vec<JobCrash> {
        let mut rng = SplitMix64::new(seed ^ fnv1a(self.name.as_bytes()));
        let groups = model.num_param_groups();
        // Groups staged before the first (backward-order) bucket is full
        // and ships; killing earlier strands nothing on the survivors.
        let first_bucket = GradBucketer::new(&model.group_numels(), DEFAULT_BUCKET_CAP_BYTES)
            .groups_of(0)
            .len();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block = [0usize, 1, 2, 3];
            rng.shuffle(&mut block);
            for slot in block {
                let crash = match self.kills {
                    KillPlan::DpBuckets { iterations } => {
                        let after_groups = if slot == 0 {
                            rng.range(1, first_bucket as u64 - 1)
                        } else {
                            // Staging the last group ships every bucket,
                            // which leaves nothing partial to undo.
                            rng.range(first_bucket as u64, groups as u64 - 1)
                        };
                        JobCrash {
                            machine: self.victim(),
                            iteration: rng.range(iterations.0, iterations.1),
                            after_groups: after_groups as usize,
                        }
                    }
                    KillPlan::DpFixed { iteration } => JobCrash {
                        machine: self.victim(),
                        iteration,
                        after_groups: rng.range(1, first_bucket as u64 - 1) as usize,
                    },
                    KillPlan::PpInterval { replayed } => {
                        // Any checkpoint after which `replayed` iterations
                        // still fit before the end of the run.
                        let last = (self.iters - 1 - replayed) / self.ckpt_interval;
                        let interval = rng.range(1, last);
                        JobCrash {
                            machine: self.victim(),
                            iteration: interval * self.ckpt_interval + replayed,
                            after_groups: 0,
                        }
                    }
                };
                out.push(crash);
            }
        }
        out.truncate(n);
        out
    }
}

/// Order-sensitive FNV-1a digest of a kill schedule, printed so two runs
/// can be shown to have used the same kills.
pub fn schedule_digest(kills: &[JobCrash]) -> u64 {
    let mut bytes = Vec::with_capacity(kills.len() * 24);
    for k in kills {
        bytes.extend_from_slice(&(k.machine as u64).to_le_bytes());
        bytes.extend_from_slice(&k.iteration.to_le_bytes());
        bytes.extend_from_slice(&(k.after_groups as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: a small, seedable, well-mixed generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (the modulo bias is irrelevant at these spans).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty kill window {lo}..={hi}");
        lo + self.next() % (hi - lo + 1)
    }

    fn shuffle(&mut self, v: &mut [usize]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(w: &Workload, seed: u64, n: usize) -> Vec<JobCrash> {
        w.kill_schedule(seed, &w.model.build(seed), n)
    }

    fn key(k: &JobCrash) -> (usize, u64, usize) {
        (k.machine, k.iteration, k.after_groups)
    }

    #[test]
    fn same_seed_gives_same_kill_schedule() {
        for w in &WORKLOADS {
            let a = schedule(w, 7, 32);
            let b = schedule(w, 7, 32);
            assert_eq!(
                a.iter().map(key).collect::<Vec<_>>(),
                b.iter().map(key).collect::<Vec<_>>(),
                "{}",
                w.name
            );
            assert_eq!(schedule_digest(&a), schedule_digest(&b));
        }
        // A different seed draws different kills where there is a choice.
        let w = find("dp-replication").unwrap();
        assert_ne!(
            schedule_digest(&schedule(w, 7, 32)),
            schedule_digest(&schedule(w, 8, 32))
        );
    }

    #[test]
    fn dp_kills_cover_both_join_paths() {
        let w = find("dp-replication").unwrap();
        let model = w.model.build(1);
        let first = GradBucketer::new(&model.group_numels(), DEFAULT_BUCKET_CAP_BYTES)
            .groups_of(0)
            .len();
        let kills = w.kill_schedule(1, &model, 40);
        let before = kills.iter().filter(|k| k.after_groups < first).count();
        assert_eq!(before, 10, "one kill per block of four strands nothing");
        assert!(kills.iter().all(|k| (1..=3).contains(&k.iteration)));
        assert!(kills
            .iter()
            .all(|k| (1..=model.num_param_groups()).contains(&k.after_groups)));
    }

    #[test]
    fn pp_kills_land_inside_a_checkpoint_interval() {
        let w = find("pp-logging").unwrap();
        let kills = schedule(w, 3, 40);
        for k in &kills {
            assert_eq!(k.iteration % w.ckpt_interval, 2, "{k:?}");
            assert!(k.iteration >= w.ckpt_interval && k.iteration < w.iters);
        }
        // Both checkpoint intervals that fit get drawn.
        let mut iterations: Vec<u64> = kills.iter().map(|k| k.iteration).collect();
        iterations.sort_unstable();
        iterations.dedup();
        assert_eq!(iterations, [6, 10]);
    }
}
