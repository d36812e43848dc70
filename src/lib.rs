//! # SWIFT — expedited failure recovery for large-scale DNN training
//!
//! A from-scratch Rust reproduction of *SWIFT: Expedited Failure Recovery
//! for Large-scale DNN Training* (Zhong, Sheng, Liu, Yuan, Wu —
//! PPoPP'23). This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`obs`] | `swift-obs` | typed IDs, spans/counters, recovery timelines |
//! | [`tensor`] | `swift-tensor` | deterministic dense tensor math |
//! | [`data`] | `swift-data` | deterministic synthetic datasets |
//! | [`optim`] | `swift-optim` | invertible optimizers (update-undo, §4) |
//! | [`dnn`] | `swift-dnn` | layers, models, paper-scale profiles |
//! | [`net`] | `swift-net` | in-process cluster with fail-stop injection |
//! | [`store`] | `swift-store` | local-disk + global-store tiers |
//! | [`pipeline`] | `swift-pipeline` | 1F1B/GPipe schedules + executor |
//! | [`ckpt`] | `swift-ckpt` | the global checkpoint and its delta chains |
//! | [`wal`] | `swift-wal` | logging, selective logging, replay (§5) |
//! | [`core`] | `swift-core` | the SWIFT runtime: strategies + recovery |
//! | [`sim`] | `swift-sim` | testbed-scale performance model (§7) |
//!
//! Start with the `quickstart` example, then `pipeline_logging` for
//! logging-based recovery and `end_to_end_sim` for the evaluation study.

pub use swift_ckpt as ckpt;
pub use swift_core as core;
pub use swift_data as data;
pub use swift_dnn as dnn;
pub use swift_net as net;
pub use swift_obs as obs;
pub use swift_optim as optim;
pub use swift_pipeline as pipeline;
pub use swift_sim as sim;
pub use swift_store as store;
pub use swift_tensor as tensor;
pub use swift_wal as wal;
