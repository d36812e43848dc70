// The delta proptest expands past the default macro recursion depth.
#![recursion_limit = "256"]

//! # swift-ckpt
//!
//! Checkpointing for the SWIFT reproduction: the periodic global
//! checkpoint SWIFT itself keeps as a catastrophic-failure backstop (§3).
//! The checkpointing baselines the paper compares against (§2.2: global
//! checkpointing, CheckFreq, Elastic Horovod's snapshots) are modelled by
//! `swift-sim`'s `Method`, which produces every baseline of Figs 3, 8a,
//! 12, 13 and Table 5.
//!
//! [`Checkpoint`] bundles `(iteration, model state, optimizer state)` with
//! a stable binary encoding; [`CheckpointManager`] owns the on-disk layout
//! with an atomically-flipped `latest` pointer. Incremental saves
//! ([`CheckpointManager::save_incremental`] with a [`DeltaSession`])
//! persist only the tensors whose content digest changed since the
//! previous save; `load_latest` resolves the resulting delta chain and
//! GC keeps it live (see [`delta`]).

pub mod checkpoint;
pub mod delta;

pub use checkpoint::{Checkpoint, CheckpointManager};
pub use delta::{tensor_digest, DeltaSession, IncrementalSave};
