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
//! a stable binary encoding; [`CheckpointManager`] writes each one as a
//! full payload and then moves an atomically-flipped `latest` pointer to
//! it.

pub mod checkpoint;

pub use checkpoint::{Checkpoint, CheckpointManager};
