//! # swift-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§7). Each function returns its report as a string;
//! the `all_experiments` binary (all, or one with `--only <name>`) and the
//! `experiments` bench target print them.
//!
//! Figures 3, 8, 9, 12, 13 and Tables 4–5 come from the `swift-sim`
//! performance model (testbed-scale); Figure 11 runs *real* training on
//! the in-process cluster with actual failure injection and recovery;
//! Tables 1, 3, 6, 7 and Figures 1, 10 are computed from the
//! implementations directly.

pub mod alloc_counter;
pub mod experiments;
pub mod fastpath;
pub mod overlap;
pub mod recovery;
pub mod simd;

pub use experiments::all_experiments;
