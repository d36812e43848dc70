//! # swift-store
//!
//! Tiered storage substrate standing in for the paper's NVMe local disks
//! and HDFS global store (§5.1, Fig. 6): logging files live on the
//! sender's local disk, are uploaded to the global store on failure, and
//! are downloaded by recovering workers. Every log record is its own blob,
//! one per (iteration, micro-batch), so the logs already come in the
//! pieces §5.1 cuts its logging file into.
//!
//! All stores do *real* file I/O under a private directory and keep byte
//! counters so experiments can report storage/bandwidth consumption.

pub mod blob;
pub mod global;

pub use blob::{BlobStore, StoreError, StoreResult};
pub use global::GlobalStore;
