//! # swift-dnn
//!
//! A layered DNN library with hand-written backpropagation — the training
//! substrate for the SWIFT reproduction.
//!
//! Everything is built for *deterministic replay* (paper §6): activation
//! caches are keyed per micro-batch ([`StepCtx`]), dropout draws
//! counter-based masks keyed by the training coordinates, and all kernels
//! are bitwise deterministic. On top of the layers sit:
//!
//! - [`Sequential`] — models with flat parameter-group indexing matching
//!   the layer-wise wait-free update of mainstream frameworks (paper
//!   Fig. 4), plus the `apply_update_with` / `undo_update_with` hooks
//!   SWIFT's update-undo rides on: both read a gradient set the caller
//!   keeps (the cached `g_t` of §4), never the layers' own buffers;
//! - [`models`] — structural miniatures of the paper's Table 2 benchmarks
//!   and [`models::split_stages`] for pipeline partitioning;
//! - [`profile`] — performance profiles of the *full-scale* paper models
//!   (the constants that drive the evaluation simulator and reproduce
//!   Table 3 analytically).

pub mod activation;
pub mod attention;
pub mod clip;
pub mod conv;
pub mod dropout;
pub mod embedding;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod models;
pub mod norm;
pub mod profile;
pub mod sequential;
#[doc(hidden)]
pub mod testutil;

pub use activation::{ActKind, Activation};
pub use attention::SelfAttention;
pub use clip::clip_grad_norm;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use layer::{ActivationCache, Layer, Mode, StepCtx};
pub use linear::Linear;
pub use loss::{accuracy, mse, softmax_cross_entropy, softmax_cross_entropy_scaled};
pub use models::{bert_tiny, mlp, split_stages, vit_tiny, wide_resnet_tiny, TokenLinear};
pub use norm::LayerNorm;
pub use profile::{
    all_models, bert_128, vit_128_32, wide_resnet_50, PaperModel, RecoveryFamily, Testbed, TESTBED,
};
pub use sequential::{ModelState, Sequential};
