//! # nsflow-nn
//!
//! Neural-network substrate for the NSFlow reproduction.
//!
//! Every workload the paper evaluates pairs a CNN front-end (ResNet-18 for
//! NVSA's perception, smaller backbones for MIMONet/LVRF/PrAE) with a
//! vector-symbolic back-end. This crate provides:
//!
//! - [`LayerSpec`]: shape-level layer descriptions with output-shape,
//!   parameter, FLOP and **GEMM-dimension** derivation — the `m, n, k`
//!   triples the paper's analytical runtime model (eq. (1)) consumes,
//! - [`Model`]: sequential layer graphs plus ready-made builders
//!   ([`models::resnet18`], [`models::small_cnn`], …),
//! - [`gemm`]: the dense `matmul`/`matvec` kernels the AdArray performs
//!   in NN mode.
//!
//! The cycle model prices the NN half from these shapes.
//!
//! # Examples
//!
//! ```
//! use nsflow_nn::models;
//! let m = models::resnet18(160, 3);
//! assert!(m.total_flops() > 1_000_000_000); // multi-GFLOP backbone
//! assert_eq!(m.output_shape().dims().last(), Some(&512));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod layer;
mod model;

pub mod gemm;
pub mod models;

pub use error::NnError;
pub use layer::{GemmDims, LayerKind, LayerSpec};
pub use model::Model;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
