//! # nsflow-arch
//!
//! The NSFlow backend hardware template (paper Sec. IV): a flexible
//! neuro-symbolic architecture consisting of
//!
//! - the **AdArray** — an adaptive systolic array whose `N` sub-arrays
//!   (each `H×W` PEs) can merge to run NN GEMMs weight-stationary or run
//!   vector-symbolic circular convolutions column-wise with the
//!   passing-register streaming dataflow ([`adarray`]),
//! - a **custom SIMD unit** for element-wise ops, reductions and
//!   similarity/softmax kernels ([`simd`]),
//! - the **re-organizable on-chip memory** (`Mem_A1/A2/B/C` + URAM cache,
//!   all double-buffered) ([`memory`]),
//! - **mixed-precision compute units** (INT4/INT8/FP16/FP32) configured per
//!   domain ([`PrecisionConfig`]).
//!
//! Two complementary performance models are provided and cross-validated
//! against each other in tests:
//!
//! - [`analytical`]: the paper's closed-form runtime functions,
//!   eqs. (1)–(5),
//! - [`adarray::microsim`]: a register-level cycle simulator of the PE
//!   grid (the reproduction's stand-in for RTL verification) that also
//!   checks *functional* outputs against the `nsflow-vsa` reference
//!   kernels.
//!
//! # Examples
//!
//! ```
//! use nsflow_arch::{ArrayConfig, analytical};
//!
//! let cfg = ArrayConfig::new(32, 16, 16)?;
//! // ResNet stem on 14 of the 16 sub-arrays:
//! let cycles = analytical::nn_layer_cycles(&cfg, 14, 6400, 64, 147);
//! assert!(cycles > 0);
//! # Ok::<(), nsflow_arch::ArchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;

pub mod adarray;
pub mod analytical;
pub mod memory;
pub mod simd;
pub mod simd_microsim;

pub use config::{ArrayConfig, Mapping, PrecisionConfig, VsaMapping};
pub use error::ArchError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ArchError>;
