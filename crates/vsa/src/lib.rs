//! # nsflow-vsa
//!
//! Vector-symbolic architecture (VSA) substrate for the NSFlow reproduction.
//!
//! The symbolic half of every workload the paper evaluates (NVSA, MIMONet,
//! LVRF, PrAE) is built on *block codes*: hypervectors partitioned into
//! blocks, combined with **blockwise circular convolution** (binding),
//! inverted with **blockwise circular correlation** (inverse binding), and
//! compared with normalized similarity (`match_prob` in the paper's
//! Listing 1 trace). This crate implements those kernels functionally and
//! exactly — they are the values the reasoning-accuracy harness (Tab. IV)
//! quantizes, and the operator shapes the dataflow-graph generator sizes.
//!
//! Contents:
//!
//! - [`BlockCode`]: a hypervector of `n_blocks × block_dim` elements,
//! - [`ops`]: circular convolution/correlation, bundling, similarity,
//! - [`Codebook`]: random unitary item memories with cleanup,
//! - [`fft`]: O(d·log d) blockwise binding and inverse binding
//!   (`bind_fast`/`unbind_fast`),
//! - [`gemm`]: the dense `matmul`/`matvec` kernels the AdArray performs in
//!   NN mode,
//! - [`engine`]: spectral-cached codebook + resonator kernels for the
//!   functional workload path,
//! - [`sparse`]: sparse block codes (the one-hot-per-block family NVSA
//!   uses), whose binding reduces to modular index arithmetic,
//! - [`resonator`]: a resonator network for factorizing bound products,
//!   the iterative inference NVSA uses during rule abduction.
//!
//! # Examples
//!
//! ```
//! use nsflow_vsa::{BlockCode, Codebook};
//!
//! let mut rng = nsflow_tensor::rng::StdRng::seed_from_u64(7);
//! let book = Codebook::random_unitary(8, 4, 128, &mut rng);
//! let a = book.codeword(2).clone();
//! let b = book.codeword(5).clone();
//! let bound = a.bind(&b)?;
//! let recovered = bound.unbind(&b)?;
//! assert_eq!(book.cleanup(&recovered)?, 2);
//! # Ok::<(), nsflow_vsa::VsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod codebook;
mod error;

pub mod engine;
pub mod fft;
pub mod gemm;
pub mod ops;
pub mod resonator;
pub mod sparse;

pub use block::BlockCode;
pub use codebook::Codebook;
pub use error::VsaError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, VsaError>;
