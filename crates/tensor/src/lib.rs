//! # nsflow-tensor
//!
//! Shared dense-tensor and mixed-precision numerics substrate for the NSFlow
//! reproduction.
//!
//! The NSFlow hardware template supports mixed precision "ranging from
//! FP16/8 to INT8/4 in different components of the workload" (paper
//! Sec. IV-D). This crate provides:
//!
//! - [`Shape`] / [`Tensor`]: a minimal row-major dense tensor used by the
//!   neural (`nsflow-nn`) and vector-symbolic (`nsflow-vsa`) substrates,
//! - [`DType`]: the precision lattice (FP32, FP16, INT8, INT4) with exact
//!   bit/byte accounting used for memory-footprint results (paper Tab. IV),
//! - [`quant`]: symmetric fixed-point quantization and software FP16
//!   emulation, used both functionally (fake-quantized execution for the
//!   reasoning-accuracy harness) and for storage sizing,
//! - [`par`]: the input-order-chunked [`par::parallel_map`] and its
//!   [`par::KernelOptions`] threads knob, which size the serving
//!   executor's request-level batch fan-out,
//! - [`rng`]: the workspace's one seeded random-number generator.
//!
//! # Examples
//!
//! ```
//! use nsflow_tensor::{Tensor, Shape, DType, quant::QuantParams};
//!
//! let t = Tensor::from_vec(Shape::new(vec![2, 3]), vec![0.5, -1.0, 2.0, 0.0, 1.5, -0.25])?;
//! let q = QuantParams::fit(t.data(), DType::Int8)?;
//! let deq: Vec<f32> = t.data().iter().map(|&v| q.fake_quantize(v)).collect();
//! assert_eq!(deq.len(), 6);
//! # Ok::<(), nsflow_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dtype;
mod error;
mod shape;
mod tensor_impl;

pub mod par;
pub mod quant;
pub mod rng;

pub use dtype::DType;
pub use error::TensorError;
pub use shape::Shape;
pub use tensor_impl::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
