//! # nsflow-trace
//!
//! Execution-trace intermediate representation for the NSFlow frontend.
//!
//! The paper's Design Architecture Generator "begins by extracting an
//! execution trace from the user-provided workload" (Sec. III-A) — an
//! FX-style operator list like Listing 1 — and every later stage (dataflow
//! graph, DSE, memory planning) consumes only operator kinds, shapes and
//! data dependencies. This crate is that IR:
//!
//! - [`TraceOp`] / [`OpKind`]: one operator with its compute class
//!   (systolic-array GEMM, systolic-array circular convolution, SIMD
//!   element-wise/reduction/similarity), tensor sizes and dependencies,
//! - [`ExecutionTrace`]: a validated, topologically-ordered operator list
//!   representing **one loop iteration** of the workload plus the loop
//!   count,
//! - [`parser`]: a text parser for the paper's Listing-1 trace syntax, so
//!   a real PyTorch-FX dump can be ingested ([`emitter`] writes the same
//!   format back out, and traces round-trip),
//! - [`TraceBuilder`]: ergonomic programmatic construction used by the
//!   workload models.
//!
//! # Examples
//!
//! ```
//! use nsflow_trace::{TraceBuilder, OpKind, Domain};
//! use nsflow_tensor::DType;
//!
//! let mut b = TraceBuilder::new("demo");
//! let conv = b.push("conv1", OpKind::Gemm { m: 6400, n: 64, k: 147 }, Domain::Neural, DType::Int8, &[]);
//! let bind = b.push("bind", OpKind::VsaConv { n_vec: 4, dim: 256 }, Domain::Symbolic, DType::Int4, &[conv]);
//! let trace = b.finish(1)?;
//! assert_eq!(trace.ops().len(), 2);
//! assert!(trace.op(bind).inputs().contains(&conv));
//! # Ok::<(), nsflow_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod op;
mod trace_impl;

pub mod emitter;
pub mod parser;

pub use builder::TraceBuilder;
pub use error::TraceError;
pub use op::{Domain, EltFunc, OpId, OpKind, ReduceFunc, TraceOp};
pub use trace_impl::ExecutionTrace;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TraceError>;
