//! # nsflow-workloads
//!
//! The neuro-symbolic workloads the paper evaluates, in two executable
//! forms:
//!
//! 1. **Functional** ([`raven`], [`reasoning`], [`suites`], [`accuracy`]):
//!    a synthetic Raven's-Progressive-Matrices task generator and a real
//!    VSA reasoning pipeline (binding → resonator factorization → rule
//!    inference → candidate scoring) whose arithmetic can be run at any
//!    precision — the measurement behind Tab. IV. The RAVEN-style,
//!    I-RAVEN-style and PGM-style suites differ in noise level, candidate
//!    confusability and attribute count, emulating the difficulty ordering
//!    of the real datasets (RAVEN ≈ I-RAVEN ≫ PGM).
//! 2. **Architectural** ([`traces`]): `ExecutionTrace` builders for NVSA,
//!    MIMONet, LVRF and PrAE that reproduce each workload's operator mix
//!    (CNN backbone + vector-symbolic kernels + SIMD glue) with the
//!    paper's characteristic proportions — symbolic ops contribute ~19%
//!    of NVSA's FLOPs yet dominate its runtime on GPU-class devices.
//!
//! # Examples
//!
//! ```
//! use nsflow_workloads::{suites::Suite, accuracy};
//! use nsflow_tensor::DType;
//!
//! let cfg = accuracy::EvalConfig { tasks: 10, ..accuracy::EvalConfig::default() };
//! let acc = accuracy::evaluate(Suite::RavenLike, accuracy::Precision::fp32(), &cfg, 7);
//! assert!(acc.accuracy >= 0.0 && acc.accuracy <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nn;

pub mod accuracy;
pub mod raven;
pub mod reasoning;
pub mod sparse_reasoning;
pub mod suites;
pub mod superposition;
pub mod traces;
