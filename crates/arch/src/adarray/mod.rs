//! The AdArray: NSFlow's adaptive systolic array (paper Sec. IV-B).
//!
//! An AdArray is `N` sub-arrays of `H×W` PEs. At runtime each sub-array is
//! **folded** into one of two roles:
//!
//! - merged with adjacent sub-arrays into an NN region running
//!   weight-stationary GEMM tiles,
//! - standing alone with each column running vector-symbolic circular
//!   convolutions via the passing-register streaming dataflow.
//!
//! The fold is modelled by [`ArrayConfig`](crate::ArrayConfig) (the
//! hardware) and [`Mapping`](crate::Mapping) (how many sub-arrays each
//! layer and VSA node gets); [`microsim`] is the register-level cycle
//! simulator used to verify the dataflow against the analytical model and
//! the functional kernels.

pub mod microsim;
