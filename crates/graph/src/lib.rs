//! # nsflow-graph
//!
//! Dataflow-graph generation — step ② of the paper's Design Architecture
//! Generator (Sec. V-B).
//!
//! Starting from an [`ExecutionTrace`], the generator:
//!
//! 1. **identifies the critical path** of one loop iteration (longest
//!    dependency chain, weighted by arithmetic work) with a DFS-based
//!    longest-path pass,
//! 2. **identifies inner-loop parallelism** with a BFS depth pass,
//!    attaching off-critical-path nodes to the critical-path node at their
//!    depth (their earliest execution point),
//! 3. **identifies inter-loop parallelism**: the next loop's first NN layer
//!    may start as soon as the array's NN partition is free, overlapping
//!    with the previous loop's symbolic tail,
//! 4. annotates each node with the *size parameters* its runtime function
//!    needs (the architecture crate evaluates eqs. (1)–(5) against them),
//! 5. computes per-node **memory costs** and the aggregate quantities the
//!    memory planner uses (`max filter size in R_l` → `Mem_A1`,
//!    `max node size in R_v` → `Mem_A2`, …).
//!
//! # Examples
//!
//! ```
//! use nsflow_graph::DataflowGraph;
//! use nsflow_trace::{TraceBuilder, OpKind, Domain};
//! use nsflow_tensor::DType;
//!
//! let mut b = TraceBuilder::new("w");
//! let a = b.push("conv", OpKind::Gemm { m: 64, n: 8, k: 9 }, Domain::Neural, DType::Int8, &[]);
//! let _v = b.push("bind", OpKind::VsaConv { n_vec: 2, dim: 64 }, Domain::Symbolic, DType::Int4, &[a]);
//! let g = DataflowGraph::from_trace(b.finish(4)?);
//! assert_eq!(g.critical_path().len(), 2);
//! # Ok::<(), nsflow_trace::TraceError>(())
//! ```
//!
//! [`ExecutionTrace`]: nsflow_trace::ExecutionTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
mod memory;

pub use dataflow::{DataflowGraph, ParallelGroup};
pub use memory::MemoryRequirements;
