//! # nsflow-graph
//!
//! Dataflow-graph generation — step ② of the paper's Design Architecture
//! Generator (Sec. V-B).
//!
//! A [`DataflowGraph`] wraps an [`ExecutionTrace`] with what the
//! two-phase DSE and the scheduler read of it:
//!
//! 1. each op's **dependency depth** (longest hop count from a source);
//!    Phase II of the DSE groups the VSA nodes that overlap each NN layer
//!    by it, the inner-loop parallelism of the paper's step ②,
//! 2. the aggregate **memory costs** the memory planner uses
//!    (`max filter size in R_l` → `Mem_A1`, `max node size in R_v` →
//!    `Mem_A2`, …), see [`MemoryRequirements`].
//!
//! The critical path that reports attribute a makespan to is walked on
//! the scheduled DAG by `nsflow-sim` (`Schedule::critical_path`), and the
//! inter-loop pipelining rule lives in `nsflow-arch`'s analytical model.
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
//! let v = b.push("bind", OpKind::VsaConv { n_vec: 2, dim: 64 }, Domain::Symbolic, DType::Int4, &[a]);
//! let g = DataflowGraph::from_trace(b.finish(4)?);
//! assert_eq!((g.depth(a), g.depth(v)), (0, 1));
//! # Ok::<(), nsflow_trace::TraceError>(())
//! ```
//!
//! [`ExecutionTrace`]: nsflow_trace::ExecutionTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
mod memory;

pub use dataflow::DataflowGraph;
pub use memory::MemoryRequirements;
