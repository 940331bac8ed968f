//! # nsflow
//!
//! Full-system Rust reproduction of **NSFlow** (DAC 2025): an end-to-end
//! design-automation framework with a scalable dataflow architecture for
//! neuro-symbolic AI acceleration.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `nsflow-tensor` | mixed-precision numerics, seeded RNG, batch fan-out |
//! | [`vsa`] | `nsflow-vsa` | block codes, circular-convolution binding, resonators, GEMM kernels |
//! | [`trace`] | `nsflow-trace` | execution-trace IR + FX-style parser |
//! | [`graph`] | `nsflow-graph` | dataflow-graph generation (critical path, parallelism, memory) |
//! | [`arch`] | `nsflow-arch` | AdArray + SIMD + memory hardware template, analytical models, microsim |
//! | [`sim`] | `nsflow-sim` | cycle-level scheduler + baseline device models + roofline |
//! | [`dse`] | `nsflow-dse` | two-phase design-space exploration (Algorithm 1) |
//! | [`fpga`] | `nsflow-fpga` | device catalog, resource model, config/host-schedule emission |
//! | [`workloads`] | `nsflow-workloads` | NVSA/MIMONet/LVRF/PrAE models + synthetic RPM reasoning |
//! | [`core`] | `nsflow-core` | the end-to-end compile → deploy → run pipeline |
//! | [`serve`] | `nsflow-serve` | batched concurrent serving: admission queue, dynamic batcher, worker pool |
//!
//! # Quickstart
//!
//! ```
//! use nsflow::core::NsFlow;
//! use nsflow::workloads::traces;
//!
//! let workload = traces::mimonet();
//! let design = NsFlow::new().compile(workload.trace)?;
//! let report = design.deploy().run();
//! println!("{} runs in {:.3} ms", "MIMONet", report.seconds * 1e3);
//! # Ok::<(), nsflow::core::CompileError>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nsflow_arch as arch;
pub use nsflow_core as core;
pub use nsflow_dse as dse;
pub use nsflow_fpga as fpga;
pub use nsflow_graph as graph;
pub use nsflow_serve as serve;
pub use nsflow_sim as sim;
pub use nsflow_telemetry as telemetry;
pub use nsflow_tensor as tensor;
pub use nsflow_trace as trace;
pub use nsflow_vsa as vsa;
pub use nsflow_workloads as workloads;
