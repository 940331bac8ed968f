//! # nsflow-serve
//!
//! Batched concurrent serving runtime for the NSFlow workloads: a
//! multi-producer bounded [`queue`] with shed-on-full admission control
//! feeds a dynamic [`batcher`] (flush on batch size or deadline), whose
//! batches a worker pool executes through the functional workload
//! pipelines ([`executor`]). Per-request latency histograms and
//! queue-depth gauges flow into `nsflow-telemetry`.
//!
//! Servers are configured through the validated [`ServerBuilder`] API and
//! carry an optional robustness layer ([`robust`]): per-request
//! **deadlines** enforced at admission and again before execution,
//! bounded **retries** with deterministic backoff and seeded
//! **fault injection** for chaos testing. Every policy defaults to
//! inert.
//!
//! One serving core (the crate-private `core` module) owns the request
//! lifecycle: the admission gates, batch formation, the attempt loop
//! (deadline drops, fault rolls, retries) and the
//! one bookkeeping sink that feeds the flight recorder, [`ServeStats`]
//! and the `serve.*` telemetry. Two drivers run it:
//!
//! - [`server::Server`] — real threads; a tick is a wall microsecond;
//!   waiting is a sleep and execution is real inference; graceful
//!   drain on shutdown. What `nsflow serve` runs.
//! - [`simlab`] — a discrete-event simulation; a tick is a virtual
//!   cycle and execution costs come from a cost model calibrated by the
//!   cycle-level simulator. Bit-deterministic given a seed — including
//!   chaos runs, because fault draws hash only `(seed, batch id,
//!   attempt)` — and the source of the CI-gated `BENCH_serve.json`
//!   metrics.
//!
//! Both record the same counters (`serve.submitted`, `serve.shed.*`,
//! `serve.retries`, …) and the same histograms
//! (`serve.{queue_wait,batch_wait,exec,latency}_ticks`,
//! `serve.batch_size`), in their own tick unit. The split exists
//! because serving metrics worth gating must be reproducible:
//! wall-clock latency on a shared CI runner is noise, but virtual-time
//! latency under a seeded arrival process is a constant.
//!
//! # Examples
//!
//! ```
//! use nsflow_serve::prelude::*;
//!
//! let server = Server::builder()
//!     .queue_capacity(16)
//!     .deadline_default(5_000_000) // 5 s budget, in µs ticks
//!     .retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() })
//!     .build()
//!     .expect("valid configuration");
//! for seed in 0..4 {
//!     server.submit(WorkloadKind::Lvrf, seed).expect("queue has room");
//! }
//! let report = server.shutdown(); // graceful drain
//! assert_eq!(report.responses.len(), 4);
//! assert!(report.failed.is_empty(), "no faults were injected");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
mod builder;
mod clock;
mod core;
mod error;
pub mod executor;
mod metrics;
pub mod prelude;
pub mod queue;
pub mod request;
pub mod robust;
pub mod server;
pub mod simlab;

pub use crate::core::{ServeReport, ServeStats};
pub use batcher::{Batch, BatchPolicy, Batcher};
pub use builder::ServerBuilder;
pub use error::ConfigError;
pub use executor::{Executor, ExecutorConfig};
pub use metrics::MetricsExporter;
pub use request::{AdmissionError, FailedRequest, Request, Response, SubmitOptions, WorkloadKind};
pub use robust::{FaultPlan, RetryPolicy};
pub use server::Server;
// Lifecycle-tracing vocabulary shared with `nsflow-telemetry`: the
// serving core records these typed events and shed reasons.
pub use nsflow_telemetry::trace::{
    FlightRecorder, PhaseBreakdown, PhaseStats, RequestEvent, ShedReason, TraceSnapshot,
};
