//! One-stop imports for the serving API.
//!
//! Pulls in everything a typical caller of the builder-style serving
//! API touches: the server and its builder, the batching and robustness
//! policies, the request/response vocabulary and the error taxonomy.
//!
//! ```
//! use nsflow_serve::prelude::*;
//!
//! let server = Server::builder()
//!     .batch(BatchPolicy { max_batch: 4, max_wait: 500 })
//!     .build()
//!     .expect("valid configuration");
//! let id = server
//!     .submit_with(
//!         WorkloadKind::Nvsa,
//!         7,
//!         SubmitOptions {
//!             deadline: Some(5_000_000), // 5 s budget, in µs ticks
//!             ..SubmitOptions::default()
//!         },
//!     )
//!     .expect("admitted");
//! let report = server.shutdown();
//! assert_eq!(report.responses[0].id, id);
//! ```

pub use crate::batcher::{Batch, BatchPolicy};
pub use crate::builder::ServerBuilder;
pub use crate::core::ServeReport;
pub use crate::error::ConfigError;
pub use crate::executor::{Executor, ExecutorConfig};
pub use crate::request::{AdmissionError, Request, Response, SubmitOptions, WorkloadKind};
pub use crate::robust::{FaultPlan, RetryPolicy};
pub use crate::server::Server;
pub use nsflow_telemetry::trace::ShedReason;
