//! Configuration errors of the serving runtime.
//!
//! [`ConfigError`] names an invalid builder configuration, caught at
//! [`build`](crate::builder::ServerBuilder::build) time before any
//! thread spawns. A refused request is an
//! [`AdmissionError`](crate::request::AdmissionError), which both
//! [`Server::submit`](crate::server::Server::submit) and
//! [`Server::submit_with`](crate::server::Server::submit_with) return.

use std::collections::TryReserveError;
use std::fmt;

/// A builder configuration the server refuses to start with.
///
/// Returned by [`ServerBuilder::build`](crate::builder::ServerBuilder::build);
/// every variant names the exact field and bound that was violated.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `queue_capacity == 0`: nothing could ever be admitted.
    ZeroQueueCapacity,
    /// `BatchPolicy::max_batch == 0`: no batch could ever form.
    ZeroMaxBatch,
    /// `workers == 0`: no thread would ever drain the queue.
    ZeroWorkers,
    /// More than 256 workers:
    /// each is an OS thread, started before the server returns.
    TooManyWorkers {
        /// Configured worker count.
        workers: usize,
        /// The bound it exceeds.
        max: usize,
    },
    /// The OS refused to start worker thread `worker`. The workers
    /// already started were stopped and joined before this returned.
    WorkerSpawn {
        /// Index of the worker that did not start.
        worker: usize,
        /// The OS error.
        reason: String,
    },
    /// `RetryPolicy::max_attempts == 0`: every request would fail
    /// before its first execution.
    ZeroRetryAttempts,
    /// The default deadline is shorter than one batch window, so every
    /// deadline-carrying request would be shed at admission.
    DeadlineShorterThanBatchWindow {
        /// Configured default deadline budget (ticks).
        deadline: u64,
        /// The batch policy's `max_wait` (ticks).
        max_wait: u64,
    },
    /// A fault-plan probability field is out of range (each permille
    /// must be ≤ 1000 and the three must sum to ≤ 1000).
    FaultRateOutOfRange {
        /// Sum of the plan's permille fields.
        total_permille: u64,
    },
    /// A textual fault-plan spec (`--fault-plan`) did not parse.
    FaultSpec(String),
    /// `ExecutorConfig::block_dim == 0`: every workload code would be
    /// empty.
    ZeroBlockDim,
    /// `ExecutorConfig::superposition` is 0 or exceeds the items in
    /// MIMONet's item memory, which a request bundles distinct items
    /// from.
    SuperpositionOutOfRange {
        /// Configured superposition width.
        superposition: usize,
        /// Items in MIMONet's item memory.
        items: usize,
    },
    /// A capacity the server cannot hold: up-front storage that could
    /// not be allocated, or a `max_batch` above `u16::MAX` (a response
    /// records its batch size in 16 bits).
    CapacityTooLarge {
        /// The builder field (`queue_capacity`, `max_batch` or
        /// `trace_capacity`).
        field: &'static str,
        /// The configured capacity.
        capacity: usize,
    },
}

impl ConfigError {
    /// Maps a failed up-front reservation for `field` to
    /// [`ConfigError::CapacityTooLarge`].
    pub(crate) fn too_large(
        field: &'static str,
        capacity: usize,
    ) -> impl FnOnce(TryReserveError) -> ConfigError {
        move |_| ConfigError::CapacityTooLarge { field, capacity }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be >= 1 (0 admits nothing)")
            }
            ConfigError::ZeroMaxBatch => write!(f, "max_batch must be >= 1 (0 never batches)"),
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1 (0 never executes)"),
            ConfigError::TooManyWorkers { workers, max } => write!(
                f,
                "workers {workers} exceeds the maximum of {max} (one OS thread each)"
            ),
            ConfigError::WorkerSpawn { worker, reason } => {
                write!(f, "could not start worker thread {worker}: {reason}")
            }
            ConfigError::ZeroRetryAttempts => {
                write!(f, "retry max_attempts must be >= 1 (0 never executes)")
            }
            ConfigError::DeadlineShorterThanBatchWindow { deadline, max_wait } => write!(
                f,
                "default deadline {deadline} ticks is shorter than one batch window \
                 (max_wait {max_wait} ticks): every request would be shed at admission"
            ),
            ConfigError::FaultRateOutOfRange { total_permille } => write!(
                f,
                "fault plan rates sum to {total_permille} permille, exceeding 1000"
            ),
            ConfigError::FaultSpec(spec) => write!(f, "unparseable fault plan spec: {spec}"),
            ConfigError::ZeroBlockDim => {
                write!(
                    f,
                    "executor block_dim must be >= 1 (0 leaves every code empty)"
                )
            }
            ConfigError::SuperpositionOutOfRange {
                superposition,
                items,
            } => write!(
                f,
                "executor superposition {superposition} must be in 1..={items} \
                 (MIMONet bundles distinct items from its {items}-item memory)"
            ),
            ConfigError::CapacityTooLarge { field, capacity } => {
                write!(f, "{field} {capacity} is too large for the server to hold")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_errors_render_their_bounds() {
        let msg = ConfigError::DeadlineShorterThanBatchWindow {
            deadline: 5,
            max_wait: 100,
        }
        .to_string();
        assert!(msg.contains('5') && msg.contains("100"));
    }
}
