//! Validated builder for the serving runtime.
//!
//! [`ServerBuilder`] is the one supported way to configure a
//! [`Server`]: every knob is a chainable method, and
//! [`build`](ServerBuilder::build) validates the whole
//! configuration *before* any thread spawns, returning a
//! [`ConfigError`] naming the exact violated bound instead of panicking
//! mid-flight.
//!
//! ```
//! use nsflow_serve::prelude::*;
//!
//! let server = Server::builder()
//!     .queue_capacity(32)
//!     .batch(BatchPolicy { max_batch: 4, max_wait: 500 })
//!     .workers(2)
//!     .retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() })
//!     .build()
//!     .expect("valid configuration");
//! let report = server.shutdown();
//! assert_eq!(report.stats.submitted, 0);
//! ```

use crate::batcher::BatchPolicy;
use crate::error::ConfigError;
use crate::executor::ExecutorConfig;
use crate::robust::{FaultPlan, RetryPolicy};
use crate::server::Server;

/// Most worker threads a server may be configured with. Each worker is
/// one OS thread started by [`ServerBuilder::build`], so the bound
/// keeps a mistyped count from starting threads until the OS refuses.
pub(crate) const MAX_WORKERS: usize = 256;

/// Chainable configuration for [`Server::builder`].
///
/// Defaults: queue capacity 64, the default [`BatchPolicy`], 2 workers,
/// the default [`ExecutorConfig`], a 4096-event flight recorder, and
/// every robustness policy inert: no default deadline, one
/// execution attempt and no fault injection.
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    pub(crate) queue_capacity: usize,
    pub(crate) policy: BatchPolicy,
    pub(crate) workers: usize,
    pub(crate) executor: ExecutorConfig,
    pub(crate) trace_capacity: usize,
    pub(crate) deadline_default: Option<u64>,
    pub(crate) retry: RetryPolicy,
    pub(crate) faults: FaultPlan,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            queue_capacity: 64,
            policy: BatchPolicy::default(),
            workers: 2,
            executor: ExecutorConfig::default(),
            trace_capacity: 4096,
            deadline_default: None,
            retry: RetryPolicy::default(),
            faults: FaultPlan::default(),
        }
    }
}

impl ServerBuilder {
    /// New builder with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        ServerBuilder::default()
    }

    /// Admission-queue capacity; submissions beyond it are shed.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Batch-formation policy (`max_wait` in wall microseconds).
    #[must_use]
    pub fn batch(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Worker threads executing batches, `1..=256`.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Per-workload execution configuration.
    #[must_use]
    pub fn executor(mut self, executor: ExecutorConfig) -> Self {
        self.executor = executor;
        self
    }

    /// Flight-recorder capacity (lifecycle trace events retained;
    /// ≈ 6 per served request; 0 disables tracing).
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Default deadline *budget* in ticks, applied to every submission
    /// that does not carry its own
    /// [`SubmitOptions::deadline`](crate::request::SubmitOptions).
    #[must_use]
    pub fn deadline_default(mut self, budget: u64) -> Self {
        self.deadline_default = Some(budget);
        self
    }

    /// Retry policy for injected-fault failures.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Fault-injection plan (inert unless set).
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Validates the configuration and starts the worker threads.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the violated bound: zero queue
    /// capacity / `max_batch` / workers, more than 256
    /// workers, a retry policy allowing zero
    /// attempts, a default deadline shorter than one batch window,
    /// fault rates summing past 1000 permille, an executor
    /// `block_dim` of 0 or a `superposition` outside `1..=16`
    /// (MIMONet's item count), a `max_batch` above
    /// `u16::MAX`, or a queue, batch or trace capacity too large to
    /// allocate. [`ConfigError::WorkerSpawn`] when the OS refuses a
    /// worker thread; the workers already started are joined first.
    pub fn build(self) -> Result<Server, ConfigError> {
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.policy.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if self.policy.max_batch > usize::from(u16::MAX) {
            return Err(ConfigError::CapacityTooLarge {
                field: "max_batch",
                capacity: self.policy.max_batch,
            });
        }
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.workers > MAX_WORKERS {
            return Err(ConfigError::TooManyWorkers {
                workers: self.workers,
                max: MAX_WORKERS,
            });
        }
        self.executor.validate()?;
        self.retry.validate()?;
        self.faults.validate()?;
        if let Some(deadline) = self.deadline_default {
            if deadline < self.policy.max_wait {
                return Err(ConfigError::DeadlineShorterThanBatchWindow {
                    deadline,
                    max_wait: self.policy.max_wait,
                });
            }
        }
        Server::spawn(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkloadKind;

    #[test]
    fn build_rejects_degenerate_configurations() {
        assert_eq!(
            ServerBuilder::new().queue_capacity(0).build().err(),
            Some(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            ServerBuilder::new()
                .batch(BatchPolicy {
                    max_batch: 0,
                    max_wait: 100
                })
                .build()
                .err(),
            Some(ConfigError::ZeroMaxBatch)
        );
        assert_eq!(
            ServerBuilder::new().workers(0).build().err(),
            Some(ConfigError::ZeroWorkers)
        );
        for workers in [MAX_WORKERS + 1, usize::MAX] {
            assert_eq!(
                ServerBuilder::new().workers(workers).build().err(),
                Some(ConfigError::TooManyWorkers {
                    workers,
                    max: MAX_WORKERS
                })
            );
        }
        assert_eq!(
            ServerBuilder::new()
                .retry(RetryPolicy {
                    max_attempts: 0,
                    ..RetryPolicy::default()
                })
                .build()
                .err(),
            Some(ConfigError::ZeroRetryAttempts)
        );
        assert_eq!(
            ServerBuilder::new()
                .batch(BatchPolicy {
                    max_batch: 4,
                    max_wait: 1_000
                })
                .deadline_default(500)
                .build()
                .err(),
            Some(ConfigError::DeadlineShorterThanBatchWindow {
                deadline: 500,
                max_wait: 1_000
            })
        );
        assert_eq!(
            ServerBuilder::new()
                .faults(FaultPlan {
                    error_permille: 600,
                    spike_permille: 600,
                    ..FaultPlan::default()
                })
                .build()
                .err(),
            Some(ConfigError::FaultRateOutOfRange {
                total_permille: 1200
            })
        );
    }

    #[test]
    fn build_rejects_executor_configs_a_workload_cannot_run() {
        let with = |executor| ServerBuilder::new().executor(executor).build().err();
        let superposition = |superposition| ExecutorConfig {
            superposition,
            ..ExecutorConfig::serial()
        };
        for width in [0, 17] {
            assert_eq!(
                with(superposition(width)),
                Some(ConfigError::SuperpositionOutOfRange {
                    superposition: width,
                    items: 16
                })
            );
        }
        assert_eq!(
            with(ExecutorConfig {
                block_dim: 0,
                ..ExecutorConfig::serial()
            }),
            Some(ConfigError::ZeroBlockDim)
        );

        // The widest valid superposition still serves.
        let server = ServerBuilder::new()
            .executor(superposition(16))
            .build()
            .expect("superposition 16 fits MIMONet's 16 items");
        server.submit(WorkloadKind::Mimonet, 7).expect("admitted");
        let report = server.shutdown();
        assert_eq!(report.responses.len(), 1);
        assert!(report.responses[0].answer <= 1000);
    }

    #[test]
    fn build_caps_max_batch_at_the_response_batch_field() {
        let policy = |max_batch| BatchPolicy {
            max_batch,
            max_wait: 100,
        };
        let too_wide = usize::from(u16::MAX) + 1;
        assert_eq!(
            ServerBuilder::new().batch(policy(too_wide)).build().err(),
            Some(ConfigError::CapacityTooLarge {
                field: "max_batch",
                capacity: too_wide
            })
        );
        let server = ServerBuilder::new()
            .batch(policy(usize::from(u16::MAX)))
            .build()
            .expect("u16::MAX fits a response's batch size");
        assert_eq!(server.shutdown().stats.submitted, 0);
    }

    #[test]
    fn build_rejects_capacities_too_large_to_allocate() {
        let too_large = |field| {
            Some(ConfigError::CapacityTooLarge {
                field,
                capacity: usize::MAX,
            })
        };
        assert_eq!(
            ServerBuilder::new()
                .queue_capacity(usize::MAX)
                .build()
                .err(),
            too_large("queue_capacity")
        );
        let policy = BatchPolicy {
            max_batch: usize::MAX,
            max_wait: 100,
        };
        assert_eq!(
            ServerBuilder::new().batch(policy).build().err(),
            too_large("max_batch")
        );
        assert_eq!(
            ServerBuilder::new()
                .trace_capacity(usize::MAX)
                .build()
                .err(),
            too_large("trace_capacity")
        );
    }
}
