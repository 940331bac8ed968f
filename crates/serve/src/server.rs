//! Threaded serving runtime: bounded queue → dynamic batcher → worker
//! pool → workload execution.
//!
//! Workers run a leader/follower loop: one worker at a time holds the
//! batcher lock and assembles a batch (pulling from the admission queue,
//! sleeping until the flush deadline); the moment a batch forms it
//! releases the lock — the next idle worker becomes the assembler — and
//! executes the batch through the shared [`Executor`].
//!
//! The request lifecycle itself — admission gates, the attempt loop
//! with deadlines, fault injection and retries, and
//! all bookkeeping — is the `ServeCore` that
//! [`crate::simlab`] drives too. This module is only its threaded
//! driver: ticks are wall microseconds (`WallClock`), waiting is
//! `thread::sleep`, and execution is [`Executor::execute_batch`].
//!
//! Construction goes through the validated builder
//! ([`Server::builder`]). Shutdown is a **graceful drain**:
//! [`Server::shutdown`] closes the admission queue (new submissions are
//! refused with [`AdmissionError::ShuttingDown`]) but every
//! already-admitted request — queued or in flight — is executed and
//! appears in the final report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nsflow_telemetry::gauge;

use crate::batcher::Batcher;
use crate::builder::ServerBuilder;
use crate::clock::WallClock;
use crate::core::{CoreConfig, Driver, ServeCore};
use crate::core::{ServeReport, ServeStats};
use crate::error::ConfigError;
use crate::executor::Executor;
use crate::queue::{BoundedQueue, Popped};
use crate::request::{AdmissionError, Request, SubmitOptions, WorkloadKind, NO_DEADLINE};

/// Longest a worker sleeps when the batcher is empty; `close()` wakes
/// it immediately, so this only bounds idle-loop bookkeeping.
const IDLE_WAIT: Duration = Duration::from_millis(50);

struct Shared {
    queue: BoundedQueue<Request>,
    batcher: Mutex<Batcher>,
    executor: Executor,
    clock: WallClock,
    core: ServeCore,
    deadline_default: Option<u64>,
    next_id: AtomicU64,
}

/// The serving runtime. Construct with [`Server::builder`], submit
/// with [`Server::submit`] / [`Server::submit_with`], finish with
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// The validated builder — the way to configure a server. Every
    /// robustness policy defaults to inert.
    #[must_use]
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// Allocates the queue, batcher and flight recorder for an
    /// already-validated builder, then spawns the worker threads. If
    /// the OS refuses one, closes the queue and joins the workers
    /// already started before returning the error.
    pub(crate) fn spawn(spec: ServerBuilder) -> Result<Self, ConfigError> {
        let queue = BoundedQueue::new(spec.queue_capacity).map_err(ConfigError::too_large(
            "queue_capacity",
            spec.queue_capacity,
        ))?;
        let batcher = Batcher::new(spec.policy)
            .map_err(ConfigError::too_large("max_batch", spec.policy.max_batch))?;
        let core = ServeCore::new(CoreConfig {
            retry: spec.retry,
            faults: spec.faults,
            trace_capacity: spec.trace_capacity,
        })?;
        let shared = Arc::new(Shared {
            queue,
            batcher: Mutex::new(batcher),
            executor: Executor::new(spec.executor),
            clock: WallClock::new(),
            core,
            deadline_default: spec.deadline_default,
            next_id: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(spec.workers);
        for i in 0..spec.workers {
            let worker = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("nsflow-serve-{i}"))
                .spawn(move || worker_loop(&worker, i as u32));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(err) => {
                    // Nothing was admitted: the started workers find the
                    // queue closed and empty, and return.
                    shared.queue.close();
                    for handle in workers {
                        handle.join().expect("worker panicked");
                    }
                    return Err(ConfigError::WorkerSpawn {
                        worker: i,
                        reason: err.to_string(),
                    });
                }
            }
        }
        Ok(Server { shared, workers })
    }

    /// Submits one inference request with default options (the
    /// server's default deadline and retry policy).
    /// Returns the assigned request id, or the admission error when
    /// the request was refused.
    ///
    /// # Errors
    ///
    /// Any [`AdmissionError`]: queue full, draining or infeasible
    /// deadline.
    pub fn submit(&self, kind: WorkloadKind, seed: u64) -> Result<u64, AdmissionError> {
        self.submit_with(kind, seed, SubmitOptions::default())
    }

    /// Submits one inference request with explicit per-request options
    /// (deadline budget, retry override).
    ///
    /// # Errors
    ///
    /// The same [`AdmissionError`]s as [`Server::submit`];
    /// [`AdmissionError::DeadlineInfeasible`] when the requested
    /// deadline is already due at admission.
    pub fn submit_with(
        &self,
        kind: WorkloadKind,
        seed: u64,
        options: SubmitOptions,
    ) -> Result<u64, AdmissionError> {
        let shared = &*self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let now = shared.clock.now();
        let budget = options.deadline.or(shared.deadline_default);
        let request = Request {
            deadline: budget.map_or(NO_DEADLINE, |b| now.saturating_add(b)),
            attempts_allowed: options
                .retry_override
                .unwrap_or(shared.core.retry())
                .max_attempts
                .max(1),
            ..Request::new(id, kind, seed, now)
        };
        // The server learns an execution's cost only by running it, so
        // the deadline gate checks only that the deadline is ahead.
        shared
            .core
            .admit(&request, 0, || match shared.queue.try_push(request) {
                Ok(depth) => {
                    gauge!("serve.queue_depth").set(depth as i64);
                    Ok(())
                }
                Err(err) => {
                    if matches!(err, AdmissionError::QueueFull { .. }) {
                        // A shed means the queue sits exactly at capacity.
                        gauge!("serve.queue_depth").set(shared.queue.capacity() as i64);
                    }
                    Err(err)
                }
            })?;
        Ok(id)
    }

    /// Point-in-time counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.core.stats()
    }

    /// Closes admission, drains every queued and in-flight request,
    /// joins the workers and returns the full report.
    #[must_use]
    pub fn shutdown(self) -> ServeReport {
        self.shared.queue.close();
        for worker in self.workers {
            worker.join().expect("worker panicked");
        }
        self.shared.core.report()
    }
}

/// The threaded side of the attempt loop: wall microseconds, real
/// sleeps, real inference.
struct Wall<'a>(&'a Shared);

impl Driver for Wall<'_> {
    fn now(&self) -> u64 {
        self.0.clock.now()
    }

    fn wait(&mut self, ticks: u64) {
        if ticks > 0 {
            std::thread::sleep(Duration::from_micros(ticks));
        }
    }

    fn execute(&mut self, members: &[Request]) -> Vec<u64> {
        self.0.executor.execute_batch(members)
    }
}

fn worker_loop(shared: &Shared, worker: u32) {
    loop {
        // Leader phase: hold the batcher lock, assemble one batch.
        let batch = {
            let mut batcher = shared.batcher.lock().expect("batcher poisoned");
            loop {
                let now = shared.clock.now();
                if let Some(batch) = batcher.poll(now) {
                    break Some(batch); // deadline flush
                }
                let wait = match batcher.next_deadline() {
                    Some(deadline) => Duration::from_micros(deadline.saturating_sub(now).max(1)),
                    None => IDLE_WAIT,
                };
                match shared.queue.pop_wait(wait.min(IDLE_WAIT)) {
                    Popped::Item(request) => {
                        // Popping shrank the queue: keep the depth
                        // gauge honest on the consumer side too.
                        gauge!("serve.queue_depth").set(shared.queue.len() as i64);
                        if let Some(batch) = batcher.offer(request, shared.clock.now()) {
                            break Some(batch); // size flush
                        }
                    }
                    Popped::TimedOut => {} // re-check deadline
                    Popped::Closed => {
                        gauge!("serve.queue_depth").set(0);
                        break batcher.flush(shared.clock.now());
                    }
                }
            }
        };
        // Follower phase: execute outside the lock.
        match batch {
            Some(batch) => {
                let (id, batch) = shared.core.form(batch);
                shared.core.run_batch(id, batch, worker, &mut Wall(shared));
            }
            // Queue closed and batcher empty: drain complete.
            None => return,
        }
    }
}
