//! The serving core: one request lifecycle, driven by two runtimes.
//!
//! `ServeCore` owns what happens to a request between arrival and
//! answer, once, without reading a clock: the admission gates
//! (`ServeCore::admit`), batch formation (`ServeCore::form`), the
//! attempt loop — expiry drops, [`FaultPlan`] rolls, retry or failure
//! with backoff, completion — (`ServeCore::run_batch`), and one event
//! sink that writes the flight recorder, the run's [`ServeStats`] and
//! the `serve.*` telemetry.
//!
//! A `Driver` supplies what differs between runtimes: the current
//! tick, letting ticks pass, and executing a batch. The threaded
//! [`Server`](crate::server::Server) supplies wall microseconds, sleeps
//! and real inference; [`simlab`](crate::simlab) supplies a lane's
//! virtual cycles and its cost model.
//!
//! The mutable state sits behind one mutex, taken at most once per
//! admission and once per attempt boundary, and never held while
//! executing, waiting or recording: an attempt counts its events into a
//! local tally that the boundary commits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use nsflow_telemetry::trace::{
    FlightRecorder, PhaseBreakdown, RequestEvent, ShedReason, TraceSnapshot,
};
use nsflow_telemetry::{counter, histogram};

use crate::batcher::Batch;
use crate::error::ConfigError;
use crate::request::{AdmissionError, FailedRequest, Request, Response, NO_DEADLINE};
use crate::robust::{Fault, FaultPlan, RetryPolicy};

/// Counters accumulated over a run.
///
/// Once a run has drained, every admitted request ended exactly one
/// way: `completed + failed + expired == submitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests refused at admission (queue full or infeasible
    /// deadline — not shutdown refusals).
    pub shed: u64,
    /// Requests executed to completion.
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batch-member retries after injected exec errors.
    pub retries: u64,
    /// Faults injected by the [`FaultPlan`] (all three kinds).
    pub faults_injected: u64,
    /// Requests shed for a missed or infeasible deadline: refused at
    /// admission, or [`expired`](ServeStats::expired).
    pub deadline_shed: u64,
    /// Admitted requests dropped before execution because their
    /// deadline passed.
    pub expired: u64,
    /// Requests that exhausted their retry budget and failed.
    pub failed: u64,
}

impl ServeStats {
    /// Counts one lifecycle event (admission refusals add to
    /// [`ServeStats::shed`] in [`ServeCore::admit`], the only place
    /// they happen).
    fn count(&mut self, event: RequestEvent) {
        match event {
            RequestEvent::Admitted => self.submitted += 1,
            RequestEvent::Responded => self.completed += 1,
            RequestEvent::Retried { .. } => self.retries += 1,
            RequestEvent::Failed { .. } => self.failed += 1,
            RequestEvent::Shed {
                reason: ShedReason::DeadlineExceeded,
            } => self.deadline_shed += 1,
            _ => {}
        }
    }

    /// Adds an attempt's tally.
    fn absorb(&mut self, tally: &ServeStats) {
        self.submitted += tally.submitted;
        self.shed += tally.shed;
        self.completed += tally.completed;
        self.batches += tally.batches;
        self.retries += tally.retries;
        self.faults_injected += tally.faults_injected;
        self.deadline_shed += tally.deadline_shed;
        self.expired += tally.expired;
        self.failed += tally.failed;
    }
}

/// Everything a finished run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// All completed responses, sorted by request id.
    pub responses: Vec<Response>,
    /// Requests that were admitted but exhausted their retry budget,
    /// sorted by request id.
    pub failed: Vec<FailedRequest>,
    /// Lifetime counters.
    pub stats: ServeStats,
    /// Flight-recorder snapshot: the last `trace_capacity` lifecycle
    /// events, exportable as a Chrome trace via
    /// [`TraceSnapshot::to_chrome_trace`]. Empty when tracing is
    /// disabled (capacity 0).
    pub trace: TraceSnapshot,
    /// Queue-wait / batch-wait / exec latency breakdown in ticks,
    /// derived from the traced lifecycles.
    pub phases: PhaseBreakdown,
    /// Tick at which the last batch that answered requests completed (0
    /// when none did). Unlike a response's arrival plus its latency, it
    /// never saturates.
    pub(crate) last_completion: u64,
}

/// What a runtime supplies to [`ServeCore::run_batch`].
pub(crate) trait Driver {
    /// The current tick.
    fn now(&self) -> u64;
    /// Lets `ticks` pass (backoff, stall, latency spike).
    fn wait(&mut self, ticks: u64);
    /// Executes `members` as one batch; returns their answers in order.
    fn execute(&mut self, members: &[Request]) -> Vec<u64>;
}

/// The policies a core runs under.
pub(crate) struct CoreConfig {
    pub retry: RetryPolicy,
    pub faults: FaultPlan,
    pub trace_capacity: usize,
}

/// Mutable state shared by admission and the attempt loop.
struct State {
    stats: ServeStats,
    responses: Vec<Response>,
    failed: Vec<FailedRequest>,
    /// See [`ServeReport::last_completion`].
    last_completion: u64,
}

/// The clock-agnostic request lifecycle. See the [module docs](self).
pub(crate) struct ServeCore {
    retry: RetryPolicy,
    faults: FaultPlan,
    recorder: FlightRecorder,
    next_batch: AtomicU64,
    state: Mutex<State>,
}

impl ServeCore {
    /// Fails when the flight-recorder ring cannot be allocated.
    pub fn new(config: CoreConfig) -> Result<Self, ConfigError> {
        let recorder = FlightRecorder::new(config.trace_capacity).map_err(
            ConfigError::too_large("trace_capacity", config.trace_capacity),
        )?;
        Ok(ServeCore {
            retry: config.retry,
            faults: config.faults,
            recorder,
            next_batch: AtomicU64::new(0),
            state: Mutex::new(State {
                stats: ServeStats::default(),
                responses: Vec::new(),
                failed: Vec::new(),
                last_completion: 0,
            }),
        })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("serve state poisoned")
    }

    /// The retry policy (its `max_attempts` is the default budget).
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Admits `request` at its arrival tick, or sheds it. The gates run
    /// cheapest first: a deadline that passes before `min_cost` ticks of
    /// execution could finish, then `enqueue` — the runtime's capacity
    /// check, which queues the request on success.
    ///
    /// # Errors
    ///
    /// The [`AdmissionError`] of the first gate that refused.
    pub fn admit(
        &self,
        request: &Request,
        min_cost: u64,
        enqueue: impl FnOnce() -> Result<(), AdmissionError>,
    ) -> Result<(), AdmissionError> {
        let (now, deadline) = (request.arrival, request.deadline);
        let infeasible =
            deadline != NO_DEADLINE && (deadline <= now || now.saturating_add(min_cost) > deadline);
        // Count under the lock, record after it (see `emit`).
        let (verdict, event, refused) = {
            let mut state = self.state();
            let verdict = if infeasible {
                Err(AdmissionError::DeadlineInfeasible { deadline, now })
            } else {
                enqueue()
            };
            let event = verdict.map_or_else(
                |err| RequestEvent::Shed {
                    reason: err.shed_reason(),
                },
                |()| RequestEvent::Admitted,
            );
            // A draining server's refusals are not load shedding.
            let refused = verdict.is_err_and(|err| err != AdmissionError::ShuttingDown);
            state.stats.count(event);
            state.stats.shed += u64::from(refused);
            (verdict, event, refused)
        };
        if refused {
            counter!("serve.shed").incr();
        }
        self.record(request.id, now, event);
        if verdict.is_ok() {
            self.record(request.id, now, RequestEvent::Enqueued);
        }
        verdict
    }

    /// Gives a batch leaving the batcher its id and records one
    /// `BatchFormed` event per member.
    pub fn form(&self, batch: Batch) -> (u64, Batch) {
        let id = self.next_batch.fetch_add(1, Ordering::Relaxed);
        let size = batch.len() as u32;
        for request in &batch.requests {
            let event = RequestEvent::BatchFormed { batch_id: id, size };
            self.record(request.id, batch.formed_at, event);
            histogram!("serve.queue_wait_ticks")
                .record(batch.formed_at.saturating_sub(request.arrival));
        }
        (id, batch)
    }

    /// Runs the attempts of batch `batch_id` (from [`ServeCore::form`])
    /// on `worker` until every member has completed, failed or expired.
    pub fn run_batch(&self, batch_id: u64, batch: Batch, worker: u32, driver: &mut impl Driver) {
        let (mut members, formed_at) = (batch.requests, batch.formed_at);
        let mut attempt: u32 = 1;
        loop {
            let mut tally = ServeStats::default();
            // Drop members whose deadline passed while they queued,
            // batched or backed off — before spending any execution.
            let now = driver.now();
            members.retain(|request| {
                if !request.expired(now) {
                    return true;
                }
                tally.expired += 1;
                let reason = ShedReason::DeadlineExceeded;
                self.emit(&mut tally, request.id, now, RequestEvent::Shed { reason });
                false
            });
            if members.is_empty() {
                self.state().stats.absorb(&tally);
                return;
            }

            let fault = self.faults.roll(batch_id, attempt);
            if fault.is_some() {
                tally.faults_injected += 1;
                counter!("serve.faults_injected").incr();
            }
            if fault == Some(Fault::ExecError) {
                // Fail fast: nothing executed. Members with budget left
                // retry after a deterministic backoff; the rest fail.
                let now = driver.now();
                let mut failed = Vec::new();
                members.retain(|request| {
                    let retry = request.attempts_allowed > attempt;
                    let event = if retry {
                        RequestEvent::Retried { attempt }
                    } else {
                        failed.push(FailedRequest {
                            id: request.id,
                            kind: request.kind,
                            attempts: attempt,
                        });
                        RequestEvent::Failed { attempts: attempt }
                    };
                    self.emit(&mut tally, request.id, now, event);
                    retry
                });
                {
                    let mut state = self.state();
                    state.stats.absorb(&tally);
                    state.failed.extend(failed);
                }
                if members.is_empty() {
                    return; // every member exhausted its budget
                }
                // Backoff timing comes from the core-wide policy (a
                // per-request override changes only the attempt budget).
                driver.wait(self.retry.backoff(attempt, batch_id));
                attempt += 1;
                continue;
            }

            if let Some(Fault::WorkerStall { stall }) = fault {
                driver.wait(stall); // a hung lane: the batch starts late
            }
            // Record the start before executing, so a live trace shows
            // the batch while it runs.
            let exec_start = driver.now();
            for request in &members {
                let event = RequestEvent::ExecStart { worker };
                self.emit(&mut tally, request.id, exec_start, event);
            }
            let answers = driver.execute(&members);
            if let Some(Fault::LatencySpike { extra }) = fault {
                driver.wait(extra); // a slow batch: correct, but late
            }
            let done = driver.now();
            let exec = done.saturating_sub(exec_start);
            histogram!("serve.batch_size").record(members.len() as u64);
            if attempt == 1 {
                histogram!("serve.batch_wait_ticks").record(exec_start.saturating_sub(formed_at));
            }
            histogram!("serve.exec_ticks").record(exec);
            tally.batches += 1;
            let batch_size = u16::try_from(members.len())
                .expect("max_batch is at most u16::MAX (checked when the server is built)");
            let responses: Vec<Response> = members
                .iter()
                .zip(answers)
                .map(|(request, answer)| {
                    for event in [RequestEvent::ExecEnd { worker }, RequestEvent::Responded] {
                        self.emit(&mut tally, request.id, done, event);
                    }
                    histogram!("serve.latency_ticks").record(done.saturating_sub(request.arrival));
                    Response::new(request, answer, batch_size, done)
                })
                .collect();
            let mut state = self.state();
            state.stats.absorb(&tally);
            state.responses.extend(responses);
            state.last_completion = state.last_completion.max(done);
            return;
        }
    }

    /// The one event sink: the flight recorder, the run's counters and
    /// the telemetry counter. Counts go to `tally`, which the caller
    /// commits under the state lock; admission, which already holds
    /// that lock, counts and records on either side of it.
    fn emit(&self, tally: &mut ServeStats, id: u64, ts: u64, event: RequestEvent) {
        tally.count(event);
        self.record(id, ts, event);
    }

    /// Writes one event to the flight recorder and its `serve.*`
    /// telemetry counter.
    fn record(&self, id: u64, ts: u64, event: RequestEvent) {
        self.recorder.record(id, ts, event);
        match event {
            RequestEvent::Admitted => counter!("serve.submitted").incr(),
            RequestEvent::Responded => counter!("serve.completed").incr(),
            RequestEvent::Retried { .. } => counter!("serve.retries").incr(),
            RequestEvent::Failed { .. } => counter!("serve.failed").incr(),
            RequestEvent::Shed { reason } => match reason {
                ShedReason::QueueFull => counter!("serve.shed.queue_full").incr(),
                ShedReason::Shutdown => counter!("serve.shed.shutdown").incr(),
                ShedReason::DeadlineExceeded => {
                    counter!("serve.deadline_shed").incr();
                    counter!("serve.shed.deadline_exceeded").incr();
                }
            },
            _ => {}
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServeStats {
        self.state().stats
    }

    /// Takes the results gathered so far into a report.
    pub fn report(&self) -> ServeReport {
        let (mut responses, mut failed, stats, last_completion) = {
            let mut state = self.state();
            (
                std::mem::take(&mut state.responses),
                std::mem::take(&mut state.failed),
                state.stats,
                state.last_completion,
            )
        };
        // Ids are unique, so the in-place unstable sort gives the stable
        // order without the stable sort's scratch copy of every response.
        responses.sort_unstable_by_key(|r| r.id);
        failed.sort_unstable_by_key(|f| f.id);
        let trace = self.recorder.snapshot();
        let phases = trace.phases();
        ServeReport {
            responses,
            failed,
            stats,
            trace,
            phases,
            last_completion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkloadKind;

    /// Executes at a fixed tick and checks, while the batch runs, that
    /// the core's flight recorder already holds every member's
    /// `ExecStart`.
    struct InspectingDriver<'a> {
        core: &'a ServeCore,
        executed: usize,
    }

    impl Driver for InspectingDriver<'_> {
        fn now(&self) -> u64 {
            10
        }

        fn wait(&mut self, _ticks: u64) {}

        fn execute(&mut self, members: &[Request]) -> Vec<u64> {
            let records = self.core.recorder.snapshot().records;
            for request in members {
                assert!(
                    records.iter().any(|r| r.trace_id == request.id
                        && r.event == RequestEvent::ExecStart { worker: 3 }),
                    "request {} has no ExecStart while its batch runs",
                    request.id
                );
            }
            self.executed += 1;
            vec![0; members.len()]
        }
    }

    #[test]
    fn exec_start_is_recorded_before_the_batch_executes() {
        let core = ServeCore::new(CoreConfig {
            retry: RetryPolicy::default(),
            faults: FaultPlan::default(),
            trace_capacity: 64,
        })
        .unwrap();
        let requests: Vec<Request> = (0..3)
            .map(|id| Request::new(id, WorkloadKind::Nvsa, id, 0))
            .collect();
        let (id, batch) = core.form(Batch {
            requests,
            formed_at: 0,
        });
        let mut driver = InspectingDriver {
            core: &core,
            executed: 0,
        };
        core.run_batch(id, batch, 3, &mut driver);
        assert_eq!(driver.executed, 1);
        assert_eq!(core.stats().completed, 3);
    }
}
