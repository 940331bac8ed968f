//! Request/response types for the serving runtime.

use std::fmt;

use crate::robust::RetryPolicy;

/// Which NSFlow workload an inference request targets.
///
/// Each maps onto one of the paper's four evaluated neuro-symbolic
/// workloads and is executed functionally through `nsflow-workloads`
/// (see [`crate::executor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// NVSA-style RPM reasoning (dense block codes, resonator
    /// factorization).
    Nvsa,
    /// MIMONet-style computation-in-superposition retrieval.
    Mimonet,
    /// LVRF-style reasoning over sparse block codes.
    Lvrf,
    /// PrAE-style RPM reasoning (PGM-difficulty configuration).
    Prae,
}

impl WorkloadKind {
    /// All kinds in the paper's Tab. II order.
    #[must_use]
    pub const fn all() -> [WorkloadKind; 4] {
        [
            WorkloadKind::Nvsa,
            WorkloadKind::Mimonet,
            WorkloadKind::Lvrf,
            WorkloadKind::Prae,
        ]
    }

    /// Index into [`WorkloadKind::all`]-ordered tables (cost models).
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            WorkloadKind::Nvsa => 0,
            WorkloadKind::Mimonet => 1,
            WorkloadKind::Lvrf => 2,
            WorkloadKind::Prae => 3,
        }
    }

    /// Lower-case name, matching `nsflow_workloads::traces::by_name`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Nvsa => "nvsa",
            WorkloadKind::Mimonet => "mimonet",
            WorkloadKind::Lvrf => "lvrf",
            WorkloadKind::Prae => "prae",
        }
    }

    /// Parses a case-insensitive workload name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<WorkloadKind> {
        match name.to_ascii_lowercase().as_str() {
            "nvsa" => Some(WorkloadKind::Nvsa),
            "mimonet" => Some(WorkloadKind::Mimonet),
            "lvrf" => Some(WorkloadKind::Lvrf),
            "prae" => Some(WorkloadKind::Prae),
            _ => None,
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A request's deadline field value meaning "no deadline".
pub(crate) const NO_DEADLINE: u64 = u64::MAX;

/// One inference request.
///
/// `seed` fully determines the request's task *and* its answer: the
/// executor derives every random draw (task generation, perception
/// noise) from it, so results are independent of batch composition,
/// worker count, and arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Server-assigned id, unique within a server/sim run.
    pub id: u64,
    /// Target workload.
    pub kind: WorkloadKind,
    /// Per-request RNG seed (determines task and answer).
    pub seed: u64,
    /// Tick at which the request was admitted to the queue.
    pub arrival: u64,
    /// Absolute tick the response must be produced by
    /// (`u64::MAX` = none). Enforced at admission (shed if
    /// infeasible) and again before execution (drop if expired).
    pub deadline: u64,
    /// Execution attempts this request may consume before it fails
    /// permanently (≥ 1; from the server's [`RetryPolicy`] or a
    /// per-request override).
    pub attempts_allowed: u32,
}

impl Request {
    /// A request with no deadline and a single allowed attempt.
    #[must_use]
    pub fn new(id: u64, kind: WorkloadKind, seed: u64, arrival: u64) -> Request {
        Request {
            id,
            kind,
            seed,
            arrival,
            deadline: NO_DEADLINE,
            attempts_allowed: 1,
        }
    }

    /// True once the deadline has passed at tick `now`.
    #[must_use]
    pub fn expired(&self, now: u64) -> bool {
        now > self.deadline
    }
}

/// Per-request submission options for
/// [`Server::submit_with`](crate::server::Server::submit_with).
///
/// The default is exactly [`Server::submit`](crate::server::Server::submit)'s
/// behavior: the server's default deadline and retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// Deadline *budget* in ticks from admission (`None` = the
    /// server's default).
    pub deadline: Option<u64>,
    /// Retry policy override for this request (`None` = the server's).
    pub retry_override: Option<RetryPolicy>,
}

/// A completed inference.
///
/// The serving core keeps every response until shutdown, so a response
/// holds only what a client reads back, in 24 bytes: the batch size in
/// 16 bits (the builder caps `max_batch` at `u16::MAX`) and the latency
/// in 32, saturating. The exact admission and completion ticks of each
/// request are in the flight recorder (its `Admitted` and `Responded`
/// events).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Id of the originating [`Request`].
    pub id: u64,
    /// Workload that produced the answer.
    pub kind: WorkloadKind,
    /// Workload-specific scalar answer: the chosen candidate index for
    /// the RPM workloads (NVSA/LVRF/PrAE), and the retrieval-accuracy
    /// permille (0..=1000) for MIMONet.
    pub answer: u64,
    /// Size of the batch the request was executed in.
    batch_size: u16,
    /// Ticks from admission until the request's batch completed,
    /// saturated at `u32::MAX`.
    latency: u32,
}

impl Response {
    /// The response to `request`, answered `answer` by a batch of
    /// `batch_size` that completed at tick `completed`.
    pub(crate) fn new(request: &Request, answer: u64, batch_size: u16, completed: u64) -> Self {
        let latency = completed.saturating_sub(request.arrival);
        Response {
            id: request.id,
            kind: request.kind,
            answer,
            batch_size,
            latency: u32::try_from(latency).unwrap_or(u32::MAX),
        }
    }

    /// Size of the batch the request was executed in.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        usize::from(self.batch_size)
    }

    /// Queue + batching + execution latency in ticks, saturated at
    /// `u32::MAX` (over an hour of wall microseconds).
    #[must_use]
    pub fn latency(&self) -> u64 {
        u64::from(self.latency)
    }
}

/// A request that was admitted but never produced a response: its
/// batch kept hitting injected faults until the retry budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedRequest {
    /// Id of the originating [`Request`].
    pub id: u64,
    /// Workload the request targeted.
    pub kind: WorkloadKind,
    /// Execution attempts consumed before giving up.
    pub attempts: u32,
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is at capacity — the request was shed.
    /// Back off and retry later.
    QueueFull {
        /// Configured queue capacity that was hit.
        capacity: usize,
    },
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The requested deadline cannot be met even by an empty server
    /// (it is shorter than one batch window), so the request was shed
    /// immediately instead of wasting queue space.
    DeadlineInfeasible {
        /// The absolute deadline the request asked for.
        deadline: u64,
        /// The admission tick.
        now: u64,
    },
}

impl AdmissionError {
    /// The [`ShedReason`](nsflow_telemetry::trace::ShedReason) recorded
    /// in trace events and `serve.shed.*` counters for this error —
    /// the single mapping both the threaded server and the simulator
    /// use.
    #[must_use]
    pub(crate) fn shed_reason(&self) -> nsflow_telemetry::trace::ShedReason {
        use nsflow_telemetry::trace::ShedReason;
        match self {
            AdmissionError::QueueFull { .. } => ShedReason::QueueFull,
            AdmissionError::ShuttingDown => ShedReason::Shutdown,
            AdmissionError::DeadlineInfeasible { .. } => ShedReason::DeadlineExceeded,
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity}): request shed")
            }
            AdmissionError::ShuttingDown => write!(f, "server shutting down"),
            AdmissionError::DeadlineInfeasible { deadline, now } => write!(
                f,
                "deadline {deadline} infeasible at admission tick {now}: request shed"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in WorkloadKind::all() {
            assert_eq!(WorkloadKind::by_name(kind.name()), Some(kind));
            assert_eq!(
                WorkloadKind::by_name(&kind.name().to_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(WorkloadKind::by_name("unknown"), None);
        for (i, kind) in WorkloadKind::all().into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn admission_errors_map_to_shared_shed_reasons() {
        use nsflow_telemetry::trace::ShedReason;
        assert_eq!(
            AdmissionError::QueueFull { capacity: 4 }.shed_reason(),
            ShedReason::QueueFull
        );
        assert_eq!(
            AdmissionError::ShuttingDown.shed_reason(),
            ShedReason::Shutdown
        );
        assert_eq!(
            AdmissionError::DeadlineInfeasible {
                deadline: 10,
                now: 20
            }
            .shed_reason(),
            ShedReason::DeadlineExceeded
        );
    }

    #[test]
    fn plain_requests_carry_no_deadline() {
        let r = Request::new(3, WorkloadKind::Prae, 9, 100);
        assert_eq!(r.deadline, NO_DEADLINE);
        assert_eq!(r.attempts_allowed, 1);
        assert!(!r.expired(u64::MAX - 1));
        let with_deadline = Request { deadline: 150, ..r };
        assert!(!with_deadline.expired(150));
        assert!(with_deadline.expired(151));
    }

    #[test]
    fn retained_response_is_twenty_four_bytes() {
        // The serving core keeps every response until shutdown.
        assert_eq!(std::mem::size_of::<Response>(), 24);
    }

    #[test]
    fn latency_saturates() {
        let r = Response::new(&Request::new(0, WorkloadKind::Nvsa, 0, 10), 0, 1, 4);
        assert_eq!(r.latency(), 0);
        // At and past 2^32 ticks the latency saturates instead of
        // wrapping.
        let late =
            |completed| Response::new(&Request::new(0, WorkloadKind::Nvsa, 0, 10), 0, 1, completed);
        let max = u64::from(u32::MAX);
        assert_eq!(late(10 + max).latency(), max);
        assert_eq!(late(10 + max + 1).latency(), max);
        assert_eq!(late(u64::MAX).latency(), max);
        assert_eq!(late(10 + max - 1).latency(), max - 1);
    }
}
