//! Per-request lifecycle tracing: typed events, a bounded
//! flight-recorder ring buffer, and a Chrome Trace Event Format
//! exporter.
//!
//! Aggregate metrics (the [`crate::Registry`]) answer *how much*; this
//! module answers *what happened to request N*. Every serving request
//! carries a trace id and accumulates [`RequestEvent`]s with monotonic
//! tick timestamps; the [`FlightRecorder`] keeps the most recent events
//! in a fixed-capacity ring so a snapshot taken at any moment — after a
//! latency spike, a shed burst, a stalled batch — reconstructs the last
//! N request lifecycles without unbounded memory.
//!
//! Timestamps are abstract **ticks** supplied by the caller: the
//! threaded server records wall microseconds, the virtual-time
//! simulator records cycles. In the simulator's virtual time the
//! recorded stream (and therefore the exported Chrome trace) is
//! bit-reproducible given a seed.
//!
//! Design constraints, in order:
//!
//! - **Bounded.** The ring never grows past its configured capacity;
//!   old records are overwritten, with the overwrite count reported in
//!   [`TraceSnapshot::dropped`].
//! - **Allocation-free on the hot path.** [`FlightRecorder::record`]
//!   writes one `Copy` record into a preallocated slot. The buffer is
//!   sharded by global sequence number (round-robin), so concurrent
//!   recorders contend on one relaxed atomic and a 1/`SHARDS` chance of
//!   the same short mutex.

use std::collections::{BTreeMap, TryReserveError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::chrome::ChromeTrace;
use crate::json::JsonValue;

/// Why a request was refused at admission.
///
/// Shared by the threaded server and the virtual-time simulator so
/// trace events and `serve.shed.*` telemetry counters cannot drift
/// between the two paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ShedReason {
    /// The bounded admission queue was at capacity.
    QueueFull,
    /// The server was draining and refused new work.
    Shutdown,
    /// The request's deadline was infeasible at admission or had
    /// already passed when its batch reached a worker.
    DeadlineExceeded,
    /// The degradation policy was shedding low-priority work under
    /// load.
    LoadShed,
    /// The workload's circuit breaker was open after repeated faults.
    CircuitOpen,
}

impl ShedReason {
    /// Every reason, in a fixed order.
    #[must_use]
    pub const fn all() -> [ShedReason; 5] {
        [
            ShedReason::QueueFull,
            ShedReason::Shutdown,
            ShedReason::DeadlineExceeded,
            ShedReason::LoadShed,
            ShedReason::CircuitOpen,
        ]
    }

    /// Stable snake_case name, used as the telemetry counter suffix
    /// (`serve.shed.queue_full`) and the trace-event `reason` arg.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Shutdown => "shutdown",
            ShedReason::DeadlineExceeded => "deadline_exceeded",
            ShedReason::LoadShed => "load_shed",
            ShedReason::CircuitOpen => "circuit_open",
        }
    }

    /// Parses the stable name back into the reason ([`Self::name`]'s
    /// inverse).
    #[must_use]
    pub fn by_name(name: &str) -> Option<ShedReason> {
        ShedReason::all().into_iter().find(|r| r.name() == name)
    }
}

/// One step in a request's lifecycle.
///
/// A served request records, in tick order: `Admitted` → `Enqueued` →
/// `BatchFormed` → `ExecStart` → `ExecEnd` → `Responded`. A refused
/// request records only `Shed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestEvent {
    /// Admission control accepted the request.
    Admitted,
    /// The request entered the bounded queue.
    Enqueued,
    /// The dynamic batcher flushed a batch containing the request.
    BatchFormed {
        /// Batch id, unique within a server/sim run.
        batch_id: u64,
        /// Number of requests in the batch.
        size: u32,
    },
    /// A worker began executing the request's batch.
    ExecStart {
        /// Worker (or simulation lane) index.
        worker: u32,
    },
    /// The worker finished executing the request's batch.
    ExecEnd {
        /// Worker (or simulation lane) index.
        worker: u32,
    },
    /// The response was produced.
    Responded,
    /// Admission control refused the request.
    Shed {
        /// Why the request was refused.
        reason: ShedReason,
    },
    /// The request's batch hit an injected fault and will be retried.
    Retried {
        /// Execution attempt that failed (1 = first try).
        attempt: u32,
    },
    /// The request exhausted its retry budget and failed permanently.
    Failed {
        /// Total execution attempts made before giving up.
        attempts: u32,
    },
}

impl RequestEvent {
    /// Stable snake_case label for the event type.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            RequestEvent::Admitted => "admitted",
            RequestEvent::Enqueued => "enqueued",
            RequestEvent::BatchFormed { .. } => "batch_formed",
            RequestEvent::ExecStart { .. } => "exec_start",
            RequestEvent::ExecEnd { .. } => "exec_end",
            RequestEvent::Responded => "responded",
            RequestEvent::Shed { .. } => "shed",
            RequestEvent::Retried { .. } => "retried",
            RequestEvent::Failed { .. } => "failed",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global record sequence number (total order of recording).
    pub seq: u64,
    /// Trace id — the serving request id.
    pub trace_id: u64,
    /// Tick the event occurred at (wall µs or virtual cycles).
    pub ts: u64,
    /// The event.
    pub event: RequestEvent,
}

/// Point-in-time copy of the flight recorder's retained records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Retained records in recording order (ascending `seq`).
    pub records: Vec<TraceRecord>,
    /// Records overwritten by the ring before this snapshot.
    pub dropped: u64,
}

/// Percentile summary of one latency-phase sample set, in ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of samples (0 means every other field is 0).
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Worst case.
    pub max: u64,
}

impl PhaseStats {
    /// Summarizes a sample set (need not be sorted). Empty input yields
    /// the all-zero summary.
    #[must_use]
    pub fn from_samples(mut samples: Vec<u64>) -> PhaseStats {
        if samples.is_empty() {
            return PhaseStats::default();
        }
        samples.sort_unstable();
        let rank = |p: f64| {
            let n = samples.len();
            let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        PhaseStats {
            count: samples.len() as u64,
            p50: rank(50.0),
            p95: rank(95.0),
            p99: rank(99.0),
            mean: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
            max: *samples.last().expect("nonempty"),
        }
    }
}

/// Per-phase latency breakdown of the complete request lifecycles in a
/// [`TraceSnapshot`]: where a request's end-to-end latency actually
/// went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Enqueued → batch formed (waiting in the admission queue and the
    /// batcher's pending set).
    pub queue_wait: PhaseStats,
    /// Batch formed → execution start (a formed batch waiting for a
    /// free worker/lane).
    pub batch_wait: PhaseStats,
    /// Execution start → execution end.
    pub exec: PhaseStats,
}

/// Collected per-request timestamps (only complete lifecycles count).
#[derive(Default, Clone, Copy)]
struct Lifecycle {
    admitted: Option<u64>,
    enqueued: Option<u64>,
    formed: Option<(u64, u64, u32)>, // (ts, batch_id, size)
    exec_start: Option<(u64, u32)>,  // (ts, worker)
    exec_end: Option<(u64, u32)>,
    responded: Option<u64>,
    shed: Option<(u64, ShedReason)>,
    retries: u32,
    failed: Option<(u64, u32)>, // (ts, attempts)
}

impl TraceSnapshot {
    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn lifecycles(&self) -> BTreeMap<u64, Lifecycle> {
        let mut map: BTreeMap<u64, Lifecycle> = BTreeMap::new();
        for r in &self.records {
            let entry = map.entry(r.trace_id).or_default();
            match r.event {
                RequestEvent::Admitted => entry.admitted = Some(r.ts),
                RequestEvent::Enqueued => entry.enqueued = Some(r.ts),
                RequestEvent::BatchFormed { batch_id, size } => {
                    entry.formed = Some((r.ts, batch_id, size));
                }
                RequestEvent::ExecStart { worker } => entry.exec_start = Some((r.ts, worker)),
                RequestEvent::ExecEnd { worker } => entry.exec_end = Some((r.ts, worker)),
                RequestEvent::Responded => entry.responded = Some(r.ts),
                RequestEvent::Shed { reason } => entry.shed = Some((r.ts, reason)),
                RequestEvent::Retried { .. } => entry.retries += 1,
                RequestEvent::Failed { attempts } => entry.failed = Some((r.ts, attempts)),
            }
        }
        map
    }

    /// Derives the per-phase latency breakdown from every request whose
    /// retained events cover the full lifecycle. Requests truncated by
    /// the ring (or shed) are excluded.
    #[must_use]
    pub fn phases(&self) -> PhaseBreakdown {
        let mut queue = Vec::new();
        let mut batch = Vec::new();
        let mut exec = Vec::new();
        for life in self.lifecycles().values() {
            let (Some(enq), Some((formed, _, _)), Some((start, _)), Some((end, _))) =
                (life.enqueued, life.formed, life.exec_start, life.exec_end)
            else {
                continue;
            };
            queue.push(formed.saturating_sub(enq));
            batch.push(start.saturating_sub(formed));
            exec.push(end.saturating_sub(start));
        }
        PhaseBreakdown {
            queue_wait: PhaseStats::from_samples(queue),
            batch_wait: PhaseStats::from_samples(batch),
            exec: PhaseStats::from_samples(exec),
        }
    }

    /// Exports the retained lifecycles as a Chrome Trace Event Format
    /// document (Perfetto / `chrome://tracing` loadable), mirroring the
    /// simulator timelines' layout:
    ///
    /// - instant events on an **admission** track for `Admitted` and
    ///   `Shed` (with the reason in `args`),
    /// - one duration slice per request on the **queue wait** and
    ///   **batch wait** tracks,
    /// - one duration slice per batch on its **worker's** track,
    /// - instant events on a **faults** track for `Retried` and
    ///   `Failed` (present only when such events were recorded, so
    ///   fault-free traces keep their exact historical layout),
    /// - a counter series of requests waiting between `Enqueued` and
    ///   `BatchFormed`.
    ///
    /// Ticks are written into `ts`/`dur` unscaled; `metadata.time_unit`
    /// records the unit (`"tick"`). The output is deterministic: the
    /// same snapshot always renders to the same bytes.
    #[must_use]
    pub fn to_chrome_trace(&self, process: &str, time_unit: &str) -> JsonValue {
        let lifecycles = self.lifecycles();
        let mut trace = ChromeTrace::new(format!("nsflow-serve: {process}"));
        trace.track(TID_ADMISSION, "admission");
        trace.track(TID_QUEUE_WAIT, "queue wait");
        trace.track(TID_BATCH_WAIT, "batch wait");
        let has_faults = self.records.iter().any(|r| {
            matches!(
                r.event,
                RequestEvent::Retried { .. } | RequestEvent::Failed { .. }
            )
        });
        if has_faults {
            trace.track(TID_FAULTS, "faults");
        }
        let mut workers: Vec<u32> = lifecycles
            .values()
            .filter_map(|l| l.exec_start.map(|(_, w)| w))
            .collect();
        workers.sort_unstable();
        workers.dedup();
        for w in &workers {
            trace.track(WORKER_TID_BASE + u64::from(*w), format!("worker[{w}]"));
        }

        // Request rows sort by request id at equal ts.
        for (&id, life) in &lifecycles {
            if let Some(ts) = life.admitted {
                let name = format!("admit req {id}");
                trace.instant(id, TID_ADMISSION, name, "admission", ts, None);
            }
            if let Some((ts, reason)) = life.shed {
                let args = JsonValue::object([("reason", JsonValue::Str(reason.name().into()))]);
                let name = format!("shed req {id}");
                trace.instant(id, TID_ADMISSION, name, "shed", ts, Some(args));
            }
            let mut phase = |tid, cat, span, batch_id| {
                let args = JsonValue::object([("batch", JsonValue::UInt(batch_id))]);
                trace.slice(id, tid, format!("req {id}"), cat, span, args);
            };
            if let (Some(enq), Some((formed, batch_id, _))) = (life.enqueued, life.formed) {
                phase(TID_QUEUE_WAIT, "queue_wait", enq..formed, batch_id);
            }
            if let (Some((formed, batch_id, _)), Some((start, _))) = (life.formed, life.exec_start)
            {
                phase(TID_BATCH_WAIT, "batch_wait", formed..start, batch_id);
            }
        }

        // One instant per retry / permanent failure on the faults
        // track. Emitted straight from the record stream (a request
        // can retry more than once, so the per-request lifecycle
        // aggregation above cannot carry every timestamp).
        for r in &self.records {
            let (cat, arg_key, arg_val) = match r.event {
                RequestEvent::Retried { attempt } => ("retry", "attempt", attempt),
                RequestEvent::Failed { attempts } => ("fail", "attempts", attempts),
                _ => continue,
            };
            let args = JsonValue::object([(arg_key, JsonValue::UInt(u64::from(arg_val)))]);
            let name = format!("{cat} req {}", r.trace_id);
            trace.instant(r.trace_id, TID_FAULTS, name, cat, r.ts, Some(args));
        }

        // One execution slice per batch on the executing worker's track.
        #[derive(Default)]
        struct BatchAgg {
            start: u64,
            end: u64,
            worker: u32,
            size: u32,
            requests: u64,
        }
        let mut batches: BTreeMap<u64, BatchAgg> = BTreeMap::new();
        for life in lifecycles.values() {
            let (Some((_, batch_id, size)), Some((start, worker)), Some((end, _))) =
                (life.formed, life.exec_start, life.exec_end)
            else {
                continue;
            };
            let agg = batches.entry(batch_id).or_insert(BatchAgg {
                start,
                end,
                worker,
                size,
                requests: 0,
            });
            agg.start = agg.start.min(start);
            agg.end = agg.end.max(end);
            agg.requests += 1;
        }
        for (&batch_id, agg) in &batches {
            let args = JsonValue::object([
                ("batch", JsonValue::UInt(batch_id)),
                ("size", JsonValue::UInt(u64::from(agg.size))),
                ("traced_requests", JsonValue::UInt(agg.requests)),
            ]);
            trace.slice(
                u64::MAX - 1, // batch slices sort after request rows at the same ts
                WORKER_TID_BASE + u64::from(agg.worker),
                format!("batch {batch_id} (n={})", agg.size),
                "exec",
                agg.start..agg.end,
                args,
            );
        }

        // Requests sitting between Enqueued and BatchFormed.
        let waiting = lifecycles.values().filter_map(|life| {
            let (enq, (formed, _, _)) = (life.enqueued?, life.formed?);
            Some([(enq, 0, 1), (formed, 0, -1)])
        });
        trace.counter("waiting_requests", ["waiting"], waiting.flatten().collect());

        trace.finish(JsonValue::object([
            ("source", JsonValue::Str(format!("nsflow-serve: {process}"))),
            ("time_unit", JsonValue::Str(time_unit.to_string())),
            ("events", JsonValue::UInt(self.records.len() as u64)),
            ("dropped", JsonValue::UInt(self.dropped)),
        ]))
    }
}

/// Track id layout for [`TraceSnapshot::to_chrome_trace`].
const TID_ADMISSION: u64 = 1;
const TID_QUEUE_WAIT: u64 = 2;
const TID_BATCH_WAIT: u64 = 3;
const TID_FAULTS: u64 = 4;
const WORKER_TID_BASE: u64 = 100;

/// Ring shards; records are assigned round-robin by sequence
/// number, so the union of per-shard tails is exactly the global
/// tail.
const SHARDS: usize = 8;

struct Shard {
    /// Ring storage, allocated once at full shard capacity; `None`
    /// marks a slot no record has reached yet.
    records: Vec<Option<TraceRecord>>,
}

/// Writes `record` into the slot its `seq` maps to in one shard's
/// ring, unless that slot already holds a newer record (a slower
/// thread can arrive with an older `seq` after the ring wrapped
/// past it; the older record is then the one dropped).
fn place(ring: &mut [Option<TraceRecord>], record: TraceRecord) {
    let slot = (record.seq as usize / SHARDS) % ring.len();
    let cell = &mut ring[slot];
    if cell.is_none_or(|held| held.seq < record.seq) {
        *cell = Some(record);
    }
}

/// Fixed-capacity flight recorder for request lifecycle events.
///
/// See the [module docs](crate::trace) for the design; constructed with a
/// capacity rounded up to a multiple of the shard count (capacity 0
/// disables recording entirely).
pub struct FlightRecorder {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    seq: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining (at least) the last `capacity`
    /// records; 0 disables recording.
    ///
    /// # Errors
    ///
    /// The reservation error when the ring cannot be allocated.
    pub fn new(capacity: usize) -> Result<Self, TryReserveError> {
        let shard_capacity = capacity.div_ceil(SHARDS);
        let shards = (0..SHARDS)
            .map(|_| {
                let mut records = Vec::new();
                records.try_reserve_exact(shard_capacity)?;
                records.resize(shard_capacity, None);
                Ok(Mutex::new(Shard { records }))
            })
            .collect::<Result<_, TryReserveError>>()?;
        Ok(FlightRecorder {
            shards,
            shard_capacity,
            seq: AtomicU64::new(0),
        })
    }

    /// Effective retained capacity (requested, rounded up to a
    /// shard multiple).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARDS
    }

    /// Total records ever recorded (including overwritten ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records one lifecycle event. Allocation-free: the record is
    /// written into a preallocated ring slot.
    pub fn record(&self, trace_id: u64, ts: u64, event: RequestEvent) {
        if self.shard_capacity == 0 {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = TraceRecord {
            seq,
            trace_id,
            ts,
            event,
        };
        let shard = &self.shards[(seq as usize) % SHARDS];
        place(
            &mut shard.lock().expect("flight recorder poisoned").records,
            record,
        );
    }

    /// Copies out the retained records, oldest first, plus the
    /// count of records the ring has already overwritten.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut records: Vec<TraceRecord> = Vec::with_capacity(self.capacity());
        for shard in &self.shards {
            records.extend(
                shard
                    .lock()
                    .expect("flight recorder poisoned")
                    .records
                    .iter()
                    .flatten(),
            );
        }
        records.sort_unstable_by_key(|r| r.seq);
        let dropped = self.recorded().saturating_sub(records.len() as u64);
        TraceSnapshot { records, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_lifecycle(rec: &FlightRecorder, id: u64, t0: u64, batch_id: u64, worker: u32) {
        rec.record(id, t0, RequestEvent::Admitted);
        rec.record(id, t0, RequestEvent::Enqueued);
        rec.record(id, t0 + 10, RequestEvent::BatchFormed { batch_id, size: 2 });
        rec.record(id, t0 + 15, RequestEvent::ExecStart { worker });
        rec.record(id, t0 + 40, RequestEvent::ExecEnd { worker });
        rec.record(id, t0 + 40, RequestEvent::Responded);
    }

    #[test]
    fn recorder_retains_everything_under_capacity() {
        let rec = FlightRecorder::new(64).unwrap();
        full_lifecycle(&rec, 0, 0, 0, 0);
        full_lifecycle(&rec, 1, 5, 0, 0);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 12);
        assert_eq!(snap.dropped, 0);
        // Recording order is preserved.
        let seqs: Vec<u64> = snap.records.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_drops() {
        let rec = FlightRecorder::new(16).unwrap();
        assert_eq!(rec.capacity(), 16);
        for i in 0..100u64 {
            rec.record(i, i, RequestEvent::Admitted);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 16);
        assert_eq!(snap.dropped, 84);
        // Exactly the newest records survive.
        let ids: Vec<u64> = snap.records.iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, (84..100).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_seqs_land_in_their_own_slots() {
        // Seqs 0, 16, 8 all map to shard 0 (of 8), slots 0, 2, 1. A
        // thread holding seq 8 can reach the shard after the one
        // holding seq 16; both must survive below capacity.
        let record = |seq| TraceRecord {
            seq,
            trace_id: seq,
            ts: seq,
            event: RequestEvent::Admitted,
        };
        let mut ring = vec![None; 4];
        for seq in [0, 16, 8] {
            place(&mut ring, record(seq));
        }
        let held: Vec<u64> = ring.iter().flatten().map(|r| r.seq).collect();
        assert_eq!(held, [0, 8, 16]);
        // Seq 40 wraps onto slot 1 and evicts seq 8; seq 8 arriving
        // again (late) must not evict the newer record.
        place(&mut ring, record(40));
        place(&mut ring, record(8));
        let held: Vec<u64> = ring.iter().flatten().map(|r| r.seq).collect();
        assert_eq!(held, [0, 40, 16]);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let rec = FlightRecorder::new(0).unwrap();
        rec.record(1, 1, RequestEvent::Admitted);
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.capacity(), 0);
    }

    #[test]
    fn phases_cover_only_complete_lifecycles() {
        let snap = TraceSnapshot {
            records: vec![
                // Complete: queue 10, batch 5, exec 25.
                TraceRecord {
                    seq: 0,
                    trace_id: 7,
                    ts: 0,
                    event: RequestEvent::Enqueued,
                },
                TraceRecord {
                    seq: 1,
                    trace_id: 7,
                    ts: 10,
                    event: RequestEvent::BatchFormed {
                        batch_id: 0,
                        size: 1,
                    },
                },
                TraceRecord {
                    seq: 2,
                    trace_id: 7,
                    ts: 15,
                    event: RequestEvent::ExecStart { worker: 0 },
                },
                TraceRecord {
                    seq: 3,
                    trace_id: 7,
                    ts: 40,
                    event: RequestEvent::ExecEnd { worker: 0 },
                },
                // Incomplete (no exec events): excluded.
                TraceRecord {
                    seq: 4,
                    trace_id: 8,
                    ts: 2,
                    event: RequestEvent::Enqueued,
                },
                // Shed: excluded.
                TraceRecord {
                    seq: 5,
                    trace_id: 9,
                    ts: 3,
                    event: RequestEvent::Shed {
                        reason: ShedReason::QueueFull,
                    },
                },
            ],
            dropped: 0,
        };
        let phases = snap.phases();
        assert_eq!(phases.queue_wait.count, 1);
        assert_eq!(phases.queue_wait.p50, 10);
        assert_eq!(phases.batch_wait.p50, 5);
        assert_eq!(phases.exec.p50, 25);
        assert_eq!(phases.exec.max, 25);
        assert!((phases.exec.mean - 25.0).abs() < 1e-9);
    }

    #[test]
    fn phase_stats_percentiles_are_ordered() {
        let stats = PhaseStats::from_samples((1..=100).collect());
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50, 50);
        assert_eq!(stats.p95, 95);
        assert_eq!(stats.p99, 99);
        assert_eq!(stats.max, 100);
        assert!((stats.mean - 50.5).abs() < 1e-9);
        assert_eq!(PhaseStats::from_samples(Vec::new()), PhaseStats::default());
    }

    #[test]
    fn chrome_trace_is_deterministic_and_parseable() {
        let mut records = Vec::new();
        let mut seq = 0u64;
        let mut push = |trace_id, ts, event| {
            records.push(TraceRecord {
                seq,
                trace_id,
                ts,
                event,
            });
            seq += 1;
        };
        push(0, 0, RequestEvent::Admitted);
        push(0, 0, RequestEvent::Enqueued);
        push(1, 2, RequestEvent::Admitted);
        push(1, 2, RequestEvent::Enqueued);
        push(
            0,
            8,
            RequestEvent::BatchFormed {
                batch_id: 0,
                size: 2,
            },
        );
        push(
            1,
            8,
            RequestEvent::BatchFormed {
                batch_id: 0,
                size: 2,
            },
        );
        push(0, 9, RequestEvent::ExecStart { worker: 1 });
        push(1, 9, RequestEvent::ExecStart { worker: 1 });
        push(0, 30, RequestEvent::ExecEnd { worker: 1 });
        push(1, 30, RequestEvent::ExecEnd { worker: 1 });
        push(0, 30, RequestEvent::Responded);
        push(1, 30, RequestEvent::Responded);
        push(
            2,
            12,
            RequestEvent::Shed {
                reason: ShedReason::QueueFull,
            },
        );
        let snap = TraceSnapshot {
            records,
            dropped: 0,
        };

        let doc = snap.to_chrome_trace("test", "tick");
        let text = doc.render_pretty();
        // Deterministic bytes and strict-parse round trip.
        assert_eq!(text, snap.to_chrome_trace("test", "tick").render_pretty());
        let parsed = JsonValue::parse(&text).expect("emitted trace must strict-parse");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        // 1 process meta + 3 fixed tracks + 1 worker meta + 2 admits +
        // 1 shed + 2 queue slices + 2 batch-wait slices + 1 batch slice
        // + 3 counter points (ts 0, 2, 8).
        assert_eq!(events.len(), 16);
        let batch_slice = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("exec"))
            .expect("one batch execution slice");
        assert_eq!(batch_slice.get("dur").and_then(JsonValue::as_u64), Some(21));
        let shed = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("shed"))
            .expect("shed instant");
        assert_eq!(
            shed.get("args")
                .and_then(|a| a.get("reason"))
                .and_then(JsonValue::as_str),
            Some("queue_full")
        );
        assert_eq!(
            parsed
                .get("metadata")
                .and_then(|m| m.get("events"))
                .and_then(JsonValue::as_u64),
            Some(13)
        );
    }

    #[test]
    fn shed_reason_names_are_stable() {
        assert_eq!(ShedReason::QueueFull.name(), "queue_full");
        assert_eq!(ShedReason::Shutdown.name(), "shutdown");
        assert_eq!(ShedReason::DeadlineExceeded.name(), "deadline_exceeded");
        assert_eq!(ShedReason::LoadShed.name(), "load_shed");
        assert_eq!(ShedReason::CircuitOpen.name(), "circuit_open");
        assert_eq!(
            RequestEvent::Shed {
                reason: ShedReason::Shutdown
            }
            .label(),
            "shed"
        );
        assert_eq!(RequestEvent::Responded.label(), "responded");
        assert_eq!(RequestEvent::Retried { attempt: 1 }.label(), "retried");
        assert_eq!(RequestEvent::Failed { attempts: 2 }.label(), "failed");
    }

    #[test]
    fn shed_reason_names_round_trip() {
        for reason in ShedReason::all() {
            assert_eq!(ShedReason::by_name(reason.name()), Some(reason));
        }
        assert_eq!(ShedReason::by_name("unknown"), None);
    }

    #[test]
    fn faults_track_appears_only_with_fault_events() {
        let base = vec![
            TraceRecord {
                seq: 0,
                trace_id: 0,
                ts: 0,
                event: RequestEvent::Admitted,
            },
            TraceRecord {
                seq: 1,
                trace_id: 0,
                ts: 0,
                event: RequestEvent::Enqueued,
            },
        ];
        let clean = TraceSnapshot {
            records: base.clone(),
            dropped: 0,
        };
        let clean_text = clean.to_chrome_trace("test", "tick").render_pretty();
        assert!(!clean_text.contains("\"faults\""));

        let mut records = base;
        records.push(TraceRecord {
            seq: 2,
            trace_id: 0,
            ts: 5,
            event: RequestEvent::Retried { attempt: 1 },
        });
        records.push(TraceRecord {
            seq: 3,
            trace_id: 0,
            ts: 9,
            event: RequestEvent::Failed { attempts: 2 },
        });
        let chaotic = TraceSnapshot {
            records,
            dropped: 0,
        };
        let text = chaotic.to_chrome_trace("test", "tick").render_pretty();
        assert!(text.contains("\"faults\""));
        assert!(text.contains("retry req 0"));
        assert!(text.contains("fail req 0"));
        let parsed = JsonValue::parse(&text).expect("chaos trace must strict-parse");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        let retry = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("retry"))
            .expect("retry instant");
        assert_eq!(
            retry
                .get("args")
                .and_then(|a| a.get("attempt"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }
}
