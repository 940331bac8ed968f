//! Batcher and admission edge cases: empty deadline flush, batch
//! exactly at capacity, shutdown with in-flight requests, shed-path
//! telemetry.

use std::time::Duration;

use nsflow_serve::batcher::{BatchPolicy, Batcher};
use nsflow_serve::executor::ExecutorConfig;
use nsflow_serve::request::{AdmissionError, Request, WorkloadKind};
use nsflow_serve::server::Server;
use nsflow_telemetry::TelemetrySnapshot;

fn req(id: u64) -> Request {
    Request::new(id, WorkloadKind::Lvrf, id, 0)
}

#[test]
fn empty_batcher_never_flushes_on_deadline() {
    let mut b = Batcher::new(BatchPolicy {
        max_batch: 4,
        max_wait: 10,
    })
    .unwrap();
    // No pending requests: no deadline exists and polling far past any
    // conceivable deadline still yields nothing.
    assert_eq!(b.next_deadline(), None);
    assert!(b.poll(0).is_none());
    assert!(b.poll(u64::MAX).is_none());
    assert!(
        b.flush(100).is_none(),
        "explicit flush of empty set is None"
    );

    // After a flush empties it, the batcher returns to the same state.
    b.offer(req(0), 0);
    assert!(b.poll(10).is_some());
    assert_eq!(b.next_deadline(), None);
    assert!(b.poll(u64::MAX).is_none());
}

#[test]
fn flush_after_close_drains_exactly_once() {
    // The shutdown path: when the queue closes, the leader calls
    // `flush` unconditionally. The first flush takes everything; every
    // subsequent flush (other workers observing the closed queue) is a
    // no-op returning None — requests are drained exactly once, never
    // duplicated, never dropped.
    let mut b = Batcher::new(BatchPolicy {
        max_batch: 8,
        max_wait: 1_000_000,
    })
    .unwrap();
    for id in 0..3 {
        assert!(b.offer(req(id), id).is_none());
    }
    let drained = b.flush(50).expect("first flush drains");
    assert_eq!(
        drained.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert!(b.flush(51).is_none(), "second flush is a no-op");
    assert!(b.flush(u64::MAX).is_none(), "still a no-op much later");
    assert_eq!(b.pending(), 0);
}

#[test]
fn batch_exactly_at_capacity_flushes_once_without_deadline() {
    let mut b = Batcher::new(BatchPolicy {
        max_batch: 4,
        max_wait: 1_000_000,
    })
    .unwrap();
    assert!(b.offer(req(0), 0).is_none());
    assert!(b.offer(req(1), 0).is_none());
    assert!(b.offer(req(2), 0).is_none());
    let batch = b.offer(req(3), 0).expect("exactly max_batch flushes");
    assert_eq!(batch.len(), 4);
    assert_eq!(
        batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "admission order preserved"
    );
    // The flush consumed everything — nothing left for the deadline.
    assert_eq!(b.pending(), 0);
    assert!(b.poll(u64::MAX).is_none());
}

#[test]
fn oversubmission_is_shed_not_queued() {
    // One worker, batch size 1, tiny queue: the worker is busy
    // executing almost immediately, so flooding 64 submissions in
    // microseconds must overflow the 2-slot queue.
    let server = Server::builder()
        .queue_capacity(2)
        .batch(BatchPolicy {
            max_batch: 1,
            max_wait: 1_000,
        })
        .workers(1)
        .executor(ExecutorConfig::serial())
        .trace_capacity(512)
        .build()
        .expect("valid configuration");
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for seed in 0..64 {
        match server.submit(WorkloadKind::Lvrf, seed) {
            Ok(_) => admitted += 1,
            Err(AdmissionError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(shed > 0, "64 submissions into a 2-slot queue must shed");
    let report = server.shutdown();
    assert_eq!(report.stats.submitted, admitted);
    assert_eq!(report.stats.shed, shed);
    // Shed requests are gone; admitted ones all completed (drain).
    assert_eq!(report.responses.len() as u64, admitted);

    // Telemetry satellite: the shed path increments the counter.
    let snapshot = TelemetrySnapshot::capture();
    assert!(
        snapshot.counter("serve.shed") >= shed,
        "serve.shed counter should record every shed request"
    );
    assert!(
        snapshot.counter("serve.shed.queue_full") >= shed,
        "every shed here is a queue-full shed"
    );
    assert!(snapshot.counter("serve.submitted") >= admitted);

    // Flight recorder satellite: shed requests leave a typed Shed event
    // carrying the shared reason enum.
    let shed_events = report
        .trace
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                nsflow_serve::RequestEvent::Shed {
                    reason: nsflow_serve::ShedReason::QueueFull
                }
            )
        })
        .count();
    assert_eq!(shed_events as u64, shed, "one Shed event per shed request");
}

#[test]
fn shutdown_with_in_flight_requests_drains_them() {
    // A deadline much longer than the test: requests sit in the batcher
    // until shutdown closes the queue, which must flush and execute
    // them rather than dropping them.
    let server = Server::builder()
        .queue_capacity(16)
        .batch(BatchPolicy {
            max_batch: 16,
            max_wait: 60_000_000, // one minute in µs
        })
        .workers(2)
        .executor(ExecutorConfig::serial())
        .trace_capacity(512)
        .build()
        .expect("valid configuration");
    let mut ids = Vec::new();
    for seed in 0..5 {
        ids.push(server.submit(WorkloadKind::Lvrf, seed).expect("room"));
    }
    // No sleep: the requests are almost certainly still queued or in
    // flight when shutdown lands.
    let report = server.shutdown();
    let mut got: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    got.sort_unstable();
    assert_eq!(got, ids, "every in-flight request completes on shutdown");
    assert_eq!(report.stats.completed, 5);
    assert_eq!(report.stats.shed, 0);
}

#[test]
fn closed_queue_reports_shutting_down() {
    let queue = nsflow_serve::queue::BoundedQueue::new(4).unwrap();
    queue.try_push(req(0)).expect("room");
    queue.close();
    assert_eq!(queue.try_push(req(1)), Err(AdmissionError::ShuttingDown));
    // Drain semantics: the queued item is still handed out.
    match queue.pop_wait(Duration::from_millis(1)) {
        nsflow_serve::queue::Popped::Item(r) => assert_eq!(r.id, 0),
        other => panic!("expected the queued item, got {other:?}"),
    }
}
