//! End-to-end threaded serving: submissions of every workload kind run
//! through queue → batcher → worker pool → functional inference, and
//! the report is complete and consistent.

use nsflow_serve::prelude::*;
use nsflow_serve::RequestEvent;

#[test]
fn serves_every_workload_kind_end_to_end() {
    let server = Server::builder()
        .queue_capacity(64)
        .batch(BatchPolicy {
            max_batch: 4,
            max_wait: 2_000, // 2ms
        })
        .workers(2)
        .trace_capacity(1024)
        .build()
        .expect("valid configuration");
    let mut expected = Vec::new();
    for (i, kind) in WorkloadKind::all().iter().cycle().take(12).enumerate() {
        let seed = 1000 + i as u64;
        let id = server.submit(*kind, seed).expect("queue has room");
        expected.push((id, *kind, seed));
    }
    let report = server.shutdown();

    assert_eq!(report.responses.len(), 12, "all submissions served");
    assert_eq!(report.stats.submitted, 12);
    assert_eq!(report.stats.completed, 12);
    assert_eq!(report.stats.shed, 0);
    assert!(report.stats.batches >= 3, "12 requests at max_batch 4");
    // No robustness policy was configured, so none may act.
    assert_eq!(report.stats.retries, 0);
    assert_eq!(report.stats.faults_injected, 0);
    assert_eq!(report.stats.deadline_shed, 0);
    assert_eq!(report.stats.failed, 0);
    assert!(report.failed.is_empty());

    // Responses come back sorted by id, carry their kind, and every
    // answer matches a direct (unbatched, unthreaded) execution of the
    // same (kind, seed) — serving is invisible to results.
    let direct = Executor::new(ExecutorConfig::serial());
    for (response, (id, kind, seed)) in report.responses.iter().zip(&expected) {
        assert_eq!(response.id, *id);
        assert_eq!(response.kind, *kind);
        assert!(response.batch_size() >= 1 && response.batch_size() <= 4);
        // The flight recorder holds the admission and completion ticks:
        // a request completes at or after its admission, and its latency
        // is the gap between the two.
        let tick = |event: RequestEvent| {
            let mut ticks = report
                .trace
                .records
                .iter()
                .filter(|r| r.trace_id == *id && r.event == event)
                .map(|r| r.ts);
            let ts = ticks.next().expect("event recorded");
            assert_eq!(ticks.next(), None, "request {id}: one {event:?} event");
            ts
        };
        let (admitted, responded) = (tick(RequestEvent::Admitted), tick(RequestEvent::Responded));
        assert!(
            responded >= admitted,
            "request {id}: responded at {responded}, admitted at {admitted}"
        );
        assert_eq!(response.latency(), responded - admitted, "request {id}");
        let reference = direct.execute(&Request::new(*id, *kind, *seed, 0));
        assert_eq!(
            response.answer, reference,
            "{kind} seed {seed}: served answer differs from direct execution"
        );
    }
}

#[test]
fn deadline_flush_serves_partial_batches() {
    // Far fewer requests than max_batch: only the deadline can flush.
    let server = Server::builder()
        .queue_capacity(8)
        .batch(BatchPolicy {
            max_batch: 64,
            max_wait: 1_000, // 1ms deadline
        })
        .workers(1)
        .executor(ExecutorConfig::serial())
        .trace_capacity(1024)
        .build()
        .expect("valid configuration");
    for seed in 0..3 {
        server.submit(WorkloadKind::Mimonet, seed).expect("room");
    }
    // Wait for the deadline to fire before shutdown so the flush is
    // exercised by the timer, not the drain (generous bound for slow
    // CI runners).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.stats().completed < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "deadline flush never fired"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let report = server.shutdown();
    assert_eq!(report.responses.len(), 3);
    for response in &report.responses {
        assert!(response.batch_size() <= 3, "partial batch expected");
    }
}

#[test]
fn stats_snapshot_is_monotonic() {
    let server = Server::builder()
        .queue_capacity(32)
        .batch(BatchPolicy {
            max_batch: 2,
            max_wait: 1_000,
        })
        .workers(2)
        .executor(ExecutorConfig::serial())
        .trace_capacity(1024)
        .build()
        .expect("valid configuration");
    for seed in 0..6 {
        server.submit(WorkloadKind::Lvrf, seed).expect("room");
    }
    let mid = server.stats();
    assert_eq!(mid.submitted, 6);
    let report = server.shutdown();
    assert!(report.stats.completed >= mid.completed);
    assert_eq!(report.stats.completed, 6);
    // Batch-size bookkeeping: per-response sizes sum to the total.
    let size_sum: usize = report.responses.iter().map(|r| r.batch_size()).sum();
    assert!(size_sum >= report.responses.len());
}

#[test]
fn live_trace_snapshot_shows_admission_before_shutdown() {
    let server = Server::builder()
        .queue_capacity(16)
        .batch(BatchPolicy {
            max_batch: 4,
            max_wait: 1_000,
        })
        .workers(2)
        .executor(ExecutorConfig::serial())
        .trace_capacity(1024)
        .build()
        .expect("valid configuration");
    let labels = |trace: &nsflow_serve::TraceSnapshot, id: u64| -> Vec<&'static str> {
        let mut labels: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.trace_id == id)
            .map(|r| r.event.label())
            .collect();
        labels.sort_unstable();
        labels
    };
    let mut ids = Vec::new();
    for seed in 0..8 {
        let id = server.submit(WorkloadKind::Lvrf, seed).expect("room");
        // `submit` records both admission events before it returns; a
        // worker may already have added batch events on top.
        let live = labels(&server.trace_snapshot(), id);
        assert!(
            live.contains(&"admitted") && live.contains(&"enqueued"),
            "request {id}: {live:?}"
        );
        ids.push(id);
    }
    let report = server.shutdown();
    let mut chain = vec![
        "admitted",
        "enqueued",
        "batch_formed",
        "exec_start",
        "exec_end",
        "responded",
    ];
    chain.sort_unstable();
    for id in ids {
        assert_eq!(labels(&report.trace, id), chain, "request {id}");
    }
}
