//! Robustness layer through the threaded server: injected faults drive
//! retries and surfaced failures, deadlines shed at admission and drop
//! before execution, and none of it perturbs answers.

use std::time::Duration;

use nsflow_serve::prelude::*;

#[test]
fn certain_faults_exhaust_retries_and_report_failures() {
    // Every attempt errors: with a 2-attempt budget each admitted
    // request is retried exactly once, then fails permanently.
    let server = Server::builder()
        .queue_capacity(64)
        .batch(BatchPolicy {
            max_batch: 4,
            max_wait: 1_000,
        })
        .workers(1)
        .executor(ExecutorConfig::serial())
        .trace_capacity(1024)
        .retry(RetryPolicy {
            max_attempts: 2,
            backoff_base: 0,
            backoff_cap: 0,
            jitter_seed: 0,
        })
        .faults(FaultPlan {
            seed: 9,
            error_permille: 1000,
            ..FaultPlan::default()
        })
        .build()
        .expect("valid configuration");

    // Faults never refuse an arrival: all 8 are admitted.
    let admitted: Vec<u64> = (0..8)
        .map(|seed| {
            server
                .submit(WorkloadKind::Lvrf, seed)
                .expect("room in the queue")
        })
        .collect();

    let report = server.shutdown();
    let stats = report.stats;
    assert_eq!(stats.completed, 0, "nothing can succeed");
    assert!(report.responses.is_empty());
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.shed, 0);
    assert_eq!(
        stats.failed, stats.submitted,
        "every admitted request fails"
    );
    assert_eq!(
        stats.retries, stats.submitted,
        "2-attempt budget: exactly one retry each"
    );
    assert!(stats.faults_injected >= 1);

    // Failures surface in the report, sorted, with the consumed budget.
    assert_eq!(report.failed.len() as u64, stats.failed);
    let ids: Vec<u64> = report.failed.iter().map(|f| f.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "failed requests are sorted by id");
    assert_eq!(sorted, admitted, "exactly the admitted ids failed");
    for failure in &report.failed {
        assert_eq!(failure.kind, WorkloadKind::Lvrf);
        assert_eq!(failure.attempts, 2, "budget fully consumed");
    }

    let snapshot = nsflow_telemetry::TelemetrySnapshot::capture();
    assert!(snapshot.counter("serve.retries") >= stats.retries);
    assert!(snapshot.counter("serve.faults_injected") >= stats.faults_injected);
}

#[test]
fn retries_recover_answers_unchanged() {
    // Half the attempts error, but a 6-attempt budget lets essentially
    // everything through eventually — and a retried request's answer
    // must still match a direct, fault-free execution of the same
    // (kind, seed).
    let server = Server::builder()
        .queue_capacity(64)
        .batch(BatchPolicy {
            max_batch: 1,
            max_wait: 500,
        })
        .workers(1)
        .executor(ExecutorConfig::serial())
        .trace_capacity(2048)
        .retry(RetryPolicy {
            max_attempts: 6,
            backoff_base: 10,
            backoff_cap: 50,
            jitter_seed: 1,
        })
        .faults(FaultPlan {
            seed: 0xfa_117,
            error_permille: 500,
            ..FaultPlan::default()
        })
        .build()
        .expect("valid configuration");

    let mut expected = Vec::new();
    for (i, kind) in WorkloadKind::all().iter().cycle().take(12).enumerate() {
        let seed = 40 + i as u64;
        let id = server.submit(*kind, seed).expect("no admission gate fires");
        expected.push((id, *kind, seed));
    }
    let report = server.shutdown();
    let stats = report.stats;
    assert_eq!(
        stats.completed + stats.failed,
        stats.submitted,
        "every admitted request completes or fails — none vanish"
    );
    assert_eq!(report.responses.len() as u64, stats.completed);
    assert_eq!(report.failed.len() as u64, stats.failed);
    // A request that failed consumed all 6 attempts, i.e. 5 retries.
    assert!(stats.retries >= 5 * stats.failed);

    let direct = Executor::new(ExecutorConfig::serial());
    for response in &report.responses {
        let (_, kind, seed) = expected
            .iter()
            .find(|(id, _, _)| *id == response.id)
            .expect("response id was submitted");
        let reference = direct.execute(&Request::new(response.id, *kind, *seed, 0));
        assert_eq!(
            response.answer, reference,
            "retries must not perturb the answer for {kind} seed {seed}"
        );
    }
}

#[test]
fn spikes_and_stalls_delay_but_never_lose_work() {
    // spike + stall rates sum to 1000 permille: every attempt draws a
    // non-error fault, so every batch completes — late, but intact.
    let server = Server::builder()
        .queue_capacity(32)
        .batch(BatchPolicy {
            max_batch: 4,
            max_wait: 1_000,
        })
        .workers(2)
        .executor(ExecutorConfig::serial())
        .trace_capacity(1024)
        .faults(FaultPlan {
            seed: 3,
            spike_permille: 500,
            spike_ticks: 200,
            stall_permille: 500,
            stall_ticks: 200,
            ..FaultPlan::default()
        })
        .build()
        .expect("valid configuration");
    for seed in 0..10 {
        server.submit(WorkloadKind::Mimonet, seed).expect("room");
    }
    let report = server.shutdown();
    let stats = report.stats;
    assert_eq!(stats.completed, 10, "delay faults never lose requests");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.retries, 0, "only exec errors retry");
    assert_eq!(
        stats.faults_injected, stats.batches,
        "rates sum to 1000 permille: one fault per executed batch"
    );
}

#[test]
fn zero_budget_deadline_is_refused_as_error_deadline() {
    let server = Server::builder()
        .queue_capacity(8)
        .batch(BatchPolicy {
            max_batch: 4,
            max_wait: 1_000,
        })
        .workers(1)
        .executor(ExecutorConfig::serial())
        .trace_capacity(256)
        .build()
        .expect("valid configuration");
    let result = server.submit_with(
        WorkloadKind::Nvsa,
        1,
        SubmitOptions {
            deadline: Some(0),
            ..SubmitOptions::default()
        },
    );
    match result {
        Err(AdmissionError::DeadlineInfeasible { deadline, now }) => {
            assert_eq!(deadline, now, "zero budget: deadline == admission tick");
        }
        other => panic!("expected AdmissionError::DeadlineInfeasible, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.stats.submitted, 0);
    assert_eq!(report.stats.shed, 1);
    assert_eq!(report.stats.deadline_shed, 1);
    assert!(report.responses.is_empty());
}

#[test]
fn expired_requests_are_dropped_before_execution() {
    // A 1 ms budget against a 60 s batch window: the request is
    // admitted (its deadline is in the future) but expires long before
    // the flush, so the worker drops it instead of executing it.
    let server = Server::builder()
        .queue_capacity(8)
        .batch(BatchPolicy {
            max_batch: 8,
            max_wait: 60_000_000,
        })
        .workers(1)
        .executor(ExecutorConfig::serial())
        .trace_capacity(256)
        .build()
        .expect("valid configuration");
    let id = server
        .submit_with(
            WorkloadKind::Lvrf,
            5,
            SubmitOptions {
                deadline: Some(1_000), // 1 ms, in µs ticks
                ..SubmitOptions::default()
            },
        )
        .expect("feasible at admission");
    // Let the deadline pass while the request sits in the batcher.
    std::thread::sleep(Duration::from_millis(20));
    let report = server.shutdown();
    assert!(
        report.responses.iter().all(|r| r.id != id),
        "an expired request must not produce a response"
    );
    assert_eq!(report.stats.submitted, 1);
    assert_eq!(report.stats.completed, 0);
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.expired, 1, "dropped at the pre-exec check");
    assert_eq!(report.stats.deadline_shed, 1, "counted as a deadline shed");
    assert_eq!(
        report.stats.completed + report.stats.failed + report.stats.expired,
        report.stats.submitted,
        "every admitted request completes, fails or expires"
    );
    assert!(report.trace.records.iter().any(|r| r.trace_id == id
        && matches!(
            r.event,
            nsflow_serve::RequestEvent::Shed {
                reason: ShedReason::DeadlineExceeded
            }
        )));
}
