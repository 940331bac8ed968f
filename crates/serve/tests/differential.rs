//! Differential test: the threaded server and simlab drive one serving
//! core, so one script of requests and faults must produce the same
//! lifecycles through both.
//!
//! The script is chosen so that wall-clock timing cannot matter: every
//! batch is size-flushed (the request count is a multiple of
//! `max_batch` and the flush window is far longer than the run), faults
//! delay by zero ticks and nothing has a deadline. What remains —
//! batch ids, fault rolls per `(batch, attempt)`, retries, failures and
//! answers — is identical.

use std::collections::BTreeMap;

use nsflow_serve::prelude::*;
use nsflow_serve::simlab::{self, CostModel, SimConfig};
use nsflow_serve::{RequestEvent, TraceSnapshot};

const MAX_BATCH: usize = 4;
const REQUESTS: usize = 6 * MAX_BATCH;
const SEED: u64 = 0xd1ff;
const KINDS: [WorkloadKind; 3] = [
    WorkloadKind::Lvrf,
    WorkloadKind::Mimonet,
    WorkloadKind::Nvsa,
];
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 2,
    backoff_base: 10,
    backoff_cap: 40,
    jitter_seed: 3,
};
/// Every fault kind fires; spikes and stalls last zero ticks.
const FAULTS: FaultPlan = FaultPlan {
    seed: 0x5eed,
    error_permille: 400,
    spike_permille: 200,
    spike_ticks: 0,
    stall_permille: 200,
    stall_ticks: 0,
};

/// Per-request event sequences, timestamps dropped.
fn lifecycles(trace: &TraceSnapshot) -> BTreeMap<u64, Vec<RequestEvent>> {
    let mut by_id: BTreeMap<u64, Vec<RequestEvent>> = BTreeMap::new();
    for record in &trace.records {
        by_id.entry(record.trace_id).or_default().push(record.event);
    }
    by_id
}

#[test]
fn server_and_simlab_agree_on_one_script() {
    let policy = BatchPolicy {
        max_batch: MAX_BATCH,
        max_wait: 60_000_000,
    };
    let executor = ExecutorConfig::serial();

    let sim = simlab::run(
        &SimConfig {
            requests: REQUESTS,
            mean_interarrival: 1_000,
            kinds: KINDS.to_vec(),
            queue_capacity: REQUESTS,
            policy,
            lanes: 1,
            seed: SEED,
            retry: RETRY,
            faults: FAULTS,
            trace_capacity: 16 * REQUESTS,
            ..SimConfig::default()
        },
        &CostModel::synthetic(1_000, 500),
        Some(&Executor::new(executor)),
    )
    .serve;

    let server = Server::builder()
        .queue_capacity(REQUESTS)
        .batch(policy)
        .workers(1)
        .executor(executor)
        .trace_capacity(16 * REQUESTS)
        .retry(RETRY)
        .faults(FAULTS)
        .build()
        .expect("valid configuration");
    for (i, kind) in KINDS.into_iter().cycle().take(REQUESTS).enumerate() {
        let seed = simlab::request_seed(SEED, i as u64);
        let id = server.submit(kind, seed).expect("nothing is shed");
        assert_eq!(id, i as u64, "both drivers number requests in order");
    }
    let threaded = server.shutdown();

    // The script exercises the attempt loop, or the comparison is
    // vacuous.
    assert!(sim.stats.retries > 0, "some batch must retry");
    assert!(sim.stats.failed > 0, "some request must exhaust its budget");
    assert!(sim.stats.completed > 0, "some request must complete");
    assert_eq!(threaded.stats, sim.stats);

    assert_eq!(threaded.failed, sim.failed);
    let answers = |report: &ServeReport| {
        report
            .responses
            .iter()
            .map(|r| (r.id, r.answer, r.batch_size()))
            .collect::<Vec<_>>()
    };
    assert_eq!(answers(&threaded), answers(&sim));

    assert_eq!(threaded.trace.dropped, 0);
    assert_eq!(sim.trace.dropped, 0);
    assert_eq!(lifecycles(&threaded.trace), lifecycles(&sim.trace));
}
