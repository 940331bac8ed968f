//! Serving determinism: answers are a function of `(kind, seed)` only —
//! independent of batch size, worker count, batch fan-out threads, and
//! arrival order — and the virtual-time simulation is bit-reproducible.
//!
//! The CI determinism cell reruns this file with `NSFLOW_THREADS=1` to
//! pin the auto-sized batch fan-out to one thread; every assertion must
//! hold unchanged there.

use std::collections::BTreeMap;

use nsflow_serve::batcher::BatchPolicy;
use nsflow_serve::executor::ExecutorConfig;
use nsflow_serve::request::{Request, WorkloadKind};
use nsflow_serve::server::Server;
use nsflow_serve::simlab::{self, CostModel, SimConfig};

/// Runs a server at the given shape and returns (kind, seed) → answer.
fn serve_answers(
    workers: usize,
    max_batch: usize,
    executor: ExecutorConfig,
) -> BTreeMap<(String, u64), u64> {
    let server = Server::builder()
        .queue_capacity(64)
        .batch(BatchPolicy {
            max_batch,
            max_wait: 500,
        })
        .workers(workers)
        .executor(executor)
        .trace_capacity(1024)
        .build()
        .expect("valid configuration");
    let mut meta = BTreeMap::new();
    for (i, kind) in WorkloadKind::all().iter().cycle().take(16).enumerate() {
        let seed = 7 * i as u64 + 3;
        let id = server.submit(*kind, seed).expect("room");
        meta.insert(id, (kind.name().to_string(), seed));
    }
    let report = server.shutdown();
    assert_eq!(report.responses.len(), 16);
    report
        .responses
        .into_iter()
        .map(|r| (meta[&r.id].clone(), r.answer))
        .collect()
}

#[test]
fn answers_survive_any_serving_shape() {
    let baseline = serve_answers(1, 1, ExecutorConfig::serial());
    let batched = serve_answers(4, 8, ExecutorConfig::default());
    assert_eq!(
        baseline, batched,
        "batching/threading must not change any answer"
    );
}

#[test]
fn sim_is_bit_reproducible_across_runs() {
    let cost = CostModel::synthetic(5_000, 2_000);
    let config = SimConfig {
        requests: 200,
        mean_interarrival: 2_000,
        kinds: WorkloadKind::all().to_vec(),
        queue_capacity: 32,
        policy: BatchPolicy {
            max_batch: 8,
            max_wait: 10_000,
        },
        lanes: 3,
        seed: 0xdead_beef,
        trace_capacity: 4096,
        ..SimConfig::default()
    };
    let a = simlab::run(&config, &cost, None);
    let b = simlab::run(&config, &cost, None);
    assert_eq!(a, b, "same seed, same report — bit for bit");
    // And a different seed genuinely changes the timeline.
    let other = simlab::run(
        &SimConfig {
            seed: 0xbeef_dead,
            ..config
        },
        &cost,
        None,
    );
    assert_ne!(
        a.latency, other.latency,
        "different seeds should produce different arrival timelines"
    );
}

#[test]
fn sim_answers_match_direct_execution() {
    use nsflow_serve::executor::Executor;

    let cost = CostModel::synthetic(1_000, 500);
    let config = SimConfig {
        requests: 24,
        mean_interarrival: 500,
        kinds: vec![WorkloadKind::Lvrf, WorkloadKind::Mimonet],
        queue_capacity: 24,
        policy: BatchPolicy {
            max_batch: 4,
            max_wait: 2_000,
        },
        lanes: 2,
        seed: 99,
        trace_capacity: 1024,
        ..SimConfig::default()
    };
    let executor = Executor::new(ExecutorConfig::serial());
    let report = simlab::run(&config, &cost, Some(&executor));
    for response in &report.serve.responses {
        let direct = executor.execute(&Request::new(
            response.id,
            response.kind,
            simlab::request_seed(config.seed, response.id),
            0,
        ));
        assert_eq!(response.answer, direct);
    }
}
