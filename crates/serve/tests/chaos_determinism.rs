//! Chaos replay: a seeded fault-injection simulation is as
//! bit-reproducible as a clean one — the full report *and* the rendered
//! Chrome-trace bytes are identical across runs.
//!
//! The CI `chaos` step runs this file twice with
//! `NSFLOW_CHAOS_TRACE_OUT` pointing at two different paths and diffs
//! the written traces byte-for-byte across processes.

use nsflow_serve::batcher::BatchPolicy;
use nsflow_serve::request::WorkloadKind;
use nsflow_serve::robust::{FaultPlan, RetryPolicy};
use nsflow_serve::simlab::{self, CostModel, SimConfig};

/// FNV-1a digest of the chaos run's rendered Chrome trace, pinned so a
/// refactor of the serving core cannot change simlab output unnoticed.
const CHAOS_TRACE_FNV1A: u64 = 0x9875_88fd_af0c_9e76;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A saturating run where every robustness policy is live: deadlines,
/// retries and all three fault kinds fire at these rates.
fn chaos_config() -> SimConfig {
    SimConfig {
        requests: 160,
        mean_interarrival: 400,
        kinds: WorkloadKind::all().to_vec(),
        queue_capacity: 24,
        policy: BatchPolicy {
            max_batch: 6,
            max_wait: 3_000,
        },
        lanes: 2,
        seed: 0xc4a05,
        deadline: Some(80_000),
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_base: 200,
            backoff_cap: 2_000,
            jitter_seed: 5,
        },
        faults: FaultPlan {
            seed: 0xbad_cafe,
            error_permille: 250,
            spike_permille: 150,
            spike_ticks: 2_500,
            stall_permille: 100,
            stall_ticks: 2_000,
        },
        trace_capacity: 8192,
    }
}

#[test]
fn chaos_chrome_trace_is_bit_identical_across_reruns() {
    let cost = CostModel::synthetic(3_000, 1_500);
    let a = simlab::run(&chaos_config(), &cost, None);
    let b = simlab::run(&chaos_config(), &cost, None);
    assert_eq!(a, b, "same seed, same chaos — the full report matches");
    let (a, b) = (a.serve, b.serve);

    let text_a = a.trace.to_chrome_trace("chaos", "cycle").render_pretty();
    let text_b = b.trace.to_chrome_trace("chaos", "cycle").render_pretty();
    assert_eq!(
        text_a.as_bytes(),
        text_b.as_bytes(),
        "chaos trace export must be byte-identical"
    );

    // The scenario genuinely exercises the whole layer — otherwise the
    // replay guarantee is vacuous.
    let stats = a.stats;
    assert!(stats.faults_injected > 0, "plan must fire at these rates");
    assert!(stats.retries > 0, "exec errors must drive retries");
    assert_eq!(stats.submitted + stats.shed, chaos_config().requests as u64);
    assert_eq!(
        stats.completed + stats.failed + stats.expired,
        stats.submitted
    );

    assert!(
        text_a.contains("\"faults\""),
        "retried/failed lifecycles surface the dedicated faults track"
    );
    assert_eq!(
        fnv1a(text_a.as_bytes()),
        CHAOS_TRACE_FNV1A,
        "the chaos run's Chrome trace changed"
    );

    // Hand the rendered bytes to the CI chaos step for the
    // cross-process diff.
    if let Ok(path) = std::env::var("NSFLOW_CHAOS_TRACE_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, &text_a).expect("write chaos trace");
        }
    }
}

#[test]
fn fault_free_runs_have_no_faults_track() {
    // The conditional faults track keeps clean traces byte-compatible
    // with the pre-robustness exporter: no Retried/Failed records, no
    // extra thread metadata.
    let config = SimConfig {
        deadline: None,
        retry: RetryPolicy::default(),
        faults: FaultPlan::default(),
        ..chaos_config()
    };
    let cost = CostModel::synthetic(3_000, 1_500);
    let report = simlab::run(&config, &cost, None).serve;
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.retries, 0);
    assert_eq!(report.stats.faults_injected, 0);
    let text = report
        .trace
        .to_chrome_trace("clean", "cycle")
        .render_pretty();
    assert!(
        !text.contains("\"faults\""),
        "clean runs must not grow a faults track"
    );
}

#[test]
fn chaos_seed_actually_steers_the_run() {
    // Differently-seeded fault plans produce different chaos — the
    // determinism above is seed-driven, not degenerate.
    let cost = CostModel::synthetic(3_000, 1_500);
    let a = simlab::run(&chaos_config(), &cost, None);
    let other = SimConfig {
        faults: FaultPlan {
            seed: 0xdead_beef,
            ..chaos_config().faults
        },
        ..chaos_config()
    };
    let b = simlab::run(&other, &cost, None);
    assert_ne!(a, b, "a different fault seed must change the run");
}
