//! Robust serving end to end: deadlines, bounded retries and seeded
//! fault injection through the builder-style API — then the same chaos
//! replayed bit-identically on the virtual-time simulator.
//!
//! ```sh
//! cargo run --release --example serving_robustness
//! ```

use nsflow::serve::batcher::BatchPolicy;
use nsflow::serve::prelude::*;
use nsflow::serve::simlab::{self, CostModel, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. A server with every robustness policy live ───────────────────
    // The builder validates the whole configuration before any thread
    // spawns; a bad knob comes back as a typed ConfigError, not a panic.
    let faults = FaultPlan::parse("seed=7,error=200,spike=100:400,stall=50:400")?;
    let server = Server::builder()
        .queue_capacity(64)
        .batch(BatchPolicy {
            max_batch: 4,
            max_wait: 800,
        })
        .workers(2)
        .deadline_default(200_000) // 200 ms budget unless overridden
        .retry(RetryPolicy {
            max_attempts: 3,
            backoff_base: 400,
            backoff_cap: 3_200,
            jitter_seed: 42,
        })
        .faults(faults)
        .build()?;
    println!("fault plan: {faults}");

    // ── 2. Per-request options via submit_with ──────────────────────────
    // submit_with carries a deadline and a retry override; it refuses
    // with the same AdmissionError as the two-arg submit.
    for i in 0..24u64 {
        let kind = WorkloadKind::all()[i as usize % 4];
        let result = server.submit_with(
            kind,
            100 + i,
            SubmitOptions {
                deadline: Some(500_000),
                ..SubmitOptions::default()
            },
        );
        match result {
            Ok(_) => {}
            // Typed shedding: overload and infeasible deadlines each
            // carry their reason.
            Err(err) => println!("  shed {kind}: {err}"),
        }
    }
    let report = server.shutdown();
    let stats = report.stats;
    println!(
        "threaded: submitted {} completed {} failed {} retries {} faults {}",
        stats.submitted, stats.completed, stats.failed, stats.retries, stats.faults_injected
    );
    for failure in &report.failed {
        println!(
            "  gave up on request {} ({}) after {} attempts",
            failure.id, failure.kind, failure.attempts
        );
    }

    // ── 3. The same chaos, bit-reproducible in virtual time ─────────────
    // The serving core is clock-agnostic, so the simulator runs the
    // identical code under a virtual clock: two runs of a seeded chaos
    // scenario match down to the trace bytes.
    let config = SimConfig {
        requests: 96,
        mean_interarrival: 500,
        kinds: WorkloadKind::all().to_vec(),
        queue_capacity: 24,
        policy: BatchPolicy {
            max_batch: 6,
            max_wait: 3_000,
        },
        lanes: 2,
        seed: 0xc4a05,
        deadline: Some(60_000),
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
        ..SimConfig::default()
    };
    let cost = CostModel::synthetic(3_000, 1_500);
    let a = simlab::run(&config, &cost, None).serve;
    let b = simlab::run(&config, &cost, None).serve;
    assert_eq!(a, b, "seeded chaos replays exactly");
    let trace_a = a.trace.to_chrome_trace("chaos", "cycle").render_pretty();
    let trace_b = b.trace.to_chrome_trace("chaos", "cycle").render_pretty();
    assert_eq!(trace_a.as_bytes(), trace_b.as_bytes());
    let s = a.stats;
    println!(
        "simlab:   submitted {} completed {} failed {} expired {} retries {} faults {}",
        s.submitted, s.completed, s.failed, s.expired, s.retries, s.faults_injected
    );
    println!(
        "simlab:   chaos trace is {} bytes, byte-identical across two runs",
        trace_a.len()
    );
    Ok(())
}
