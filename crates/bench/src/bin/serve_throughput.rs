//! Serving throughput under open-loop load: what dynamic batching buys
//! with the lane count held fixed.
//!
//! Every scenario runs on the virtual-time serving simulator
//! (`nsflow_serve::simlab`). Batch costs come from the cycle-level
//! scheduler: `CostModel::from_arch(8)` holds, per workload, the cycles
//! `Deployment::run_batch(n)` takes for `n` = 1..=8.
//!
//! - **nvsa_unbatched** — batch size 1, four lanes, NVSA only, arrivals
//!   beyond capacity (the saturation baseline; sheds).
//! - **nvsa_batched** — batch size 8, the same four lanes and arrival
//!   process. Its throughput over nvsa_unbatched's is
//!   `batching_speedup_fixed_lanes`: with lanes fixed it measures only
//!   what a batch amortizes. Next to it, `batching_speedup_model` =
//!   8·c(1)/c(8) is the cost table's prediction of that ratio; the run
//!   asserts the measured ratio lies within [`MODEL_BAND`] of it.
//! - **mixed** — all four workloads round-robin at moderate load:
//!   latency percentiles and the batch-size histogram under a healthy
//!   queue.
//! - **nvsa_chaos** — the full robustness layer under saturating load:
//!   seeded fault injection (exec errors, latency spikes, lane stalls),
//!   bounded retries with deterministic backoff and per-request
//!   deadlines. Shed, retry and failure rates land in
//!   `BENCH_serve.json`, where `bench_gate` holds them exact.
//!
//! Every dispatched request is also executed functionally (real
//! NVSA / MIMONet / LVRF / PrAE inference through the fast kernel
//! paths), so the numbers describe a pipeline that really serves
//! answers. All metrics are in cycles and bit-deterministic given the
//! seeds: arrivals come from a seeded SplitMix64, never wall time.
//!
//! Results go to stdout, `target/experiments/serve_throughput.csv` and
//! `BENCH_serve.json`. Pass `--quick` for the CI-sized run.
//!
//! ```sh
//! cargo run --release -p nsflow-bench --bin serve_throughput
//! ```

use std::borrow::Cow;

use nsflow_bench::{exact, write_artifact, write_csv};
use nsflow_serve::batcher::BatchPolicy;
use nsflow_serve::executor::{Executor, ExecutorConfig};
use nsflow_serve::request::WorkloadKind;
use nsflow_serve::robust::{FaultPlan, RetryPolicy};
use nsflow_serve::simlab::{self, CostModel, SimConfig, SimReport};
use nsflow_telemetry::JsonValue;

/// Largest relative gap allowed between the measured fixed-lane
/// batching ratio and the cost table's prediction of it.
const MODEL_BAND: f64 = 0.10;

/// Batch size of the batched scenarios, and the largest the cost table
/// prices.
const MAX_BATCH: usize = 8;

/// Arrival seed; every metric in `BENCH_serve.json` derives from it.
const SEED: u64 = 0x5e12_7e00;

struct Scenario {
    name: &'static str,
    config: SimConfig,
    report: SimReport,
}

fn run_scenario(
    name: &'static str,
    config: SimConfig,
    cost: &CostModel,
    executor: &Executor,
) -> Scenario {
    let report = simlab::run(&config, cost, Some(executor));
    let (stats, phases) = (report.serve.stats, report.serve.phases);
    println!(
        "{name:<16} lanes {} batch {:>2}  completed {:>4}  shed {:>5.1}%  p50 {:>9}  p99 {:>9}  {:>7.3} req/Mcycle",
        config.lanes,
        config.policy.max_batch,
        stats.completed,
        report.shed_rate * 100.0,
        report.latency.p50,
        report.latency.p99,
        report.throughput_per_mcycle,
    );
    println!(
        "{:<16}   phases: queue-wait p50 {:>9} / p95 {:>9}  batch-wait p50 {:>7} / p95 {:>7}  exec p50 {:>9} / p95 {:>9}",
        "",
        phases.queue_wait.p50,
        phases.queue_wait.p95,
        phases.batch_wait.p50,
        phases.batch_wait.p95,
        phases.exec.p50,
        phases.exec.p95,
    );
    let chaos_active = stats.faults_injected + stats.retries + stats.failed + stats.expired;
    if chaos_active > 0 {
        println!(
            "{:<16}   chaos: faults {} retries {} failed {} expired {}",
            "", stats.faults_injected, stats.retries, stats.failed, stats.expired,
        );
    }
    Scenario {
        name,
        config,
        report,
    }
}

/// A scenario's simlab figures. Every one is seed-deterministic, so
/// every one is declared `exact`.
fn scenario_json(s: &Scenario) -> JsonValue {
    let r = &s.report;
    let (stats, phases) = (&r.serve.stats, &r.serve.phases);
    let count = |v: u64| exact(JsonValue::UInt(v), "count");
    let cycles = |v: u64| exact(JsonValue::UInt(v), "cycles");
    let ratio = |v: f64| exact(JsonValue::Float(v), "ratio");
    let hist = r
        .batch_hist
        .iter()
        .map(|(size, n)| (Cow::Owned(size.to_string()), JsonValue::UInt(*n)))
        .collect();
    JsonValue::object([
        ("lanes", JsonValue::UInt(s.config.lanes as u64)),
        (
            "max_batch",
            JsonValue::UInt(s.config.policy.max_batch as u64),
        ),
        ("requests", JsonValue::UInt(s.config.requests as u64)),
        ("completed", count(stats.completed)),
        ("batches", count(stats.batches)),
        ("makespan_cycles", cycles(r.makespan)),
        (
            "throughput_per_mcycle",
            exact(JsonValue::Float(r.throughput_per_mcycle), "1/Mcycle"),
        ),
        ("shed_rate", ratio(r.shed_rate)),
        ("latency_p50_cycles", cycles(r.latency.p50)),
        ("latency_p95_cycles", cycles(r.latency.p95)),
        ("latency_p99_cycles", cycles(r.latency.p99)),
        ("latency_max_cycles", cycles(r.latency.max)),
        // Per-phase breakdown from the flight recorder.
        ("queue_wait_p50_cycles", cycles(phases.queue_wait.p50)),
        ("queue_wait_p95_cycles", cycles(phases.queue_wait.p95)),
        ("batch_wait_p50_cycles", cycles(phases.batch_wait.p50)),
        ("batch_wait_p95_cycles", cycles(phases.batch_wait.p95)),
        ("exec_latency_p50_cycles", cycles(phases.exec.p50)),
        ("exec_latency_p95_cycles", cycles(phases.exec.p95)),
        // Robustness figures: zero on the inert scenarios, live on
        // nvsa_chaos.
        ("retries", count(stats.retries)),
        (
            "retry_rate",
            ratio(stats.retries as f64 / stats.submitted.max(1) as f64),
        ),
        ("faults_injected", count(stats.faults_injected)),
        (
            "fault_rate",
            ratio(stats.faults_injected as f64 / stats.batches.max(1) as f64),
        ),
        // Admitted requests dropped at the pre-exec deadline check.
        ("deadline_shed", count(stats.expired)),
        ("failed", count(stats.failed)),
        // Lifecycle events recorded, retained plus overwritten.
        (
            "trace_events",
            count(r.serve.trace.len() as u64 + r.serve.trace.dropped),
        ),
        ("batch_hist", exact(JsonValue::Object(hist), "count")),
    ])
}

fn emit_json(scenarios: &[Scenario], measured: f64, model: f64, quick: bool) {
    let mut fields = vec![
        ("bench", JsonValue::Str("serve_throughput".into())),
        ("quick", JsonValue::Bool(quick)),
        ("seed", JsonValue::UInt(SEED)),
        (
            "batching_speedup_fixed_lanes",
            exact(JsonValue::Float(measured), "x"),
        ),
        // The cost table's prediction of the ratio above: a model, not a
        // measurement.
        (
            "batching_speedup_model",
            exact(JsonValue::Float(model), "x"),
        ),
    ];
    fields.extend(scenarios.iter().map(|s| (s.name, scenario_json(s))));
    fields.push((
        "telemetry",
        nsflow_telemetry::TelemetrySnapshot::capture().to_json_value(),
    ));
    write_artifact("BENCH_serve.json", &JsonValue::object(fields));
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Fresh counters so the embedded snapshot covers exactly this run.
    nsflow_telemetry::reset();

    // Price every batch size of every workload with the cycle-level
    // scheduler. Built once and reused by every scenario.
    let cost = CostModel::from_arch(MAX_BATCH);
    let nvsa = WorkloadKind::Nvsa;
    let service_unbatched = cost.cycles(nvsa, 1);
    let service_batched = cost.cycles(nvsa, MAX_BATCH);
    let model = (MAX_BATCH as u64 * service_unbatched) as f64 / service_batched as f64;
    println!(
        "serve throughput — NVSA {service_unbatched} cycles alone, {service_batched} cycles per batch of {MAX_BATCH}\n"
    );

    // Saturating arrival rate: 1.5× the four-lane unbatched capacity, so
    // both NVSA scenarios are capacity-bound (throughput measures the
    // pipeline, not the arrival process) and the shed path runs.
    let lanes = 4;
    let mean_interarrival = (service_unbatched * 2 / (3 * lanes as u64)).max(1);

    // Long enough that ramp-up and end-of-run lane quantization fade
    // below a few percent of makespan — the model check compares
    // sustained rates, not transients.
    let requests = if quick { 1_024 } else { 4_096 };
    let executor = Executor::new(ExecutorConfig::default());

    let unbatched = run_scenario(
        "nvsa_unbatched",
        SimConfig {
            requests,
            mean_interarrival,
            kinds: vec![nvsa],
            queue_capacity: 32,
            policy: BatchPolicy {
                max_batch: 1,
                max_wait: 1,
            },
            lanes,
            seed: SEED,
            trace_capacity: 4_096,
            ..SimConfig::default()
        },
        &cost,
        &executor,
    );
    let batched = run_scenario(
        "nvsa_batched",
        SimConfig {
            policy: BatchPolicy {
                max_batch: MAX_BATCH,
                max_wait: mean_interarrival * 16,
            },
            ..unbatched.config.clone()
        },
        &cost,
        &executor,
    );
    // Moderate mixed load: arrivals at ~60% of the four-lane pipeline's
    // unbatched capacity, all four workloads round-robin.
    let per_round: u64 = WorkloadKind::all()
        .into_iter()
        .map(|k| cost.cycles(k, 1))
        .sum();
    let mixed_mean = (per_round / 4 / lanes as u64 * 10 / 6).max(1);
    let mixed = run_scenario(
        "mixed",
        SimConfig {
            requests,
            mean_interarrival: mixed_mean,
            kinds: WorkloadKind::all().to_vec(),
            queue_capacity: 64,
            policy: BatchPolicy {
                max_batch: MAX_BATCH,
                max_wait: mixed_mean * 8,
            },
            lanes,
            seed: SEED ^ 0xffff,
            trace_capacity: 4_096,
            ..SimConfig::default()
        },
        &cost,
        &executor,
    );
    // Chaos: the same saturating NVSA load as nvsa_batched, with every
    // robustness policy live. Deadlines are a few service times — tight
    // enough that overload sheds, loose enough that admission stays
    // feasible. All draws are seeded, so the reported shed/retry/fault
    // rates are constants worth gating.
    let chaos = run_scenario(
        "nvsa_chaos",
        SimConfig {
            requests,
            mean_interarrival,
            kinds: vec![nvsa],
            queue_capacity: 32,
            policy: BatchPolicy {
                max_batch: MAX_BATCH,
                max_wait: mean_interarrival * 16,
            },
            lanes,
            seed: SEED ^ 0xc4a05,
            deadline: Some(service_unbatched * 8),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base: mean_interarrival,
                backoff_cap: mean_interarrival * 8,
                jitter_seed: SEED,
            },
            faults: FaultPlan {
                seed: SEED,
                error_permille: 150,
                spike_permille: 100,
                spike_ticks: service_unbatched / 2,
                stall_permille: 50,
                stall_ticks: service_unbatched / 2,
            },
            trace_capacity: 4_096,
        },
        &cost,
        &executor,
    );

    let measured = batched.report.throughput_per_mcycle / unbatched.report.throughput_per_mcycle;
    let gap = measured / model - 1.0;
    println!(
        "\nbatched vs unbatched NVSA throughput at {lanes} lanes: {measured:.3}x measured, \
         {model:.3}x predicted by the cost table (8·c(1)/c(8)), gap {:+.1}%",
        gap * 100.0
    );

    let scenarios = [unbatched, batched, mixed, chaos];
    let rows: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "{},{},{},{},{},{:.6},{:.6},{},{},{}",
                s.name,
                s.config.lanes,
                s.config.policy.max_batch,
                s.config.requests,
                s.report.serve.stats.completed,
                s.report.throughput_per_mcycle,
                s.report.shed_rate,
                s.report.latency.p50,
                s.report.latency.p95,
                s.report.latency.p99,
            )
        })
        .collect();
    write_csv(
        "serve_throughput.csv",
        "scenario,lanes,max_batch,requests,completed,throughput_per_mcycle,shed_rate,p50,p95,p99",
        &rows,
    );

    let snapshot = nsflow_telemetry::TelemetrySnapshot::capture();
    assert!(
        snapshot.counter("serve.shed") > 0,
        "saturation scenarios recorded zero sheds — admission control is not running"
    );
    println!(
        "[telemetry] submitted={} shed={}",
        snapshot.counter("serve.submitted"),
        snapshot.counter("serve.shed"),
    );
    emit_json(&scenarios, measured, model, quick);

    // The simulation is seed-deterministic, so this check cannot flake:
    // it fails only when simlab's serving loop stops delivering what the
    // cost table says a batch is worth.
    assert!(
        gap.abs() <= MODEL_BAND,
        "fixed-lane batching ratio {measured:.3}x is {:+.1}% off the cost table's {model:.3}x (band ±{:.0}%)",
        gap * 100.0,
        MODEL_BAND * 100.0
    );
}
