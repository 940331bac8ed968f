//! Trace goldens: the simlab flight recorder is bit-reproducible, its
//! Chrome-trace export strict-parses with the in-repo JSON parser, and
//! lifecycle event chains are well ordered on both the simulated and
//! threaded paths.

use nsflow_serve::batcher::BatchPolicy;
use nsflow_serve::executor::ExecutorConfig;
use nsflow_serve::request::WorkloadKind;
use nsflow_serve::server::Server;
use nsflow_serve::simlab::{self, CostModel, SimConfig};
use nsflow_serve::RequestEvent;
use nsflow_telemetry::JsonValue;

/// FNV-1a digest of the golden run's rendered Chrome trace, pinned so a
/// refactor of the serving core cannot change simlab output unnoticed.
const GOLDEN_TRACE_FNV1A: u64 = 0xc686_8290_35e7_0ef8;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn golden_config() -> SimConfig {
    SimConfig {
        requests: 96,
        mean_interarrival: 800,
        kinds: WorkloadKind::all().to_vec(),
        queue_capacity: 24,
        policy: BatchPolicy {
            max_batch: 6,
            max_wait: 4_000,
        },
        lanes: 2,
        seed: 0x90_1d_e4,
        trace_capacity: 1024,
        ..SimConfig::default()
    }
}

#[test]
fn sim_chrome_trace_is_bit_identical_across_reruns() {
    let cost = CostModel::synthetic(3_000, 1_500);
    let a = simlab::run(&golden_config(), &cost, None).serve;
    let b = simlab::run(&golden_config(), &cost, None).serve;
    assert_eq!(a.trace, b.trace, "same seed, same recorded events");
    assert_eq!(a.phases, b.phases);

    let text_a = a.trace.to_chrome_trace("golden", "cycle").render_pretty();
    let text_b = b.trace.to_chrome_trace("golden", "cycle").render_pretty();
    assert_eq!(text_a, text_b, "export must be bit-identical");

    assert_eq!(
        fnv1a(text_a.as_bytes()),
        GOLDEN_TRACE_FNV1A,
        "the golden run's Chrome trace changed"
    );

    // The emitted document strict-parses with the in-repo parser and
    // has the advertised structure.
    let doc = JsonValue::parse(&text_a).expect("trace strict-parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(
        events.len() > a.stats.submitted as usize,
        "slices per request"
    );
    assert_eq!(
        doc.get("metadata")
            .and_then(|m| m.get("time_unit"))
            .and_then(JsonValue::as_str),
        Some("cycle")
    );
    // Perfetto essentials: every event has a phase, duration events
    // have ts + dur.
    for event in events {
        let ph = event.get("ph").and_then(JsonValue::as_str).expect("ph");
        if ph == "X" {
            assert!(event.get("ts").and_then(JsonValue::as_u64).is_some());
            assert!(event.get("dur").and_then(JsonValue::as_u64).is_some());
        }
    }
    // Both lanes show up as worker tracks.
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(JsonValue::as_str)
        })
        .collect();
    assert!(track_names.contains(&"worker[0]"));
    assert!(track_names.contains(&"worker[1]"));
    assert!(track_names.contains(&"queue wait"));
}

#[test]
fn sim_event_chains_are_causally_ordered() {
    let cost = CostModel::synthetic(3_000, 1_500);
    let report = simlab::run(&golden_config(), &cost, None).serve;
    use std::collections::BTreeMap;
    let mut by_request: BTreeMap<u64, Vec<(u64, &RequestEvent)>> = BTreeMap::new();
    for record in &report.trace.records {
        by_request
            .entry(record.trace_id)
            .or_default()
            .push((record.ts, &record.event));
    }
    assert!(!by_request.is_empty());
    for (id, chain) in &by_request {
        let labels: Vec<&str> = chain.iter().map(|(_, e)| e.label()).collect();
        if labels == ["shed"] {
            continue;
        }
        assert_eq!(
            labels,
            [
                "admitted",
                "enqueued",
                "batch_formed",
                "exec_start",
                "exec_end",
                "responded"
            ],
            "request {id} lifecycle out of order"
        );
        let ts: Vec<u64> = chain.iter().map(|(t, _)| *t).collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "request {id} timestamps must be monotonic"
        );
    }
}

#[test]
fn ring_keeps_only_the_newest_lifecycles() {
    // Capacity far below the event volume: the ring must retain the
    // globally newest records and report the overwritten count.
    let config = SimConfig {
        trace_capacity: 64,
        ..golden_config()
    };
    let cost = CostModel::synthetic(3_000, 1_500);
    let report = simlab::run(&config, &cost, None).serve;
    assert!(report.trace.len() as u64 <= 64);
    assert!(report.trace.dropped > 0, "volume exceeds capacity");
    let seqs: Vec<u64> = report.trace.records.iter().map(|r| r.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    // The retained window is the tail of the sequence space.
    let total = report.trace.dropped + report.trace.len() as u64;
    assert_eq!(*seqs.last().expect("nonempty") + 1, total);
}

#[test]
fn threaded_server_traces_real_lifecycles() {
    let server = Server::builder()
        .queue_capacity(32)
        .batch(BatchPolicy {
            max_batch: 4,
            max_wait: 1_000,
        })
        .workers(2)
        .executor(ExecutorConfig::serial())
        .trace_capacity(1024)
        .build()
        .expect("valid configuration");
    for seed in 0..10 {
        server.submit(WorkloadKind::Lvrf, seed).expect("room");
    }
    let report = server.shutdown();
    assert_eq!(report.responses.len(), 10);
    // 6 events per served request, none dropped at this capacity.
    assert_eq!(report.trace.len(), 60);
    assert_eq!(report.trace.dropped, 0);
    assert_eq!(report.phases.exec.count, 10);
    // Wall-clock traces still export and strict-parse.
    let text = report
        .trace
        .to_chrome_trace("threaded", "microsecond")
        .render_pretty();
    let doc = JsonValue::parse(&text).expect("threaded trace strict-parses");
    assert!(doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .is_some());
}
