//! Stress test (loom-free): `telemetry::reset()` racing with live
//! `counter!` / `gauge!` / `histogram!` / `span!` recording on worker
//! threads never panics, never invalidates a cached `&'static` handle,
//! and leaves every registered metric present in the snapshot.
//!
//! This pins the registry's current contract: reset zeroes values in
//! place (names stay registered, handles stay valid) rather than
//! swapping the registry out — the property that makes the macros'
//! per-call-site `OnceLock` caches sound.
//!
//! Lives in its own test binary: the concurrent-increment tests assert
//! exact counts, which a racing reset would destroy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nsflow_telemetry as telemetry;

#[test]
fn reset_races_with_recording_without_panics() {
    const WORKERS: usize = 4;
    const RESETS: usize = 200;

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut recorded = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    telemetry::counter!("reset_stress.hits").incr();
                    telemetry::gauge!("reset_stress.depth").set(w as i64);
                    telemetry::histogram!("reset_stress.lat").record(recorded % 1024);
                    {
                        let _span = telemetry::span!("reset_stress.work");
                    }
                    recorded += 1;
                }
                recorded
            })
        })
        .collect();

    // Hammer reset concurrently with the recorders, interleaving
    // snapshot captures (the reader path must survive the race too).
    for i in 0..RESETS {
        telemetry::reset();
        if i % 16 == 0 {
            let _ = telemetry::TelemetrySnapshot::capture();
        }
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("worker must not panic"))
        .sum();
    assert!(total > 0, "workers must have recorded throughout");

    // Handles cached before all the resets still point into the live
    // registry: post-reset recording is observable.
    telemetry::counter!("reset_stress.hits").add(5);
    telemetry::histogram!("reset_stress.lat").record(7);
    telemetry::gauge!("reset_stress.depth").set(1);
    {
        let _span = telemetry::span!("reset_stress.work");
    }
    let snapshot = telemetry::TelemetrySnapshot::capture();
    assert!(snapshot.counter("reset_stress.hits") >= 5);
    assert!(snapshot.gauges.contains_key("reset_stress.depth"));
    let hist = snapshot
        .histograms
        .get("reset_stress.lat")
        .expect("histogram name survives reset");
    assert!(hist.count >= 1);
    assert!(
        snapshot.spans.contains_key("reset_stress.work"),
        "span path survives reset"
    );

    // One more reset with no recorders running: values drop to zero,
    // names remain.
    telemetry::reset();
    let zeroed = telemetry::TelemetrySnapshot::capture();
    assert_eq!(zeroed.counter("reset_stress.hits"), 0);
    assert!(zeroed.counters.contains_key("reset_stress.hits"));
    assert!(zeroed.histograms.contains_key("reset_stress.lat"));
}
