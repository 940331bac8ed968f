//! Counters are lossless under concurrent increments from the shared
//! `nsflow_tensor::par` thread pool.

use nsflow_telemetry as telemetry;
use nsflow_tensor::par::parallel_map;

#[test]
fn concurrent_increments_are_lossless() {
    const ITEMS: usize = 64;
    const PER_ITEM: u64 = 1_000;
    let counter = telemetry::global().counter("concurrent_test.hits");
    let before = counter.get();

    let items: Vec<u64> = (0..ITEMS as u64).collect();
    for threads in [1, 2, 4, 8] {
        let out = parallel_map(&items, threads, |&i| {
            for _ in 0..PER_ITEM {
                telemetry::counter!("concurrent_test.hits").incr();
            }
            i
        });
        assert_eq!(out, items, "pool must preserve order at t={threads}");
    }

    let expected = 4 * ITEMS as u64 * PER_ITEM;
    assert_eq!(counter.get() - before, expected);
}

#[test]
fn concurrent_histogram_recording_is_lossless() {
    let histogram = telemetry::global().histogram("concurrent_test.samples");
    let items: Vec<u64> = (0..4096).collect();
    let count = || {
        let snap = telemetry::TelemetrySnapshot::capture();
        snap.histograms
            .get("concurrent_test.samples")
            .map_or(0, |h| h.count)
    };
    let before = count();
    parallel_map(&items, 8, |&v| histogram.record(v));
    assert_eq!(count() - before, items.len() as u64);
    let snap = telemetry::TelemetrySnapshot::capture();
    let h = snap.histograms.get("concurrent_test.samples").unwrap();
    assert_eq!(h.buckets.iter().map(|(_, n)| n).sum::<u64>(), h.count);
    assert_eq!(h.max, 4095);
}
