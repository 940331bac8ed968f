//! `nsflow-telemetry`: zero-dependency observability for the NSFlow
//! workspace (std only).
//!
//! The crate provides:
//!
//! - a thread-safe, process-global metrics [`Registry`] of monotonic
//!   [`Counter`]s, [`Gauge`]s and log2-bucketed [`Histogram`]s, all
//!   recorded with relaxed atomics so instrumentation is cheap enough
//!   for hot kernels;
//! - hierarchical RAII [`SpanGuard`] timers that nest per thread and
//!   aggregate under dotted paths (`dse.explore.phase1`);
//! - a deterministic [`TelemetrySnapshot`] that serializes to stable
//!   JSON — same state, same bytes — so snapshots embedded in
//!   `BENCH_*.json` diff cleanly and can be compared by the CI
//!   regression gate;
//! - a dependency-free JSON document model ([`JsonValue`]) with a
//!   strict parser and compact/pretty writers, and the one Chrome Trace
//!   Event Format writer built on it ([`ChromeTrace`]).
//!
//! # Recording
//!
//! ```
//! use nsflow_telemetry as telemetry;
//!
//! fn hot_loop() {
//!     let _span = telemetry::span!("docs.hot_loop");
//!     for i in 0..32u64 {
//!         telemetry::counter!("docs.iterations").incr();
//!         telemetry::histogram!("docs.values").record(i);
//!     }
//!     telemetry::gauge!("docs.threads").set(4);
//! }
//!
//! hot_loop();
//! let snapshot = telemetry::TelemetrySnapshot::capture();
//! assert_eq!(snapshot.counter("docs.iterations"), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod prom;
mod registry;
mod snapshot;
mod span;
pub mod trace;

pub use chrome::ChromeTrace;
pub use json::{JsonError, JsonValue};
pub use registry::{
    bucket_index, bucket_lower_bound, global, Counter, Gauge, Histogram, Registry, SpanStat,
    BUCKETS,
};
pub use snapshot::{HistogramSnapshot, SpanSnapshot, TelemetrySnapshot};
pub use span::SpanGuard;
pub use trace::{
    FlightRecorder, PhaseBreakdown, PhaseStats, RequestEvent, ShedReason, TraceRecord,
    TraceSnapshot,
};

/// Reset every metric in the global registry to zero.
///
/// Metric names stay registered; cached handles stay valid. Bench
/// binaries call this before a measured run so the embedded snapshot
/// covers exactly that run.
pub fn reset() {
    global().reset();
}

/// Global counter handle by name, cached per call site.
///
/// Expands to a `&'static Counter`; the name lookup happens once per
/// call site (a `OnceLock`'d pointer), so hot loops only pay one
/// relaxed atomic add per increment.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __NSFLOW_TELEMETRY_SITE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__NSFLOW_TELEMETRY_SITE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Global gauge handle by name, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __NSFLOW_TELEMETRY_SITE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__NSFLOW_TELEMETRY_SITE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Global histogram handle by name, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __NSFLOW_TELEMETRY_SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__NSFLOW_TELEMETRY_SITE.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Open a hierarchical RAII span timer.
///
/// Bind the result (`let _span = span!("dse.phase1");`) — the timing
/// is recorded when the guard drops. Spans opened while another span
/// guard is live on the same thread aggregate under the joined dotted
/// path.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use crate as telemetry;

    #[test]
    fn macros_record_into_the_global_registry() {
        telemetry::counter!("lib_test.count").add(2);
        telemetry::counter!("lib_test.count").incr();
        telemetry::gauge!("lib_test.gauge").set(7);
        telemetry::histogram!("lib_test.hist").record(100);
        {
            let _span = telemetry::span!("lib_test.span");
        }
        let snapshot = telemetry::TelemetrySnapshot::capture();
        assert!(snapshot.counter("lib_test.count") >= 3);
        assert_eq!(snapshot.gauges.get("lib_test.gauge"), Some(&7));
        assert!(snapshot.histograms.get("lib_test.hist").unwrap().count >= 1);
        assert!(snapshot.spans.get("lib_test.span").unwrap().count >= 1);
    }
}
