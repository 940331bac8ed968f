//! Strict-parse the observability artifacts written by
//! `nsflow serve --trace-out … --metrics-out … --metrics-json …`.
//!
//! CI runs this after the serving observability smoke: the Chrome
//! trace must parse with the in-repo JSON parser and carry a
//! non-empty `traceEvents` array, the Prometheus exposition must
//! round-trip through `nsflow_telemetry::prom::parse`, and the JSON
//! snapshot must load back as a `TelemetrySnapshot`. Any drift between
//! what the exporters write and what the parsers accept fails here,
//! not on a user's Perfetto tab.
//!
//! ```sh
//! cargo run --release --example parse_observability_artifacts -- \
//!     serve.trace.json metrics.prom metrics.json
//! ```

use nsflow::telemetry::{prom, JsonValue, TelemetrySnapshot};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let trace_path = args.next().unwrap_or_else(|| "serve.trace.json".into());
    let prom_path = args.next().unwrap_or_else(|| "metrics.prom".into());
    let json_path = args.next().unwrap_or_else(|| "metrics.json".into());

    let trace_text = std::fs::read_to_string(&trace_path)?;
    let doc = JsonValue::parse(&trace_text).map_err(|e| format!("{trace_path}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace document has no traceEvents array")?;
    let time_unit = doc
        .get("metadata")
        .and_then(|m| m.get("time_unit"))
        .and_then(JsonValue::as_str)
        .ok_or("trace metadata has no time_unit")?;
    if events.is_empty() {
        return Err("trace has zero events — the flight recorder went dark".into());
    }
    println!(
        "{trace_path}: {} events, time unit {time_unit}",
        events.len()
    );

    let prom_text = std::fs::read_to_string(&prom_path)?;
    let from_prom = prom::parse(&prom_text).map_err(|e| format!("{prom_path}: {e}"))?;
    println!(
        "{prom_path}: {} counters, {} gauges, {} histograms, {} spans",
        from_prom.counters.len(),
        from_prom.gauges.len(),
        from_prom.histograms.len(),
        from_prom.spans.len()
    );

    let json_text = std::fs::read_to_string(&json_path)?;
    let from_json =
        TelemetrySnapshot::from_json(&json_text).map_err(|e| format!("{json_path}: {e}"))?;
    // The two exports come from the same process; the lifecycle
    // counters must exist in both and agree on the submit volume.
    for snapshot in [&from_prom, &from_json] {
        if snapshot.counter("serve.submitted") == 0 {
            return Err("serve.submitted missing from exported metrics".into());
        }
    }
    if from_prom.counter("serve.submitted") != from_json.counter("serve.submitted") {
        return Err("prom and JSON exports disagree on serve.submitted".into());
    }
    println!("{json_path}: snapshot loads, exports agree");
    Ok(())
}
