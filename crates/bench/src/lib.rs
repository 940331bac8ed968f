//! # nsflow-bench
//!
//! Experiment harness for the NSFlow reproduction: one binary per table
//! and figure of the paper's evaluation, plus `*_throughput` binaries
//! that time the hot kernels and emit gated JSON.
//!
//! | target | regenerates |
//! |---|---|
//! | `fig1_characterization` | Fig. 1a/1b/1c — device latency breakdowns + roofline |
//! | `table2_design_space` | Tab. II — design-space sizes, original vs DAG |
//! | `table3_deployment` | Tab. III — design configs + U250 utilization |
//! | `table4_precision` | Tab. IV — mixed-precision reasoning accuracy + memory |
//! | `fig5_speedup` | Fig. 5 — end-to-end runtime vs six baselines |
//! | `fig6_ablation` | Fig. 6 — scalability/ablation vs symbolic proportion |
//! | `scalability_150x` | abstract — 150× symbolic scale-up |
//!
//! Every binary prints the series to stdout and writes a CSV under
//! `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod mapping;
pub mod simreport;

use std::fs;
use std::path::PathBuf;

/// Directory experiment CSVs are written to (created on demand).
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn experiment_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes a CSV file into [`experiment_dir`].
///
/// # Panics
///
/// Panics on I/O failure — experiment artifacts must not be silently
/// dropped.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = experiment_dir().join(name);
    let mut text = String::with_capacity(rows.len() * 32 + header.len() + 1);
    text.push_str(header);
    text.push('\n');
    for row in rows {
        text.push_str(row);
        text.push('\n');
    }
    fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\n[csv] wrote {}", path.display());
}

/// Renders the current global telemetry snapshot as a `"telemetry": {…}`
/// JSON object member (indented one level, no trailing comma or
/// newline), ready to splice into the hand-built `BENCH_*.json`
/// documents the bench binaries emit.
#[must_use]
pub fn telemetry_json_member() -> String {
    let mut out = String::from("  \"telemetry\": ");
    nsflow_telemetry::TelemetrySnapshot::capture()
        .to_json_value()
        .write_pretty(&mut out, 1);
    out
}

/// Formats a seconds value with an adaptive unit.
#[must_use]
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_seconds_units() {
        assert_eq!(fmt_seconds(2.5), "2.50 s");
        assert_eq!(fmt_seconds(0.0031), "3.10 ms");
        assert_eq!(fmt_seconds(42.0e-6), "42.0 µs");
    }

    #[test]
    fn csv_round_trip() {
        write_csv("test_artifact.csv", "a,b", &["1,2".to_string()]);
        let text = std::fs::read_to_string(experiment_dir().join("test_artifact.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
    }
}
