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
//! `target/experiments/`. The `*_throughput` binaries and `simtrace`
//! also write a `BENCH_*.json` whose every measured number is a
//! declared [`metric`], which [`gate`] judges by its declaration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod mapping;
pub mod simreport;

use std::fs;
use std::path::PathBuf;

use nsflow_telemetry::JsonValue;

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

/// Relative bound of every wall-clock ratio (speedups, points/s): the
/// gate fails one that drops below half its baseline. Wide enough for
/// noisy shared CI runners, tight enough to catch an order-of-magnitude
/// regression (a lost cache, an accidental serial fallback).
pub const WALL_CLOCK_BOUND: f64 = 0.5;

/// The direction in which a declared metric may move without failing
/// the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// May rise freely; fails below `baseline · (1 − bound)`.
    Higher,
    /// May fall freely; fails above `baseline · (1 + bound)`.
    Lower,
    /// Deterministic: any difference fails.
    Exact,
}

impl Better {
    /// The declaration's JSON spelling.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
            Better::Exact => "exact",
        }
    }

    /// Parses a declaration's JSON spelling.
    #[must_use]
    pub(crate) fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            "exact" => Some(Better::Exact),
            _ => None,
        }
    }
}

/// A declared metric, `{"value", "unit", "better", "bound"}`: the value
/// together with how [`gate`] judges it. `bound` is the relative slack
/// of a `higher`/`lower` metric (`0` for `exact`); `None` renders as
/// `null` and makes the metric informational.
#[must_use]
pub fn metric(value: JsonValue, unit: &str, better: Better, bound: Option<f64>) -> JsonValue {
    JsonValue::object([
        ("value", value),
        ("unit", JsonValue::Str(unit.to_string())),
        ("better", JsonValue::Str(better.as_str().to_string())),
        ("bound", bound.map_or(JsonValue::Null, JsonValue::Float)),
    ])
}

/// A deterministic metric: any change fails the gate.
#[must_use]
pub fn exact(value: JsonValue, unit: &str) -> JsonValue {
    metric(value, unit, Better::Exact, Some(0.0))
}

/// A wall-clock speedup or rate (points/s) that must not fall below its
/// baseline by more than [`WALL_CLOCK_BOUND`].
#[must_use]
pub fn wall_ratio(value: f64, unit: &str) -> JsonValue {
    metric(
        JsonValue::Float(value),
        unit,
        Better::Higher,
        Some(WALL_CLOCK_BOUND),
    )
}

/// A host-dependent wall time: recorded, never gated.
#[must_use]
pub fn wall_time(value: f64, unit: &str) -> JsonValue {
    metric(JsonValue::Float(value), unit, Better::Lower, None)
}

/// Writes a `BENCH_*.json` document into the working directory.
///
/// # Panics
///
/// Panics on I/O failure, like [`write_csv`].
pub fn write_artifact(name: &str, doc: &JsonValue) {
    let mut text = doc.render_pretty();
    text.push('\n');
    fs::write(name, text).unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("[json] wrote {name}");
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
