//! Live metrics export for a running server.
//!

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nsflow_telemetry::{prom, TelemetrySnapshot};

/// Periodic Prometheus + JSON snapshot writer: writes the global
/// [`TelemetrySnapshot`] to disk in two formats:
///
/// - **Prometheus text exposition** (`metrics.prom`) via
///   [`nsflow_telemetry::prom::render`] — point a file-based scraper
///   (or `curl`-equivalent tooling) at it;
/// - **deterministic JSON** (`metrics.json`) — the same snapshot shape
///   embedded in `BENCH_*.json`, for scripts that already parse it.
///
/// The exporter is driven by the caller's loop (the `nsflow serve`
/// submission loop calls [`MetricsExporter::tick`] between requests),
/// so it adds no thread of its own; a final [`MetricsExporter::export`]
/// at shutdown captures the end-of-run state. Writes are atomic-ish:
/// rendered to a temp file first, then renamed over the target, so a
/// concurrent reader never sees a half-written exposition.
#[derive(Debug)]
pub struct MetricsExporter {
    prom_path: Option<PathBuf>,
    json_path: Option<PathBuf>,
    every: Duration,
    last: Option<Instant>,
}

impl MetricsExporter {
    /// Creates an exporter writing to the given paths (either may be
    /// `None`) at most once per `every` tick interval.
    #[must_use]
    pub fn new(prom_path: Option<PathBuf>, json_path: Option<PathBuf>, every: Duration) -> Self {
        MetricsExporter {
            prom_path,
            json_path,
            every,
            last: None,
        }
    }

    /// True when at least one output path is configured.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.prom_path.is_some() || self.json_path.is_some()
    }

    /// Exports if at least `every` has elapsed since the last export
    /// (the first tick always exports). Returns whether an export
    /// happened.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the output files.
    pub fn tick(&mut self) -> io::Result<bool> {
        if !self.is_active() {
            return Ok(false);
        }
        let due = match self.last {
            None => true,
            Some(last) => last.elapsed() >= self.every,
        };
        if !due {
            return Ok(false);
        }
        self.export()?;
        Ok(true)
    }

    /// Unconditionally captures and writes the current snapshot.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the output files.
    pub fn export(&mut self) -> io::Result<()> {
        let snapshot = TelemetrySnapshot::capture();
        if let Some(path) = &self.prom_path {
            write_atomically(path, &prom::render(&snapshot))?;
        }
        if let Some(path) = &self.json_path {
            let mut json = snapshot.to_json();
            json.push('\n');
            write_atomically(path, &json)?;
        }
        self.last = Some(Instant::now());
        Ok(())
    }
}

/// Writes via a sibling temp file + rename so readers never observe a
/// torn file.
fn write_atomically(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nsflow-metrics-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn inactive_exporter_never_writes() {
        let mut exporter = MetricsExporter::new(None, None, Duration::from_millis(1));
        assert!(!exporter.is_active());
        assert!(!exporter.tick().expect("no I/O to fail"));
    }

    #[test]
    fn export_writes_parseable_prom_and_json() {
        nsflow_telemetry::counter!("metrics_test.requests").add(3);
        let dir = temp_dir("export");
        let prom_path = dir.join("metrics.prom");
        let json_path = dir.join("metrics.json");
        let mut exporter = MetricsExporter::new(
            Some(prom_path.clone()),
            Some(json_path.clone()),
            Duration::from_secs(3600),
        );
        // First tick always exports; an immediate second tick is not due.
        assert!(exporter.tick().expect("write ok"));
        assert!(!exporter.tick().expect("no write"));

        let prom_text = std::fs::read_to_string(&prom_path).expect("prom file");
        let parsed = prom::parse(&prom_text).expect("own exposition parses");
        let json_text = std::fs::read_to_string(&json_path).expect("json file");
        let from_json = TelemetrySnapshot::from_json(&json_text).expect("own JSON parses");
        assert!(parsed.counter("metrics_test.requests") >= 3);
        assert!(from_json.counter("metrics_test.requests") >= 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
