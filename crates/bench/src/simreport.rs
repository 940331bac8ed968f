//! Shared pipeline behind the `simtrace` binary and its integration
//! tests: run a named workload through the two-phase mapping pipeline
//! and the scheduler, then package the schedule's observability artifacts
//! (Chrome trace JSON, bottleneck report, roofline phase bounds).

use nsflow_arch::{ArrayConfig, Mapping};
use nsflow_graph::DataflowGraph;
use nsflow_sim::devices::Device;
use nsflow_sim::roofline::{workload_points, Bound};
use nsflow_sim::schedule::{self, Schedule, SimOptions};
use nsflow_sim::timeline::bottleneck_report;
use nsflow_telemetry::{ChromeDocument, JsonValue};
use nsflow_workloads::traces::Workload;

use crate::mapping;

/// A workload scheduled for timeline inspection: the graph it ran as,
/// the mapping it ran with and the resulting schedule.
#[derive(Debug, Clone)]
pub struct WorkloadTimeline {
    /// Workload display name.
    pub name: &'static str,
    /// The dataflow graph the scheduler consumed.
    pub graph: DataflowGraph,
    /// The two-phase mapping the schedule ran with.
    pub mapping: Mapping,
    /// The schedule with per-op stall attribution.
    pub schedule: Schedule,
}

/// Parses an `HxWxN` array-config argument (e.g. `32x32x8`).
///
/// # Errors
///
/// Returns a message when the string is not three positive integers
/// separated by `x`, or the geometry is rejected by [`ArrayConfig`].
pub fn parse_config(s: &str) -> Result<ArrayConfig, String> {
    let parts: Vec<&str> = s.split(['x', 'X']).collect();
    let [h, w, n] = parts.as_slice() else {
        return Err(format!("expected HxWxN (e.g. 32x32x8), got `{s}`"));
    };
    let parse = |p: &str| p.parse::<usize>().map_err(|e| format!("`{p}`: {e}"));
    ArrayConfig::new(parse(h)?, parse(w)?, parse(n)?).map_err(|e| e.to_string())
}

/// Schedules one workload: two-phase mapping selection, then
/// [`schedule::run_pooled`].
#[must_use]
pub fn analyze(workload: Workload, cfg: &ArrayConfig, opts: &SimOptions) -> WorkloadTimeline {
    let name = workload.name;
    let graph = DataflowGraph::from_trace(workload.trace);
    let mapping = mapping::two_phase_mapping(&graph, cfg, opts);
    let schedule = schedule::run_pooled(&graph, cfg, &mapping, opts);
    WorkloadTimeline {
        name,
        graph,
        mapping,
        schedule,
    }
}

impl WorkloadTimeline {
    /// The Chrome Trace Event Format document for this schedule.
    #[must_use]
    pub fn chrome_trace(&self) -> ChromeDocument {
        self.schedule.to_chrome_trace(&self.graph)
    }

    /// Validates a rendered trace document: it must strict-parse, carry
    /// a non-empty `traceEvents` array with at least one duration event,
    /// and the critical path must attribute exactly the makespan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated property.
    pub fn validate_trace(&self, rendered: &str) -> Result<(), String> {
        let doc = JsonValue::parse(rendered).map_err(|e| format!("trace does not parse: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .ok_or("missing traceEvents array")?;
        // Only duration (`X`) events carry a `dur`.
        let has_duration = events
            .iter()
            .any(|e| e.get("dur").and_then(JsonValue::as_u64).is_some());
        if !has_duration {
            return Err("no duration (ph=X) events in trace".into());
        }
        let path = self.schedule.critical_path(&self.graph);
        let attributed = path.attributed_cycles();
        let total = self.schedule.total_cycles();
        if attributed != total {
            return Err(format!(
                "critical path attributes {attributed} cycles, makespan is {total}"
            ));
        }
        Ok(())
    }

    /// The bottleneck report plus the roofline phase bounds — what
    /// `simtrace` prints per workload.
    #[must_use]
    pub fn report(&self, top_n: usize) -> String {
        let mut out = bottleneck_report(&self.schedule, &self.graph, top_n);
        let roof = Device::rtx_2080_ti().roof();
        out.push_str("roofline (RTX 2080 Ti roof, per phase):\n");
        for p in workload_points(self.graph.trace(), &roof) {
            out.push_str(&format!(
                "  {:<24} intensity {:>8.2} FLOP/B -> {}-bound ({:.2} TFLOP/s attainable)\n",
                p.label,
                p.intensity,
                match p.bound {
                    Bound::Memory => "memory",
                    Bound::Compute => "compute",
                },
                p.attainable_flops / 1e12
            ));
        }
        out
    }
}
