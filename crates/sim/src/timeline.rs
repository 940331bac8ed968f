//! Execution-timeline observability for [`Schedule`]s.
//!
//! Turns the scheduler's per-op stall attribution into inspectable
//! artifacts, the way occupancy traces are used to diagnose dataflow
//! accelerators:
//!
//! - [`Schedule::to_chrome_trace`]: a Chrome Trace Event Format document
//!   (viewable in Perfetto / `chrome://tracing`) with one track per
//!   sub-array and one for the SIMD unit, plus a counter track of
//!   per-class occupancy. Built with the workspace's one Chrome-trace
//!   writer, [`ChromeTrace`], which fills each op's event into its
//!   resource class's slice template once, whatever the number of
//!   sub-arrays it claims: no [`JsonValue`] is built per op, and the
//!   strict parser can validate every emitted document.
//! - [`Schedule::critical_path`]: walks the scheduled DAG backwards from
//!   the last-finishing op, at each hop following the constraint that
//!   actually bound the op's start (a data dependency or a resource
//!   release). The resulting chain tiles `[0, total_cycles)` exactly, so
//!   attributed cycles sum to the makespan. The scheduler records each
//!   op's binding completion as it starts the op, so the walk only
//!   follows that chain and classifies each hop from the graph: `O(path)`
//!   with no sort, search or hashing.
//! - [`Schedule::utilization_timeline`]: windowed per-class occupancy
//!   series, and [`Schedule::classes_overlap_cycles`] — how long at
//!   least two of NN/VSA/SIMD were simultaneously active (the step-③
//!   pipelining the paper's speedups come from).
//! - [`bottleneck_report`]: the human-readable rollup the `simtrace`
//!   binary prints.
//!
//! Cycle timestamps are written into the trace's `ts`/`dur` fields
//! unscaled (one microsecond per cycle in the viewer's display; the
//! `metadata` object records the unit).

use std::fmt::Write as _;

use nsflow_graph::DataflowGraph;
use nsflow_telemetry::chrome::{step_levels, Arg, ChromeDocument, ChromeTrace};
use nsflow_telemetry::JsonValue;
use nsflow_trace::{OpId, OpKind};

use crate::schedule::{Resource, Schedule};

/// Sum of each stall category over every scheduled op instance.
///
/// `dep_wait`/`resource_wait` are pre-start gaps and may overlap across
/// ops (several ops can wait concurrently), so totals are diagnostic
/// volumes, not a partition of the makespan. `transfer_stall` cycles are
/// occupancy (the claimed arrays idle during a double-buffered
/// transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallTotals {
    /// Total dependency-wait cycles.
    pub dep_wait: u64,
    /// Total resource-busy wait cycles.
    pub resource_wait: u64,
    /// Total double-buffered transfer stall cycles.
    pub transfer_stall: u64,
}

/// Why an op on the critical path started exactly when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindKind {
    /// Started at cycle 0 (nothing before it on the path).
    Origin,
    /// Waited for a data dependency (or the previous loop instance of
    /// the same op) to finish.
    Dependency,
    /// Waited for its resource — the SIMD unit or pool capacity — to be
    /// released.
    Resource,
}

/// One op instance on the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalNode {
    /// Index into [`Schedule::ops`].
    pub index: usize,
    /// Loop iteration.
    pub loop_idx: usize,
    /// The op.
    pub op: OpId,
    /// Resource class the op ran on.
    pub resource: Resource,
    /// Cycles the op occupied on the path (its full duration).
    pub cycles: u64,
    /// Transfer-stall cycles inside that duration.
    pub transfer_stall: u64,
    /// The constraint that dictated this op's start time.
    pub bound: BindKind,
}

/// The critical path of a schedule: a chain of op instances covering
/// `[0, total_cycles)` with no gaps, chronological order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPathReport {
    /// Path nodes, first-starting op first.
    pub nodes: Vec<CriticalNode>,
    /// The schedule's makespan the path is measured against.
    pub total_cycles: u64,
}

impl CriticalPathReport {
    /// Total cycles attributed to path ops. Equals
    /// [`total_cycles`](Self::total_cycles) because consecutive path ops
    /// abut exactly (each op starts the cycle its binding predecessor
    /// ends).
    #[must_use]
    pub fn attributed_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.cycles).sum()
    }

    /// Path cycles per resource class `(nn, vsa, simd)`.
    #[must_use]
    pub fn cycles_by_resource(&self) -> (u64, u64, u64) {
        let mut out = [0u64; 3];
        for n in &self.nodes {
            out[n.resource.index()] += n.cycles;
        }
        (out[0], out[1], out[2])
    }

    /// Transfer-stall cycles sitting on the critical path.
    #[must_use]
    pub(crate) fn transfer_stall_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.transfer_stall).sum()
    }

    /// Path cycles entered through resource serialization (nodes whose
    /// start was bound by a resource release, not a data dependency).
    #[must_use]
    pub(crate) fn resource_bound_cycles(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.bound == BindKind::Resource)
            .map(|n| n.cycles)
            .sum()
    }

    /// Aggregates path cycles per op (summed over loop instances),
    /// heaviest first; ties broken by op index for determinism.
    #[must_use]
    pub(crate) fn top_ops(&self, graph: &DataflowGraph, n: usize) -> Vec<(String, u64, usize)> {
        let mut per_op = vec![(0u64, 0usize); graph.trace().ops().len()];
        for node in &self.nodes {
            let e = &mut per_op[node.op.index()];
            e.0 += node.cycles;
            e.1 += 1;
        }
        let mut rows: Vec<(usize, u64, usize)> = (per_op.into_iter().enumerate())
            .filter(|&(_, (_, count))| count > 0)
            .map(|(op, (cycles, count))| (op, cycles, count))
            .collect();
        rows.sort_by_key(|&(op, cycles, _)| (std::cmp::Reverse(cycles), op));
        rows.truncate(n);
        rows.into_iter()
            .map(|(op, cycles, count)| {
                let name = graph.trace().ops()[op].name().to_string();
                (name, cycles, count)
            })
            .collect()
    }
}

/// One window of the per-class occupancy series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationWindow {
    /// Window start cycle (inclusive).
    pub start: u64,
    /// Window end cycle (exclusive).
    pub end: u64,
    /// NN-class occupancy in `[0, 1]` (fraction of the class capacity).
    pub nn: f64,
    /// VSA-class occupancy in `[0, 1]`.
    pub vsa: f64,
    /// SIMD occupancy in `[0, 1]`.
    pub simd: f64,
}

/// Stable label for an op kind, used as the trace event category.
#[must_use]
pub(crate) fn kind_label(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::Gemm { .. } => "gemm",
        OpKind::VsaConv { .. } => "vsa_conv",
        OpKind::Elementwise { .. } => "elementwise",
        OpKind::Reduce { .. } => "reduce",
        OpKind::Similarity { .. } => "similarity",
        _ => "other",
    }
}

/// Trace event category per resource class (indexed by [`Resource`]).
const RESOURCE_LABELS: [&str; 3] = ["nn", "vsa", "simd"];

/// Track id layout: `SIMD_TID` for the SIMD unit, `POOL_TID_BASE + u`
/// for sub-array `u`.
const SIMD_TID: u64 = 3;
const POOL_TID_BASE: u64 = 10;

impl Schedule {
    /// Per-op weight for occupancy accounting: claimed sub-arrays for an
    /// array op, one lane for a SIMD op.
    fn occupancy_weight(&self, i: usize) -> u64 {
        if self.ops()[i].resource != Resource::Simd {
            self.claimed_units(i).len() as u64
        } else {
            1
        }
    }

    /// Sum of each stall category over all scheduled op instances.
    #[must_use]
    pub fn stall_totals(&self) -> StallTotals {
        let mut t = StallTotals::default();
        for op in self.ops() {
            t.dep_wait += op.dep_wait;
            t.resource_wait += op.resource_wait;
            t.transfer_stall += op.transfer_stall;
        }
        t
    }

    /// `(cycle, class, ±weight)` occupancy changes: each op adds its
    /// [`occupancy_weight`](Self::occupancy_weight) to its class at its
    /// start and removes it at its end.
    fn occupancy_deltas(&self) -> Vec<(u64, usize, i64)> {
        let mut deltas = Vec::with_capacity(self.ops().len() * 2);
        for (i, so) in self.ops().iter().enumerate() {
            let w = self.occupancy_weight(i) as i64;
            deltas.push((so.start, so.resource.index(), w));
            deltas.push((so.end, so.resource.index(), -w));
        }
        deltas
    }

    /// Cycles during which at least two of the NN/VSA/SIMD classes had
    /// an op in flight — the overlap the step-③ pipelined schedule
    /// exists to create.
    #[must_use]
    pub fn classes_overlap_cycles(&self) -> u64 {
        // Every op weighs at least one unit, so a class is active
        // exactly while its occupancy level is positive. Each level
        // holds until the next change point.
        let (overlap, _, _) = step_levels::<3>(&mut self.occupancy_deltas()).fold(
            (0, 0, false),
            |(overlap, since, overlapping), (t, level)| {
                let gained = if overlapping { t - since } else { 0 };
                let active = level.iter().filter(|&&l| l > 0).count();
                (overlap + gained, t, active >= 2)
            },
        );
        overlap
    }

    /// Windowed per-class occupancy over the makespan.
    ///
    /// NN/VSA occupancy is claimed sub-arrays over the pool. SIMD
    /// occupancy is the busy fraction of the (single) SIMD unit.
    ///
    /// # Panics
    ///
    /// Panics if `windows == 0`.
    #[must_use]
    pub fn utilization_timeline(&self, windows: usize) -> Vec<UtilizationWindow> {
        assert!(windows > 0, "need at least one window");
        let total = self.total_cycles();
        if total == 0 {
            return Vec::new();
        }
        let pool = self.pool_units() as f64;
        let mut out: Vec<UtilizationWindow> = (0..windows)
            .map(|w| UtilizationWindow {
                start: total * w as u64 / windows as u64,
                end: total * (w as u64 + 1) / windows as u64,
                nn: 0.0,
                vsa: 0.0,
                simd: 0.0,
            })
            .collect();
        for (i, so) in self.ops().iter().enumerate() {
            let weight = self.occupancy_weight(i) as f64;
            let capacity = if so.resource == Resource::Simd {
                1.0
            } else {
                pool
            };
            for w in out.iter_mut() {
                let lo = so.start.max(w.start);
                let hi = so.end.min(w.end);
                if lo >= hi || w.end == w.start {
                    continue;
                }
                let frac = (hi - lo) as f64 * weight / ((w.end - w.start) as f64 * capacity);
                match so.resource {
                    Resource::NnPartition => w.nn += frac,
                    Resource::VsaPartition => w.vsa += frac,
                    Resource::Simd => w.simd += frac,
                }
            }
        }
        out
    }

    /// Exports the schedule as a Chrome Trace Event Format document.
    ///
    /// One duration (`X`) event per *claimed sub-array* of an array op
    /// instance, so every track shows what that physical unit was
    /// doing, and one per SIMD op — with args carrying the op kind,
    /// loop index, cycle count and the stall breakdown. Each op's event
    /// is filled into its resource class's slice template once, with no
    /// [`JsonValue`] built per op, and written out per track when the
    /// document is rendered. A counter (`C`) series tracks per-class
    /// occupancy at every change point.
    /// The rendered document loads in Perfetto / `chrome://tracing`;
    /// callers that inspect its events parse it with
    /// [`JsonValue::parse`].
    #[must_use]
    pub fn to_chrome_trace(&self, graph: &DataflowGraph) -> ChromeDocument {
        let trace = graph.trace();
        let mut chrome = ChromeTrace::new(&format!("nsflow-sim: {}", trace.name()));
        for u in 0..self.pool_units() {
            chrome.track(POOL_TID_BASE + u as u64, &format!("subarray[{u}]"));
        }
        chrome.track(SIMD_TID, "SIMD unit");

        // One slice per claimed track, sorted by track id at equal start.
        let mut subarrays = Vec::new();
        for (i, so) in self.ops().iter().enumerate() {
            let op = trace.op(so.op);
            let units = self.claimed_units(i);
            subarrays.clear();
            subarrays.extend(units.iter().map(|&u| u64::from(u)));
            // A SIMD op claims no sub-array.
            let simd = (so.resource == Resource::Simd).then_some(SIMD_TID);
            let pool = units.iter().map(|&u| POOL_TID_BASE + u64::from(u));
            let tracks = simd.into_iter().chain(pool).map(|tid| (tid, tid));
            let args = [
                ("loop", Arg::UInt(so.loop_idx as u64)),
                ("op", Arg::UInt(so.op.index() as u64)),
                ("kind", Arg::Str(kind_label(op.kind()))),
                ("cycles", Arg::UInt(so.end - so.start)),
                ("dep_wait", Arg::UInt(so.dep_wait)),
                ("resource_wait", Arg::UInt(so.resource_wait)),
                ("transfer_stall", Arg::UInt(so.transfer_stall)),
                ("subarrays", Arg::UInts(&subarrays)),
            ];
            let cat = RESOURCE_LABELS[so.resource.index()];
            chrome.slice(tracks, op.name(), cat, so.start..so.end, &args);
        }
        chrome.counter("occupancy", RESOURCE_LABELS, self.occupancy_deltas());

        let stalls = self.stall_totals();
        chrome.finish(JsonValue::object([
            ("workload", JsonValue::Str(trace.name().to_string())),
            ("scheduler", JsonValue::Str("pooled".into())),
            ("time_unit", JsonValue::Str("cycle".into())),
            ("total_cycles", JsonValue::UInt(self.total_cycles())),
            ("pool_units", JsonValue::UInt(self.pool_units() as u64)),
            ("loops", JsonValue::UInt(trace.loop_count() as u64)),
            ("stall_dep_wait_cycles", JsonValue::UInt(stalls.dep_wait)),
            (
                "stall_resource_wait_cycles",
                JsonValue::UInt(stalls.resource_wait),
            ),
            (
                "stall_transfer_cycles",
                JsonValue::UInt(stalls.transfer_stall),
            ),
        ]))
    }

    /// Extracts the critical path: starting from the last-finishing op,
    /// repeatedly steps to the op whose completion dictated the current
    /// op's start, as [`run_pooled`](crate::schedule::run_pooled)
    /// recorded it — the data dependency that finished exactly at
    /// `start` if one exists, otherwise the op whose completion released
    /// the resource. The chain tiles `[0, total_cycles)`, so
    /// [`CriticalPathReport::attributed_cycles`] equals the makespan.
    #[must_use]
    pub fn critical_path(&self, graph: &DataflowGraph) -> CriticalPathReport {
        let (ops, trace) = (self.ops(), graph.trace());
        let pred = |i: usize| (ops[i].start > 0).then(|| self.bound_by[i] as usize);
        let last = (!ops.is_empty()).then_some(self.last_finisher as usize);
        let mut nodes: Vec<CriticalNode> = std::iter::successors(last, |&i| pred(i))
            .map(|i| {
                let so = ops[i];
                // An intra-loop input or the previous instance of the
                // same op is a dependency; any other binding released
                // a resource.
                let bound = pred(i).map_or(BindKind::Origin, |p| {
                    let p = &ops[p];
                    let input =
                        p.loop_idx == so.loop_idx && trace.op(so.op).inputs().contains(&p.op);
                    if input || (p.op == so.op && p.loop_idx + 1 == so.loop_idx) {
                        BindKind::Dependency
                    } else {
                        BindKind::Resource
                    }
                });
                CriticalNode {
                    index: i,
                    loop_idx: so.loop_idx,
                    op: so.op,
                    resource: so.resource,
                    cycles: so.end - so.start,
                    transfer_stall: so.transfer_stall,
                    bound,
                }
            })
            .collect();
        nodes.reverse();
        CriticalPathReport {
            nodes,
            total_cycles: self.total_cycles(),
        }
    }
}

/// Intensity glyph for a `[0, 1]` occupancy value.
fn intensity(v: f64) -> char {
    const RAMP: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
    let idx = (v.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

/// Renders the human-readable bottleneck report `simtrace` prints: the
/// stall taxonomy totals, NN/VSA/SIMD overlap, a windowed occupancy
/// strip per class, and the top-`top_n` ops by critical-path
/// contribution.
#[must_use]
pub fn bottleneck_report(schedule: &Schedule, graph: &DataflowGraph, top_n: usize) -> String {
    let total = schedule.total_cycles();
    let path = schedule.critical_path(graph);
    let stalls = schedule.stall_totals();
    let overlap = schedule.classes_overlap_cycles();
    let pct = |c: u64| 100.0 * c as f64 / total.max(1) as f64;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "schedule: {} ops, {} cycles, scheduler=pooled, array utilization {:.1}%",
        schedule.ops().len(),
        total,
        100.0 * schedule.array_utilization()
    );
    let _ = writeln!(
        out,
        "overlap: >=2 of NN/VSA/SIMD active for {overlap} cycles ({:.1}% of makespan)",
        pct(overlap)
    );
    let _ = writeln!(
        out,
        "stalls:  dep_wait {} | resource_wait {} | transfer {} cycles (per-op sums)",
        stalls.dep_wait, stalls.resource_wait, stalls.transfer_stall
    );

    let windows = schedule.utilization_timeline(32);
    for (label, pick) in [("NN  ", 0usize), ("VSA ", 1usize), ("SIMD", 2usize)] {
        let strip: String = windows
            .iter()
            .map(|w| intensity([w.nn, w.vsa, w.simd][pick]))
            .collect();
        let _ = writeln!(out, "occupancy {label} |{strip}|");
    }

    let (nn, vsa, simd) = path.cycles_by_resource();
    let _ = writeln!(
        out,
        "critical path: {} nodes, {} cycles attributed (makespan {total}); NN {:.1}% | VSA {:.1}% | SIMD {:.1}%; transfer stall on path {} ({:.1}%); resource-serialized {} ({:.1}%)",
        path.nodes.len(),
        path.attributed_cycles(),
        pct(nn),
        pct(vsa),
        pct(simd),
        path.transfer_stall_cycles(),
        pct(path.transfer_stall_cycles()),
        path.resource_bound_cycles(),
        pct(path.resource_bound_cycles()),
    );
    let _ = writeln!(out, "top ops by critical-path contribution:");
    for (name, cycles, count) in path.top_ops(graph, top_n) {
        let _ = writeln!(
            out,
            "  {cycles:>12} cycles ({:>5.1}%)  x{count:<3} {name}",
            pct(cycles)
        );
    }
    out
}
