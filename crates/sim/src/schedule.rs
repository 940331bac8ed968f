//! Event-driven execution of a dataflow graph on the NSFlow backend.
//!
//! The backend has two resources: the AdArray's `N` sub-arrays, folded
//! at run time into NN and VSA partitions, and the SIMD unit.
//! [`run_pooled`] models the array as one pool of sub-arrays. Each array
//! op claims its mapped allocation for its duration and releases it on
//! completion, so parallel and sequential mode are two allocations on
//! the same pool: a sequential mapping gives every array op all `N`
//! sub-arrays, and array ops then time-share. Each op's latency comes
//! from the analytical model (eqs. (1)–(5)) plus an optional
//! double-buffered transfer stall.
//!
//! Loop iterations are pipelined exactly as the paper's step ③ describes:
//! an op of loop `i+1` waits only for its *intra-loop* dependencies, its
//! own previous instance and free capacity — so the next loop's first NN
//! layer overlaps the previous loop's symbolic tail.
//!
//! The scheduler first flattens the graph into a `SchedulePlan`: the
//! loop-invariant latency, transfer stall, pool demand and resource class
//! of every op, plus a CSR consumer table, all indexed by op position.
//! Every loop instance replays those terms, so nothing is hashed or
//! re-costed inside the scheduling loop.
//!
//! [`run_pooled`] keeps its ready instances in min-heaps by instance
//! index `loop · ops + op`: one for the SIMD unit and one per pool demand
//! `0..=N`. Each scheduling pass starts the smallest ready SIMD instance
//! if the unit is free, then repeatedly the smallest ready array instance
//! among the demand buckets that fit the free sub-arrays. That is exactly
//! what an ascending first-fit scan of the ready set starts: free capacity
//! only shrinks within a pass, so an instance the scan skipped never fits
//! later in the same pass. A pass costs `O(N + log R)` per start instead
//! of `O(R)` for `R` ready instances, for `O(I · (N + log I))` over `I`
//! instances.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

use nsflow_arch::memory::TransferModel;
use nsflow_arch::{analytical, simd, ArrayConfig, Mapping};
use nsflow_graph::DataflowGraph;
use nsflow_telemetry as telemetry;
use nsflow_trace::{OpId, OpKind};

/// Which execution resource an op occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Sub-arrays of the AdArray running an NN layer.
    NnPartition,
    /// Sub-arrays of the AdArray running a VSA node.
    VsaPartition,
    /// The SIMD unit.
    Simd,
}

impl Resource {
    /// Dense index (NN 0, VSA 1, SIMD 2) for per-class arrays.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// One scheduled op instance, including *why* it started when it did.
///
/// The pre-start gap is attributed to two mutually exclusive stall
/// categories, both measured by the scheduler that placed the op:
///
/// - [`dep_wait`](Self::dep_wait): cycles the op's execution slot sat
///   idle because a data dependency (or the previous loop instance of
///   the same op) had not finished yet,
/// - [`resource_wait`](Self::resource_wait): cycles the op was ready
///   (all dependencies done) but its resource — the SIMD unit or enough
///   free pool sub-arrays — was still claimed.
///
/// [`transfer_stall`](Self::transfer_stall) is different in kind: it is
/// *inside* `[start, end)` — extra occupancy cycles where the claimed
/// arrays wait on the double-buffered weight/vector transfer instead of
/// computing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Loop iteration index.
    pub loop_idx: usize,
    /// The op.
    pub op: OpId,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
    /// Resource occupied.
    pub resource: Resource,
    /// Cycles the op's slot idled waiting on dependencies before `start`.
    pub dep_wait: u64,
    /// Cycles the op was ready but its resource was busy before `start`.
    pub resource_wait: u64,
    /// Double-buffered transfer stall cycles inside `[start, end)`.
    pub transfer_stall: u64,
}

/// The complete schedule of a workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    ops: Vec<ScheduledOp>,
    total_cycles: u64,
    busy_nn: u64,
    busy_vsa: u64,
    busy_simd: u64,
    /// Sub-array pool size.
    pool_units: usize,
    /// Concrete sub-array indices claimed by every op, concatenated in
    /// `ops` order: op `i` claimed `units[unit_offsets[i]..unit_offsets[i + 1]]`.
    units: Vec<u16>,
    unit_offsets: Vec<usize>,
    /// Index into `ops` of the completion that bound op `i`'s start
    /// (`u32::MAX` for a start at cycle 0); see [`run_pooled`].
    pub(crate) bound_by: Vec<u32>,
    /// Index into `ops` of the first op retired at the makespan.
    pub(crate) last_finisher: u32,
}

impl Schedule {
    /// All scheduled op instances in issue order, which is strictly
    /// ascending `(start, loop_idx, op)`.
    #[must_use]
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// Sub-array pool size.
    #[must_use]
    pub fn pool_units(&self) -> usize {
        self.pool_units
    }

    /// Concrete sub-array indices op `i` (index into [`Schedule::ops`])
    /// claimed, assigned deterministically first-fit. Empty for SIMD
    /// ops.
    #[must_use]
    pub fn claimed_units(&self, i: usize) -> &[u16] {
        self.unit_offsets
            .get(i..i + 2)
            .map_or(&[], |w| &self.units[w[0]..w[1]])
    }

    /// Makespan in cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Seconds at a given clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive.
    #[must_use]
    pub fn seconds_at(&self, freq_hz: f64) -> f64 {
        assert!(freq_hz > 0.0, "frequency must be positive");
        self.total_cycles as f64 / freq_hz
    }

    /// Renders the schedule as a text Gantt timeline (one line per op
    /// instance, ordered by start cycle) — a debugging/inspection artifact
    /// for deployment analysis.
    ///
    /// Bar glyphs: `#` compute, `~` double-buffered transfer stall (the
    /// leading portion of the op's occupancy), `.` the pre-start stall
    /// gap (dependency + resource wait).
    #[must_use]
    pub fn to_gantt_text(&self, graph: &DataflowGraph) -> String {
        const WIDTH: usize = 48;
        const LANES: [&str; 3] = ["NN  ", "VSA ", "SIMD"];
        let trace = graph.trace();
        // A line is 82 bytes of lane, bar, frame, spacing and two cycle
        // columns padded to ten digits, then the loop index and the op
        // name; 88 leaves room for the loop index and wider cycles.
        let names: usize = self.ops.iter().map(|so| trace.op(so.op).name().len()).sum();
        let mut lines = String::with_capacity(self.ops.len() * 88 + names);
        let span = self.total_cycles.max(1) as f64;
        let cell = |cycle: u64| ((cycle as f64 / span) * WIDTH as f64) as usize;
        let mut bar = [b' '; WIDTH];
        for so in &self.ops {
            let a = cell(so.start);
            let b = cell(so.end).max(a + 1).min(WIDTH);
            // Pre-start stall gap (dependency + resource wait).
            let wait = cell(so.start - (so.dep_wait + so.resource_wait).min(so.start)).min(a);
            // Occupancy: transfer stall head, then compute.
            let stall_end = cell(so.start + so.transfer_stall).clamp(a, b);
            bar.fill(b' ');
            bar[wait..a].fill(b'.');
            bar[a..stall_end].fill(b'~');
            bar[stall_end..b].fill(b'#');
            let _ = writeln!(
                lines,
                "{} |{}| {:>10}..{:<10} L{} {}",
                LANES[so.resource.index()],
                std::str::from_utf8(&bar).expect("an ASCII bar"),
                so.start,
                so.end,
                so.loop_idx,
                trace.op(so.op).name()
            );
        }
        lines
    }

    /// Temporal utilization of the array: sub-array-cycles busy (per-op
    /// busy time weighted by the claimed sub-arrays) over sub-array-cycles
    /// available. Never above 100%: busy cycles are capacity-bounded by
    /// construction.
    #[must_use]
    pub fn array_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        (self.busy_nn + self.busy_vsa) as f64 / (self.pool_units as u64 * self.total_cycles) as f64
    }
}

/// Publishes a finished schedule into the telemetry registry: per-class
/// busy-cycle counters, the scheduled-op count, and a per-op latency
/// histogram.
fn record_schedule(schedule: &Schedule) {
    telemetry::counter!("sim.ops_scheduled").add(schedule.ops.len() as u64);
    telemetry::counter!("sim.cycles.nn").add(schedule.busy_nn);
    telemetry::counter!("sim.cycles.vsa").add(schedule.busy_vsa);
    telemetry::counter!("sim.cycles.simd").add(schedule.busy_simd);
    let stalls = schedule.stall_totals();
    telemetry::counter!("sim.stall_dep_wait").add(stalls.dep_wait);
    telemetry::counter!("sim.stall_resource_wait").add(stalls.resource_wait);
    telemetry::counter!("sim.stall_transfer").add(stalls.transfer_stall);
    telemetry::histogram!("sim.op_cycles")
        .record_all(schedule.ops.iter().map(|op| op.end - op.start));
}

/// Options for [`run_pooled`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// SIMD unit width.
    pub simd_lanes: usize,
    /// Optional off-chip transfer model; `None` disables stalls.
    pub transfer: Option<TransferModel>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            simd_lanes: 64,
            transfer: Some(TransferModel::default()),
        }
    }
}

/// The loop-invariant terms of one op: what each of its loop instances
/// costs and claims.
struct OpPlan {
    /// Occupancy cycles (compute plus transfer stall, at least 1).
    latency: u64,
    /// Double-buffered transfer stall cycles inside `latency`.
    stall: u64,
    /// Sub-arrays claimed (0 for SIMD ops).
    demand: usize,
    class: Resource,
    /// Input edges (an input listed twice counts twice).
    inputs: usize,
}

/// One (graph, array geometry, mapping, options) flattened for the
/// scheduler: an [`OpPlan`] per op position plus a CSR consumer table,
/// built once per call and replayed for every loop instance.
struct SchedulePlan {
    ops: Vec<OpPlan>,
    /// Op `p`'s consumers are `consumers[consumer_start[p]..consumer_start[p + 1]]`,
    /// one entry per input edge.
    consumer_start: Vec<usize>,
    consumers: Vec<usize>,
}

impl SchedulePlan {
    /// Costs every op once; each array op's allocation is capped at the
    /// pool size.
    fn new(
        graph: &DataflowGraph,
        cfg: &ArrayConfig,
        mapping: &Mapping,
        options: &SimOptions,
    ) -> Self {
        let cap = cfg.n_subarrays();
        let trace = graph.trace();
        let (nn_nodes, vsa_nodes) = (trace.nn_nodes().len(), trace.vsa_nodes().len());
        assert_eq!(mapping.n_l.len(), nn_nodes, "NN mapping length");
        assert_eq!(mapping.n_v.len(), vsa_nodes, "VSA mapping length");
        // Running NN/VSA counters: the mapping lists allocations in op order.
        let (mut nn, mut vsa) = (0, 0);
        let ops: Vec<OpPlan> = trace
            .ops()
            .iter()
            .map(|op| {
                let (compute, demand, class) = match *op.kind() {
                    OpKind::Gemm { m, n, k } => {
                        let units = mapping.n_l[nn].min(cap);
                        nn += 1;
                        let compute = analytical::nn_layer_cycles(cfg, units, m, n, k);
                        (compute, units, Resource::NnPartition)
                    }
                    OpKind::VsaConv { n_vec, dim } => {
                        let units = mapping.n_v[vsa].min(cap);
                        vsa += 1;
                        let (compute, _) = analytical::vsa_node_cycles(cfg, units, n_vec, dim);
                        (compute, units, Resource::VsaPartition)
                    }
                    ref k => (simd::op_cycles(k, options.simd_lanes), 0, Resource::Simd),
                };
                let stall = match (class, &options.transfer) {
                    (Resource::Simd, _) | (_, None) => 0,
                    (_, Some(t)) => t.stall_cycles(op.weight_bytes(), compute),
                };
                OpPlan {
                    latency: (compute + stall).max(1),
                    stall,
                    demand,
                    class,
                    inputs: op.inputs().len(),
                }
            })
            .collect();
        let mut edges: Vec<(usize, usize)> = (trace.ops().iter().enumerate())
            .flat_map(|(c, op)| op.inputs().iter().map(move |d| (d.index(), c)))
            .collect();
        edges.sort_unstable();
        SchedulePlan {
            ops,
            consumer_start: (0..=trace.ops().len())
                .map(|p| edges.partition_point(|e| e.0 < p))
                .collect(),
            consumers: edges.into_iter().map(|(_, c)| c).collect(),
        }
    }

    /// Ops that consume op `p`'s output, once per input edge.
    fn consumers(&self, p: usize) -> &[usize] {
        &self.consumers[self.consumer_start[p]..self.consumer_start[p + 1]]
    }
}

/// Ready instances of the scheduler, each queue a min-heap by
/// instance index: one for the SIMD unit, one per pool demand `0..=N`.
struct ReadyQueues {
    simd: BinaryHeap<Reverse<usize>>,
    by_demand: Vec<BinaryHeap<Reverse<usize>>>,
}

impl ReadyQueues {
    fn push(&mut self, cost: &OpPlan, inst: usize) {
        if cost.class == Resource::Simd {
            self.simd.push(Reverse(inst));
        } else {
            self.by_demand[cost.demand].push(Reverse(inst));
        }
    }

    /// Removes the smallest ready array instance whose demand fits in
    /// `free` sub-arrays.
    fn pop_fitting(&mut self, free: usize) -> Option<usize> {
        let (demand, _) = self.by_demand[..=free]
            .iter()
            .enumerate()
            .filter_map(|(d, heap)| heap.peek().map(|&Reverse(inst)| (d, inst)))
            .min_by_key(|&(_, inst)| inst)?;
        self.by_demand[demand].pop().map(|Reverse(inst)| inst)
    }
}

/// Executes `graph` (all loop iterations) on the AdArray and returns the
/// schedule. The `N` sub-arrays form a single capacity pool: each array
/// op claims its mapped allocation (`N_l[i]` / `N_v[j]`, capped at `N`)
/// for its duration and releases it on completion — runtime array
/// folding as the backend actually performs it. A sequential mapping
/// claims the whole array for every op, so array ops time-share. SIMD
/// ops serialize on the SIMD unit. Successive loop iterations of the
/// *same* op serialize (its stationary weights/vectors occupy the
/// claimed sub-arrays), which is what bounds the loop-pipelining depth.
///
/// This is the execution model behind the Fig. 6 ablation: per-node
/// allocations genuinely compete for the pool, so the Phase-II mapping
/// refinement has real effect.
///
/// Every start after cycle 0 directly follows the retirement, in
/// `(end, instance)` order, of the completions at that cycle. The
/// scheduler records which one bound each start: the first input (in
/// `inputs()` order) that ended then, else the op's previous instance,
/// else the first retirement of the op's resource group (SIMD unit or
/// pool), else of the other group. [`Schedule::critical_path`] follows
/// these bindings from the first op retired at the makespan.
///
/// # Panics
///
/// Panics if `mapping` lengths disagree with the graph's node counts.
/// The `assert!` that the graph has fewer than `u32::MAX` op instances
/// cannot fire: `ExecutionTrace` rejects such loop counts with
/// [`TraceError::TooManyInstances`](nsflow_trace::TraceError::TooManyInstances).
#[must_use]
pub fn run_pooled(
    graph: &DataflowGraph,
    cfg: &ArrayConfig,
    mapping: &Mapping,
    options: &SimOptions,
) -> Schedule {
    let _span = telemetry::span!("sim.run_pooled");
    let pool = cfg.n_subarrays();
    let plan = SchedulePlan::new(graph, cfg, mapping, options);
    let trace = graph.trace();

    // Event-driven list scheduling over (loop, op) instances, numbered
    // `l · n_ops + p`. An instance waits on its intra-loop inputs and on
    // the previous instance of the same op (stationary-operand
    // serialization), so the dependents of `(l, p)` are implicit:
    // `(l, consumers(p))` and `(l + 1, p)`.
    let n_ops = trace.ops().len();
    let total = trace.loop_count() * n_ops;
    assert!(total < u32::MAX as usize, "too many op instances");
    let mut deps_left: Vec<usize> = (0..total)
        .map(|i| plan.ops[i % n_ops].inputs + usize::from(i >= n_ops))
        .collect();
    let mut ready = ReadyQueues {
        simd: BinaryHeap::new(),
        by_demand: vec![BinaryHeap::new(); pool + 1],
    };
    for p in (0..n_ops).filter(|&p| deps_left[p] == 0) {
        ready.push(&plan.ops[p], p);
    }
    let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut free = pool;
    let mut simd_free = true;
    let mut now = 0u64;
    let mut scheduled: Vec<ScheduledOp> = Vec::with_capacity(total);
    let (mut units, mut unit_offsets) = (Vec::new(), vec![0]);
    let mut busy = [0u64; 3];
    let mut makespan = 0u64;
    // Stall-attribution state: when each instance's dependencies finished
    // (its entry into `ready`), when each concrete sub-array frees, and
    // the previous SIMD op's end.
    let mut ready_at = vec![0u64; total];
    let mut unit_free = vec![0u64; pool];
    let mut simd_prev_end = 0u64;
    let mut starts = Vec::new();
    // Binding state: the schedule index of every started instance, what
    // bound each start, and the first retirement of each group (pool,
    // SIMD) at `now`.
    let mut index_of = vec![u32::MAX; total];
    let mut bound_by = Vec::with_capacity(total);
    let mut first_retired = [u32::MAX; 2];
    let mut last_finisher = u32::MAX;

    loop {
        // Start every ready instance that fits, in instance order.
        starts.clear();
        if simd_free {
            if let Some(Reverse(inst)) = ready.simd.pop() {
                simd_free = false;
                starts.push(inst);
            }
        }
        while let Some(inst) = ready.pop_fitting(free) {
            free -= plan.ops[inst % n_ops].demand;
            starts.push(inst);
        }
        starts.sort_unstable();
        for &inst in &starts {
            let p = inst % n_ops;
            let cost = &plan.ops[p];
            let end = now + cost.latency;
            let group = usize::from(cost.class == Resource::Simd);
            bound_by.push(if now == 0 {
                u32::MAX
            } else if ready_at[inst] == now {
                // A dependency ended now: the first such input, else the
                // previous instance.
                let ended_now = |&i: &u32| scheduled[i as usize].end == now;
                let inputs = trace.ops()[p].inputs().iter();
                let base = inst - p;
                (inputs.map(|d| index_of[base + d.index()]).find(ended_now))
                    .unwrap_or_else(|| index_of[inst - n_ops])
            } else if first_retired[group] != u32::MAX {
                first_retired[group]
            } else {
                first_retired[group ^ 1]
            });
            index_of[inst] = scheduled.len() as u32;
            // Claim concrete resources and note how long the last-needed
            // one had been sitting idle — that idle window before the
            // instance became ready is dependency-imposed.
            let anchor = if cost.class == Resource::Simd {
                std::mem::replace(&mut simd_prev_end, end)
            } else {
                let (mut anchor, claimed) = (0u64, units.len());
                let idle = unit_free.iter_mut().enumerate().filter(|(_, f)| **f <= now);
                for (u, f) in idle.take(cost.demand) {
                    anchor = anchor.max(*f);
                    *f = end;
                    units.push(u as u16);
                }
                debug_assert_eq!(
                    units.len() - claimed,
                    cost.demand,
                    "pool accounting diverged"
                );
                anchor
            };
            unit_offsets.push(units.len());
            running.push(Reverse((end, inst)));
            // Pool utilization weights busy time by claimed sub-arrays; a
            // SIMD op claims none and weighs one lane.
            busy[cost.class.index()] += cost.latency * cost.demand.max(1) as u64;
            makespan = makespan.max(end);
            scheduled.push(ScheduledOp {
                loop_idx: inst / n_ops,
                op: trace.ops()[p].id(),
                start: now,
                end,
                resource: cost.class,
                dep_wait: ready_at[inst].saturating_sub(anchor),
                resource_wait: now - ready_at[inst],
                transfer_stall: cost.stall,
            });
        }
        // Advance to the next completion and retire everything ending
        // then. Every start of this pass ends after `now`, so `now`
        // strictly increases and passes are already in start order.
        let Some(&Reverse((next, first))) = running.peek() else {
            break;
        };
        now = next;
        last_finisher = index_of[first];
        first_retired = [u32::MAX; 2];
        while let Some(&Reverse((t, inst))) = running.peek() {
            if t != now {
                break;
            }
            running.pop();
            let p = inst % n_ops;
            let simd = plan.ops[p].class == Resource::Simd;
            if first_retired[usize::from(simd)] == u32::MAX {
                first_retired[usize::from(simd)] = index_of[inst];
            }
            free += plan.ops[p].demand;
            simd_free |= simd;
            let base = inst - p;
            let next_loop = (inst + n_ops < total).then_some(inst + n_ops);
            let dependents = plan.consumers(p).iter().map(|&c| base + c);
            for dep in dependents.chain(next_loop) {
                deps_left[dep] -= 1;
                if deps_left[dep] == 0 {
                    ready_at[dep] = now;
                    ready.push(&plan.ops[dep % n_ops], dep);
                }
            }
        }
    }
    debug_assert_eq!(scheduled.len(), total, "scheduler stalled");

    let schedule = Schedule {
        ops: scheduled,
        total_cycles: makespan,
        busy_nn: busy[0],
        busy_vsa: busy[1],
        busy_simd: busy[2],
        pool_units: pool,
        units,
        unit_offsets,
        bound_by,
        last_finisher,
    };
    record_schedule(&schedule);
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, EltFunc, TraceBuilder};

    fn graph(loops: usize) -> DataflowGraph {
        let mut b = TraceBuilder::new("t");
        let c = b.push(
            "conv",
            OpKind::Gemm {
                m: 256,
                n: 64,
                k: 64,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let r = b.push(
            "relu",
            OpKind::Elementwise {
                elems: 256 * 64,
                func: EltFunc::Relu,
            },
            Domain::Neural,
            DType::Int8,
            &[c],
        );
        let v = b.push(
            "bind",
            OpKind::VsaConv {
                n_vec: 16,
                dim: 128,
            },
            Domain::Symbolic,
            DType::Int4,
            &[r],
        );
        let _s = b.push(
            "sim",
            OpKind::Similarity { n_vec: 8, dim: 512 },
            Domain::Symbolic,
            DType::Int4,
            &[v],
        );
        DataflowGraph::from_trace(b.finish(loops).unwrap())
    }

    fn cfg() -> ArrayConfig {
        ArrayConfig::new(16, 16, 4).unwrap()
    }

    #[test]
    fn dependencies_are_respected() {
        let g = graph(1);
        let s = run_pooled(
            &g,
            &cfg(),
            &Mapping::uniform(1, 1, 3, 1),
            &SimOptions::default(),
        );
        let by_op: std::collections::HashMap<usize, &ScheduledOp> =
            s.ops().iter().map(|so| (so.op.index(), so)).collect();
        for op in g.trace().ops() {
            for dep in op.inputs() {
                assert!(
                    by_op[&op.id().index()].start >= by_op[&dep.index()].end,
                    "op {} started before its dependency finished",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn resources_never_overlap() {
        let g = graph(4);
        let s = run_pooled(
            &g,
            &cfg(),
            &Mapping::uniform(1, 1, 3, 1),
            &SimOptions::default(),
        );
        for r in [
            Resource::NnPartition,
            Resource::VsaPartition,
            Resource::Simd,
        ] {
            let mut intervals: Vec<(u64, u64)> = s
                .ops()
                .iter()
                .filter(|so| so.resource == r)
                .map(|so| (so.start, so.end))
                .collect();
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap on {r:?}: {w:?}");
            }
        }
    }

    /// A workload where the NN part saturates at one sub-array (n ≤ H) and
    /// the symbolic part is heavy — the regime where folded parallel
    /// execution beats time-sharing the whole array.
    fn overlap_friendly_graph(loops: usize) -> DataflowGraph {
        let mut b = TraceBuilder::new("overlap");
        let c = b.push(
            "conv",
            OpKind::Gemm {
                m: 256,
                n: 16,
                k: 64,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let _v = b.push(
            "bind",
            OpKind::VsaConv {
                n_vec: 64,
                dim: 128,
            },
            Domain::Symbolic,
            DType::Int4,
            &[c],
        );
        DataflowGraph::from_trace(b.finish(loops).unwrap())
    }

    #[test]
    fn pipelining_beats_serial_execution_when_parts_balance() {
        let g = overlap_friendly_graph(8);
        let par = run_pooled(
            &g,
            &cfg(),
            &Mapping::uniform(1, 1, 1, 3),
            &SimOptions::default(),
        );
        let seq = run_pooled(
            &g,
            &cfg(),
            &Mapping::sequential(1, 1, 4),
            &SimOptions::default(),
        );
        assert!(
            par.total_cycles() < seq.total_cycles(),
            "parallel {} !< sequential {}",
            par.total_cycles(),
            seq.total_cycles()
        );
    }

    #[test]
    fn sequential_mode_wins_when_nn_needs_the_whole_array() {
        // The original graph's conv benefits 4× from the full array while
        // overlap only hides the smaller VSA time — the case Algorithm 1's
        // sequential-mode check exists for.
        let g = graph(8);
        let par = run_pooled(
            &g,
            &cfg(),
            &Mapping::uniform(1, 1, 3, 1),
            &SimOptions::default(),
        );
        let seq = run_pooled(
            &g,
            &cfg(),
            &Mapping::sequential(1, 1, 4),
            &SimOptions::default(),
        );
        assert!(
            seq.total_cycles() < par.total_cycles(),
            "sequential {} !< parallel {}",
            seq.total_cycles(),
            par.total_cycles()
        );
    }

    #[test]
    fn single_loop_matches_analytical_parallel_bound() {
        let g = graph(1);
        let m = Mapping::uniform(1, 1, 3, 1);
        let opts = SimOptions {
            simd_lanes: 64,
            transfer: None,
        };
        let s = run_pooled(&g, &cfg(), &m, &opts);
        let t = analytical::loop_timing(&g, &cfg(), &m, 64);
        // The schedule serializes the dependent chain, so it is at least
        // the max-partition bound and at most the serial sum.
        assert!(s.total_cycles() >= t.t_loop);
        assert!(s.total_cycles() <= t.t_nn + t.t_vsa + t.t_simd);
    }

    #[test]
    fn steady_state_period_is_bounded_by_loop_time() {
        // With many loops, the amortized per-loop cost approaches the
        // bottleneck partition's serial chain, not the full loop latency.
        let g8 = graph(8);
        let g16 = graph(16);
        let m = Mapping::uniform(1, 1, 3, 1);
        let opts = SimOptions::default();
        let c8 = run_pooled(&g8, &cfg(), &m, &opts).total_cycles();
        let c16 = run_pooled(&g16, &cfg(), &m, &opts).total_cycles();
        let period = c16 - c8; // 8 extra loops
        let t = analytical::loop_timing(&g8, &cfg(), &m, 64);
        assert!(period <= 8 * (t.t_nn + t.t_vsa + t.t_simd));
        assert!(period >= 8 * t.t_loop.min(t.t_nn.max(t.t_vsa)));
    }

    #[test]
    fn gantt_text_lists_every_instance_in_start_order() {
        let g = graph(2);
        let s = run_pooled(
            &g,
            &cfg(),
            &Mapping::uniform(1, 1, 3, 1),
            &SimOptions::default(),
        );
        let text = s.to_gantt_text(&g);
        assert_eq!(text.lines().count(), g.trace().ops().len() * 2);
        assert!(text.contains("conv"));
        assert!(text.contains("bind"));
        // Start cycles are non-decreasing down the page.
        let starts: Vec<u64> = text
            .lines()
            .map(|l| {
                let nums = l.split('|').nth(2).unwrap();
                nums.trim()
                    .split("..")
                    .next()
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ops_are_in_strict_start_loop_op_order() {
        for (loops, mapping) in [
            (1, Mapping::uniform(1, 1, 3, 1)),
            (6, Mapping::uniform(1, 1, 2, 2)),
            (8, Mapping::sequential(1, 1, 4)),
        ] {
            let s = run_pooled(&graph(loops), &cfg(), &mapping, &SimOptions::default());
            let key = |so: &ScheduledOp| (so.start, so.loop_idx, so.op.index());
            assert!(s.ops().windows(2).all(|w| key(&w[0]) < key(&w[1])));
        }
    }

    #[test]
    fn pooled_capacity_is_never_exceeded() {
        let g = graph(6);
        let cfg = cfg();
        let m = Mapping::uniform(1, 1, 3, 2);
        let s = run_pooled(&g, &cfg, &m, &SimOptions::default());
        // Sweep events: at any time, claimed sub-arrays ≤ pool.
        let mut events: Vec<(u64, i64)> = Vec::new();
        for so in s.ops() {
            let demand = match g.trace().op(so.op).kind() {
                OpKind::Gemm { .. } => 3i64,
                OpKind::VsaConv { .. } => 2i64,
                _ => 0,
            };
            if demand > 0 {
                events.push((so.start, demand));
                events.push((so.end, -demand));
            }
        }
        events.sort();
        let mut level = 0i64;
        for (_, delta) in events {
            level += delta;
            assert!(level <= cfg.n_subarrays() as i64, "pool oversubscribed");
        }
    }

    #[test]
    fn pooled_respects_dependencies_and_instance_serialization() {
        let g = graph(4);
        let s = run_pooled(
            &g,
            &cfg(),
            &Mapping::uniform(1, 1, 2, 1),
            &SimOptions::default(),
        );
        let mut end: std::collections::HashMap<(usize, usize), u64> =
            std::collections::HashMap::new();
        for so in s.ops() {
            end.insert((so.loop_idx, so.op.index()), so.end);
        }
        for so in s.ops() {
            for dep in g.trace().op(so.op).inputs() {
                assert!(so.start >= end[&(so.loop_idx, dep.index())]);
            }
            if so.loop_idx > 0 {
                assert!(
                    so.start >= end[&(so.loop_idx - 1, so.op.index())],
                    "instance serialization violated"
                );
            }
        }
    }

    #[test]
    fn pooled_utilization_uses_pool_denominator() {
        let g = graph(4);
        let s = run_pooled(
            &g,
            &cfg(),
            &Mapping::uniform(1, 1, 3, 1),
            &SimOptions::default(),
        );
        let u = s.array_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn transfer_stalls_increase_latency() {
        let g = graph(1);
        let m = Mapping::uniform(1, 1, 3, 1);
        let fast = SimOptions {
            simd_lanes: 64,
            transfer: None,
        };
        let slow = SimOptions {
            simd_lanes: 64,
            transfer: Some(TransferModel::new(0.25)), // 1 byte per 4 cycles
        };
        let c_fast = run_pooled(&g, &cfg(), &m, &fast).total_cycles();
        let c_slow = run_pooled(&g, &cfg(), &m, &slow).total_cycles();
        assert!(c_slow > c_fast, "{c_slow} !> {c_fast}");
    }

    #[test]
    fn utilization_and_seconds() {
        let g = graph(4);
        let s = run_pooled(
            &g,
            &cfg(),
            &Mapping::uniform(1, 1, 3, 1),
            &SimOptions::default(),
        );
        let u = s.array_utilization();
        assert!(u > 0.0 && u <= 1.0);
        let secs = s.seconds_at(272.0e6);
        assert!(secs > 0.0);
    }
}
