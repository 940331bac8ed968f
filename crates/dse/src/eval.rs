//! The shared DSE evaluation engine: memoized per-node cycle tables.
//!
//! # Why this exists
//!
//! Every design point the DSE visits needs a [`LoopTiming`]. The direct
//! route — [`analytical::loop_timing`] — re-walks the whole dataflow
//! trace per point: eq. (1) per NN node, eqs. (3)+(4) per VSA node, and a
//! full op-list scan for the SIMD term. But per-node cycles depend only on
//! the sub-array geometry `(H, W)` and the node's *assigned* count — never
//! on the total sub-array count `N` or on the other nodes' assignments —
//! and the SIMD term depends on nothing but the trace. So the engine:
//!
//! 1. computes `t_simd` **once** per sweep ([`EvalEngine::t_simd`]),
//! 2. builds, per `(H, W)`, a [`CycleTable`] of node cycles for every
//!    assignment `1..=a_max` — one trace walk amortized over the entire
//!    `(N, N̄_l)` sweep of that geometry,
//! 3. answers uniform-split and sequential-mode timings in O(1) via
//!    per-assignment totals, and arbitrary per-node mappings in O(nodes)
//!    table lookups ([`CycleTable::mapping_timing`]).
//!
//! The seeded equivalence tests in
//! `crates/dse/tests/parallel_equivalence.rs` pin every engine-backed
//! search against the serial reference implementations bit for bit.

use std::time::Duration;

use nsflow_telemetry as telemetry;

use nsflow_arch::analytical::LoopTiming;
use nsflow_arch::{analytical, ArrayConfig, Mapping};
use nsflow_graph::DataflowGraph;

/// Observability counters for one sweep, threaded through every search
/// result so memoization speedups are measurable rather than assumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Design points whose timing was evaluated.
    pub points_evaluated: usize,
    /// Point evaluations answered from an already-built cycle table
    /// (the first evaluation after each table build is the miss).
    pub cache_hits: usize,
    /// Cycle tables constructed (one per `(H, W)` geometry visited).
    pub tables_built: usize,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
}

impl SweepStats {
    /// Merges counters from a sub-sweep (wall times add).
    pub fn absorb(&mut self, other: &SweepStats) {
        self.points_evaluated += other.points_evaluated;
        self.cache_hits += other.cache_hits;
        self.tables_built += other.tables_built;
        self.wall += other.wall;
    }

    /// Evaluation throughput in points per second (0 when the wall clock
    /// is too coarse to measure).
    #[must_use]
    pub fn points_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.points_evaluated as f64 / secs
        } else {
            0.0
        }
    }
}

/// Publishes a finished sweep's [`SweepStats`] into the global telemetry
/// registry (counters `dse.points_evaluated` / `dse.cache_hits`,
/// histogram `dse.sweep_wall_us`). Tables built are
/// counted directly in [`EvalEngine::build_table`] so ad-hoc engine use
/// is visible too.
pub(crate) fn record_sweep_stats(stats: &SweepStats) {
    telemetry::counter!("dse.points_evaluated").add(stats.points_evaluated as u64);
    telemetry::counter!("dse.cache_hits").add(stats.cache_hits as u64);
    telemetry::histogram!("dse.sweep_wall_us")
        .record(u64::try_from(stats.wall.as_micros()).unwrap_or(u64::MAX));
}

/// Per-`(H, W)` memo: cycles of every array-class node for every possible
/// sub-array assignment `1..=a_max`, plus per-assignment totals so the
/// uniform-split sweep is O(1) per point.
#[derive(Debug, Clone)]
pub(crate) struct CycleTable {
    a_max: usize,
    /// `nn_node[i * a_max + (a-1)]` = eq. (1) cycles of NN node `i` on
    /// `a` sub-arrays.
    nn_node: Vec<u64>,
    /// Eq. (3) per VSA node and assignment, same layout.
    vsa_spat_node: Vec<u64>,
    /// Eq. (4) per VSA node and assignment, same layout.
    vsa_temp_node: Vec<u64>,
    /// `nn_total[a-1]` = Σ_i `nn_node[i][a]` — eq. (2) under a uniform
    /// split `N̄_l = a`.
    nn_total: Vec<u64>,
    vsa_spat_total: Vec<u64>,
    vsa_temp_total: Vec<u64>,
    t_simd: u64,
}

impl CycleTable {
    /// Eq. (1) cycles of NN node `i` under `a` sub-arrays (table lookup).
    ///
    /// # Panics
    ///
    /// Panics if `a` is 0 or exceeds the tabulated `a_max`.
    #[must_use]
    pub(crate) fn nn_node_cycles(&self, i: usize, a: usize) -> u64 {
        assert!(
            a >= 1 && a <= self.a_max,
            "assignment {a} outside 1..={}",
            self.a_max
        );
        self.nn_node[i * self.a_max + (a - 1)]
    }

    /// `(spatial, temporal)` cycles of VSA node `j` under `a` sub-arrays.
    ///
    /// # Panics
    ///
    /// Panics if `a` is 0 or exceeds the tabulated `a_max`.
    #[must_use]
    pub fn vsa_node_cycles(&self, j: usize, a: usize) -> (u64, u64) {
        assert!(
            a >= 1 && a <= self.a_max,
            "assignment {a} outside 1..={}",
            self.a_max
        );
        let idx = j * self.a_max + (a - 1);
        (self.vsa_spat_node[idx], self.vsa_temp_node[idx])
    }

    /// Timing of a uniform parallel split (`N̄_l = nl`, `N̄_v = nv`) — two
    /// table lookups, no trace walk.
    #[must_use]
    pub(crate) fn uniform_timing(&self, nl: usize, nv: usize) -> LoopTiming {
        let t_nn = self.nn_total[nl - 1];
        let t_vsa = self.vsa_spat_total[nv - 1].min(self.vsa_temp_total[nv - 1]);
        LoopTiming {
            t_nn,
            t_vsa,
            t_simd: self.t_simd,
            t_loop: t_nn.max(t_vsa).max(self.t_simd),
            parallel: true,
        }
    }

    /// Timing of sequential (whole-array, time-shared) mode on `n`
    /// sub-arrays — two table lookups.
    #[must_use]
    pub(crate) fn sequential_timing(&self, n: usize) -> LoopTiming {
        let t_nn = self.nn_total[n - 1];
        let t_vsa = self.vsa_spat_total[n - 1].min(self.vsa_temp_total[n - 1]);
        LoopTiming {
            t_nn,
            t_vsa,
            t_simd: self.t_simd,
            t_loop: (t_nn + t_vsa).max(self.t_simd),
            parallel: false,
        }
    }

    /// Timing of an arbitrary per-node mapping — O(nodes) table lookups
    /// instead of recomputing eqs. (1)/(3)/(4) per node. Produces values
    /// identical to [`analytical::loop_timing`].
    ///
    /// # Panics
    ///
    /// Panics if the mapping's lengths do not match the tabulated node
    /// counts or any assignment exceeds the tabulated `a_max`.
    #[must_use]
    pub(crate) fn mapping_timing(&self, mapping: &Mapping) -> LoopTiming {
        debug_assert_eq!(
            mapping.n_l.len() * self.a_max,
            self.nn_node.len(),
            "NN length"
        );
        debug_assert_eq!(
            mapping.n_v.len() * self.a_max,
            self.vsa_spat_node.len(),
            "VSA length"
        );
        let mut t_nn = 0u64;
        for (i, &a) in mapping.n_l.iter().enumerate() {
            t_nn += self.nn_node_cycles(i, a);
        }
        let mut sum_spatial = 0u64;
        let mut sum_temporal = 0u64;
        for (j, &a) in mapping.n_v.iter().enumerate() {
            let (s, t) = self.vsa_node_cycles(j, a);
            sum_spatial += s;
            sum_temporal += t;
        }
        let t_vsa = sum_spatial.min(sum_temporal);
        let t_loop = if mapping.parallel {
            t_nn.max(t_vsa).max(self.t_simd)
        } else {
            (t_nn + t_vsa).max(self.t_simd)
        };
        LoopTiming {
            t_nn,
            t_vsa,
            t_simd: self.t_simd,
            t_loop,
            parallel: mapping.parallel,
        }
    }
}

/// The shared evaluation engine: caches the graph's array-node dimensions
/// and the mapping-independent SIMD term, and builds [`CycleTable`]s for
/// the geometries a sweep visits.
#[derive(Debug)]
pub(crate) struct EvalEngine {
    /// `(m, n, k)` of each NN node, in `nn_nodes()` order (`None` for a
    /// node that never runs on the array).
    nn_dims: Vec<Option<(usize, usize, usize)>>,
    /// `(n_vec, dim)` of each VSA node, in `vsa_nodes()` order.
    vsa_dims: Vec<Option<(usize, usize)>>,
    t_simd: u64,
}

impl EvalEngine {
    /// Walks the trace once, caching node dimensions and the SIMD term.
    #[must_use]
    pub fn new(graph: &DataflowGraph, simd_lanes: usize) -> Self {
        let trace = graph.trace();
        let nn_dims = trace
            .nn_nodes()
            .iter()
            .map(|id| match *trace.op(*id).kind() {
                nsflow_trace::OpKind::Gemm { m, n, k } => Some((m, n, k)),
                _ => None,
            })
            .collect();
        let vsa_dims = trace
            .vsa_nodes()
            .iter()
            .map(|id| match *trace.op(*id).kind() {
                nsflow_trace::OpKind::VsaConv { n_vec, dim } => Some((n_vec, dim)),
                _ => None,
            })
            .collect();
        EvalEngine {
            nn_dims,
            vsa_dims,
            t_simd: analytical::simd_loop_cycles(graph, simd_lanes),
        }
    }

    /// Builds the cycle table for an `(H, W)` geometry covering
    /// assignments `1..=a_max`. Cost: one eq-(1)/(3)/(4) evaluation per
    /// node per assignment — after which every design point of this
    /// geometry is a table lookup.
    ///
    /// # Panics
    ///
    /// Panics if `height`, `width` or `a_max` is zero.
    #[must_use]
    pub(crate) fn build_table(&self, height: usize, width: usize, a_max: usize) -> CycleTable {
        assert!(a_max >= 1, "a_max must be at least 1");
        telemetry::counter!("dse.tables_built").incr();
        let cfg = ArrayConfig::new(height, width, 1).expect("nonzero geometry");
        let nn_n = self.nn_dims.len();
        let vsa_n = self.vsa_dims.len();
        let mut nn_node = vec![0u64; nn_n * a_max];
        let mut vsa_spat_node = vec![0u64; vsa_n * a_max];
        let mut vsa_temp_node = vec![0u64; vsa_n * a_max];
        let mut nn_total = vec![0u64; a_max];
        let mut vsa_spat_total = vec![0u64; a_max];
        let mut vsa_temp_total = vec![0u64; a_max];

        for (i, dims) in self.nn_dims.iter().enumerate() {
            if let Some((m, n, k)) = *dims {
                for a in 1..=a_max {
                    let c = analytical::nn_layer_cycles(&cfg, a, m, n, k);
                    nn_node[i * a_max + (a - 1)] = c;
                    nn_total[a - 1] += c;
                }
            }
        }
        for (j, dims) in self.vsa_dims.iter().enumerate() {
            if let Some((n_vec, d)) = *dims {
                for a in 1..=a_max {
                    let s = analytical::vsa_spatial_cycles(&cfg, a, n_vec, d);
                    let t = analytical::vsa_temporal_cycles(&cfg, a, n_vec, d);
                    vsa_spat_node[j * a_max + (a - 1)] = s;
                    vsa_temp_node[j * a_max + (a - 1)] = t;
                    vsa_spat_total[a - 1] += s;
                    vsa_temp_total[a - 1] += t;
                }
            }
        }
        CycleTable {
            a_max,
            nn_node,
            vsa_spat_node,
            vsa_temp_node,
            nn_total,
            vsa_spat_total,
            vsa_temp_total,
            t_simd: self.t_simd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, EltFunc, OpKind, TraceBuilder};

    fn mixed_graph() -> DataflowGraph {
        let mut b = TraceBuilder::new("mixed");
        let c1 = b.push(
            "conv1",
            OpKind::Gemm {
                m: 900,
                n: 96,
                k: 160,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let r = b.push(
            "relu",
            OpKind::Elementwise {
                elems: 900 * 96,
                func: EltFunc::Relu,
            },
            Domain::Neural,
            DType::Int8,
            &[c1],
        );
        let c2 = b.push(
            "conv2",
            OpKind::Gemm {
                m: 300,
                n: 160,
                k: 288,
            },
            Domain::Neural,
            DType::Int8,
            &[r],
        );
        let v1 = b.push(
            "bind",
            OpKind::VsaConv {
                n_vec: 24,
                dim: 768,
            },
            Domain::Symbolic,
            DType::Int4,
            &[c2],
        );
        let _v2 = b.push(
            "probe",
            OpKind::VsaConv {
                n_vec: 8,
                dim: 1536,
            },
            Domain::Symbolic,
            DType::Int4,
            &[v1],
        );
        DataflowGraph::from_trace(b.finish(4).unwrap())
    }

    /// The load-bearing property: table construction reproduces
    /// `loop_timing` node-by-node and in every aggregate, for uniform,
    /// sequential and arbitrary per-node mappings.
    #[test]
    fn table_matches_loop_timing_node_by_node() {
        let g = mixed_graph();
        let engine = EvalEngine::new(&g, 64);
        let trace = g.trace();
        let nn = trace.nn_nodes();
        let vsa = trace.vsa_nodes();
        for (h, w) in [(4, 16), (16, 16), (32, 8)] {
            let a_max = 8;
            let table = engine.build_table(h, w, a_max);
            let cfg = ArrayConfig::new(h, w, a_max).unwrap();
            for a in 1..=a_max {
                // Node-by-node agreement with the direct equations.
                for (i, id) in nn.iter().enumerate() {
                    let direct =
                        analytical::nn_op_cycles(&cfg, a, trace.op(*id).kind()).unwrap_or(0);
                    assert_eq!(table.nn_node_cycles(i, a), direct, "nn node {i} a={a}");
                }
                for (j, id) in vsa.iter().enumerate() {
                    let direct = analytical::vsa_op_cycle_pair(&cfg, a, trace.op(*id).kind())
                        .unwrap_or((0, 0));
                    assert_eq!(table.vsa_node_cycles(j, a), direct, "vsa node {j} a={a}");
                }
                // Aggregate agreement for whole mappings.
                if a < a_max {
                    let m = Mapping::uniform(nn.len(), vsa.len(), a, a_max - a);
                    assert_eq!(
                        table.uniform_timing(a, a_max - a),
                        analytical::loop_timing(&g, &cfg, &m, 64)
                    );
                    assert_eq!(
                        table.mapping_timing(&m),
                        analytical::loop_timing(&g, &cfg, &m, 64)
                    );
                }
                let seq = Mapping::sequential(nn.len(), vsa.len(), a);
                assert_eq!(
                    table.sequential_timing(a),
                    analytical::loop_timing(&g, &cfg, &seq, 64)
                );
            }
            // A deliberately lopsided per-node mapping.
            let m = Mapping {
                n_l: vec![5, 2],
                n_v: vec![1, 3],
                parallel: true,
            };
            assert_eq!(
                table.mapping_timing(&m),
                analytical::loop_timing(&g, &cfg, &m, 64)
            );
        }
    }

    #[test]
    fn t_simd_is_mapping_independent_and_cached() {
        let g = mixed_graph();
        let engine = EvalEngine::new(&g, 64);
        assert_eq!(engine.t_simd, analytical::simd_loop_cycles(&g, 64));
        let table = engine.build_table(16, 16, 4);
        assert_eq!(table.uniform_timing(1, 3).t_simd, engine.t_simd);
        assert_eq!(table.sequential_timing(4).t_simd, engine.t_simd);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = SweepStats {
            points_evaluated: 10,
            cache_hits: 8,
            tables_built: 2,
            wall: Duration::from_millis(5),
        };
        let b = SweepStats {
            points_evaluated: 3,
            cache_hits: 2,
            tables_built: 1,
            wall: Duration::from_millis(2),
        };
        a.absorb(&b);
        assert_eq!(a.points_evaluated, 13);
        assert_eq!(a.cache_hits, 10);
        assert_eq!(a.tables_built, 3);
        assert_eq!(a.wall, Duration::from_millis(7));
    }
}
